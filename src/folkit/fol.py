"""AST types for the FOL dialect, canonical printing, and tree navigation.

A rule is a (possibly empty) quantifier prefix followed by a formula body.
Internal nodes are binary operators, negations, and explicit groups
(parentheses present in the source); leaves are literals.  All nodes are
immutable, so rules can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from typing import Iterator, Union

FORALL = "∀"
EXISTS = "∃"
NOT = "¬"
AND = "∧"
OR = "∨"
IMPLIES = "→"
IFF = "↔"
XOR = "⊕"

NO_CHANGES = "No changes needed"  # the correction text that leaves a rule as it is

QUANTIFIERS = (FORALL, EXISTS)
BINARY_OPS = (XOR, OR, AND, IMPLIES, IFF)


class FrozenSlots:
    """A frozen value with a frozen dataclass's ``==``, ``hash``, ``repr``,
    pickling and copies. Its fields are its ``__slots__`` but ``__weakref__``,
    and each subclass ``__init__`` sets them through the slot descriptors'
    ``__set__`` (``slot_setters``), which is cheaper than ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(name for name in cls.__slots__ if name != "__weakref__")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


def slot_setters(cls: type) -> tuple:
    """The slot descriptors' ``__set__`` of each field of ``cls``, in order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__match_args__)


class Literal(FrozenSlots):
    """A (possibly negated) predicate applied to one or more terms."""

    __slots__ = ("predicate", "args", "negated")

    def __init__(self, predicate: str, args: tuple[str, ...], negated: bool = False):
        _set_predicate(self, predicate)
        _set_args(self, args)
        _set_negated(self, negated)


class Negation(FrozenSlots):
    """Negation of a parenthesized subformula: ¬( child )."""

    __slots__ = ("child",)

    def __init__(self, child: FormulaNode):
        _set_negation_child(self, child)


class Group(FrozenSlots):
    """Explicit parentheses from the source text: ( child )."""

    __slots__ = ("child",)

    def __init__(self, child: FormulaNode):
        _set_group_child(self, child)


class BinaryOp(FrozenSlots):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: FormulaNode, right: FormulaNode):
        _set_op(self, op)
        _set_left(self, left)
        _set_right(self, right)


FormulaNode = Union[Literal, Negation, Group, BinaryOp]


class FolRule(FrozenSlots):
    """One FOL formula: a prefix of (quantifier, variable) pairs + body tree."""

    __slots__ = ("prefix", "body", "__weakref__")

    def __init__(self, prefix: tuple[tuple[str, str], ...], body: FormulaNode):
        _set_prefix(self, prefix)
        _set_body(self, body)


_set_predicate, _set_args, _set_negated = slot_setters(Literal)
(_set_negation_child,) = slot_setters(Negation)
(_set_group_child,) = slot_setters(Group)
_set_op, _set_left, _set_right = slot_setters(BinaryOp)
_set_prefix, _set_body = slot_setters(FolRule)


def is_variable(name: str) -> bool:
    """Lexical convention: lowercase identifiers are variables, the rest constants."""
    return bool(name) and name[0].islower()


_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def camel_words(name: str) -> list[str]:
    """Split a CamelCase or snake_case identifier into lowercase words."""
    return [w.lower() for w in _CAMEL_RE.findall(name)]


# ---------------------------------------------------------------------------
# canonical printing


def node_text(node: FormulaNode) -> str:
    if isinstance(node, Literal):
        inner = f"{node.predicate}({', '.join(node.args)})"
        return NOT + inner if node.negated else inner
    if isinstance(node, Negation):
        return f"{NOT}({node_text(node.child)})"
    if isinstance(node, Group):
        return f"({node_text(node.child)})"
    if isinstance(node, BinaryOp):
        return f"{node_text(node.left)} {node.op} {node_text(node.right)}"
    raise TypeError(f"not a formula node: {node!r}")


def print_canonical(rule: FolRule) -> str:
    """Deterministic Unicode rendering; parse(print_canonical(r)) == r."""
    prefix = " ".join(f"{q}{v}" for q, v in rule.prefix)
    body = node_text(rule.body)
    return f"{prefix} {body}" if prefix else body


# ---------------------------------------------------------------------------
# traversal


def literal_occurrences(rule: FolRule) -> list[Literal]:
    """All literal leaves, left to right, duplicates kept."""
    return [node for _, node in iter_locations(rule) if isinstance(node, Literal)]


def atoms(rule: FolRule) -> list[Literal]:
    """The distinct atoms, the positive forms of the literals, in first-occurrence
    order; the unit of truth-table binding. A positive literal is its own atom."""
    seen: set[tuple] = set()
    out: list[Literal] = []
    for lit in literal_occurrences(rule):
        if (lit.predicate, lit.args) not in seen:
            seen.add((lit.predicate, lit.args))
            out.append(Literal(lit.predicate, lit.args) if lit.negated else lit)
    return out


def tokens(rule: FolRule) -> list[str]:
    """Leaves of the parse tree in pre-order, including parentheses and commas."""
    out: list[str] = []
    for q, v in rule.prefix:
        out.append(q)
        out.append(v)

    def walk(node: FormulaNode) -> None:
        if isinstance(node, Literal):
            if node.negated:
                out.append(NOT)
            out.append(node.predicate)
            out.append("(")
            for i, arg in enumerate(node.args):
                if i:
                    out.append(",")
                out.append(arg)
            out.append(")")
        elif isinstance(node, Negation):
            out.extend([NOT, "("])
            walk(node.child)
            out.append(")")
        elif isinstance(node, Group):
            out.append("(")
            walk(node.child)
            out.append(")")
        else:
            walk(node.left)
            out.append(node.op)
            walk(node.right)

    walk(rule.body)
    return out


# ---------------------------------------------------------------------------
# path-addressed navigation (used by the perturbation engine)
#
# A location is a tuple: ("prefix", i) addresses the i-th quantifier,
# ("body", i0, i1, ...) descends from the body root, where each index selects
# a child (0 = left/only child, 1 = right). _spine descends to a body location
# once, and an edit rebuilds the ancestors from that spine (_rebuild).

Location = tuple


class InvalidLocation(Exception):
    pass


def _children(node: FormulaNode) -> tuple[FormulaNode, ...]:
    if isinstance(node, (Negation, Group)):
        return (node.child,)
    if isinstance(node, BinaryOp):
        return (node.left, node.right)
    return ()


def _spine(rule: FolRule, loc: Location) -> list[FormulaNode]:
    """The nodes from the body root down to the node at loc, both included."""
    if not loc or loc[0] != "body":
        raise InvalidLocation(f"not a body location: {loc!r}")
    node: FormulaNode = rule.body
    spine = [node]
    for idx in loc[1:]:
        kids = _children(node)
        if not isinstance(idx, int) or not 0 <= idx < len(kids):
            raise InvalidLocation(f"no child {idx!r} at {loc!r}")
        node = kids[idx]
        spine.append(node)
    return spine


def get_node(rule: FolRule, loc: Location) -> FormulaNode:
    return _spine(rule, loc)[-1]


def _rebuild(rule: FolRule, loc: Location, spine: list[FormulaNode], new: FormulaNode) -> FolRule:
    """A copy of the rule with the node at loc replaced by new, given spine =
    _spine(rule, loc). Each ancestor is rebuilt with its own type and
    operator, so the spine still tells them."""
    for parent, idx in zip(reversed(spine[:-1]), reversed(loc[1:])):
        if isinstance(parent, BinaryOp):
            new = BinaryOp(parent.op, new, parent.right) if idx == 0 else BinaryOp(parent.op, parent.left, new)
        else:
            new = type(parent)(new)  # Negation or Group
    return FolRule(rule.prefix, new)


def iter_locations(rule: FolRule) -> Iterator[tuple[Location, FormulaNode]]:
    """All body locations in pre-order: root first, left subtree before right."""
    stack: list[tuple[Location, FormulaNode]] = [(("body",), rule.body)]
    while stack:
        loc, node = stack.pop()
        yield loc, node
        if isinstance(node, BinaryOp):
            stack.append((loc + (1,), node.right))
            stack.append((loc + (0,), node.left))
        elif isinstance(node, (Negation, Group)):
            stack.append((loc + (0,), node.child))
