"""AST types for the FOL dialect, canonical printing, and tree navigation.

A rule is a (possibly empty) quantifier prefix followed by a formula body.
Internal nodes are binary operators, negations, and explicit groups
(parentheses present in the source); leaves are literals.  All nodes are
immutable, so rules can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

FORALL = "∀"
EXISTS = "∃"
NOT = "¬"
AND = "∧"
OR = "∨"
IMPLIES = "→"
IFF = "↔"
XOR = "⊕"

QUANTIFIERS = (FORALL, EXISTS)
BINARY_OPS = (XOR, OR, AND, IMPLIES, IFF)


@dataclass(frozen=True)
class Literal:
    """A (possibly negated) predicate applied to one or more terms."""

    predicate: str
    args: tuple[str, ...]
    negated: bool = False


@dataclass(frozen=True)
class Negation:
    """Negation of a parenthesized subformula: ¬( child )."""

    child: "FormulaNode"


@dataclass(frozen=True)
class Group:
    """Explicit parentheses from the source text: ( child )."""

    child: "FormulaNode"


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: "FormulaNode"
    right: "FormulaNode"


FormulaNode = Union[Literal, Negation, Group, BinaryOp]


@dataclass(frozen=True)
class FolRule:
    """One FOL formula: quantifier prefix + body tree."""

    prefix: tuple[tuple[str, str], ...]  # (quantifier, variable) pairs
    body: FormulaNode


@dataclass(frozen=True)
class Atom:
    """Positive form of a literal occurrence; the unit of truth-table binding."""

    predicate: str
    args: tuple[str, ...]

    @property
    def canonical_text(self) -> str:
        return f"{self.predicate}({', '.join(self.args)})"


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


def atoms(rule: FolRule) -> list[Atom]:
    """Distinct positive literal forms in first-occurrence order."""
    seen: set[str] = set()
    out: list[Atom] = []
    for lit in literal_occurrences(rule):
        atom = Atom(lit.predicate, lit.args)
        if atom.canonical_text not in seen:
            seen.add(atom.canonical_text)
            out.append(atom)
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
# a child (0 = left/only child, 1 = right).

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


def replace_node(rule: FolRule, loc: Location, new: FormulaNode) -> FolRule:
    """A copy of the rule with the node at loc replaced; its ancestors are rebuilt."""
    spine = _spine(rule, loc)
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
