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
    out: list[Literal] = []

    def walk(node: FormulaNode) -> None:
        if isinstance(node, Literal):
            out.append(node)
        elif isinstance(node, (Negation, Group)):
            walk(node.child)
        else:
            walk(node.left)
            walk(node.right)

    walk(rule.body)
    return out


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


def bound_variables(rule: FolRule) -> list[str]:
    return [v for _, v in rule.prefix]


def free_variables(rule: FolRule) -> list[str]:
    """Variables used as literal arguments but not bound in the prefix."""
    bound = set(bound_variables(rule))
    seen: set[str] = set()
    out: list[str] = []
    for lit in literal_occurrences(rule):
        for arg in lit.args:
            if is_variable(arg) and arg not in bound and arg not in seen:
                seen.add(arg)
                out.append(arg)
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


def get_node(rule: FolRule, loc: Location) -> FormulaNode:
    if not loc or loc[0] != "body":
        raise InvalidLocation(f"not a body location: {loc!r}")
    node: FormulaNode = rule.body
    for idx in loc[1:]:
        kids = _children(node)
        if idx >= len(kids):
            raise InvalidLocation(f"no child {idx} at {loc!r}")
        node = kids[idx]
    return node


def replace_node(rule: FolRule, loc: Location, new: FormulaNode) -> FolRule:
    if not loc or loc[0] != "body":
        raise InvalidLocation(f"not a body location: {loc!r}")

    def rebuild(node: FormulaNode, path: tuple) -> FormulaNode:
        if not path:
            return new
        idx = path[0]
        if isinstance(node, Negation) and idx == 0:
            return Negation(rebuild(node.child, path[1:]))
        if isinstance(node, Group) and idx == 0:
            return Group(rebuild(node.child, path[1:]))
        if isinstance(node, BinaryOp) and idx in (0, 1):
            if idx == 0:
                return BinaryOp(node.op, rebuild(node.left, path[1:]), node.right)
            return BinaryOp(node.op, node.left, rebuild(node.right, path[1:]))
        raise InvalidLocation(f"no child {idx} under {node!r}")

    return FolRule(rule.prefix, rebuild(rule.body, tuple(loc[1:])))


def iter_locations(rule: FolRule) -> Iterator[tuple[Location, FormulaNode]]:
    """All body locations in pre-order, root first."""

    def walk(node: FormulaNode, path: tuple) -> Iterator[tuple[Location, FormulaNode]]:
        yield ("body",) + path, node
        for i, child in enumerate(_children(node)):
            yield from walk(child, path + (i,))

    yield from walk(rule.body, ())
