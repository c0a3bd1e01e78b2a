"""The perturbation engine's `_apply` as it was before it descended once, kept as a reference.

A read-only oracle for the differential test in test_perturb.py: one branch per
edit kind, each of which finds its node with ``get_node`` and rebuilds the rule
with ``replace_node``, so each body edit descends the tree twice. It shares the
AST types, the navigation functions, the error classes and the cached parse of
an inserted formula with the package, so any difference in the rule it returns,
or in the type or message of what it raises, shows.
"""

from __future__ import annotations

from folkit.fol import (
    BinaryOp,
    FolRule,
    InvalidLocation,
    Literal,
    Negation,
    get_node,
    node_text,
)
from folkit.perturb import EditStep, WouldProduceInvalid, _is_prefix_loc, _parse_subformula

from helpers import replace_node


def _apply(rule: FolRule, step: EditStep) -> FolRule:
    kind, loc, pl = step.kind, step.loc, step.payload

    if kind == "change_predicate":
        node = get_node(rule, loc)
        if not isinstance(node, Literal) or node.predicate != pl["old"]:
            raise InvalidLocation(f"no literal {pl['old']!r} at {loc!r}")
        return replace_node(rule, loc, Literal(pl["new"], node.args, node.negated))

    if kind == "change_term":
        if _is_prefix_loc(loc):
            i = loc[1]
            if i >= len(rule.prefix) or rule.prefix[i][1] != pl["old"]:
                raise InvalidLocation(f"no quantified variable {pl['old']!r} at {loc!r}")
            if any(v == pl["new"] for _, v in rule.prefix):
                raise WouldProduceInvalid(f"variable {pl['new']!r} already quantified")
            prefix = list(rule.prefix)
            prefix[i] = (prefix[i][0], pl["new"])
            return FolRule(tuple(prefix), rule.body)
        node = get_node(rule, loc)
        k = pl["index"]
        if not isinstance(node, Literal) or k >= len(node.args) or node.args[k] != pl["old"]:
            raise InvalidLocation(f"no term {pl['old']!r} at {loc!r}[{k}]")
        args = list(node.args)
        args[k] = pl["new"]
        return replace_node(rule, loc, Literal(node.predicate, tuple(args), node.negated))

    if kind == "change_operator":
        node = get_node(rule, loc)
        if not isinstance(node, BinaryOp) or node.op != pl["old"]:
            raise InvalidLocation(f"no operator {pl['old']!r} at {loc!r}")
        return replace_node(rule, loc, BinaryOp(pl["new"], node.left, node.right))

    if kind == "insert_term":
        if _is_prefix_loc(loc):
            i = loc[1]
            if i > len(rule.prefix):
                raise InvalidLocation(f"prefix position {i} out of range")
            if any(v == pl["var"] for _, v in rule.prefix):
                raise WouldProduceInvalid(f"variable {pl['var']!r} already quantified")
            prefix = list(rule.prefix)
            prefix.insert(i, (pl["quant"], pl["var"]))
            return FolRule(tuple(prefix), rule.body)
        node = get_node(rule, loc)
        k = pl["index"]
        if not isinstance(node, Literal) or k > len(node.args):
            raise InvalidLocation(f"cannot insert term at {loc!r}[{k}]")
        args = list(node.args)
        args.insert(k, pl["term"])
        return replace_node(rule, loc, Literal(node.predicate, tuple(args), node.negated))

    if kind == "delete_term":
        if _is_prefix_loc(loc):
            i = loc[1]
            if i >= len(rule.prefix) or rule.prefix[i] != (pl["quant"], pl["var"]):
                raise InvalidLocation(f"no quantifier {pl['quant']}{pl['var']} at position {i}")
            prefix = list(rule.prefix)
            del prefix[i]
            return FolRule(tuple(prefix), rule.body)
        node = get_node(rule, loc)
        k = pl["index"]
        if not isinstance(node, Literal) or k >= len(node.args) or node.args[k] != pl["term"]:
            raise InvalidLocation(f"no term {pl['term']!r} at {loc!r}[{k}]")
        if len(node.args) == 1:
            raise WouldProduceInvalid("cannot delete the last term of a literal")
        args = list(node.args)
        del args[k]
        return replace_node(rule, loc, Literal(node.predicate, tuple(args), node.negated))

    if kind == "insert_negation":
        node = get_node(rule, loc)
        if pl.get("mode") == "flag":
            if not isinstance(node, Literal) or node.negated:
                raise InvalidLocation(f"no positive literal at {loc!r}")
            return replace_node(rule, loc, Literal(node.predicate, node.args, True))
        return replace_node(rule, loc, Negation(node))

    if kind == "delete_negation":
        node = get_node(rule, loc)
        if pl.get("mode") == "flag":
            if not isinstance(node, Literal) or not node.negated:
                raise InvalidLocation(f"no negated literal at {loc!r}")
            return replace_node(rule, loc, Literal(node.predicate, node.args, False))
        if not isinstance(node, Negation):
            raise InvalidLocation(f"no negation at {loc!r}")
        return replace_node(rule, loc, node.child)

    if kind == "insert_formula":
        node = get_node(rule, loc)
        sub = _parse_subformula(pl["formula"])
        if pl["side"] == "right":
            return replace_node(rule, loc, BinaryOp(pl["op"], node, sub))
        return replace_node(rule, loc, BinaryOp(pl["op"], sub, node))

    if kind == "delete_formula":
        node = get_node(rule, loc)
        if not isinstance(node, BinaryOp) or node.op != pl["op"]:
            raise InvalidLocation(f"no operator {pl['op']!r} at {loc!r}")
        doomed, kept = (node.right, node.left) if pl["side"] == "right" else (node.left, node.right)
        if node_text(doomed) != pl["formula"]:
            raise InvalidLocation(f"formula at {loc!r} does not match {pl['formula']!r}")
        return replace_node(rule, loc, kept)

    raise ValueError(f"unknown edit kind {step.kind!r}")
