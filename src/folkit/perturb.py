"""Reversible atomic perturbations of FOL rules.

Nine edit kinds (change predicate/term/operator, insert term/negation/formula,
delete term/negation/formula) with stable AST locations and exact inverses.
Every applied edit must leave the rule grammatically valid and print-parse
stable, so a perturbed rule can be serialized and the correction steps
replayed from text.

An edit descends its tree once (fol._spine), turns the node there into a new
one (_edit_node) and rebuilds the ancestors from the same spine; the sampler's
stability check reads the new node and its parent from that descent too.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

from .fol import (
    BINARY_OPS,
    EXISTS,
    FORALL,
    NO_CHANGES,
    QUANTIFIERS,
    BinaryOp,
    FolRule,
    FormulaNode,
    Group,
    InvalidLocation,
    Literal,
    Location,
    Negation,
    _rebuild,
    _spine,
    get_node,
    is_variable,
    iter_locations,
    node_text,
)
from .parser import _STRENGTH, MAX_OPERATORS, _is_name, _nests_bare, parse, roundtrip_stable

__all__ = [
    "EditStep",
    "PerturbConfig",
    "WouldProduceInvalid",
    "apply_step",
    "inverse",
    "sample_perturbation",
    "render_step",
    "render_fix_steps",
    "split_iteration",
    "random_rule",
    "step_to_dict",
    "step_from_dict",
    "NO_CHANGES",
]

CHANGE_KINDS = ("change_predicate", "change_term", "change_operator")
INSERT_KINDS = ("insert_term", "insert_negation", "insert_formula")
DELETE_KINDS = ("delete_term", "delete_negation", "delete_formula")
ALL_KINDS = CHANGE_KINDS + INSERT_KINDS + DELETE_KINDS

_DUAL = {
    "insert_term": "delete_term",
    "delete_term": "insert_term",
    "insert_negation": "delete_negation",
    "delete_negation": "insert_negation",
    "insert_formula": "delete_formula",
    "delete_formula": "insert_formula",
}


class WouldProduceInvalid(Exception):
    """The edit would break the grammar or print-parse stability."""


@dataclass(frozen=True)
class EditStep:
    kind: str
    loc: Location
    payload: dict = field(default_factory=dict)


def inverse(step: EditStep) -> EditStep:
    """The step that undoes this one, addressed in the post-edit tree."""
    if step.kind in CHANGE_KINDS:
        payload = dict(step.payload)
        payload["old"], payload["new"] = payload["new"], payload["old"]
        return EditStep(step.kind, step.loc, payload)
    return EditStep(_DUAL[step.kind], step.loc, dict(step.payload))


def step_to_dict(step: EditStep, text: str | None = None) -> dict:
    d = {"kind": step.kind, "loc": list(step.loc), "payload": dict(step.payload)}
    if text is not None:
        d["text"] = text
    return d


def step_from_dict(d: dict) -> EditStep:
    return EditStep(d["kind"], tuple(d["loc"]), dict(d["payload"]))


# ---------------------------------------------------------------------------
# application


# the sampler inserts few distinct formulas, and trees are immutable, so a
# parsed one is shared
@functools.lru_cache(maxsize=1024)
def _parse_subformula(text: str):
    rule = parse(text)
    if rule.prefix:
        raise WouldProduceInvalid(f"inserted formula may not carry quantifiers: {text!r}")
    return rule.body


def _is_prefix_loc(loc: Location) -> bool:
    return bool(loc) and loc[0] == "prefix"


_TERM_KINDS = ("change_term", "insert_term", "delete_term")  # the kinds that also edit the prefix


def _edit_prefix(rule: FolRule, step: EditStep) -> FolRule:
    """A term kind at ("prefix", i): change, insert or delete a quantified variable."""
    kind, loc, pl = step.kind, step.loc, step.payload
    i, prefix = loc[1], list(rule.prefix)
    if kind == "delete_term":
        if i >= len(prefix) or rule.prefix[i] != (pl["quant"], pl["var"]):
            raise InvalidLocation(f"no quantifier {pl['quant']}{pl['var']} at position {i}")
        del prefix[i]
    else:
        if kind == "change_term" and (i >= len(prefix) or rule.prefix[i][1] != pl["old"]):
            raise InvalidLocation(f"no quantified variable {pl['old']!r} at {loc!r}")
        if kind == "insert_term" and i > len(prefix):
            raise InvalidLocation(f"prefix position {i} out of range")
        key = "new" if kind == "change_term" else "var"
        if any(v == pl[key] for _, v in rule.prefix):
            raise WouldProduceInvalid(f"variable {pl[key]!r} already quantified")
        if kind == "change_term":
            prefix[i] = (prefix[i][0], pl["new"])
        else:
            prefix.insert(i, (pl["quant"], pl["var"]))
    return FolRule(tuple(prefix), rule.body)


def _edit_node(node: FormulaNode, step: EditStep) -> FormulaNode:
    """The node that a body edit puts in place of node, the node at its location."""
    kind, loc, pl = step.kind, step.loc, step.payload
    if kind == "change_predicate":
        if not isinstance(node, Literal) or node.predicate != pl["old"]:
            raise InvalidLocation(f"no literal {pl['old']!r} at {loc!r}")
        return Literal(pl["new"], node.args, node.negated)
    if kind == "change_operator":
        if not isinstance(node, BinaryOp) or node.op != pl["old"]:
            raise InvalidLocation(f"no operator {pl['old']!r} at {loc!r}")
        return BinaryOp(pl["new"], node.left, node.right)
    if kind in _TERM_KINDS:
        k = pl["index"]
        if kind == "change_term":
            if not isinstance(node, Literal) or k >= len(node.args) or node.args[k] != pl["old"]:
                raise InvalidLocation(f"no term {pl['old']!r} at {loc!r}[{k}]")
            args = list(node.args)
            args[k] = pl["new"]
        elif kind == "insert_term":
            if not isinstance(node, Literal) or k > len(node.args):
                raise InvalidLocation(f"cannot insert term at {loc!r}[{k}]")
            args = list(node.args)
            args.insert(k, pl["term"])
        else:
            if not isinstance(node, Literal) or k >= len(node.args) or node.args[k] != pl["term"]:
                raise InvalidLocation(f"no term {pl['term']!r} at {loc!r}[{k}]")
            if len(node.args) == 1:
                raise WouldProduceInvalid("cannot delete the last term of a literal")
            args = list(node.args)
            del args[k]
        return Literal(node.predicate, tuple(args), node.negated)
    if kind == "insert_negation":
        if pl.get("mode") == "flag":
            if not isinstance(node, Literal) or node.negated:
                raise InvalidLocation(f"no positive literal at {loc!r}")
            return Literal(node.predicate, node.args, True)
        return Negation(node)
    if kind == "delete_negation":
        if pl.get("mode") == "flag":
            if not isinstance(node, Literal) or not node.negated:
                raise InvalidLocation(f"no negated literal at {loc!r}")
            return Literal(node.predicate, node.args, False)
        if not isinstance(node, Negation):
            raise InvalidLocation(f"no negation at {loc!r}")
        return node.child
    if kind == "insert_formula":
        sub = _parse_subformula(pl["formula"])
        return BinaryOp(pl["op"], node, sub) if pl["side"] == "right" else BinaryOp(pl["op"], sub, node)
    # delete_formula
    if not isinstance(node, BinaryOp) or node.op != pl["op"]:
        raise InvalidLocation(f"no operator {pl['op']!r} at {loc!r}")
    doomed, kept = (node.right, node.left) if pl["side"] == "right" else (node.left, node.right)
    if node_text(doomed) != pl["formula"]:
        raise InvalidLocation(f"formula at {loc!r} does not match {pl['formula']!r}")
    return kept


def _apply(rule: FolRule, step: EditStep) -> tuple[FolRule, list[FormulaNode] | None, FormulaNode | None]:
    """The rule the step makes, the spine of the old rule down to the step's
    location (fol._spine) and the new node put there. The tree is descended
    once; for a prefix edit the spine and the node are None."""
    if step.kind not in ALL_KINDS:
        raise ValueError(f"unknown edit kind {step.kind!r}")
    if _is_prefix_loc(step.loc) and step.kind in _TERM_KINDS:
        return _edit_prefix(rule, step), None, None
    spine = _spine(rule, step.loc)
    node = _edit_node(spine[-1], step)
    return _rebuild(rule, step.loc, spine, node), spine, node


def apply_step(rule: FolRule, step: EditStep) -> FolRule:
    """Apply one edit, returning a new rule; the input is never mutated."""
    new_rule = _apply(rule, step)[0]
    if not roundtrip_stable(new_rule):
        raise WouldProduceInvalid(
            f"{step.kind} at {step.loc!r} would break print-parse stability"
        )
    return new_rule


# ---------------------------------------------------------------------------
# rendering


def render_step(rule: FolRule, step: EditStep) -> str:
    """Deterministic natural-language form, rendered against the tree the
    step applies to."""
    kind, loc, pl = step.kind, step.loc, step.payload
    if kind == "change_predicate":
        return f"Change the predicate '{pl['old']}' to '{pl['new']}' in '{node_text(get_node(rule, loc))}'"
    if kind == "change_term":
        if _is_prefix_loc(loc):
            q = rule.prefix[loc[1]][0]
            return f"Change the variable '{pl['old']}' to '{pl['new']}' in the quantifier '{q}{pl['old']}'"
        return f"Change the term '{pl['old']}' to '{pl['new']}' in '{node_text(get_node(rule, loc))}'"
    if kind == "change_operator":
        return f"Change the operator '{pl['old']}' to '{pl['new']}' in '{node_text(get_node(rule, loc))}'"
    if kind == "insert_term":
        if _is_prefix_loc(loc):
            return f"Add the quantifier '{pl['quant']}{pl['var']}' to the quantifier prefix"
        return f"Add the term '{pl['term']}' to '{node_text(get_node(rule, loc))}'"
    if kind == "delete_term":
        if _is_prefix_loc(loc):
            return f"Remove the quantifier '{pl['quant']}{pl['var']}' from the quantifier prefix"
        return f"Remove the term '{pl['term']}' from '{node_text(get_node(rule, loc))}'"
    if kind == "insert_negation":
        return f"Add a negation around '{node_text(get_node(rule, loc))}'"
    if kind == "delete_negation":
        node = get_node(rule, loc)
        inner = node.child if isinstance(node, Negation) else Literal(node.predicate, node.args, False)
        return f"Remove the negation around '{node_text(inner)}'"
    if kind == "insert_formula":
        if pl["side"] == "right":
            return f"Add the formula '{pl['op']} {pl['formula']}' after '{node_text(get_node(rule, loc))}'"
        return f"Add the formula '{pl['formula']} {pl['op']}' before '{node_text(get_node(rule, loc))}'"
    if kind == "delete_formula":
        return f"Remove the formula '{pl['formula']}' and the operator '{pl['op']}' from '{node_text(get_node(rule, loc))}'"
    raise ValueError(f"unknown edit kind {kind!r}")


def render_fix_steps(start: FolRule, steps: list[EditStep]) -> list[str]:
    """Render a correction sequence, tracking the intermediate trees.

    Sampling renders its own fix steps as it goes; this serves a sequence
    that comes from elsewhere.
    """
    out = []
    cur = start
    for step in steps:
        out.append(render_step(cur, step))
        cur = apply_step(cur, step)
    return out


# ---------------------------------------------------------------------------
# sampling

_SYNTH_CONSTANTS = [f"C{i}" for i in range(1, 100)]
_VAR_NAMES = ["x", "y", "z", "u", "v", "w"] + [f"x{i}" for i in range(1, 50)]
N_CORRECT_CHOICES = (0, 1, 2, 3)  # the step counts split_iteration draws for the target chunk


@dataclass(frozen=True)
class PerturbConfig:
    n_perturb_choices: tuple[int, ...] = tuple(range(0, 11))
    negative_prob: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.negative_prob <= 1.0:
            raise ValueError("negative_prob must be in [0, 1]")
        if not self.n_perturb_choices:
            raise ValueError("n_perturb_choices must be non-empty")
        if min(self.n_perturb_choices) < 0:
            raise ValueError("n_perturb_choices must not hold negative counts")


class _TreeView:
    """What the sampler reads of one tree, gathered in one walk.

    Every list keeps the order of the walk (pre-order, left before right),
    and predicates and constants keep their first occurrence, so draws from
    these lists consume the rng exactly as draws from a fresh walk would.
    """

    __slots__ = ("nodes", "literals", "predicates", "constants", "variables", "operators")

    def __init__(self, rule: FolRule):
        nodes: list[tuple[Location, FormulaNode]] = []
        literals: list[tuple[Location, Literal]] = []
        predicates: list[str] = []
        constants: list[str] = []
        variables = {v for _, v in rule.prefix}
        for loc, node in iter_locations(rule):
            nodes.append((loc, node))
            if isinstance(node, Literal):
                literals.append((loc, node))
                if node.predicate not in predicates:
                    predicates.append(node.predicate)
                for arg in node.args:
                    if is_variable(arg):
                        variables.add(arg)
                    elif arg not in constants:
                        constants.append(arg)
        self.nodes, self.literals = nodes, literals
        self.predicates, self.constants, self.variables = predicates, constants, variables
        # binary operators, groups and negations, the nodes MAX_OPERATORS bounds
        self.operators = len(nodes) - len(literals)


def _fresh_variable(view: _TreeView, rng: random.Random) -> str:
    options = [v for v in _VAR_NAMES if v not in view.variables]
    return options[0] if options else f"x{rng.randrange(10**6)}"


def _fresh_predicate(view: _TreeView) -> str:
    return next(p for p in (f"R{i}" for i in itertools.count(1)) if p not in view.predicates)


def _term_pool(rule: FolRule, view: _TreeView, exclude: str | None = None) -> list[str]:
    pool = [v for _, v in rule.prefix] + view.constants
    return [t for t in pool if t != exclude]


def _propose(rule: FolRule, view: _TreeView, kind: str, rng: random.Random) -> EditStep | None:
    """One random candidate edit of the given kind, or None if inapplicable."""
    if kind == "change_predicate":
        loc, node = rng.choice(view.literals)
        old = node.predicate
        pool = [p for p in view.predicates if p != old]
        new = rng.choice(pool) if pool else _fresh_predicate(view)
        return EditStep(kind, loc, {"old": old, "new": new})

    if kind == "change_term":
        variants = []
        if rule.prefix:
            variants.append("prefix")
        variants.append("arg")
        if rng.choice(variants) == "prefix":
            i = rng.randrange(len(rule.prefix))
            return EditStep(
                kind, ("prefix", i),
                {"old": rule.prefix[i][1], "new": _fresh_variable(view, rng)},
            )
        loc, node = rng.choice(view.literals)
        k = rng.randrange(len(node.args))
        pool = _term_pool(rule, view, exclude=node.args[k])
        if not pool:
            pool = [next(c for c in _SYNTH_CONSTANTS if c not in node.args)]
        return EditStep(kind, loc, {"index": k, "old": node.args[k], "new": rng.choice(pool)})

    if kind == "change_operator":
        ops = [(loc, n) for loc, n in view.nodes if isinstance(n, BinaryOp)]
        if not ops:
            return None
        loc, node = rng.choice(ops)
        new = rng.choice([o for o in BINARY_OPS if o != node.op])
        return EditStep(kind, loc, {"old": node.op, "new": new})

    if kind == "insert_term":
        if rng.random() < 0.5:
            quant = rng.choice((FORALL, EXISTS))
            i = rng.randrange(len(rule.prefix) + 1)
            return EditStep(kind, ("prefix", i), {"quant": quant, "var": _fresh_variable(view, rng)})
        loc, node = rng.choice(view.literals)
        pool = _term_pool(rule, view)
        term = rng.choice(pool) if pool else _SYNTH_CONSTANTS[0]
        return EditStep(kind, loc, {"index": rng.randrange(len(node.args) + 1), "term": term})

    if kind == "insert_negation":
        spots = [
            (loc, n) for loc, n in view.nodes
            if not isinstance(n, Negation) and not (isinstance(n, Literal) and n.negated)
        ]
        if not spots:
            return None
        loc, node = rng.choice(spots)
        mode = "flag" if isinstance(node, Literal) else "wrap"
        return EditStep(kind, loc, {"mode": mode})

    if kind == "insert_formula":
        pred = _fresh_predicate(view)
        pool = _term_pool(rule, view)
        arg = rng.choice(pool) if pool else _SYNTH_CONSTANTS[0]
        op = rng.choice(BINARY_OPS)
        return EditStep(kind, ("body",), {"op": op, "side": "right", "formula": f"{pred}({arg})"})

    if kind == "delete_term":
        variants = []
        if rule.prefix:
            variants.append("prefix")
        fat = [(loc, n) for loc, n in view.literals if len(n.args) > 1]
        if fat:
            variants.append("arg")
        if not variants:
            return None
        if rng.choice(variants) == "prefix":
            i = rng.randrange(len(rule.prefix))
            q, v = rule.prefix[i]
            return EditStep(kind, ("prefix", i), {"quant": q, "var": v})
        loc, node = rng.choice(fat)
        k = rng.randrange(len(node.args))
        return EditStep(kind, loc, {"index": k, "term": node.args[k]})

    if kind == "delete_negation":
        spots = [
            (loc, n) for loc, n in view.nodes
            if isinstance(n, Negation) or (isinstance(n, Literal) and n.negated)
        ]
        if not spots:
            return None
        loc, node = rng.choice(spots)
        mode = "flag" if isinstance(node, Literal) else "wrap"
        return EditStep(kind, loc, {"mode": mode})

    if kind == "delete_formula":
        ops = [(loc, n) for loc, n in view.nodes if isinstance(n, BinaryOp)]
        if not ops:
            return None
        loc, node = rng.choice(ops)
        side = rng.choice(("left", "right"))
        doomed = node.left if side == "left" else node.right
        return EditStep(kind, loc, {"op": node.op, "side": side, "formula": node_text(doomed)})

    raise ValueError(f"unknown edit kind {kind!r}")


def _stable_after(view: _TreeView, spine: list[FormulaNode] | None, node: FormulaNode | None,
                  step: EditStep) -> bool:
    """roundtrip_stable(new_rule), where (new_rule, spine, node) = _apply(rule,
    step) for a stable rule and view = _TreeView(rule).

    Such an edit can break stability only through the names it brings in,
    where the node at its location meets its own children and its parent, and
    through the operators it adds; the rest of the tree is as stable as it was
    (Wagner & Graham, TOPLAS 1998: re-check only the changed region).
    """
    kind, loc, pl = step.kind, step.loc, step.payload
    if _is_prefix_loc(loc):
        # _apply keeps the quantified variables distinct
        if kind == "delete_term":
            return True
        var = pl["new"] if kind == "change_term" else pl["var"]
        return _is_name(var) and is_variable(var) and (kind == "change_term" or pl["quant"] in QUANTIFIERS)
    if kind in ("change_predicate", "change_term"):
        return _is_name(pl["new"])
    if kind == "insert_term":
        return _is_name(pl["term"])
    if kind == "delete_term" or pl.get("mode") == "flag":
        return True

    # the edit put a new node at loc: a changed operator, a wrapping negation,
    # an inserted formula, or what a deleted negation or formula kept; its
    # rebuilt parent kept its type and operator, which the old spine tells
    if len(spine) > 1 and isinstance(spine[-2], BinaryOp):
        if not _nests_bare(spine[-2].op, node, "left" if loc[-1] == 0 else "right"):
            return False
    if isinstance(node, BinaryOp) and not (
        node.op in _STRENGTH
        and _nests_bare(node.op, node.left, "left")
        and _nests_bare(node.op, node.right, "right")
    ):
        return False
    if kind == "insert_negation":
        return view.operators + 1 <= MAX_OPERATORS
    if kind == "insert_formula":
        # the inserted formula came from parse, which yields only stable trees
        sub = node.right if pl["side"] == "right" else node.left
        added = 1 + sum(not isinstance(n, Literal) for _, n in iter_locations(FolRule((), sub)))
        return view.operators + added <= MAX_OPERATORS
    return True


_ATTEMPTS_PER_KIND = 6  # proposals of one kind tried before the kind is dropped


def _sample_step(rule: FolRule, rng: random.Random) -> tuple[EditStep, FolRule]:
    """One stable random edit of a stable rule, and the rule it makes."""
    view = _TreeView(rule)
    kinds = list(ALL_KINDS)
    while kinds:
        kind = rng.choice(kinds)
        for _ in range(_ATTEMPTS_PER_KIND):
            step = _propose(rule, view, kind, rng)
            if step is None:
                break
            try:
                new_rule, spine, node = _apply(rule, step)
            except (InvalidLocation, WouldProduceInvalid):
                continue
            if _stable_after(view, spine, node, step):
                return step, new_rule
        kinds.remove(kind)
    # unreachable from a stable rule, where change_predicate always applies
    # and is always stable
    raise WouldProduceInvalid("no stable edit found; the rule must be print-parse stable")


def sample_perturbation(
    rule: FolRule, config: PerturbConfig = PerturbConfig(), rng: random.Random | None = None
) -> tuple[FolRule, list[EditStep]]:
    """Perturb a rule N times and return it with the steps that undo it.

    With probability negative_prob the rule is returned unchanged with an
    empty step list.  Applying the returned steps in order to the perturbed
    rule reproduces the input exactly.  The rule must be print-parse stable,
    as every parsed rule is: each edit is checked only where it changed the
    tree.
    """
    perturbed, fixes, _ = _sample_with_texts(rule, config, rng)
    return perturbed, fixes


def _sample_with_texts(
    rule: FolRule, config: PerturbConfig, rng: random.Random | None
) -> tuple[FolRule, list[EditStep], list[str]]:
    """sample_perturbation, with the fix steps also rendered as text.

    Fix step j undoes forward step n-1-j, so it applies to the tree held
    right after that forward step and is rendered against it there; the
    texts equal render_fix_steps(perturbed, fixes).
    """
    if rng is None:
        rng = random.Random(config.seed)
    if rng.random() < config.negative_prob:
        return rule, [], []
    choices = [c for c in config.n_perturb_choices if c > 0]
    if not choices:
        return rule, [], []
    n = rng.choice(choices)
    fixes: list[EditStep] = []
    texts: list[str] = []
    cur = rule
    for _ in range(n):
        step, cur = _sample_step(cur, rng)
        fix = inverse(step)
        fixes.append(fix)
        texts.append(render_step(cur, fix))
    fixes.reverse()
    texts.reverse()
    return cur, fixes, texts


def split_iteration(
    steps: list[EditStep], config: PerturbConfig = PerturbConfig(), rng: random.Random | None = None
) -> tuple[list[EditStep], list[EditStep]]:
    """Split a full correction sequence into (previous, target) chunks.

    The target chunk is the last N_Correct steps, with N_Correct sampled
    from N_CORRECT_CHOICES and clamped to the sequence length.
    """
    if rng is None:
        rng = random.Random(config.seed)
    n_correct = min(rng.choice(N_CORRECT_CHOICES), len(steps))
    cut = len(steps) - n_correct
    return list(steps[:cut]), list(steps[cut:])


# ---------------------------------------------------------------------------
# random rule generation (test corpus / synthetic inputs)

_GEN_PREDICATES = [
    "P", "Q", "R", "S", "Person", "Animal", "Red", "Big", "Owns", "Likes",
    "City", "Round", "Tall", "Happy", "Bird", "Flies",
]
_GEN_CONSTANTS = ["A", "B", "C", "D", "Paris", "Rex", "Lily"]


def random_rule(rng: random.Random, max_literals: int = 5) -> FolRule:
    """A random valid, print-parse-stable rule with at most max_literals leaves."""
    n_vars = rng.randint(0, 3)
    variables = ["x", "y", "z"][:n_vars]
    prefix = tuple(
        (FORALL if rng.random() < 0.7 else EXISTS, v) for v in variables
    )
    terms = variables + [rng.choice(_GEN_CONSTANTS) for _ in range(2)]

    def literal() -> Literal:
        arity = 1 if rng.random() < 0.7 else 2
        args = tuple(rng.choice(terms) for _ in range(arity))
        return Literal(rng.choice(_GEN_PREDICATES), args, negated=rng.random() < 0.2)

    def build(n: int):
        if n <= 1:
            return literal()
        left_n = rng.randint(1, n - 1)
        left = build(left_n)
        right = build(n - left_n)
        if isinstance(left, BinaryOp):
            left = Group(left)
        if isinstance(right, BinaryOp):
            right = Group(right)
        node = BinaryOp(rng.choice(BINARY_OPS), left, right)
        if rng.random() < 0.15:
            return Negation(node)
        return node

    return FolRule(prefix, build(rng.randint(1, max_literals)))
