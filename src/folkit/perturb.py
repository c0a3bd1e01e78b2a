"""Reversible atomic perturbations of FOL rules.

Nine edit kinds (change predicate/term/operator, insert term/negation/formula,
delete term/negation/formula) with stable AST locations and exact inverses.
Every applied edit must leave the rule grammatically valid and print-parse
stable, so a perturbed rule can be serialized and the correction steps
replayed from text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .fol import (
    BINARY_OPS,
    EXISTS,
    FORALL,
    BinaryOp,
    FolRule,
    Group,
    InvalidLocation,
    Literal,
    Location,
    Negation,
    get_node,
    is_variable,
    iter_locations,
    literal_occurrences,
    node_text,
    replace_node,
)
from .parser import parse, roundtrip_stable

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

NO_CHANGES = "No changes needed"

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


def _parse_subformula(text: str):
    rule = parse(text)
    if rule.prefix:
        raise WouldProduceInvalid(f"inserted formula may not carry quantifiers: {text!r}")
    return rule.body


def _is_prefix_loc(loc: Location) -> bool:
    return bool(loc) and loc[0] == "prefix"


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


def apply_step(rule: FolRule, step: EditStep) -> FolRule:
    """Apply one edit, returning a new rule; the input is never mutated."""
    new_rule = _apply(rule, step)
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


@dataclass(frozen=True)
class PerturbConfig:
    n_perturb_choices: tuple[int, ...] = tuple(range(0, 11))
    n_correct_choices: tuple[int, ...] = (0, 1, 2, 3)
    negative_prob: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.negative_prob <= 1.0:
            raise ValueError("negative_prob must be in [0, 1]")
        if not self.n_perturb_choices or not self.n_correct_choices:
            raise ValueError("choice lists must be non-empty")


def _predicates(rule: FolRule) -> list[str]:
    seen = []
    for lit in literal_occurrences(rule):
        if lit.predicate not in seen:
            seen.append(lit.predicate)
    return seen


def _constants(rule: FolRule) -> list[str]:
    seen = []
    for lit in literal_occurrences(rule):
        for arg in lit.args:
            if not is_variable(arg) and arg not in seen:
                seen.append(arg)
    return seen


def _all_variables(rule: FolRule) -> set[str]:
    used = {v for _, v in rule.prefix}
    for lit in literal_occurrences(rule):
        used.update(a for a in lit.args if is_variable(a))
    return used


def _fresh_variable(rule: FolRule, rng: random.Random) -> str:
    used = _all_variables(rule)
    options = [v for v in _VAR_NAMES if v not in used]
    return options[0] if options else f"x{rng.randrange(10**6)}"


def _fresh_predicate(rule: FolRule, rng: random.Random) -> str:
    used = set(_predicates(rule))
    return next(p for p in (f"R{i}" for i in itertools.count(1)) if p not in used)


def _term_pool(rule: FolRule, exclude: str | None = None) -> list[str]:
    pool = [v for _, v in rule.prefix] + _constants(rule)
    return [t for t in pool if t != exclude]


def _literal_locs(rule: FolRule) -> list[Location]:
    return [loc for loc, node in iter_locations(rule) if isinstance(node, Literal)]


def _propose(rule: FolRule, kind: str, rng: random.Random) -> EditStep | None:
    """One random candidate edit of the given kind, or None if inapplicable."""
    if kind == "change_predicate":
        loc = rng.choice(_literal_locs(rule))
        old = get_node(rule, loc).predicate
        pool = [p for p in _predicates(rule) if p != old]
        new = rng.choice(pool) if pool else _fresh_predicate(rule, rng)
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
                {"old": rule.prefix[i][1], "new": _fresh_variable(rule, rng)},
            )
        loc = rng.choice(_literal_locs(rule))
        node = get_node(rule, loc)
        k = rng.randrange(len(node.args))
        pool = _term_pool(rule, exclude=node.args[k])
        if not pool:
            pool = [next(c for c in _SYNTH_CONSTANTS if c not in node.args)]
        return EditStep(kind, loc, {"index": k, "old": node.args[k], "new": rng.choice(pool)})

    if kind == "change_operator":
        ops = [(loc, n) for loc, n in iter_locations(rule) if isinstance(n, BinaryOp)]
        if not ops:
            return None
        loc, node = rng.choice(ops)
        new = rng.choice([o for o in BINARY_OPS if o != node.op])
        return EditStep(kind, loc, {"old": node.op, "new": new})

    if kind == "insert_term":
        if rng.random() < 0.5:
            quant = rng.choice((FORALL, EXISTS))
            i = rng.randrange(len(rule.prefix) + 1)
            return EditStep(kind, ("prefix", i), {"quant": quant, "var": _fresh_variable(rule, rng)})
        loc = rng.choice(_literal_locs(rule))
        node = get_node(rule, loc)
        pool = _term_pool(rule)
        term = rng.choice(pool) if pool else _SYNTH_CONSTANTS[0]
        return EditStep(kind, loc, {"index": rng.randrange(len(node.args) + 1), "term": term})

    if kind == "insert_negation":
        spots = [
            (loc, n) for loc, n in iter_locations(rule)
            if not isinstance(n, Negation) and not (isinstance(n, Literal) and n.negated)
        ]
        if not spots:
            return None
        loc, node = rng.choice(spots)
        mode = "flag" if isinstance(node, Literal) else "wrap"
        return EditStep(kind, loc, {"mode": mode})

    if kind == "insert_formula":
        pred = _fresh_predicate(rule, rng)
        pool = _term_pool(rule)
        arg = rng.choice(pool) if pool else _SYNTH_CONSTANTS[0]
        op = rng.choice(BINARY_OPS)
        return EditStep(kind, ("body",), {"op": op, "side": "right", "formula": f"{pred}({arg})"})

    if kind == "delete_term":
        variants = []
        if rule.prefix:
            variants.append("prefix")
        fat = [loc for loc in _literal_locs(rule) if len(get_node(rule, loc).args) > 1]
        if fat:
            variants.append("arg")
        if not variants:
            return None
        if rng.choice(variants) == "prefix":
            i = rng.randrange(len(rule.prefix))
            q, v = rule.prefix[i]
            return EditStep(kind, ("prefix", i), {"quant": q, "var": v})
        loc = rng.choice(fat)
        node = get_node(rule, loc)
        k = rng.randrange(len(node.args))
        return EditStep(kind, loc, {"index": k, "term": node.args[k]})

    if kind == "delete_negation":
        spots = [
            (loc, n) for loc, n in iter_locations(rule)
            if isinstance(n, Negation) or (isinstance(n, Literal) and n.negated)
        ]
        if not spots:
            return None
        loc, node = rng.choice(spots)
        mode = "flag" if isinstance(node, Literal) else "wrap"
        return EditStep(kind, loc, {"mode": mode})

    if kind == "delete_formula":
        ops = [(loc, n) for loc, n in iter_locations(rule) if isinstance(n, BinaryOp)]
        if not ops:
            return None
        loc, node = rng.choice(ops)
        side = rng.choice(("left", "right"))
        doomed = node.left if side == "left" else node.right
        return EditStep(kind, loc, {"op": node.op, "side": side, "formula": node_text(doomed)})

    raise ValueError(f"unknown edit kind {kind!r}")


def _sample_step(rule: FolRule, rng: random.Random, attempts_per_kind: int = 6) -> tuple[EditStep, FolRule]:
    kinds = list(ALL_KINDS)
    while kinds:
        kind = rng.choice(kinds)
        for _ in range(attempts_per_kind):
            step = _propose(rule, kind, rng)
            if step is None:
                break
            try:
                return step, apply_step(rule, step)
            except (InvalidLocation, WouldProduceInvalid):
                continue
        kinds.remove(kind)
    # change_predicate with a synthetic name is always applicable and stable
    loc = _literal_locs(rule)[0]
    old = get_node(rule, loc).predicate
    step = EditStep("change_predicate", loc, {"old": old, "new": _fresh_predicate(rule, rng)})
    return step, apply_step(rule, step)


def sample_perturbation(
    rule: FolRule, config: PerturbConfig = PerturbConfig(), rng: random.Random | None = None
) -> tuple[FolRule, list[EditStep]]:
    """Perturb a rule N times and return it with the steps that undo it.

    With probability negative_prob the rule is returned unchanged with an
    empty step list.  Applying the returned steps in order to the perturbed
    rule reproduces the input exactly.
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
    from the configured choices and clamped to the sequence length.
    """
    if rng is None:
        rng = random.Random(config.seed)
    n_correct = min(rng.choice(config.n_correct_choices), len(steps))
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
