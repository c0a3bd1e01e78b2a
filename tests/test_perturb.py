"""Perturbation engine: exact inverses, validity preservation, sampling rates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folkit.perturb as perturb_module
from folkit.fol import (
    AND,
    BINARY_OPS,
    BinaryOp,
    FolRule,
    Group,
    InvalidLocation,
    Literal,
    Negation,
    _spine,
    get_node,
    print_canonical,
)
from folkit.forge import forge_records
from folkit.parser import MAX_OPERATORS, FolSyntaxError, parse, roundtrip_stable, validate
from folkit.perturb import (
    ALL_KINDS,
    NO_CHANGES,
    EditStep,
    PerturbConfig,
    WouldProduceInvalid,
    _apply,
    _propose,
    _sample_with_texts,
    _stable_after,
    _TreeView,
    apply_step,
    inverse,
    random_rule,
    render_fix_steps,
    render_step,
    sample_perturbation,
    split_iteration,
    step_from_dict,
    step_to_dict,
)
from perturb_reference import _apply as reference_apply


# ---------------------------------------------------------------------------
# individual edit kinds


def test_change_predicate():
    rule = parse("∀x P(x)")
    step = EditStep("change_predicate", ("body",), {"old": "P", "new": "Q"})
    assert print_canonical(apply_step(rule, step)) == "∀x Q(x)"


def test_change_term_argument():
    rule = parse("Owns(A, B)")
    step = EditStep("change_term", ("body",), {"index": 1, "old": "B", "new": "C"})
    assert print_canonical(apply_step(rule, step)) == "Owns(A, C)"


def test_change_term_prefix_variable():
    rule = parse("∀x P(x)")
    step = EditStep("change_term", ("prefix", 0), {"old": "x", "new": "y"})
    out = apply_step(rule, step)
    assert out.prefix == (("∀", "y"),)


def test_change_operator():
    rule = parse("P(A) ∧ Q(B)")
    step = EditStep("change_operator", ("body",), {"old": "∧", "new": "∨"})
    assert print_canonical(apply_step(rule, step)) == "P(A) ∨ Q(B)"


def test_insert_and_delete_term():
    rule = parse("P(A)")
    ins = EditStep("insert_term", ("body",), {"index": 1, "term": "B"})
    grown = apply_step(rule, ins)
    assert print_canonical(grown) == "P(A, B)"
    back = apply_step(grown, inverse(ins))
    assert back == rule


def test_delete_last_term_is_invalid():
    rule = parse("P(A)")
    with pytest.raises(WouldProduceInvalid):
        apply_step(rule, EditStep("delete_term", ("body",), {"index": 0, "term": "A"}))


def test_insert_and_delete_quantifier():
    rule = parse("∀x P(x)")
    ins = EditStep("insert_term", ("prefix", 1), {"quant": "∃", "var": "y"})
    grown = apply_step(rule, ins)
    assert print_canonical(grown) == "∀x ∃y P(x)"
    assert apply_step(grown, inverse(ins)) == rule


def test_insert_negation_flag_and_wrap():
    rule = parse("P(A) ∧ Q(B)")
    flag = EditStep("insert_negation", ("body", 0), {"mode": "flag"})
    assert print_canonical(apply_step(rule, flag)) == "¬P(A) ∧ Q(B)"
    wrap = EditStep("insert_negation", ("body",), {"mode": "wrap"})
    assert print_canonical(apply_step(rule, wrap)) == "¬(P(A) ∧ Q(B))"


def test_delete_negation():
    rule = parse("¬(P(A))")
    step = EditStep("delete_negation", ("body",), {"mode": "wrap"})
    assert print_canonical(apply_step(rule, step)) == "P(A)"


def test_insert_and_delete_formula():
    rule = parse("P(A)")
    ins = EditStep(
        "insert_formula", ("body",), {"op": "∧", "side": "right", "formula": "Q(B)"}
    )
    grown = apply_step(rule, ins)
    assert print_canonical(grown) == "P(A) ∧ Q(B)"
    assert apply_step(grown, inverse(ins)) == rule


def test_stale_location_rejected():
    rule = parse("P(A)")
    with pytest.raises(Exception):
        apply_step(rule, EditStep("change_predicate", ("body", 0, 1), {"old": "P", "new": "Q"}))


def test_print_parse_stability_guard():
    # loosening the nested operator would change how the formula reparses
    rule = parse("P(A) ∨ Q(B) ∧ R(C)")
    bad = EditStep("change_operator", ("body", 1), {"old": "∧", "new": "↔"})
    with pytest.raises(WouldProduceInvalid):
        apply_step(rule, bad)


# ---------------------------------------------------------------------------
# inverses


def test_inverse_is_an_involution():
    steps = [
        EditStep("change_predicate", ("body",), {"old": "P", "new": "Q"}),
        EditStep("insert_term", ("body",), {"index": 0, "term": "B"}),
        EditStep("delete_negation", ("body",), {"mode": "wrap"}),
        EditStep("insert_formula", ("body",), {"op": "∨", "side": "left", "formula": "R(C)"}),
    ]
    for s in steps:
        assert inverse(inverse(s)) == s


def test_step_dict_roundtrip():
    step = EditStep("change_term", ("body", 1), {"index": 0, "old": "A", "new": "B"})
    d = step_to_dict(step, "Change the term 'A' to 'B'")
    assert d["text"] == "Change the term 'A' to 'B'"
    assert step_from_dict(d) == step


# ---------------------------------------------------------------------------
# sampling


def test_sample_perturbation_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        rule = random_rule(rng)
        perturbed, steps = sample_perturbation(rule, PerturbConfig(negative_prob=0.0), rng)
        assert validate(print_canonical(perturbed))
        assert roundtrip_stable(perturbed)
        cur = perturbed
        for s in steps:
            cur = apply_step(cur, s)
        assert print_canonical(cur) == print_canonical(rule)


def test_sample_perturbation_negative_rate():
    rng = random.Random(5)
    config = PerturbConfig()
    rule = parse("∀x (P(x) → Q(x))")
    unchanged = sum(
        1 for _ in range(5000) if not sample_perturbation(rule, config, rng)[1]
    )
    assert 0.17 <= unchanged / 5000 <= 0.23


def test_sample_perturbation_changes_when_positive():
    rng = random.Random(7)
    rule = parse("∀x (P(x) → Q(x))")
    perturbed, steps = sample_perturbation(rule, PerturbConfig(negative_prob=0.0), rng)
    assert steps
    assert print_canonical(perturbed) != print_canonical(rule)


@pytest.mark.parametrize("field", ["n_perturb_choices", "n_correct_choices"])
def test_negative_choice_counts_are_rejected(field):
    with pytest.raises(ValueError):
        PerturbConfig(**{field: (1, -1)})


def test_split_iteration_chunks():
    steps = [EditStep("change_predicate", ("body",), {"old": f"P{i}", "new": "Q"}) for i in range(5)]
    rng = random.Random(0)
    prev, target = split_iteration(steps, PerturbConfig(n_correct_choices=(2,)), rng)
    assert prev == steps[:3] and target == steps[3:]
    prev, target = split_iteration(steps, PerturbConfig(n_correct_choices=(0,)), rng)
    assert prev == steps and target == []
    prev, target = split_iteration(steps[:1], PerturbConfig(n_correct_choices=(3,)), rng)
    assert prev == [] and target == steps[:1]  # clamped to the sequence length


# ---------------------------------------------------------------------------
# the sampler's edit-local stability check


def _padded(rule, operators, rng):
    """The rule with negations and conjuncts added until its body holds exactly
    ``operators`` binary operators, groups and negations; it stays stable."""
    body = rule.body
    while (have := _TreeView(FolRule(rule.prefix, body)).operators) < operators:
        if operators - have >= 2 and rng.random() < 0.5:
            left = Group(body) if isinstance(body, BinaryOp) else body
            body = BinaryOp(AND, left, Literal("P", ("A",)))
        else:
            body = Negation(body)
    return FolRule(rule.prefix, body)


@st.composite
def _stable_rules(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    rule = random_rule(rng, max_literals=draw(st.integers(1, 8)))
    size = draw(st.sampled_from([None, MAX_OPERATORS - 1, MAX_OPERATORS]))
    return rule if size is None else _padded(rule, size, rng)


# names and operators the sampler never brings in, beside ones it does
_NAMES = st.sampled_from(["x", "y7", "A", "Rex", "R1", "forall", "exists", "xor", "x y", "", "1x", "∀", "_u"])
_OPS = st.sampled_from(BINARY_OPS + ("&", "?"))
_FORMULAS = st.sampled_from(
    ["P(x)", "P(A) ∧ Q(B)", "P(A) ∨ Q(B)", "P(A) → Q(A) → R(A)", "(P(A))", "¬(P(A) ↔ Q(A))"]
)


@st.composite
def _variant(draw, step, view):
    """The step with its names, operators, formula or location redrawn."""
    pl = dict(step.payload)
    loc = step.loc
    for key in ("new", "var", "term", "quant", "op", "formula"):
        if key in pl and draw(st.booleans()):
            if key == "formula":
                pl[key] = draw(_FORMULAS)
            elif key == "op" or (key == "new" and step.kind == "change_operator"):
                pl[key] = draw(_OPS)
            elif key == "quant":
                pl[key] = draw(st.sampled_from(["∀", "∃", "forall"]))
            else:
                pl[key] = draw(_NAMES)
    if step.kind in ("insert_formula", "insert_negation") and pl.get("mode") != "flag":
        loc = draw(st.sampled_from([loc for loc, _ in view.nodes]))
        if step.kind == "insert_formula":
            pl["side"] = draw(st.sampled_from(["left", "right"]))
    return EditStep(step.kind, loc, pl)


@settings(max_examples=300, deadline=None)
@given(rule=_stable_rules(), seed=st.integers(0, 2**32), data=st.data())
def test_local_check_equals_roundtrip_stable(rule, seed, data):
    """On a stable rule, the sampler's verdict on an edit equals the full check
    of the edited rule: for every edit the sampler proposes, and for variants
    of them with names it never brings in, unknown operators, other inserted
    formulas and other locations."""
    assert roundtrip_stable(rule)
    view = _TreeView(rule)
    rng = random.Random(seed)
    for kind in ALL_KINDS:
        for _ in range(3):
            step = _propose(rule, view, kind, rng)
            if step is None:
                break
            for edit in (step, data.draw(_variant(step, view))):
                try:
                    new_rule, spine, node = _apply(rule, edit)
                except (InvalidLocation, WouldProduceInvalid, FolSyntaxError):
                    continue
                assert _stable_after(view, spine, node, edit) == roundtrip_stable(new_rule), edit


def _outcome(apply, rule, step):
    """What apply makes of the step: its rule, or the type and message of what it raises."""
    try:
        return apply(rule, step)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(rule=_stable_rules(), seed=st.integers(0, 2**32), data=st.data())
def test_apply_matches_the_reference(rule, seed, data):
    """_apply makes the rule that the reference makes, which descended twice per
    body edit, or raises the same exception type and message: for every edit
    the sampler proposes, its variants, unknown kinds, and every kind at
    another body location and at a prefix location. A body edit also returns
    the old spine down to its location and the node it put there."""
    view = _TreeView(rule)
    rng = random.Random(seed)
    for kind in ALL_KINDS:
        step = _propose(rule, view, kind, rng)
        if step is None:
            continue
        odd = data.draw(st.sampled_from(["swap_term", "", "Change_predicate"]))
        elsewhere = data.draw(st.sampled_from([loc for loc, _ in view.nodes]))
        prefix = ("prefix", data.draw(st.integers(0, len(rule.prefix) + 1)))
        variant = data.draw(_variant(step, view))
        for edit in (step, variant, EditStep(odd, step.loc, step.payload), EditStep(kind, elsewhere, step.payload),
                     EditStep(kind, prefix, variant.payload)):
            got = _outcome(_apply, rule, edit)
            if isinstance(got, tuple) and isinstance(got[0], FolRule):
                new_rule, spine, node = got
                assert new_rule == reference_apply(rule, edit), edit
                if spine is not None:
                    assert spine == _spine(rule, edit.loc) and get_node(new_rule, edit.loc) is node, edit
            else:
                assert got == _outcome(reference_apply, rule, edit), edit


def test_local_check_refuses_every_kind_of_instability():
    """An operator that loosens under its parent or over its children, a bad
    name, a bad prefix variable, and one operator over the bound."""
    rng = random.Random(11)
    rule = random_rule(rng, max_literals=5)
    full = _padded(rule, MAX_OPERATORS, rng)
    body_ops = [loc for loc, node in _TreeView(full).nodes if isinstance(node, BinaryOp)]
    cases = [
        (parse("P(A) ∨ Q(B) ∧ R(C)"), EditStep("change_operator", ("body", 1), {"old": "∧", "new": "↔"})),
        (parse("P(A) ∨ Q(B) ∧ R(C)"), EditStep("change_operator", ("body",), {"old": "∨", "new": "∧"})),
        (parse("P(A) ∧ ¬(Q(B) ∨ R(C))"), EditStep("delete_negation", ("body", 1), {"mode": "wrap"})),
        (parse("P(A) ∨ Q(B)"),
         EditStep("insert_formula", ("body",), {"op": "∧", "side": "right", "formula": "R(C)"})),
        (parse("P(A)"), EditStep("change_predicate", ("body",), {"old": "P", "new": "forall"})),
        (parse("∀x P(x)"), EditStep("change_term", ("prefix", 0), {"old": "x", "new": "X"})),
        (parse("∀x P(x)"), EditStep("insert_term", ("prefix", 1), {"quant": "∃", "var": "y z"})),
        (full, EditStep("insert_negation", body_ops[0], {"mode": "wrap"})),
        (full, EditStep("insert_formula", ("body",), {"op": "∧", "side": "right", "formula": "R1(A)"})),
        (_padded(rule, MAX_OPERATORS - 1, rng), EditStep("insert_formula", ("body",),
                                                         {"op": "∧", "side": "right", "formula": "¬(R1(A))"})),
    ]
    for before, step in cases:
        new_rule, spine, node = _apply(before, step)
        assert not roundtrip_stable(new_rule), step
        assert not _stable_after(_TreeView(before), spine, node, step), step


def test_forge_t3_walks_each_tree_once_and_never_checks_it_whole(monkeypatch):
    """Sampling walks each tree once per step and decides stability locally."""
    walks_per_step, others, walked, checked = [], [], [], []
    real_step, real_walk = perturb_module._sample_step, perturb_module.iter_locations

    def counting_step(rule, rng, *args):
        first = len(walked)
        result = real_step(rule, rng, *args)
        walks_per_step.append(sum(w is rule for w in walked[first:]))
        others.extend(w for w in walked[first:] if w is not rule)
        return result

    def counting_walk(rule):
        walked.append(rule)
        return real_walk(rule)

    monkeypatch.setattr(perturb_module, "_sample_step", counting_step)
    monkeypatch.setattr(perturb_module, "iter_locations", counting_walk)
    monkeypatch.setattr(perturb_module, "roundtrip_stable", lambda rule: checked.append(rule) or True)
    rng = random.Random(4)
    golds = [(f"s{i}", print_canonical(random_rule(rng, max_literals=6))) for i in range(50)]
    records = list(forge_records(golds, "t3", 400, PerturbConfig(seed=4), None))
    assert sum(r.meta["n_perturb"] for r in records) == len(walks_per_step) > 1000
    assert set(walks_per_step) == {1}
    assert checked == []
    # every other walk counts the operators of a formula the sampler inserted
    assert others and all(w.prefix == () and isinstance(w.body, Literal) for w in others)


def test_sampler_raises_when_every_proposal_is_refused(monkeypatch):
    """With every proposal refused, the sampler raises: it has no fallback edit."""
    monkeypatch.setattr(perturb_module, "_stable_after", lambda view, spine, node, step: False)
    with pytest.raises(WouldProduceInvalid, match="must be print-parse stable"):
        perturb_module._sample_step(parse("∀x (P(x) → Q(x))"), random.Random(0))


# ---------------------------------------------------------------------------
# rendering


def test_render_step_templates():
    rule = parse("P(x) ∧ P(B)")
    step = EditStep("change_operator", ("body",), {"old": "∧", "new": "∨"})
    assert render_step(rule, step) == "Change the operator '∧' to '∨' in 'P(x) ∧ P(B)'"
    neg = EditStep("insert_negation", ("body", 0), {"mode": "flag"})
    assert render_step(rule, neg) == "Add a negation around 'P(x)'"


def test_render_fix_steps_tracks_intermediate_trees():
    rule = parse("P(A)")
    steps = [
        EditStep("change_predicate", ("body",), {"old": "P", "new": "Q"}),
        EditStep("change_predicate", ("body",), {"old": "Q", "new": "R"}),
    ]
    texts = render_fix_steps(rule, steps)
    assert texts == [
        "Change the predicate 'P' to 'Q' in 'P(A)'",
        "Change the predicate 'Q' to 'R' in 'Q(A)'",
    ]


def test_sampled_texts_equal_rendering_the_fix_steps():
    """Texts rendered while sampling equal a second pass over the fix steps."""
    for i in range(300):
        rule = random_rule(random.Random(i), max_literals=6)
        config = PerturbConfig(negative_prob=0.1)
        perturbed, fixes, texts = _sample_with_texts(rule, config, random.Random(f"one-pass:{i}"))
        assert (perturbed, fixes) == sample_perturbation(rule, config, random.Random(f"one-pass:{i}"))
        assert texts == render_fix_steps(perturbed, fixes)


def test_no_changes_sentinel():
    assert NO_CHANGES == "No changes needed"


# ---------------------------------------------------------------------------
# random rule generator


def test_random_rules_are_valid_and_stable():
    rng = random.Random(1)
    for _ in range(100):
        rule = random_rule(rng)
        assert validate(print_canonical(rule))
        assert roundtrip_stable(rule)


def test_all_kinds_named():
    assert len(ALL_KINDS) == 9
