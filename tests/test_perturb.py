"""Perturbation engine: exact inverses, validity preservation, sampling rates."""

import random

import pytest

from folkit.fol import Literal, print_canonical
from folkit.parser import parse
from folkit.perturb import (
    ALL_KINDS,
    NO_CHANGES,
    EditStep,
    PerturbConfig,
    WouldProduceInvalid,
    _sample_with_texts,
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
from folkit.parser import roundtrip_stable, validate


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
