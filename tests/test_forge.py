"""Record forging, prompt formatting, corpus statistics, score binning."""

import json

import pytest

from folkit import rowio
from folkit.forge import (
    CorrectionRecord,
    GoldUnparseableRow,
    MissingPrediction,
    bin_scores,
    corpus_stats,
    forge_records,
    format_prompt,
    load_pairs,
    nl_words,
    parse_correction_output,
)
from folkit.perturb import NO_CHANGES, PerturbConfig

PAIRS = [
    ("All birds can fly.", "∀x (Bird(x) → Flies(x))"),
    ("Rex is a dog.", "Dog(Rex)"),
    ("Some people like cats.", "∃x (Person(x) ∧ Likes(x, Cats))"),
    ("If it rains the ground is wet.", "Rains(Ground) → Wet(Ground)"),
]


def _forge(task, count, seed=0, **kw):
    return list(forge_records(PAIRS, task, count, PerturbConfig(seed=seed), **kw))


# ---------------------------------------------------------------------------
# loading


def test_load_pairs_jsonl(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        '{"NL": "a", "FOL": "P(A)"}\n{"nl": "b", "fol": "Q(B)"}\n', encoding="utf-8"
    )
    assert load_pairs(path) == [("a", "P(A)"), ("b", "Q(B)")]
    assert load_pairs is rowio.load_pairs  # one reader, under both names


def test_load_pairs_json_array(tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps([{"nl": "a", "fol": "P(A)"}]), encoding="utf-8")
    assert load_pairs(path) == [("a", "P(A)")]


# ---------------------------------------------------------------------------
# forging


def test_t1_records_carry_gold_only():
    recs = _forge("t1", 10)
    assert len(recs) == 10
    for r in recs:
        assert r.fol_input == "" and not r.prev_steps and not r.target_steps
        assert (r.nl, r.fol_gold) in PAIRS


def test_t2_simulated_predictions_parse():
    from folkit.parser import validate

    for r in _forge("t2", 20):
        assert validate(r.fol_input)


def test_t2_uses_supplied_predictions():
    preds = ["P(A)"] * len(PAIRS)
    for r in _forge("t2", 5, predictions=preds):
        assert r.fol_input == "P(A)"


def test_t2_prediction_count_mismatch():
    with pytest.raises(MissingPrediction):
        _forge("t2", 1, predictions=["P(A)"])


def test_t3_replay_restores_gold():
    for r in _forge("t3", 50):
        assert r.replay() == r.fol_gold


def test_t3_split_sizes_recorded_in_meta():
    for r in _forge("t3", 30):
        assert r.meta["n_perturb"] == len(r.prev_steps) + len(r.target_steps)
        assert r.meta["n_correct"] == len(r.target_steps)
        assert r.meta["n_correct"] <= 3


def test_forging_is_deterministic():
    a = [r.to_dict() for r in _forge("t3", 25, seed=9)]
    b = [r.to_dict() for r in _forge("t3", 25, seed=9)]
    assert a == b
    c = [r.to_dict() for r in _forge("t3", 25, seed=10)]
    assert a != c


def test_unparseable_gold_rows_are_skipped():
    pairs = PAIRS + [("bad", "P(x) =")]
    recs = list(forge_records(pairs, "t1", 20))
    assert all(r.fol_gold != "P(x) =" for r in recs)
    with pytest.raises(GoldUnparseableRow):
        list(forge_records([("bad", "P(x) =")], "t1", 1))


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "records.jsonl"
    recs = _forge("t3", 10)
    assert rowio.write_rows(path, (r.to_dict() for r in recs)) == 10
    loaded = [CorrectionRecord.from_dict(row) for _, row in rowio.jsonl(path, ("nl", "fol_gold"))]
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in recs]


# ---------------------------------------------------------------------------
# prompt formatting


def test_format_prompt_t1():
    rec = CorrectionRecord("All birds fly.", "∀x (Bird(x) → Flies(x))", "")
    inp, out = format_prompt(rec, "t1")
    assert inp == "### NL:\nAll birds fly."
    assert out == "### FOL:\n∀x (Bird(x) → Flies(x))"


def test_format_prompt_t3_empty_sections():
    rec = CorrectionRecord("nl", "P(A)", "P(A)", [], [])
    inp, out = format_prompt(rec, "t3")
    assert "### Previous steps:\nNone" in inp
    assert f"### Corrections:\n{NO_CHANGES}" in out


def test_parse_correction_output():
    out = parse_correction_output(
        "### Corrections:\nChange the predicate 'P' to 'Q' in 'P(A)'\n### FOL:\nQ(A)"
    )
    assert out.steps == ["Change the predicate 'P' to 'Q' in 'P(A)'"]
    assert not out.no_changes
    assert out.fol == "Q(A)"

    out = parse_correction_output(f"### Corrections:\n{NO_CHANGES}\n### FOL:\nP(A)")
    assert out.no_changes and out.steps == []


def test_parse_correction_output_malformed():
    from folkit.forge import MalformedOutput

    with pytest.raises(MalformedOutput):
        parse_correction_output("nothing structured here")


# ---------------------------------------------------------------------------
# corpus statistics


def test_nl_words():
    assert nl_words("All birds, can FLY!") == ["all", "birds", "can", "fly"]


def test_corpus_stats_counts():
    stats = corpus_stats(PAIRS)
    assert stats.pair_count == 4
    assert stats.unparsed_count == 0
    assert stats.operator_counts["∀"] == 1
    assert stats.operator_counts["∃"] == 1
    assert stats.operator_counts["→"] == 2
    assert stats.operator_counts["∧"] == 1
    assert stats.fol_avg_literals == pytest.approx(7 / 4)
    assert stats.nl_avg_words == pytest.approx((4 + 4 + 4 + 7) / 4)
    top = dict(stats.top_terms)
    assert top["Rex"] == 1 and top["Bird"] == 1


def test_corpus_stats_counts_negations_in_both_forms():
    stats = corpus_stats([("a", "¬P(A) ∧ ¬(Q(B))")])
    assert stats.operator_counts["¬"] == 2


def test_corpus_stats_skips_unparseable():
    stats = corpus_stats([("a", "P(A)"), ("b", "P(x) =")])
    assert stats.pair_count == 1 and stats.unparsed_count == 1


# ---------------------------------------------------------------------------
# score binning


def test_bin_scores_means():
    rows = [
        {"gpt_le": 1.0, "model_le": 0.9},
        {"gpt_le": 0.95, "model_le": 0.8},
        {"gpt_le": 0.5, "model_le": 0.2},
        {"gpt_le": 0.0, "model_le": 0.1},
    ]
    bins = bin_scores(rows, [1.0, 0.9, 0.0], "gpt_le")
    assert bins[0]["count"] == 2
    assert bins[0]["mean_model_le"] == pytest.approx(0.85)
    # the final bin is closed at its lower edge, so 0.0 is included
    assert bins[1]["count"] == 2


def test_bin_scores_bad_edges():
    with pytest.raises(ValueError):
        bin_scores([], [0.9, 0.5])
    with pytest.raises(ValueError):
        bin_scores([], [1.0, 0.5, 0.5])


def test_t2_predictions_follow_their_pair_past_an_unparseable_gold():
    pairs = [("a", "P(A) ="), ("b", "Q(B)"), ("c", "R(C)")]
    preds = ["X(A)", "Q(B)", "R(C)"]
    recs = list(forge_records(pairs, "t2", 20, predictions=preds))
    assert {r.fol_gold for r in recs} == {"Q(B)", "R(C)"}
    assert all(r.fol_input == r.fol_gold for r in recs)


def test_empty_prediction_names_its_row():
    pairs = [("a", "P(A) ="), ("b", "Q(B)")]
    with pytest.raises(MissingPrediction, match="row 1"):
        list(forge_records(pairs, "t2", 5, predictions=["X(A)", ""]))


def test_inputs_are_checked_before_the_first_record():
    with pytest.raises(GoldUnparseableRow):
        forge_records([("bad", "P(x) =")], "t3", 1)
    with pytest.raises(MissingPrediction):
        forge_records(PAIRS, "t2", 1, predictions=["P(A)"])
    with pytest.raises(MissingPrediction, match="empty prediction for row 1"):
        forge_records([("a", "P(A)"), ("b", "Q(B)")], "t2", 5, predictions=["P(A)", ""])
