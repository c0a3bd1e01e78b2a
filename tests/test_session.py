"""Iterative correction sessions over a scripted generator."""

import json
import sys

import pytest

import folkit.metrics
import folkit.parser
from folkit.forge import NO_CHANGES
from folkit.metrics import GoldUnparseable, RewardConfig, reward
from folkit.parser import parse
from folkit.session import (
    RepairFailed,
    SessionConfig,
    SessionState,
    pre_repair,
    run_batch,
    run_session,
    step,
)

from helpers import ScriptedGenerator

DONE = f"### Corrections:\n{NO_CHANGES}\n### FOL:\nP(A)"


def _correction(step_text, fol):
    return f"### Corrections:\n{step_text}\n### FOL:\n{fol}"


# ---------------------------------------------------------------------------
# pre-repair


def test_pre_repair_passes_valid_prediction_through():
    gen = ScriptedGenerator([])
    assert pre_repair("nl", "P(A)", gen) == ("P(A)", parse("P(A)"))
    assert gen.calls == []


def test_pre_repair_fixes_via_generator():
    gen = ScriptedGenerator(["### FOL:\nP(A)"])
    assert pre_repair("nl", "P(A", gen) == ("P(A)", parse("P(A)"))


def test_pre_repair_accepts_bare_fol_response():
    gen = ScriptedGenerator(["P(A)"])
    assert pre_repair("nl", "broken =", gen) == ("P(A)", parse("P(A)"))


def test_pre_repair_failure():
    gen = ScriptedGenerator(["still broken ="])
    with pytest.raises(RepairFailed):
        pre_repair("nl", "broken =", gen)


# ---------------------------------------------------------------------------
# single steps


def test_step_no_changes_stops():
    state = SessionState(nl="nl", fol_initial="P(A)", current_fol="P(A)")
    gen = ScriptedGenerator([DONE])
    t = step(state, gen, gold="P(A)")
    assert state.status == "done_no_changes"
    assert state.generation_index == 1
    assert t.reward == pytest.approx(1.0)
    assert t.prev_steps == []


def test_step_applies_correction_and_accumulates_steps():
    state = SessionState(nl="nl", fol_initial="Q(A)", current_fol="Q(A)")
    gen = ScriptedGenerator([_correction("Change the predicate 'Q' to 'P' in 'Q(A)'", "P(A)")])
    t = step(state, gen, gold="P(A)")
    assert state.current_fol == "P(A)"
    assert state.prev_steps == ["Change the predicate 'Q' to 'P' in 'Q(A)'"]
    assert t.corrected_fol == "P(A)"
    assert t.reward == pytest.approx(1.0)


def test_step_invalid_fol_keeps_previous_but_rewards_candidate():
    state = SessionState(nl="nl", fol_initial="Q(A)", current_fol="Q(A)")
    gen = ScriptedGenerator([_correction("some step", "broken =")])
    t = step(state, gen, gold="P(A)")
    assert state.current_fol == "Q(A)"
    assert state.violations == 1
    assert t.corrected_fol == "broken ="
    assert t.reward == 0.0


def test_step_over_length_output_stops():
    state = SessionState(nl="nl", fol_initial="Q(A)", current_fol="Q(A)")
    long_tail = " ".join(["word"] * 300)
    gen = ScriptedGenerator([_correction("a step", "Q(A)") + "\n" + long_tail])
    step(state, gen)
    assert state.status == "done_limit"


def test_step_refuses_finished_session():
    state = SessionState(nl="nl", fol_initial="P(A)", status="done_no_changes")
    with pytest.raises(RuntimeError):
        step(state, ScriptedGenerator([DONE]))


# ---------------------------------------------------------------------------
# full sessions


def test_run_session_terminates_on_generation_cap():
    forever = _correction("another tweak", "Q(A)")
    gen = ScriptedGenerator([forever], cycle_last=True)
    final, tuples, state = run_session("nl", "Q(A)", gen, gold="P(A)")
    assert state.status == "done_limit"
    assert state.generation_index == 10
    assert len(tuples) == 10


def test_run_session_no_changes_first_generation():
    gen = ScriptedGenerator([DONE])
    final, tuples, state = run_session("nl", "P(A)", gen, gold="P(A)")
    assert state.status == "done_no_changes"
    assert len(tuples) == 1
    assert final == "P(A)"


def test_run_session_repair_failure_yields_no_tuples():
    gen = ScriptedGenerator(["nope ="])
    final, tuples, state = run_session("nl", "broken =", gen)
    assert final is None and tuples == [] and state.status == "failed"


def test_run_session_prev_steps_snapshot_precedes_extension():
    responses = [
        _correction("first fix", "Q(A)"),
        DONE,
    ]
    gen = ScriptedGenerator(responses)
    _, tuples, _ = run_session("nl", "Q(A)", gen, gold="P(A)")
    assert tuples[0].prev_steps == []
    assert tuples[1].prev_steps == ["first fix"]


def test_session_prompt_carries_previous_steps():
    responses = [
        _correction("first fix", "Q(A)"),
        DONE,
    ]
    gen = ScriptedGenerator(responses)
    run_session("nl", "Q(A)", gen)
    assert "### Previous steps:\nNone" in gen.calls[0][1]
    assert "### Previous steps:\nfirst fix" in gen.calls[1][1]


# ---------------------------------------------------------------------------
# batch


def test_run_batch_streams_experience(tmp_path):
    out = tmp_path / "experience.jsonl"
    gen = ScriptedGenerator([DONE, DONE])
    rows = [
        {"nl": "a", "pred": "P(A)", "gold": "P(A)"},
        {"nl": "b", "pred": "P(A)"},
    ]
    summary = run_batch(rows, gen, out)
    assert summary == {"sessions": 2, "failed": 0, "experiences": 2}
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[0]["reward"] == pytest.approx(1.0)
    assert lines[1]["reward"] is None


# ---------------------------------------------------------------------------
# configuration and parsing


@pytest.mark.parametrize("field", ["max_generations"])
@pytest.mark.parametrize("value", [0, -5])
def test_session_config_rejects_counts_below_one(field, value):
    with pytest.raises(ValueError, match=field):
        SessionConfig(**{field: value})


@pytest.fixture
def parsed_texts(monkeypatch):
    """Every text given to folkit.parser.parse, in call order, from whichever module calls it.

    The modules whose calls are counted are imported first, so each holds the
    real parse when it is wrapped, whatever was loaded before."""
    import folkit.perturb  # noqa: F401 - forge loads it only when it forges or replays
    import folkit.session  # noqa: F401 - and endpoint, forge and metrics

    real = folkit.parser.parse
    texts = []

    def counting(text):
        texts.append(text)
        return real(text)

    for name, module in list(sys.modules.items()):
        if name == "folkit" or name.startswith("folkit."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return texts


def test_session_parses_gold_once_and_each_new_candidate_once(parsed_texts):
    pred, gold, fixed = "∀x (P(x) → R(x))", "∀x (P(x) → Q(x))", "∀y (P(y) → Q(y))"
    gen = ScriptedGenerator([_correction("first fix", fixed), _correction("no real change", fixed), DONE])
    final, tuples, state = run_session("nl", pred, gen, gold=gold)
    assert final == fixed and state.status == "done_no_changes"
    assert [t.corrected_fol for t in tuples] == [fixed] * 3
    # pre-repair parses the prediction; the unchanged candidate and the
    # closing "no changes" generation parse nothing
    assert parsed_texts == [pred, gold, fixed]
    assert [t.reward for t in tuples] == [reward(gold, fixed)] * 3


def test_session_unparseable_candidate_counts_a_violation_and_scores_zero():
    gen = ScriptedGenerator([_correction("bad fix", "P(A) ∧"), _correction("good fix", "P(A)"), DONE])
    final, tuples, state = run_session("nl", "Q(A)", gen, gold="P(A)")
    assert [t.corrected_fol for t in tuples] == ["P(A) ∧", "P(A)", "P(A)"]
    assert tuples[0].reward == 0.0
    assert tuples[1].reward == pytest.approx(1.0) and tuples[2].reward == pytest.approx(1.0)
    assert state.violations == 1 and final == "P(A)"


@pytest.mark.parametrize("pred, calls", [("Q(A)", 1), ("Q(A) ∧", 2)])
def test_run_session_unparseable_gold_raises_at_the_first_reward(pred, calls):
    """After pre-repair's call, if any, and the first generation's."""
    gen = ScriptedGenerator(["### FOL:\nQ(A)", _correction("fix", "P(A)"), DONE])
    with pytest.raises(GoldUnparseable):
        run_session("nl", pred, gen, gold="P(A) =")
    assert len(gen.calls) == calls


# ---------------------------------------------------------------------------
# the reward of an unchanged candidate is reused


@pytest.fixture
def scored(monkeypatch):
    """The (gold, pred) of every metrics.reward_detail call."""
    real = folkit.metrics.reward_detail
    calls = []

    def counting(gold, pred, config=RewardConfig()):
        calls.append((gold, pred))
        return real(gold, pred, config)

    monkeypatch.setattr(folkit.metrics, "reward_detail", counting)
    return calls


def test_session_scores_an_unchanged_candidate_once(scored):
    gen = ScriptedGenerator([_correction("fix", "P(A)"), DONE])
    final, tuples, state = run_session("nl", "Q(A)", gen, gold="P(A)")
    assert final == "P(A)" and state.status == "done_no_changes"
    assert [t.reward for t in tuples] == [pytest.approx(1.0)] * 2
    assert len(scored) == 1
    assert repr(state) == repr(SessionState("nl", "Q(A)", ["fix"], "P(A)", parse("P(A)"), 2, "done_no_changes"))
    assert state == SessionState("nl", "Q(A)", ["fix"], "P(A)", parse("P(A)"), 2, "done_no_changes")


@pytest.mark.parametrize("change", ["gold", "config"])
def test_step_rescores_for_another_gold_or_reward_config(scored, change):
    gold, other_gold = parse("Q(A)"), parse("P(A) ∧ Q(B)")  # LE 1 but BLEU below 1, then both below 1
    config, other_config = SessionConfig(), SessionConfig(reward=RewardConfig(omega=0.2))
    state = SessionState(nl="nl", fol_initial="P(A)", current_fol="P(A)")
    gen = ScriptedGenerator([_correction("no change", "P(A)")], cycle_last=True)
    first = step(state, gen, gold, config)
    assert step(state, gen, gold, config).reward == first.reward and len(scored) == 1
    if change == "gold":
        gold = other_gold
    else:
        config = other_config
    again = step(state, gen, gold, config)
    assert len(scored) == 2
    assert again.reward == reward(gold, "P(A)", config.reward) != first.reward
