"""Iterative CoT-correction sessions: the environment + reward harness.

A session repeatedly asks a generator for correction steps over an initial
FOL prediction, accumulating steps across generations, stopping on
"No changes needed" or on the generation/output-length limits, and emitting
a reward-scored experience tuple per generation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from . import rowio
from .endpoint import Generator
from .fol import FolRule
from .forge import (
    CORR_MARKER,
    FOL_MARKER,
    NL_MARKER,
    CorrectionRecord,
    MalformedOutput,
    format_prompt,
    parse_correction_output,
)
from .metrics import RewardConfig, reward
from .parser import validate

log = logging.getLogger(__name__)

SESSION_SYSTEM_PROMPT = (
    "You correct first-order logic translations of natural language statements. "
    f"Respond with a '{CORR_MARKER}' section listing at most a few correction "
    f"steps (or 'No changes needed') followed by a '{FOL_MARKER}' section with "
    "the corrected rule."
)


class RepairFailed(Exception):
    """The initial prediction could not be repaired into parseable FOL."""


@dataclass(frozen=True)
class SessionConfig:
    max_generations: int = 10
    max_output_tokens: int = 256  # whitespace tokens per generation
    reward: RewardConfig = RewardConfig()

    def __post_init__(self):
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


@dataclass
class SessionState:
    nl: str
    fol_initial: str
    prev_steps: list[str] = field(default_factory=list)
    current_fol: str = ""
    current_rule: FolRule | None = None  # parse of current_fol; None when it does not parse
    generation_index: int = 0
    status: str = "running"  # running | done_no_changes | done_limit | failed
    violations: int = 0
    # (gold, scored rule, reward config, reward) of the last reward computed
    last_reward: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.current_rule is None and self.current_fol:
            self.current_rule = validate(self.current_fol).rule


@dataclass
class ExperienceTuple:
    corrected_fol: str
    nl: str
    prev_steps: list[str]
    fol_initial: str
    reward: float | None = None

    def to_dict(self) -> dict:
        return {
            "corrected_fol": self.corrected_fol,
            "nl": self.nl,
            "prev_steps": self.prev_steps,
            "fol_initial": self.fol_initial,
            "reward": self.reward,
        }


def _t3_input(state: SessionState) -> str:
    record = CorrectionRecord(
        nl=state.nl,
        fol_gold="",
        fol_input=state.fol_initial,
        prev_steps=[{"text": t} for t in state.prev_steps],
    )
    input_text, _ = format_prompt(record, "t3")
    return input_text


def pre_repair(nl: str, fol_pred: str, generator: Generator) -> tuple[str, FolRule]:
    """Return a parseable FOL for the prediction and its parse, asking the
    generator for a one-shot naive repair when the raw prediction does not parse."""
    rule = validate(fol_pred).rule
    if rule is not None:
        return fol_pred, rule
    prompt = f"{NL_MARKER}\n{nl}\n{FOL_MARKER}\n{fol_pred}"
    response = generator.generate(SESSION_SYSTEM_PROMPT, prompt)
    try:
        parsed = parse_correction_output(response)
        candidate = parsed.fol
    except MalformedOutput:
        candidate = response.strip()
    rule = validate(candidate).rule
    if rule is not None:
        return candidate, rule
    raise RepairFailed(f"prediction not repairable: {fol_pred!r}")


def step(
    state: SessionState,
    generator: Generator,
    gold: FolRule | str | None = None,
    config: SessionConfig = SessionConfig(),
) -> ExperienceTuple:
    """Run one generation; mutates the state and returns the experience tuple.

    Only a candidate that differs from the current FOL is parsed, and the
    reward of the very same gold, reward config and rule as the last step's
    is reused, not computed again.
    """
    if state.status != "running":
        raise RuntimeError(f"session is {state.status}")
    prev_snapshot = list(state.prev_steps)
    output = generator.generate(SESSION_SYSTEM_PROMPT, _t3_input(state))
    state.generation_index += 1
    over_limit = len(output.split()) > config.max_output_tokens

    candidate, rule = state.current_fol, state.current_rule
    try:
        parsed = parse_correction_output(output)
        if parsed.no_changes:
            state.status = "done_no_changes"
        else:
            if parsed.steps:
                state.prev_steps.extend(parsed.steps)
            if parsed.fol is not None and parsed.fol != candidate:
                candidate = parsed.fol
                rule = validate(candidate).rule
                if rule is not None:
                    state.current_fol, state.current_rule = candidate, rule
                else:
                    state.violations += 1
                    log.warning("generation %d produced unparseable FOL", state.generation_index)
    except MalformedOutput:
        state.violations += 1
        log.warning("generation %d output malformed", state.generation_index)

    if state.status == "running" and (over_limit or state.generation_index >= config.max_generations):
        state.status = "done_limit"

    r = None
    if gold is not None:
        key = (gold, candidate if rule is None else rule, config.reward)
        last = state.last_reward
        if last is not None and all(a is b for a, b in zip(key, last)):
            r = last[3]
        else:
            r = reward(*key)
            state.last_reward = (*key, r)
    return ExperienceTuple(candidate, state.nl, prev_snapshot, state.fol_initial, r)


def run_session(
    nl: str,
    fol_pred: str,
    generator: Generator,
    gold: FolRule | str | None = None,
    config: SessionConfig = SessionConfig(),
) -> tuple[str | None, list[ExperienceTuple], SessionState]:
    """Pre-repair then iterate generations until the session stops.

    Returns the final corrected FOL (None when repair failed), the
    per-generation experience tuples, and the final state.
    """
    try:
        fol0, rule0 = pre_repair(nl, fol_pred, generator)
    except RepairFailed:
        state = SessionState(nl=nl, fol_initial=fol_pred, status="failed")
        return None, [], state

    if isinstance(gold, str):
        # parsed once for all steps; text that does not parse is passed on,
        # so the first step's reward raises GoldUnparseable
        gold = validate(gold).rule or gold
    state = SessionState(nl=nl, fol_initial=fol0, current_fol=fol0, current_rule=rule0)
    tuples: list[ExperienceTuple] = []
    while state.status == "running":
        tuples.append(step(state, generator, gold, config))
    return state.current_fol, tuples, state


def run_batch(
    rows: Iterable[dict],
    generator: Generator,
    out_path: str | Path,
    config: SessionConfig = SessionConfig(),
) -> dict:
    """Run sessions over rows {nl, pred, gold?} and stream experience JSONL.

    A gold may be text or an already parsed rule.
    """
    summary = {"sessions": 0, "failed": 0, "experiences": 0}

    def experiences() -> Iterator[dict]:
        for row in rows:
            summary["sessions"] += 1
            _, tuples, state = run_session(row["nl"], row["pred"], generator, row.get("gold"), config)
            summary["failed"] += state.status == "failed"
            for t in tuples:
                yield t.to_dict()

    summary["experiences"] = rowio.write_rows(out_path, experiences())
    return summary