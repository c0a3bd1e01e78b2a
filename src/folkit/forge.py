"""Forging of training records (direct translation, naive correction, CoT
correction), prompt formatting, corpus statistics, and score binning."""

from __future__ import annotations

import logging
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator

from . import rowio
from .fol import (
    AND,
    EXISTS,
    FORALL,
    IFF,
    IMPLIES,
    NO_CHANGES,
    NOT,
    OR,
    XOR,
    BinaryOp,
    FolRule,
    Literal,
    Negation,
    is_variable,
    iter_locations,
    literal_occurrences,
    print_canonical,
)
from .parser import FolSyntaxError, parse
from .rowio import load_pairs  # noqa: F401 - forge.load_pairs is the same function

if TYPE_CHECKING:
    from .perturb import PerturbConfig

log = logging.getLogger(__name__)

TASKS = ("t1", "t2", "t3")

NL_MARKER = "### NL:"
FOL_MARKER = "### FOL:"
PREV_MARKER = "### Previous steps:"
CORR_MARKER = "### Corrections:"


class GoldUnparseableRow(rowio.DataFault):
    pass


class MissingPrediction(rowio.DataFault):
    pass


@dataclass
class CorrectionRecord:
    nl: str
    fol_gold: str
    fol_input: str
    prev_steps: list[dict] = field(default_factory=list)  # {"kind","loc","payload","text"}
    target_steps: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "nl": self.nl,
            "fol_gold": self.fol_gold,
            "fol_input": self.fol_input,
            "prev_steps": self.prev_steps,
            "target_steps": self.target_steps,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CorrectionRecord":
        return cls(
            nl=d["nl"],
            fol_gold=d["fol_gold"],
            fol_input=d.get("fol_input", ""),
            prev_steps=list(d.get("prev_steps", [])),
            target_steps=list(d.get("target_steps", [])),
            meta=dict(d.get("meta", {})),
        )

    def replay(self) -> str:
        """Apply prev then target steps to fol_input; returns the canonical result."""
        from .perturb import apply_step, step_from_dict

        rule = parse(self.fol_input)
        for d in self.prev_steps + self.target_steps:
            rule = apply_step(rule, step_from_dict(d))
        return print_canonical(rule)


# ---------------------------------------------------------------------------
# forging


def forge_records(
    pairs: list[tuple[str, str]],
    task: str,
    count: int,
    config: PerturbConfig | None = None,
    predictions: list[str] | None = None,
) -> Iterator[CorrectionRecord]:
    """Stream `count` records sampled with replacement from the pairs.

    T1 carries NL and gold only; T2 carries a prediction as input (simulated
    by perturbation when no predictions are supplied); T3 carries a perturbed
    rule with split previous/target correction steps. The inputs are checked
    when this is called, before the first record is drawn. ``config=None``
    means ``PerturbConfig()``.
    """
    # imported here and in _forge and replay: stats and bins load this module, not the sampler
    from .perturb import PerturbConfig

    if config is None:
        config = PerturbConfig()
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    parsed: list[tuple[int, str, str, FolRule]] = []  # (row, nl, gold text, gold rule)
    for i, (nl, fol) in enumerate(pairs):
        try:
            rule = parse(fol)
        except FolSyntaxError as exc:
            log.warning("skipping row %d, gold does not parse: %s", i, exc)
            continue
        parsed.append((i, nl, print_canonical(rule), rule))
    if not parsed:
        raise GoldUnparseableRow("no parseable gold rules in input")
    if task == "t2" and predictions is not None:
        if len(predictions) != len(pairs):
            raise MissingPrediction(f"{len(predictions)} predictions for {len(pairs)} pairs")
        # only a row whose gold parses is ever drawn
        for row, *_ in parsed:
            if not predictions[row]:
                raise MissingPrediction(f"empty prediction for row {row}")
    return _forge(parsed, task, count, config, predictions)


def _forge(
    parsed: list[tuple[int, str, str, FolRule]],
    task: str,
    count: int,
    config: PerturbConfig,
    predictions: list[str] | None,
) -> Iterator[CorrectionRecord]:
    from . import perturb

    for i in range(count):
        rng = random.Random(f"{config.seed}:{i}")
        row, nl, gold_text, gold_rule = parsed[rng.randrange(len(parsed))]
        meta = {"seed": config.seed, "record": i, "source": "synthetic", "task": task}

        if task == "t1":
            yield CorrectionRecord(nl, gold_text, "", [], [], meta)
            continue

        if task == "t2":
            if predictions is not None:
                pred = predictions[row]
            else:
                perturbed, _ = perturb.sample_perturbation(gold_rule, config, rng)
                pred = print_canonical(perturbed)
            yield CorrectionRecord(nl, gold_text, pred, [], [], meta)
            continue

        perturbed, fix_steps, texts = perturb._sample_with_texts(gold_rule, config, rng)
        prev, target = perturb.split_iteration(fix_steps, config, rng)
        all_dicts = [perturb.step_to_dict(s, t) for s, t in zip(fix_steps, texts)]
        meta.update({"n_perturb": len(fix_steps), "n_correct": len(target)})
        yield CorrectionRecord(
            nl,
            gold_text,
            print_canonical(perturbed),
            all_dicts[: len(prev)],
            all_dicts[len(prev):],
            meta,
        )


# ---------------------------------------------------------------------------
# prompt formatting


def _step_lines(steps: list[dict]) -> str:
    return "\n".join(d["text"] for d in steps)


def format_prompt(record: CorrectionRecord, task: str) -> tuple[str, str]:
    """Deterministic (input, output) text for a record under a task."""
    if task == "t1":
        return f"{NL_MARKER}\n{record.nl}", f"{FOL_MARKER}\n{record.fol_gold}"
    if task == "t2":
        inp = f"{NL_MARKER}\n{record.nl}\n{FOL_MARKER}\n{record.fol_input}"
        return inp, f"{FOL_MARKER}\n{record.fol_gold}"
    if task == "t3":
        prev = _step_lines(record.prev_steps) or "None"
        inp = (
            f"{NL_MARKER}\n{record.nl}\n{FOL_MARKER}\n{record.fol_input}\n"
            f"{PREV_MARKER}\n{prev}"
        )
        target = _step_lines(record.target_steps) or NO_CHANGES
        return inp, f"{CORR_MARKER}\n{target}\n{FOL_MARKER}\n{record.fol_gold}"
    raise ValueError(f"unknown task {task!r}")


_MARKERS = (NL_MARKER, FOL_MARKER, PREV_MARKER, CORR_MARKER)


def _split_sections(text: str) -> list[tuple[str, str]]:
    sections: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped in _MARKERS:
            sections.append((stripped, []))
        elif sections:
            sections[-1][1].append(line)
    return [(m, "\n".join(body).strip()) for m, body in sections]


@dataclass
class CorrectionOutput:
    steps: list[str]
    no_changes: bool
    fol: str | None


class MalformedOutput(Exception):
    pass


def parse_correction_output(text: str) -> CorrectionOutput:
    """Parse a T3-format generator output into steps and the corrected FOL."""
    sections = dict(_split_sections(text))
    if CORR_MARKER not in sections and FOL_MARKER not in sections:
        raise MalformedOutput("no correction or FOL section found")
    corr = sections.get(CORR_MARKER, "")
    steps = [s for s in corr.splitlines() if s.strip()]
    no_changes = any(s.strip() == NO_CHANGES for s in steps)
    if no_changes:
        steps = []
    return CorrectionOutput(steps, no_changes, sections.get(FOL_MARKER) or None)


# ---------------------------------------------------------------------------
# corpus statistics


@dataclass
class CorpusStats:
    pair_count: int = 0
    unparsed_count: int = 0
    nl_vocab_size: int = 0
    nl_avg_words: float = 0.0
    fol_avg_literals: float = 0.0
    operator_counts: dict = field(default_factory=dict)
    term_vocab_size: int = 0
    literal_histogram: dict = field(default_factory=dict)
    top_terms: list = field(default_factory=list)
    top_term_pairs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "pair_count": self.pair_count,
            "unparsed_count": self.unparsed_count,
            "nl_vocab_size": self.nl_vocab_size,
            "nl_avg_words": self.nl_avg_words,
            "fol_avg_literals": self.fol_avg_literals,
            "operator_counts": self.operator_counts,
            "term_vocab_size": self.term_vocab_size,
            "literal_histogram": {str(k): v for k, v in self.literal_histogram.items()},
            "top_terms": self.top_terms,
            "top_term_pairs": self.top_term_pairs,
        }


_WORD_RE = re.compile(r"[a-z]+")


def nl_words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def _count_operators(rule: FolRule) -> Counter:
    counts = Counter(q for q, _ in rule.prefix)
    for _, node in iter_locations(rule):
        if isinstance(node, BinaryOp):
            counts[node.op] += 1
        elif isinstance(node, Negation) or (isinstance(node, Literal) and node.negated):
            counts[NOT] += 1
    return counts


def rule_terms(rule: FolRule) -> list[str]:
    """Predicate names and named entities (constants), first occurrence order."""
    seen = []
    for lit in literal_occurrences(rule):
        if lit.predicate not in seen:
            seen.append(lit.predicate)
        for arg in lit.args:
            if not is_variable(arg) and arg not in seen:
                seen.append(arg)
    return seen


def corpus_stats(
    pairs: Iterable[tuple[str, str]], top_k_terms: int = 40, top_k_pairs: int = 200
) -> CorpusStats:
    op_counts: Counter = Counter({op: 0 for op in (FORALL, EXISTS, NOT, AND, OR, IMPLIES, IFF, XOR)})
    nl_vocab: set[str] = set()
    term_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    literal_hist: Counter = Counter()
    n = 0
    unparsed = 0
    total_words = 0
    total_literals = 0

    for nl, fol in pairs:
        try:
            rule = parse(fol)
        except FolSyntaxError:
            unparsed += 1
            continue
        n += 1
        words = nl_words(nl)
        total_words += len(words)
        nl_vocab.update(words)
        lits = literal_occurrences(rule)
        total_literals += len(lits)
        literal_hist[len(lits)] += 1
        op_counts.update(_count_operators(rule))
        terms = rule_terms(rule)
        term_counts.update(terms)
        for a, b in combinations(sorted(terms), 2):
            pair_counts[(a, b)] += 1

    return CorpusStats(
        pair_count=n,
        unparsed_count=unparsed,
        nl_vocab_size=len(nl_vocab),
        nl_avg_words=total_words / n if n else 0.0,
        fol_avg_literals=total_literals / n if n else 0.0,
        operator_counts=dict(op_counts),
        term_vocab_size=len(term_counts),
        literal_histogram=dict(sorted(literal_hist.items())),
        top_terms=term_counts.most_common(top_k_terms),
        top_term_pairs=[
            [list(p), c] for p, c in pair_counts.most_common(top_k_pairs)
        ],
    )


# ---------------------------------------------------------------------------
# binned score analysis


def bin_scores(
    rows: list[dict], edges: list[float], group_key: str = "gpt_le"
) -> list[dict]:
    """Group rows into half-open bins by one score column and average the rest.

    Edges must be strictly decreasing from 1.0; bin i covers
    (edges[i+1], edges[i]], with the final bin closed at its lower edge.
    Empty bins are omitted.
    """
    if not edges or edges[0] != 1.0 or any(a <= b for a, b in zip(edges, edges[1:])):
        raise ValueError("edges must be strictly decreasing from 1.0")
    value_keys = sorted({k for row in rows for k in row if isinstance(row[k], (int, float))})
    out = []
    for i in range(len(edges) - 1):
        upper, lower = edges[i], edges[i + 1]
        last = i == len(edges) - 2
        members = [
            r for r in rows
            if (r[group_key] <= upper and (r[group_key] > lower or (last and r[group_key] == lower)))
        ]
        if not members:
            continue
        entry = {"upper": upper, "lower": lower, "count": len(members)}
        for k in value_keys:
            entry[f"mean_{k}"] = sum(r[k] for r in members) / len(members)
        out.append(entry)
    return out
