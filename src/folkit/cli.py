"""Single command-line entry point for all pipelines.

Exit codes: 0 success, 2 usage error, 3 input data error, 4 endpoint error.

Every command is a _Command, which holds what all of them share: the
--dry-run flag, and one INFO line on stderr, ``run config: {...}``, that logs
the command and every option under its parameter name before the command body
runs, so every output can be reproduced.

Imports: this module loads only rowio, fol and parser, which every command
uses. A command imports what else it runs at the top of its own body, before
it reads any input, so a --dry-run loads the same modules as a real run. It
never imports in a per-item path such as _score_one. Modules draw the same
line: forge loads the sampler (perturb) only when it forges or replays, and
the generators live in endpoint, so stats and bins load forge alone and
correct loads neither collect nor perturb. The errors that exit 3
and 4 derive from rowio.DataFault and rowio.EndpointFault, so mapping them
imports nothing either.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import sys
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

import click

from . import __version__, rowio
from .fol import print_canonical
from .parser import FolSyntaxError, validate
from .parser import parse as parse_fol

if TYPE_CHECKING:
    from .metrics import RewardBreakdown, RewardConfig

log = logging.getLogger("folkit")

EXIT_DATA = 3
EXIT_ENDPOINT = 4


class DataError(click.ClickException):
    exit_code = EXIT_DATA


class EndpointError(click.ClickException):
    exit_code = EXIT_ENDPOINT


class _Command(click.Command):
    """A command with a --dry-run flag that logs its run config before its body runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(["--dry-run"], is_flag=True, help="Read and check the inputs, then stop."))

    def invoke(self, ctx):
        config = {"command": ctx.info_name, **ctx.params}
        log.info("run config: %s", json.dumps(config, default=str, sort_keys=True))
        return super().invoke(ctx)


class _Main(click.Group):
    """Maps data faults to exit code 3 and endpoint faults to 4, for every command."""

    command_class = _Command

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except rowio.DataFault as exc:
            raise DataError(str(exc)) from exc
        except rowio.EndpointFault as exc:
            raise EndpointError(str(exc)) from exc


def _fol(path: str, n: int, text: str) -> str:
    """The FOL on a stripped, non-blank line; a JSONL row may carry it under 'fol' or 'FOL'."""
    if text.startswith("{"):
        return rowio.row(path, n, text, ("fol",), fold_case=True)["fol"]
    return text


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(line number, FOL) for each non-blank line."""
    return [(n, _fol(path, n, text)) for n, raw in rowio.lines(path) if (text := raw.strip())]


def _aligned(path_a: str, path_b: str) -> Iterator[tuple[int, str, str]]:
    """(line number, stripped line of a, stripped line of b) for each line
    number non-blank in both files. A line blank in both is skipped; one
    blank or missing on one side only is a data error."""
    lines_a = [text.strip() for _, text in rowio.lines(path_a)]
    lines_b = [text.strip() for _, text in rowio.lines(path_b)]
    for n, (a, b) in enumerate(zip_longest(lines_a, lines_b, fillvalue=""), 1):
        if a and b:
            yield n, a, b
        elif a or b:
            path, lines, other = (path_b, lines_b, path_a) if a else (path_a, lines_a, path_b)
            gap = "blank" if n <= len(lines) else f"missing: the file ends at line {len(lines)}"
            raise rowio.InputError(path, n, f"line is {gap}, but {other}:{n} is not")


def _number_list(kind, minimum=None):
    """A click callback parsing a comma-separated list of ``kind`` numbers,
    each at least ``minimum`` when one is given."""

    def convert(ctx, param, value):
        try:
            numbers = tuple(kind(x) for x in value.split(","))
        except ValueError:
            raise click.BadParameter(f"expected comma-separated {kind.__name__} values, got {value!r}") from None
        if minimum is not None and any(x < minimum for x in numbers):
            raise click.BadParameter(f"every value must be at least {minimum}, got {value!r}")
        return numbers

    return convert


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """FOL toolkit: parse, score, perturb, forge, collect, correct."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------


@main.command("validate")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None, help="Optional JSONL verdict report.")
def validate_cmd(in_path, out_path, dry_run):
    """Check every rule in a file against the grammar."""
    rules = [text for _, text in _read_lines(in_path)]
    if dry_run:
        click.echo(f"dry-run: {len(rules)} rules to check")
        return
    # only what the report needs: a verdict's parsed tree is dropped at once
    verdicts = [(text, v.valid, v.reason) for text in rules for v in (validate(text),)]
    n_valid = sum(1 for _, valid, _ in verdicts if valid)
    if out_path:
        rowio.write_rows(out_path, ({"fol": text, "valid": valid, "reason": reason} for text, valid, reason in verdicts))
    click.echo(f"checked {len(rules)} rules: {n_valid} valid, {len(rules) - n_valid} invalid")


# ---------------------------------------------------------------------------


def _score_one(reward_detail: Callable[..., RewardBreakdown],
               args: tuple[str, int, str, str, RewardConfig]) -> dict:
    """One output row. ``reward_detail`` is metrics.reward_detail, passed in
    so that this per-pair path imports nothing."""
    gold_path, line, gold, pred, config = args
    try:
        detail = reward_detail(gold, pred, config)
    except rowio.DataFault as exc:  # metrics.GoldUnparseable
        raise rowio.InputError(gold_path, line, f"gold rule does not parse: {exc}") from None
    row = {
        "gold": gold,
        "pred": pred,
        "le": detail.le,
        "bleu": detail.bleu,
        "reward": detail.reward,
    }
    if detail.binding is not None:
        row["binding"] = [list(p) for p in detail.binding.pairs]
    return row


def _load_pairs_for_scoring(gold, pred, pairs) -> list[tuple[int, str, str]]:
    """(line number of the gold rule, gold, pred) per pair, from --pairs
    (TSV or JSONL) or from the line-aligned --gold and --pred files.

    Gold and pred pair by line number. A line blank in both files is
    skipped; one blank or missing on one side only is a data error."""
    if pairs:
        rows = []
        for n, text in rowio.lines(pairs):
            if not text.strip():
                continue
            if text.lstrip().startswith("{"):
                row = rowio.row(pairs, n, text, ("gold", "pred"), fold_case=True)
                rows.append((n, row["gold"], row["pred"]))
            elif "\t" in text:
                g, p = text.split("\t", 1)
                rows.append((n, g, p))
            else:
                raise rowio.InputError(pairs, n, "expected a gold<TAB>pred line or a JSON object")
        return rows
    return [(n, _fol(gold, n, g), _fol(pred, n, p)) for n, g, p in _aligned(gold, pred)]


@main.command("score")
@click.option("--gold", type=click.Path(exists=True), help="Gold rules, one per line.")
@click.option("--pred", type=click.Path(exists=True), help="Predicted rules, line-aligned with --gold.")
@click.option("--pairs", type=click.Path(exists=True), help="Alternatively: TSV or JSONL (gold, pred) pairs.")
@click.option("--omega", default=0.7, show_default=True, type=click.FloatRange(0.0, 1.0))
@click.option("--max-atoms", default=16, show_default=True, type=click.IntRange(min=1),
              help="Atom cap for LE, at most metrics.MAX_ATOMS.")
@click.option("--workers", default=1, show_default=True, type=click.IntRange(1, os.cpu_count()))
@click.option("--out", "out_path", type=click.Path(), default=None)
def score_cmd(gold, pred, pairs, omega, max_atoms, workers, out_path, dry_run):
    """Score (gold, pred) pairs: LE, BLEU, mixed reward, and the binding used."""
    from .metrics import MAX_ATOMS, RewardConfig, reward_detail

    if not pairs and not (gold and pred):
        raise click.UsageError("provide --pairs or both --gold and --pred")
    if max_atoms > MAX_ATOMS:
        raise click.BadParameter(f"{max_atoms} is not in the range 1<=x<={MAX_ATOMS}.", param_hint="'--max-atoms'")
    rows = _load_pairs_for_scoring(gold, pred, pairs)
    if dry_run:
        click.echo(f"dry-run: {len(rows)} pairs to score")
        return
    gold_path = pairs or gold
    config = RewardConfig(omega=omega, max_atoms=max_atoms)
    work = [(gold_path, n, g, p, config) for n, g, p in rows]
    score = partial(_score_one, reward_detail)
    if workers > 1:
        # imported here: multiprocessing adds about 12 ms to every start-up,
        # and a one-worker run never uses it
        from multiprocessing import Pool

        with Pool(workers) as pool:
            results = pool.map(score, work)
    else:
        results = [score(w) for w in work]
    if out_path:
        rowio.write_rows(out_path, results)
    if results:
        mean = lambda key: sum(r[key] for r in results) / len(results)  # noqa: E731
        for row in results:
            click.echo(f"LE {row['le']:.4f}  BLEU {row['bleu']:.4f}  reward {row['reward']:.4f}")
        click.echo(
            f"corpus means over {len(results)} pairs: "
            f"LE {mean('le'):.4f}  BLEU {mean('bleu'):.4f}  reward {mean('reward'):.4f}"
        )


# ---------------------------------------------------------------------------


@main.command("perturb")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--n-perturb", default="0,1,2,3,4,5,6,7,8,9,10", show_default=True, callback=_number_list(int, minimum=0))
@click.option("--negative-prob", default=0.2, show_default=True, type=click.FloatRange(0.0, 1.0))
@click.option("--seed", default=0, show_default=True)
def perturb_cmd(in_path, out_path, n_perturb, negative_prob, seed, dry_run):
    """Emit one perturbation record per input rule."""
    from .perturb import PerturbConfig, _sample_with_texts, step_to_dict

    config = PerturbConfig(n_perturb_choices=n_perturb, negative_prob=negative_prob, seed=seed)
    rules = []
    for n, text in _read_lines(in_path):
        try:
            rules.append(parse_fol(text))
        except FolSyntaxError as exc:
            raise rowio.InputError(in_path, n, f"rule does not parse: {exc}") from None
    if dry_run:
        click.echo(f"dry-run: {len(rules)} rules to perturb")
        return

    def records():
        for i, rule in enumerate(rules):
            perturbed, steps, texts = _sample_with_texts(rule, config, random.Random(f"{seed}:{i}"))
            yield {
                "original": print_canonical(rule),
                "perturbed": print_canonical(perturbed),
                "steps_to_fix": [step_to_dict(s, t) for s, t in zip(steps, texts)],
            }

    if out_path:
        n = rowio.write_rows(out_path, records())
        click.echo(f"wrote {n} perturbation records to {out_path}")
    else:
        for record in records():
            rowio.write(sys.stdout, record)


# ---------------------------------------------------------------------------


@main.command("forge")
@click.option("--task", type=click.Choice(["t1", "t2", "t3"]), required=True)
@click.option("--count", required=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--predictions", type=click.Path(exists=True), default=None,
              help="T2: model predictions, one per line, aligned with the input pairs.")
@click.option("--negative-prob", default=0.2, show_default=True, type=click.FloatRange(0.0, 1.0))
def forge_cmd(task, count, seed, in_path, out_path, predictions, negative_prob, dry_run):
    """Forge training records from (NL, FOL) pairs."""
    from .forge import forge_records
    from .perturb import PerturbConfig

    if predictions and task != "t2":
        raise click.BadParameter(f"only --task t2 reads predictions, not {task}", param_hint="'--predictions'")
    config = PerturbConfig(negative_prob=negative_prob, seed=seed)
    pairs = rowio.load_pairs(in_path)
    if not pairs:
        raise rowio.DataFault(f"no pairs in {in_path}")
    preds = None
    if predictions:
        # blank lines are kept: line i is the prediction for pair i
        preds = [text.strip() for _, text in rowio.lines(predictions)]
        if len(preds) != len(pairs):
            raise rowio.DataFault(f"{predictions} and {in_path} differ in length: {len(preds)} against {len(pairs)} rows")
        for n, text in enumerate(preds, 1):
            if not text:
                raise rowio.InputError(predictions, n, "empty prediction")
    if dry_run:
        click.echo(f"dry-run: would forge {count} {task} records from {len(pairs)} pairs")
        return
    n = rowio.write_rows(out_path, (r.to_dict() for r in forge_records(pairs, task, count, config, preds)))
    click.echo(f"forged {n} {task} records to {out_path}")


# ---------------------------------------------------------------------------


@main.command("stats")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--top-terms", default=40, show_default=True, type=click.IntRange(min=0))
@click.option("--top-pairs", default=200, show_default=True, type=click.IntRange(min=0))
def stats_cmd(in_path, out_path, top_terms, top_pairs, dry_run):
    """Corpus statistics over an (NL, FOL) pairs file."""
    from .forge import corpus_stats

    pairs = rowio.load_pairs(in_path)
    if dry_run:
        click.echo(f"dry-run: {len(pairs)} pairs to analyze")
        return
    stats = corpus_stats(pairs, top_terms, top_pairs)
    payload = json.dumps(stats.to_dict(), ensure_ascii=False, indent=2)
    if out_path:
        Path(out_path).write_text(payload + "\n", encoding="utf-8")
    click.echo(
        f"pairs {stats.pair_count} (unparsed {stats.unparsed_count})  "
        f"NL vocab {stats.nl_vocab_size}  avg words {stats.nl_avg_words:.1f}  "
        f"avg literals {stats.fol_avg_literals:.2f}"
    )
    click.echo("operators: " + "  ".join(f"{op} {c}" for op, c in stats.operator_counts.items()))


# ---------------------------------------------------------------------------


@main.command("bins")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True),
              help="JSONL rows of score columns.")
@click.option("--edges", required=True, callback=_number_list(float),
              help="Comma-separated, strictly decreasing from 1.0.")
@click.option("--group-key", default="gpt_le", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def bins_cmd(in_path, edges, group_key, out_path, dry_run):
    """Per-bin score means grouped by one score column."""
    from .forge import bin_scores, value_columns

    def finite(value) -> bool:  # JSON true is no number, and NaN or Infinity is no score
        return type(value) is int or (type(value) is float and math.isfinite(value))

    numbered = []
    for n, row in rowio.jsonl(in_path):
        if not finite(row.get(group_key)):
            raise rowio.InputError(in_path, n, f"group key {group_key!r} is not a number")
        numbered.append((n, row))
    rows = [row for _, row in numbered]
    columns = value_columns(rows)  # each must hold a finite number in every row
    for n, row in numbered:
        for k in columns:
            if not finite(row.get(k)):
                problem = "not a finite number" if k in row else "missing"
                raise rowio.InputError(in_path, n, f"column {k!r} is {problem}")
    try:
        result = bin_scores(rows, list(edges), group_key)
    except ValueError as exc:  # edges not strictly decreasing from 1.0
        raise rowio.DataFault(str(exc)) from None
    if dry_run:
        click.echo(f"dry-run: {len(rows)} rows, {len(edges) - 1} bins")
        return
    payload = json.dumps(result, indent=2)
    if out_path:
        Path(out_path).write_text(payload + "\n", encoding="utf-8")
    click.echo(payload)


# ---------------------------------------------------------------------------


@main.command("collect")
@click.option("--target", required=True, type=click.IntRange(min=0))
@click.option("--endpoint", default=None, help="Chat-completions base URL.")
@click.option("--model", default="gpt-4", show_default=True)
@click.option("--replay", type=click.Path(exists=True), default=None,
              help="Canned responses JSONL; replaces the endpoint.")
@click.option("--bootstrap", required=True, type=click.Path(exists=True),
              help="Initial (NL, FOL) pairs for few-shot sampling.")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--align-threshold", default=0.5, show_default=True, type=click.FloatRange(0.0, 1.0))
@click.option("--seed", default=0, show_default=True)
@click.option("--max-calls", default=None, type=click.IntRange(min=1))
def collect_cmd(target, endpoint, model, replay, bootstrap, out_dir, align_threshold, seed, max_calls, dry_run):
    """Collect NL-FOL pairs from a generator endpoint or a replay file."""
    from .collect import HttpGenerator, ReplayGenerator, run_collection

    if not replay and not endpoint:
        raise click.UsageError("provide --endpoint or --replay")
    pairs = rowio.load_pairs(bootstrap)
    # built before the dry-run return, so that a dry run reads the replay too
    generator = ReplayGenerator(replay) if replay else HttpGenerator(endpoint, model)
    if dry_run:
        click.echo(f"dry-run: target {target}, bootstrap corpus of {len(pairs)}")
        return
    result = run_collection(
        generator, target, out_dir, pairs, random.Random(seed),
        align_threshold=align_threshold, max_calls=max_calls,
    )
    click.echo(
        f"accepted {result.accepted}  rejected {result.rejected}  "
        f"calls {result.calls}  stopped: {result.stopped}"
    )


# ---------------------------------------------------------------------------


@main.command("correct")
@click.option("--nl-fol-pred", "in_path", required=True, type=click.Path(exists=True),
              help="JSONL rows {nl, pred, gold?}.")
@click.option("--gold", "gold_path", type=click.Path(exists=True), default=None,
              help="Optional gold rules, one per line, aligned with the rows.")
@click.option("--endpoint", default=None)
@click.option("--model", default="gpt-4", show_default=True)
@click.option("--replay", type=click.Path(exists=True), default=None)
@click.option("--max-generations", default=10, show_default=True, type=click.IntRange(min=1))
@click.option("--omega", default=0.7, show_default=True, type=click.FloatRange(0.0, 1.0))
@click.option("--out", "out_path", required=True, type=click.Path())
def correct_cmd(in_path, gold_path, endpoint, model, replay, max_generations, omega, out_path, dry_run):
    """Run iterative correction sessions and stream experience tuples."""
    from .endpoint import HttpGenerator, ReplayGenerator
    from .metrics import RewardConfig
    from .session import SessionConfig, run_batch

    if not replay and not endpoint:
        raise click.UsageError("provide --endpoint or --replay")
    if gold_path:
        # a row and its gold share a line number, as in score --gold/--pred
        numbered = []
        for n, text, gold in _aligned(in_path, gold_path):
            row = rowio.row(in_path, n, text, ("nl", "pred"))
            row["gold"] = _fol(gold_path, n, gold)
            numbered.append((n, row))
    else:
        numbered = list(rowio.jsonl(in_path, ("nl", "pred")))
    gold_file = gold_path or in_path  # the file each row's gold comes from, at the row's line
    rows = [row for _, row in numbered]
    if dry_run:
        click.echo(f"dry-run: {len(rows)} sessions to run")
        return
    for n, row in numbered:
        if row.get("gold") is None:
            continue
        verdict = validate(row["gold"])
        if not verdict:
            raise rowio.InputError(gold_file, n, f"gold rule does not parse: {verdict.reason}")
        row["gold"] = verdict.rule  # parsed once, for every step of the session
    generator = ReplayGenerator(replay) if replay else HttpGenerator(endpoint, model)
    config = SessionConfig(max_generations=max_generations, reward=RewardConfig(omega=omega))
    summary = run_batch(rows, generator, out_path, config)
    click.echo(
        f"sessions {summary['sessions']}  failed {summary['failed']}  "
        f"experiences {summary['experiences']} -> {out_path}"
    )


if __name__ == "__main__":
    main()
