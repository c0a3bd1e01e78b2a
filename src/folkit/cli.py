"""Single command-line entry point for all pipelines.

Exit codes: 0 success, 2 usage error, 3 input data error, 4 endpoint error.
Every run logs its resolved configuration so outputs are reproducible.
"""

from __future__ import annotations

import json
import logging
import random
import sys
from multiprocessing import Pool
from pathlib import Path

import click

from . import __version__, rowio
from .collect import (
    EndpointUnavailable,
    HttpGenerator,
    InsufficientCorpus,
    ReplayGenerator,
    run_collection,
)
from .fol import print_canonical
from .forge import (
    GoldUnparseableRow,
    MissingPrediction,
    bin_scores,
    corpus_stats,
    forge_records,
    load_pairs,
    write_records,
)
from .metrics import MAX_ATOMS, GoldUnparseable, RewardConfig, reward_detail
from .parser import FolSyntaxError, validate
from .parser import parse as parse_fol
from .perturb import PerturbConfig, _sample_with_texts, step_to_dict
from .session import SessionConfig, run_batch

log = logging.getLogger("folkit")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ENDPOINT = 4


class DataError(click.ClickException):
    exit_code = EXIT_DATA


class EndpointError(click.ClickException):
    exit_code = EXIT_ENDPOINT


# failures of the input data, whichever command meets them
DATA_ERRORS = (rowio.InputError, GoldUnparseable, GoldUnparseableRow, MissingPrediction, InsufficientCorpus)


class _Main(click.Group):
    """Maps data errors to exit code 3 and endpoint failures to 4, for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DATA_ERRORS as exc:
            raise DataError(str(exc)) from exc
        except EndpointUnavailable as exc:
            raise EndpointError(str(exc)) from exc


def _setup_logging(verbose: bool) -> None:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _log_config(command: str, **options) -> None:
    log.info("run config: %s", json.dumps({"command": command, **options}, default=str, sort_keys=True))


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(line number, FOL) for each non-blank line; JSONL rows may carry the
    rule under 'fol' or 'FOL'."""
    out = []
    for n, text in rowio.lines(path):
        text = text.strip()
        if not text:
            continue
        if text.startswith("{"):
            text = rowio.row(path, n, text, ("fol",), fold_case=True)["fol"]
        out.append((n, text))
    return out


def _check_counts(path_a: str, rows_a: list, path_b: str, rows_b: list) -> None:
    """Two line-aligned inputs must hold the same number of rows."""
    if len(rows_a) != len(rows_b):
        raise DataError(f"{path_a} and {path_b} differ in length: {len(rows_a)} against {len(rows_b)} rows")


def _number_list(kind):
    """A click callback parsing a comma-separated list of ``kind`` numbers."""

    def convert(ctx, param, value):
        try:
            return tuple(kind(x) for x in value.split(","))
        except ValueError:
            raise click.BadParameter(f"expected comma-separated {kind.__name__} values, got {value!r}") from None

    return convert


@click.group(cls=_Main)
@click.version_option(__version__)
@click.option("--verbose", is_flag=True, help="Debug logging.")
@click.pass_context
def main(ctx, verbose):
    """FOL toolkit: parse, score, perturb, forge, collect, correct."""
    ctx.ensure_object(dict)
    _setup_logging(verbose)


# ---------------------------------------------------------------------------


@main.command("validate")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None, help="Optional JSONL verdict report.")
@click.option("--dry-run", is_flag=True)
def validate_cmd(in_path, out_path, dry_run):
    """Check every rule in a file against the grammar."""
    _log_config("validate", in_path=in_path, out_path=out_path, dry_run=dry_run)
    rules = [text for _, text in _read_lines(in_path)]
    if dry_run:
        click.echo(f"dry-run: {len(rules)} rules to check")
        return
    verdicts = [(text, validate(text)) for text in rules]
    n_valid = sum(1 for _, v in verdicts if v)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            for text, v in verdicts:
                rowio.write(fh, {"fol": text, "valid": v.valid, "reason": v.reason})
    click.echo(f"checked {len(rules)} rules: {n_valid} valid, {len(rules) - n_valid} invalid")


# ---------------------------------------------------------------------------


def _score_one(args: tuple[str, int, str, str, float, int]) -> dict:
    gold_path, line, gold, pred, omega, max_atoms = args
    try:
        detail = reward_detail(gold, pred, RewardConfig(omega=omega, max_atoms=max_atoms))
    except GoldUnparseable as exc:
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
    (TSV or JSONL) or from the line-aligned --gold and --pred files."""
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
    golds = _read_lines(gold)
    preds = _read_lines(pred)
    _check_counts(gold, golds, pred, preds)
    return [(n, g, p) for (n, g), (_, p) in zip(golds, preds)]


@main.command("score")
@click.option("--gold", type=click.Path(exists=True), help="Gold rules, one per line.")
@click.option("--pred", type=click.Path(exists=True), help="Predicted rules, line-aligned with --gold.")
@click.option("--pairs", type=click.Path(exists=True), help="Alternatively: TSV or JSONL (gold, pred) pairs.")
@click.option("--omega", default=0.7, show_default=True, type=click.FloatRange(0.0, 1.0))
@click.option("--max-atoms", default=16, show_default=True, type=click.IntRange(1, MAX_ATOMS))
@click.option("--workers", default=1, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--dry-run", is_flag=True)
def score_cmd(gold, pred, pairs, omega, max_atoms, workers, out_path, dry_run):
    """Score (gold, pred) pairs: LE, BLEU, mixed reward, and the binding used."""
    if not pairs and not (gold and pred):
        raise click.UsageError("provide --pairs or both --gold and --pred")
    _log_config("score", gold=gold, pred=pred, pairs=pairs, omega=omega,
                max_atoms=max_atoms, workers=workers, out_path=out_path, dry_run=dry_run)
    rows = _load_pairs_for_scoring(gold, pred, pairs)
    if dry_run:
        click.echo(f"dry-run: {len(rows)} pairs to score")
        return
    gold_path = pairs or gold
    work = [(gold_path, n, g, p, omega, max_atoms) for n, g, p in rows]
    if workers > 1:
        with Pool(workers) as pool:
            results = pool.map(_score_one, work)
    else:
        results = [_score_one(w) for w in work]
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            for row in results:
                rowio.write(fh, row)
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
@click.option("--n-perturb", default="0,1,2,3,4,5,6,7,8,9,10", show_default=True, callback=_number_list(int))
@click.option("--n-correct", default="0,1,2,3", show_default=True, callback=_number_list(int))
@click.option("--negative-prob", default=0.2, show_default=True, type=click.FloatRange(0.0, 1.0))
@click.option("--seed", default=0, show_default=True)
@click.option("--dry-run", is_flag=True)
def perturb_cmd(in_path, out_path, n_perturb, n_correct, negative_prob, seed, dry_run):
    """Emit one perturbation record per input rule."""
    config = PerturbConfig(
        n_perturb_choices=n_perturb,
        n_correct_choices=n_correct,
        negative_prob=negative_prob,
        seed=seed,
    )
    _log_config("perturb", in_path=in_path, out_path=out_path, config=config, dry_run=dry_run)
    rules = []
    for n, text in _read_lines(in_path):
        try:
            rules.append(parse_fol(text))
        except FolSyntaxError as exc:
            raise rowio.InputError(in_path, n, f"rule does not parse: {exc}") from None
    if dry_run:
        click.echo(f"dry-run: {len(rules)} rules to perturb")
        return
    out_fh = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
    try:
        for i, rule in enumerate(rules):
            rng = random.Random(f"{seed}:{i}")
            perturbed, steps, texts = _sample_with_texts(rule, config, rng)
            record = {
                "original": print_canonical(rule),
                "perturbed": print_canonical(perturbed),
                "steps_to_fix": [step_to_dict(s, t) for s, t in zip(steps, texts)],
            }
            rowio.write(out_fh, record)
    finally:
        if out_path:
            out_fh.close()
    if out_path:
        click.echo(f"wrote {len(rules)} perturbation records to {out_path}")


# ---------------------------------------------------------------------------


@main.command("forge")
@click.option("--task", type=click.Choice(["t1", "t2", "t3"]), required=True)
@click.option("--count", required=True, type=int)
@click.option("--seed", default=0, show_default=True)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--predictions", type=click.Path(exists=True), default=None,
              help="T2: model predictions, one per line, aligned with the input pairs.")
@click.option("--negative-prob", default=0.2, show_default=True, type=click.FloatRange(0.0, 1.0))
@click.option("--dry-run", is_flag=True)
def forge_cmd(task, count, seed, in_path, out_path, predictions, negative_prob, dry_run):
    """Forge training records from (NL, FOL) pairs."""
    config = PerturbConfig(negative_prob=negative_prob, seed=seed)
    _log_config("forge", task=task, count=count, seed=seed, in_path=in_path,
                out_path=out_path, predictions=predictions, dry_run=dry_run)
    pairs = load_pairs(in_path)
    if not pairs:
        raise DataError(f"no pairs in {in_path}")
    preds = None
    if predictions and task == "t2":
        # blank lines are kept: line i is the prediction for pair i
        preds = [text.strip() for _, text in rowio.lines(predictions)]
        _check_counts(predictions, preds, in_path, pairs)
        for n, text in enumerate(preds, 1):
            if not text:
                raise rowio.InputError(predictions, n, "empty prediction")
    if dry_run:
        click.echo(f"dry-run: would forge {count} {task} records from {len(pairs)} pairs")
        return
    n = write_records(forge_records(pairs, task, count, config, preds), out_path)
    click.echo(f"forged {n} {task} records to {out_path}")


# ---------------------------------------------------------------------------


@main.command("stats")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--top-terms", default=40, show_default=True)
@click.option("--top-pairs", default=200, show_default=True)
@click.option("--dry-run", is_flag=True)
def stats_cmd(in_path, out_path, top_terms, top_pairs, dry_run):
    """Corpus statistics over an (NL, FOL) pairs file."""
    _log_config("stats", in_path=in_path, out_path=out_path, dry_run=dry_run)
    pairs = load_pairs(in_path)
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
@click.option("--dry-run", is_flag=True)
def bins_cmd(in_path, edges, group_key, out_path, dry_run):
    """Per-bin score means grouped by one score column."""
    _log_config("bins", in_path=in_path, edges=edges, group_key=group_key, dry_run=dry_run)
    rows = []
    for n, row in rowio.jsonl(in_path):
        if not isinstance(row.get(group_key), (int, float)):
            raise rowio.InputError(in_path, n, f"group key {group_key!r} is not a number")
        rows.append(row)
    if dry_run:
        click.echo(f"dry-run: {len(rows)} rows, {len(edges) - 1} bins")
        return
    try:
        result = bin_scores(rows, list(edges), group_key)
    except ValueError as exc:
        raise DataError(str(exc))
    payload = json.dumps(result, indent=2)
    if out_path:
        Path(out_path).write_text(payload + "\n", encoding="utf-8")
    click.echo(payload)


# ---------------------------------------------------------------------------


@main.command("collect")
@click.option("--target", required=True, type=int)
@click.option("--endpoint", default=None, help="Chat-completions base URL.")
@click.option("--model", default="gpt-4", show_default=True)
@click.option("--replay", type=click.Path(exists=True), default=None,
              help="Canned responses JSONL; replaces the endpoint.")
@click.option("--bootstrap", required=True, type=click.Path(exists=True),
              help="Initial (NL, FOL) pairs for few-shot sampling.")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--align-threshold", default=0.5, show_default=True, type=click.FloatRange(0.0, 1.0))
@click.option("--seed", default=0, show_default=True)
@click.option("--max-calls", default=None, type=int)
@click.option("--dry-run", is_flag=True)
def collect_cmd(target, endpoint, model, replay, bootstrap, out_dir, align_threshold, seed, max_calls, dry_run):
    """Collect NL-FOL pairs from a generator endpoint or a replay file."""
    if not replay and not endpoint:
        raise click.UsageError("provide --endpoint or --replay")
    _log_config("collect", target=target, endpoint=endpoint, replay=replay, bootstrap=bootstrap,
                out_dir=out_dir, align_threshold=align_threshold, seed=seed,
                max_calls=max_calls, dry_run=dry_run)
    pairs = load_pairs(bootstrap)
    if dry_run:
        click.echo(f"dry-run: target {target}, bootstrap corpus of {len(pairs)}")
        return
    generator = ReplayGenerator(replay) if replay else HttpGenerator(endpoint, model)
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
@click.option("--max-generations", default=10, show_default=True)
@click.option("--omega", default=0.7, show_default=True, type=click.FloatRange(0.0, 1.0))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dry-run", is_flag=True)
def correct_cmd(in_path, gold_path, endpoint, model, replay, max_generations, omega, out_path, dry_run):
    """Run iterative correction sessions and stream experience tuples."""
    if not replay and not endpoint:
        raise click.UsageError("provide --endpoint or --replay")
    _log_config("correct", in_path=in_path, gold_path=gold_path, endpoint=endpoint,
                replay=replay, max_generations=max_generations, out_path=out_path, dry_run=dry_run)
    numbered = list(rowio.jsonl(in_path, ("nl", "pred")))
    gold_file, gold_lines = in_path, numbered  # the file and lines each row's gold comes from
    if gold_path:
        gold_file, gold_lines = gold_path, _read_lines(gold_path)
        _check_counts(gold_path, gold_lines, in_path, numbered)
        for (_, row), (_, g) in zip(numbered, gold_lines):
            row["gold"] = g
    rows = [row for _, row in numbered]
    if dry_run:
        click.echo(f"dry-run: {len(rows)} sessions to run")
        return
    for (n, _), row in zip(gold_lines, rows):
        gold = row.get("gold")
        if gold is None:
            continue
        verdict = validate(gold)
        if not verdict:
            raise rowio.InputError(gold_file, n, f"gold rule does not parse: {verdict.reason}")
    generator = ReplayGenerator(replay) if replay else HttpGenerator(endpoint, model)
    config = SessionConfig(max_generations=max_generations, reward=RewardConfig(omega=omega))
    summary = run_batch(rows, generator, out_path, config)
    click.echo(
        f"sessions {summary['sessions']}  failed {summary['failed']}  "
        f"experiences {summary['experiences']} -> {out_path}"
    )


if __name__ == "__main__":
    main()
