"""Seeded inputs, folkit CLI arguments and output checks for each workload.

Every input comes from ``--seed``; the CLI sees only the generated files.
Each check recomputes what the output must be from the workload's own design
or from an independent reference, never from a digest of earlier output.
"""

from __future__ import annotations

import bisect
import importlib.util
import json
import math
import random
import re
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from folkit.collect import NgramGate
from folkit.fol import atoms, print_canonical
from folkit.forge import NO_CHANGES, CorrectionRecord, forge_records
from folkit.parser import validate
from folkit.perturb import PerturbConfig, random_rule, sample_perturbation

OMEGA = 0.7
TOLERANCE = 1e-12


@dataclass
class Case:
    """One generated workload: how to run it, and how to check one run."""

    argv: list[str]  # folkit CLI arguments, without the program name
    items: int  # items one CLI run completes
    check: Callable[[str], int]  # CLI stdout -> items whose output is wrong
    reset: Callable[[], None] = lambda: None  # restore state a run consumes
    notes: dict = field(default_factory=dict)

    @property
    def dry_argv(self) -> list[str]:
        return self.argv + ["--dry-run"]


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _read_jsonl(path: Path) -> list:
    if not path.exists():
        return []
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError:
                    rows.append(None)
    return rows


def _gold_width(rng: random.Random) -> int:
    """Gold rules have at most 5 literals, with a tenth allowed 6."""
    return 6 if rng.random() < 0.1 else 5


def _nl_for(rule) -> str:
    words = [re.sub(r"(?<!^)(?=[A-Z])", " ", a.predicate).lower() for a in atoms(rule)]
    return "a statement about " + ", ".join(words)


def load_oracle(root: Path):
    """The repository's exhaustive LE oracle, imported read-only from tests/."""
    spec = importlib.util.spec_from_file_location("le_oracle", root / "tests" / "le_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.exhaustive_le


# ---------------------------------------------------------------------------
# score_mixed

SCORE_PAIRS = 600

# Pairs per (larger, smaller) atom count of the two sides and whether pred is
# identical to gold, counted over 50,000 draws of this generator. A run takes
# each cell's share of SCORE_PAIRS, so a fresh seed carries the same mix of
# cheap and expensive LE searches; left to chance, the five slowest pairs
# carry about half a run and pairs/s moves by a fifth between seeds. Cells
# with 8 or more atoms (0.2% of draws, up to 2 s a pair) are left out.
SCORE_CELLS = {
    (1, 1, False): 4279, (1, 1, True): 2070,
    (2, 1, False): 4995, (2, 2, False): 3659, (2, 2, True): 1972,
    (3, 1, False): 1891, (3, 2, False): 3376, (3, 3, False): 3178, (3, 3, True): 2021,
    (4, 1, False): 811, (4, 2, False): 1383, (4, 3, False): 3083, (4, 4, False): 3148,
    (4, 4, True): 2052,
    (5, 1, False): 421, (5, 2, False): 588, (5, 3, False): 1055, (5, 4, False): 2714,
    (5, 5, False): 2713, (5, 5, True): 1734,
    (6, 1, False): 29, (6, 2, False): 34, (6, 3, False): 117, (6, 4, False): 400,
    (6, 5, False): 1250, (6, 6, False): 230, (6, 6, True): 157,
    (7, 3, False): 10, (7, 4, False): 86, (7, 5, False): 327, (7, 6, False): 104,
}


def apportion(total: int, weights: dict) -> dict:
    """Largest-remainder split of ``total`` items by weight; empty shares dropped."""
    weight = sum(weights.values())
    exact = {k: total * v / weight for k, v in weights.items()}
    quotas = {k: math.floor(x) for k, x in exact.items()}
    by_remainder = sorted(exact, key=lambda k: (exact[k] - quotas[k], weights[k]), reverse=True)
    for k in by_remainder[: total - sum(quotas.values())]:
        quotas[k] += 1
    return {k: q for k, q in quotas.items() if q}


def score_mixed(seed: int, workdir: Path, root: Path, scale: float = 1.0) -> Case:
    n = max(1, round(SCORE_PAIRS * scale))
    rng = random.Random(f"score_mixed:{seed}")
    quotas = apportion(n, SCORE_CELLS)
    cells: dict[tuple, list] = {k: [] for k in quotas}
    missing = n
    for _ in range(500 * n):
        if not missing:
            break
        gold = random_rule(rng, _gold_width(rng))
        pred, _ = sample_perturbation(gold, PerturbConfig(), rng)
        n_g, n_p = len(atoms(gold)), len(atoms(pred))
        key = (max(n_g, n_p), min(n_g, n_p), gold == pred)
        if len(cells.get(key, ())) < quotas.get(key, 0):
            cells[key].append((print_canonical(gold), print_canonical(pred), key[0] <= 4))
            missing -= 1
    if missing:
        raise RuntimeError("score_mixed: could not fill the pair quotas")
    pairs = [p for k in sorted(cells) for p in cells[k]]
    rng.shuffle(pairs)

    pairs_path, out_path = workdir / "pairs.jsonl", workdir / "scores.jsonl"
    _write_jsonl(pairs_path, ({"gold": g, "pred": p} for g, p, _ in pairs))
    exhaustive_le = load_oracle(root)
    oracle: dict[int, float] = {}

    def row_ok(i: int, row) -> bool:
        gold, pred, small = pairs[i]
        if not isinstance(row, dict) or row.get("gold") != gold or row.get("pred") != pred:
            return False
        try:
            le, bleu, reward = float(row["le"]), float(row["bleu"]), float(row["reward"])
        except (KeyError, TypeError, ValueError):
            return False
        if abs(reward - (OMEGA * le + (1 - OMEGA) * bleu)) > TOLERANCE or not 0.0 <= le <= 1.0:
            return False
        if gold == pred and le != 1.0:
            return False
        if small:
            if i not in oracle:
                oracle[i] = exhaustive_le(gold, pred)
            if le > oracle[i] + TOLERANCE:
                return False
        return True

    def check(stdout: str) -> int:
        rows = _read_jsonl(out_path)
        failed = sum(1 for i in range(len(pairs)) if i >= len(rows) or not row_ok(i, rows[i]))
        return min(len(pairs), failed + max(0, len(rows) - len(pairs)))

    argv = ["score", "--pairs", str(pairs_path), "--workers", "1", "--out", str(out_path)]
    return Case(argv, len(pairs), check, notes={"cells": len(quotas)})


# ---------------------------------------------------------------------------
# forge_t3

FORGE_PAIRS = 400
FORGE_RECORDS = 1000


# Distinct atoms per gold rule, counted over 50,000 draws of random_rule at
# _gold_width. Work per rule grows steeply with its atom count, so inputs keep
# these shares exactly rather than leaving them to the seed.
GOLD_ATOMS = {1: 9862, 2: 9999, 3: 10284, 4: 10197, 5: 8965, 6: 693}


def _gold_rules(rng: random.Random, n: int) -> list:
    """n random_rule golds with the reference share of each atom count."""
    quotas = apportion(n, GOLD_ATOMS)
    rules = []
    for _ in range(1000 * n):
        if len(rules) == n:
            break
        rule = random_rule(rng, _gold_width(rng))
        k = len(atoms(rule))
        if quotas.get(k, 0):
            quotas[k] -= 1
            rules.append(rule)
    if len(rules) < n:
        raise RuntimeError("could not fill the gold atom-count quotas")
    rng.shuffle(rules)
    return rules


def _pair(rule) -> tuple[str, str]:
    return _nl_for(rule), print_canonical(rule)


def forge_t3(seed: int, workdir: Path, root: Path, scale: float = 1.0) -> Case:
    rng = random.Random(f"forge_t3:{seed}")
    pairs = [_pair(r) for r in _gold_rules(rng, max(1, round(FORGE_PAIRS * scale)))]
    count = max(1, round(FORGE_RECORDS * scale))
    in_path, out_path = workdir / "pairs.jsonl", workdir / "records.jsonl"
    _write_jsonl(in_path, ({"nl": nl, "fol": fol} for nl, fol in pairs))
    golds = {fol for _, fol in pairs}
    verdicts: dict[str, bool] = {}

    def record_ok(line: str) -> bool:
        if line not in verdicts:
            try:
                d = json.loads(line)
                rec = CorrectionRecord.from_dict(d)
                verdicts[line] = (
                    rec.fol_gold in golds
                    and bool(validate(rec.fol_input))
                    and rec.replay() == rec.fol_gold
                )
            # a corrupted record may fail anywhere inside replay; it counts as wrong
            except Exception:  # noqa: BLE001
                verdicts[line] = False
        return verdicts[line]

    def check(stdout: str) -> int:
        lines = out_path.read_text(encoding="utf-8").splitlines() if out_path.exists() else []
        failed = sum(1 for line in lines[:count] if not record_ok(line))
        return min(count, failed + abs(len(lines) - count))

    argv = ["forge", "--task", "t3", "--count", str(count), "--seed", str(seed),
            "--in", str(in_path), "--out", str(out_path)]
    return Case(argv, count, check)


# ---------------------------------------------------------------------------
# collect_resume

COLLECT_PRIOR = 20000  # statements already accepted, folded into gate.json
COLLECT_VOCAB = 6000
COLLECT_DESIGN = {"accepted": 80, "syntax": 40, "blocked": 40, "alignment": 40}
COLLECT_MALFORMED = 24  # blocks with an NL but no FOL, or a FOL but no NL
BLOCKS_PER_RESPONSE = 6

_CONSONANTS = "bdfgklmnprst"
_VOWELS = "aiou"  # no "e": no word ends in a suffix the alignment stemmer strips


def _syllable_word(i: int, lead: str) -> str:
    out = lead
    while True:
        i, r = divmod(i, len(_CONSONANTS) * len(_VOWELS))
        out += _CONSONANTS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)]
        if i == 0:
            return out
        i -= 1


def _block(kind: str, text: str) -> str:
    return f"--- {kind}:\n{text}\n---"


def collect_resume(seed: int, workdir: Path, root: Path, scale: float = 1.0) -> Case:
    rng = random.Random(f"collect_resume:{seed}")
    prior_n = max(1000, round(COLLECT_PRIOR * scale))
    design = {k: max(1, round(v * scale)) for k, v in COLLECT_DESIGN.items()}
    n_malformed = max(2, round(COLLECT_MALFORMED * scale))

    # prior statements: Zipf-skewed words from a vocabulary that never starts with "q"
    vocab = [_syllable_word(i, "") for i in range(COLLECT_VOCAB)]
    vocab = [w for w in vocab if len(w) > 2]
    cum, total = [], 0.0
    for r in range(len(vocab)):
        total += 1.0 / (r + 1) ** 1.1
        cum.append(total)
    gate = NgramGate()
    prior_rows = []
    for _ in range(prior_n):
        words = [vocab[bisect.bisect(cum, rng.random() * total)] for _ in range(rng.randint(9, 17))]
        nl = " ".join(words)
        gate.update(nl)
        prior_rows.append({"nl": nl, "fol": f"{words[0].capitalize()}({words[1].capitalize()})"})
    blocked_words = sorted(g for g, c in gate.unigrams.items() if c >= gate.unigram_threshold)
    if not blocked_words:
        raise RuntimeError("collect_resume: the prior corpus blocks no unigram")

    template = workdir / "resume_template"
    template.mkdir()
    (template / "gate.json").write_text(json.dumps(gate.to_dict(), ensure_ascii=False), encoding="utf-8")
    _write_jsonl(template / "accepted.jsonl", prior_rows)

    # designed candidates: fresh "q" words are unseen by the gate and unique per block
    fresh_count = 0

    def fresh(k: int) -> list[str]:
        nonlocal fresh_count
        words = [_syllable_word(fresh_count + j, "q") for j in range(k)]
        fresh_count += k
        return words

    def pred(w: str) -> str:
        return w.capitalize()

    blocks: list[tuple[str, str, str, str]] = []  # (expected class, key, NL text or "", FOL text or "")
    for cls, n in design.items():
        for _ in range(n):
            words = fresh(rng.randint(3, 5))
            fol = f"∀x ({pred(words[0])}(x) → {pred(words[1])}(x))"
            if cls == "syntax":
                fol = f"{pred(words[0])}(x) = {pred(words[1])}(x)"
            elif cls == "blocked":
                words.insert(rng.randrange(len(words) + 1), rng.choice(blocked_words))
            elif cls == "alignment":
                other = fresh(2)
                fol = f"∀x ({pred(other[0])}(x) → {pred(other[1])}(x))"
            nl = " ".join(words)
            blocks.append((cls, nl, nl, fol))
    for i in range(n_malformed):
        text = " ".join(fresh(3))
        if i % 2:
            blocks.append(("malformed", text, text, ""))
        else:
            fol = f"{pred(text.split()[0])}(x)"
            blocks.append(("malformed", fol, "", fol))
    rng.shuffle(blocks)

    # A lone FOL block is malformed only where no NL is pending, so each
    # response opens with its lone FOL blocks and closes with its lone NL blocks.
    responses = []
    for start in range(0, len(blocks), BLOCKS_PER_RESPONSE):
        chunk = blocks[start : start + BLOCKS_PER_RESPONSE]
        lone_fol = [b for b in chunk if b[0] == "malformed" and not b[2]]
        lone_nl = [b for b in chunk if b[0] == "malformed" and b[2]]
        pairs = [b for b in chunk if b[0] != "malformed"]
        parts = [_block("FOL", b[3]) for b in lone_fol]
        parts += [_block("NL", b[2]) + "\n" + _block("FOL", b[3]) for b in pairs]
        parts += [_block("NL", b[2]) for b in lone_nl]
        responses.append({"response": "\n".join(parts)})

    bootstrap = [(" ".join(w), f"{pred(w[0])}({pred(w[1])})") for w in (fresh(3) for _ in range(20))]
    boot_path, replay_path = workdir / "bootstrap.jsonl", workdir / "replay.jsonl"
    _write_jsonl(boot_path, ({"nl": nl, "fol": fol} for nl, fol in bootstrap))
    _write_jsonl(replay_path, responses)
    out_dir = workdir / "collection"

    def reset() -> None:
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.copytree(template, out_dir)

    expected = {key: cls for cls, key, _, _ in blocks}
    n_candidates = sum(design.values())

    def check(stdout: str) -> int:
        observed: dict[str, str] = {}
        extra = 0
        for row in _read_jsonl(out_dir / "accepted.jsonl")[prior_n:]:
            key = row.get("nl") if isinstance(row, dict) else None
            extra += key in observed or key not in expected
            observed[key] = "accepted"
        for row in _read_jsonl(out_dir / "rejections.jsonl"):
            if not isinstance(row, dict):
                extra += 1
                continue
            reason = row.get("reason", "")
            if reason in ("NL without FOL", "FOL without NL"):
                key, cls = row.get("text"), "malformed"
            else:
                key = row.get("nl")
                cls = {"syntax": "syntax", "blocked-ngram": "blocked",
                       "alignment": "alignment"}.get(reason.split(":", 1)[0], "other")
            extra += key in observed or key not in expected
            observed[key] = cls
        wrong = sum(1 for key, cls in expected.items() if observed.get(key) != cls)
        return min(n_candidates, wrong + extra)

    argv = ["collect", "--target", str(prior_n + design["accepted"] + 1), "--replay", str(replay_path),
            "--bootstrap", str(boot_path), "--out-dir", str(out_dir), "--seed", str(seed)]
    return Case(argv, n_candidates, check, reset,
                notes={"trigrams": len(gate.trigrams), "blocked_unigrams": len(blocked_words)})


# ---------------------------------------------------------------------------
# correct_replay

CORRECT_SESSIONS = 400
MAX_GENERATIONS = 4
MAX_OUTPUT_TOKENS = 256  # folkit's SessionConfig default

# session designs: the replayed answers, tuples emitted, and final state
CORRECT_DESIGN = {"plain": 55, "malformed": 15, "repair": 15, "limit": 5, "bad": 10}
GARBAGE = "I am not sure which correction applies here."


def correct_replay(seed: int, workdir: Path, root: Path, scale: float = 1.0) -> Case:
    rng = random.Random(f"correct_replay:{seed}")
    n = max(len(CORRECT_DESIGN), round(CORRECT_SESSIONS * scale))
    # Golds with more atoms cost more per reward call, and the designs differ
    # in calls per session, so each atom count gets its share of every design.
    by_atoms: dict[int, list] = {}
    for rule in _gold_rules(rng, n):
        by_atoms.setdefault(len(atoms(rule)), []).append(rule)
    sessions = [(rule, kind) for group in by_atoms.values()
                for rule, kind in zip(group, (k for k, c in apportion(len(group), CORRECT_DESIGN).items()
                                              for _ in range(c)))]
    rng.shuffle(sessions)
    kinds = [kind for _, kind in sessions]
    # one forged t3 record per session, so the sessions keep the golds' mix
    records = [next(forge_records([_pair(rule)], "t3", 1, PerturbConfig(seed=f"{seed}:{j}")))
               for j, (rule, _) in enumerate(sessions)]

    rows, responses, expected = [], [], []  # expected: (nl, gold, tuples)
    for rec, kind in zip(records, kinds):
        gold, pred = rec.fol_gold, rec.fol_input
        fix = "### Corrections:\n" + "".join(s["text"] + "\n" for s in rec.target_steps) + f"### FOL:\n{gold}"
        done = f"### Corrections:\n{NO_CHANGES}\n### FOL:\n{gold}"
        if len(fix.split()) > MAX_OUTPUT_TOKENS:
            raise RuntimeError("correct_replay: an oracle answer exceeds the output limit")
        if kind in ("repair", "bad"):
            broken = pred + " ∧"
            rows.append({"nl": rec.nl, "pred": broken, "gold": gold})
            if kind == "bad":
                responses.append(f"### FOL:\n{broken}")
                expected.append((rec.nl, gold, 0))
                continue
            responses += [f"### FOL:\n{pred}", fix, done]
            expected.append((rec.nl, gold, 2))
            continue
        rows.append({"nl": rec.nl, "pred": pred, "gold": gold})
        if kind == "plain":
            responses += [fix, done]
            expected.append((rec.nl, gold, 2))
        elif kind == "malformed":
            responses += [fix, GARBAGE, done]
            expected.append((rec.nl, gold, 3))
        else:  # limit: never says "no changes", so it stops at MAX_GENERATIONS
            responses += [fix] * MAX_GENERATIONS
            expected.append((rec.nl, gold, MAX_GENERATIONS))
    n_bad = sum(1 for _, _, t in expected if t == 0)

    rows_path, replay_path = workdir / "rows.jsonl", workdir / "replay.jsonl"
    out_path = workdir / "experiences.jsonl"
    _write_jsonl(rows_path, rows)
    _write_jsonl(replay_path, ({"response": r} for r in responses))

    def check(stdout: str) -> int:
        tuples = _read_jsonl(out_path)
        pos = failed = 0
        for nl, gold, k in expected:
            chunk = tuples[pos : pos + k]
            pos += k
            ok = len(chunk) == k and all(isinstance(t, dict) and t.get("nl") == nl for t in chunk)
            if ok and k:
                last = chunk[-1]
                ok = (last.get("corrected_fol") == gold
                      and isinstance(last.get("reward"), (int, float))
                      and abs(last["reward"] - 1.0) <= TOLERANCE)
            failed += not ok
        m = re.search(r"failed (\d+)", stdout)
        reported_bad = int(m.group(1)) if m else -1
        failed += abs(reported_bad - n_bad) + max(0, len(tuples) - pos)
        return min(len(expected), failed)

    argv = ["correct", "--nl-fol-pred", str(rows_path), "--replay", str(replay_path),
            "--max-generations", str(MAX_GENERATIONS), "--out", str(out_path)]
    return Case(argv, len(expected), check, notes={"designs": dict(Counter(kinds))})


# ---------------------------------------------------------------------------

WORKLOADS = {
    "score_mixed": score_mixed,
    "forge_t3": forge_t3,
    "collect_resume": collect_resume,
    "correct_replay": correct_replay,
}
