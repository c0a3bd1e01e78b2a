"""Fixed outputs: under a fixed seed, every command writes the same bytes.

Each case is one file or stdout stream that a command writes, in process, from
small seeded inputs. Its sha256 is pinned. A change that alters any of these
bytes fails here; one that means to alter them says why and pins new hashes.
The inputs come from ``random_rule`` and ``sample_perturbation``, so a change
to the generator or the sampler shows here too.
"""

import hashlib
import json
import random

import pytest
from click.testing import CliRunner

from folkit.cli import main
from folkit.fol import NO_CHANGES, camel_words, literal_occurrences, print_canonical
from folkit.perturb import PerturbConfig, random_rule, sample_perturbation

_WORDS = ["every", "some", "bird", "city", "red", "owns", "likes", "a", "the", "is", "not", "round", "tall"]

EXPECTED = {
    "forge_t1": "ec4e4cda02d4289d475847cff39c6059f6adf6f23f4326f0215b8daa6dabec08",
    "forge_t2": "c053d5b8259754fe1a69b8e3b78b0b016634d96cda3522b6b492b28441c5b38e",
    "forge_t2_predictions": "88e0b9026a8774677ca3a5334ec3911422bf1eacd0e8bc09a85268c10cff69b3",
    "forge_t3": "bef09e9e2ac39369c7772a9a9dc6ec218ab0a70961373d8987c4014e25c103fb",
    "perturb_out": "2fba4f95e8eb8b23d4974c98797d39822d32c9444813d0ee2c8e8dc29a7a9507",
    "perturb_stdout": "2fba4f95e8eb8b23d4974c98797d39822d32c9444813d0ee2c8e8dc29a7a9507",
    "score_out": "19bba23ccaed7a9dc40c6ffe6b5a75acede554f41fa36fdbfc8f93b7439abfd3",
    "correct_out": "a079fa7ad1f5b83d243214a9fd5b9c0246c2a990ea504849c51751b845d8610f",
    "collect_accepted": "e8f9840c43fb46fd157081745e5de44cdf9886501ed5044613d570a44eaf036e",
    "collect_rejections": "6ff249dac4bfea089cd9400a1b25b3f19a28dde8d3148e81b9cd5e3039bd412f",
    "validate_out": "94a4172a0d7726753405d45fd7e8b0c53bb5e105b8503bc14ca39a3c78f36feb",
    "stats_out": "9b55c0144f9ef111e263377f27011389b6208a0e56f1afc34622d850d69af236",
    "bins_stdout": "64264b8782144187e2ba8969bdac928b42fabef9c5282f2101c69ed1f4cf8a77",
}


def _jsonl(path, rows):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def _text(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _run(argv) -> bytes:
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Name → bytes written, for every case of EXPECTED."""
    d = tmp_path_factory.mktemp("fixed")
    rng = random.Random("fixed-outputs")
    trees = [random_rule(rng, max_literals=6) for _ in range(40)]
    golds = [print_canonical(rule) for rule in trees]
    # the predicates' words, so that most pairs pass collect's alignment check
    nls = [" ".join([rng.choice(_WORDS), *(w for lit in literal_occurrences(rule) for w in camel_words(lit.predicate)),
                     rng.choice(_WORDS)]) for rule in trees]
    preds = [print_canonical(sample_perturbation(rule, PerturbConfig(), rng)[0]) for rule in trees]
    pairs = _jsonl(d / "pairs.jsonl", [{"nl": nl, "fol": fol} for nl, fol in zip(nls, golds)])
    rules = _text(d / "rules.txt", golds)
    out = {}

    for task, extra in (("t1", []), ("t2", []), ("t2_predictions", ["--predictions", _text(d / "preds.txt", preds)]),
                        ("t3", [])):
        path = d / f"forge_{task}.jsonl"
        _run(["forge", "--task", task[:2], "--count", "120", "--seed", "3", "--in", pairs, "--out", str(path), *extra])
        out[f"forge_{task}"] = path.read_bytes()

    perturb = ["perturb", "--in", rules, "--seed", "5", "--negative-prob", "0.1"]
    _run([*perturb, "--out", str(d / "perturbed.jsonl")])
    out["perturb_out"] = (d / "perturbed.jsonl").read_bytes()
    out["perturb_stdout"] = _run(perturb)

    scored = d / "scores.jsonl"
    tsv = _text(d / "pairs.tsv", [f"{g}\t{p}" for g, p in zip(golds, preds)] + [f"{golds[0]}\t{golds[0]} ∧"])
    _run(["score", "--pairs", tsv, "--out", str(scored)])
    out["score_out"] = scored.read_bytes()

    # correct: sessions that end on "no changes", meet garbage, or run to the limit
    rows, responses = [], []
    for i, (nl, gold, pred) in enumerate(zip(nls[:12], golds, preds)):
        rows.append({"nl": nl, "pred": pred, "gold": gold})
        fix = f"### Corrections:\nFix step {i}\n### FOL:\n{gold}"
        done = f"### Corrections:\n{NO_CHANGES}\n### FOL:\n{gold}"
        responses += ([fix, done], [fix, "no sections here", done], [fix, fix, fix])[i % 3]
    experiences = d / "experiences.jsonl"
    _run(["correct", "--nl-fol-pred", _jsonl(d / "rows.jsonl", rows), "--replay",
          _jsonl(d / "replay.jsonl", [{"response": r} for r in responses]),
          "--max-generations", "3", "--out", str(experiences)])
    out["correct_out"] = experiences.read_bytes()

    # collect: well-formed pairs, a rule that does not parse, and a block without FOL
    blocks = [f"--- NL:\n{nl}\n---\n--- FOL:\n{fol}\n---" for nl, fol in zip(nls[12:], golds[12:])]
    blocks[2] = f"--- NL:\n{nls[14]}\n---\n--- FOL:\n{golds[14]} ∧\n---"
    blocks[5] = f"--- NL:\n{nls[17]}\n---"
    replay = _jsonl(d / "collect_replay.jsonl", ["\n".join(blocks[k:k + 4]) for k in range(0, len(blocks), 4)])
    run_dir = d / "run"
    _run(["collect", "--target", "12", "--replay", replay, "--bootstrap", pairs, "--out-dir", str(run_dir),
          "--seed", "2"])
    out["collect_accepted"] = (run_dir / "accepted.jsonl").read_bytes()
    out["collect_rejections"] = (run_dir / "rejections.jsonl").read_bytes()

    verdicts = d / "verdicts.jsonl"
    _run(["validate", "--in", _text(d / "mixed.txt", golds[:10] + preds[:10] + ["P(A) =", "∀x", "¬P(A)"]),
          "--out", str(verdicts)])
    out["validate_out"] = verdicts.read_bytes()

    stats = d / "stats.json"
    _run(["stats", "--in", pairs, "--out", str(stats), "--top-terms", "10", "--top-pairs", "10"])
    out["stats_out"] = stats.read_bytes()

    scores = [{"gpt_le": round(rng.random(), 3), "model_le": round(rng.random(), 2), "count": rng.randint(0, 9),
               "note": rng.choice(_WORDS)} for _ in range(30)]
    out["bins_stdout"] = _run(["bins", "--in", _jsonl(d / "bins.jsonl", scores), "--edges", "1.0,0.7,0.4,0.0"])
    return out


def test_every_case_is_pinned(outputs):
    assert set(outputs) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_bytes_are_fixed(outputs, name):
    assert outputs[name], name
    assert hashlib.sha256(outputs[name]).hexdigest() == EXPECTED[name], name
