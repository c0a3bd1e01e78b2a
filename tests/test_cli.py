"""Command-line interface: exit codes, outputs, determinism."""

import json

import pytest
from click.testing import CliRunner

from folkit.cli import main
from folkit.forge import NO_CHANGES


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


def _pairs_file(tmp_path, name="pairs.jsonl"):
    rows = [
        {"nl": "All birds can fly.", "fol": "∀x (Bird(x) → Flies(x))"},
        {"nl": "Rex is a dog.", "fol": "Dog(Rex)"},
        {"nl": "Some people like cats.", "fol": "∃x (Person(x) ∧ Likes(x, Cats))"},
        {"nl": "Paris is a city.", "fol": "City(Paris)"},
        {"nl": "Every city has a mayor.", "fol": "∀x (City(x) → HasMayor(x))"},
    ]
    return _write(
        tmp_path / name, "\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n"
    )


def test_validate_counts(tmp_path):
    path = _write(tmp_path / "rules.txt", "P(A)\nbroken =\n∀x Q(x)\n")
    result = CliRunner().invoke(main, ["validate", "--in", path])
    assert result.exit_code == 0
    assert "2 valid, 1 invalid" in result.output


def test_validate_empty_file(tmp_path):
    path = _write(tmp_path / "empty.txt", "")
    result = CliRunner().invoke(main, ["validate", "--in", path])
    assert result.exit_code == 0
    assert "checked 0 rules" in result.output


def test_score_prints_le(tmp_path):
    g = _write(tmp_path / "g.txt", "∀x (Country(x) ∧ InEU(x) → EUCountry(x))\n")
    p = _write(tmp_path / "p.txt", "∀y (LocatedInEU(y) → EUCountry(y))\n")
    result = CliRunner().invoke(main, ["score", "--gold", g, "--pred", p])
    assert result.exit_code == 0
    assert "LE 0.8750" in result.output


def test_score_misaligned_files_is_data_error(tmp_path):
    g = _write(tmp_path / "g.txt", "P(A)\nQ(B)\n")
    p = _write(tmp_path / "p.txt", "P(A)\n")
    result = CliRunner().invoke(main, ["score", "--gold", g, "--pred", p])
    assert result.exit_code == 3


def test_score_requires_inputs():
    result = CliRunner().invoke(main, ["score"])
    assert result.exit_code == 2


def test_score_pairs_tsv_and_output_file(tmp_path):
    pairs = _write(tmp_path / "pairs.tsv", "P(A)\tP(A)\nP(A)\t¬P(A)\n")
    out = tmp_path / "scores.jsonl"
    result = CliRunner().invoke(
        main, ["score", "--pairs", pairs, "--out", str(out)]
    )
    assert result.exit_code == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert rows[0]["le"] == 1.0
    assert rows[1]["le"] == 0.0


def test_perturb_records(tmp_path):
    rules = _write(tmp_path / "rules.txt", "∀x (P(x) → Q(x))\nDog(Rex)\n")
    out = tmp_path / "perturbed.jsonl"
    result = CliRunner().invoke(
        main,
        ["perturb", "--in", rules, "--out", str(out), "--negative-prob", "0.0", "--seed", "1"],
    )
    assert result.exit_code == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert row["perturbed"] != row["original"] or not row["steps_to_fix"]


_ALL_SYNTHETIC_NAMES = " ∧ ".join(f"R{i}(A)" for i in range(1, 100))  # 98 operators, within the bound


def test_perturb_and_forge_when_every_synthetic_predicate_is_taken(tmp_path):
    rules = _write(tmp_path / "rules.txt", _ALL_SYNTHETIC_NAMES + "\n")
    out = tmp_path / "perturbed.jsonl"
    result = CliRunner().invoke(main, ["perturb", "--in", rules, "--out", str(out), "--seed", "3"])
    assert result.exit_code == 0, result.output
    assert "R100(A)" in out.read_text(encoding="utf-8")
    pairs = _write(tmp_path / "pairs.jsonl", json.dumps({"nl": "Every R holds of A.", "fol": _ALL_SYNTHETIC_NAMES}) + "\n")
    out = tmp_path / "t3.jsonl"
    result = CliRunner().invoke(
        main, ["forge", "--task", "t3", "--count", "20", "--in", pairs, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(out.read_text(encoding="utf-8").splitlines()) == 20


def test_perturb_bad_rule_is_data_error(tmp_path):
    rules = _write(tmp_path / "rules.txt", "broken =\n")
    result = CliRunner().invoke(main, ["perturb", "--in", rules])
    assert result.exit_code == 3


def test_forge_deterministic(tmp_path):
    pairs = _pairs_file(tmp_path)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        result = CliRunner().invoke(
            main,
            ["forge", "--task", "t3", "--count", "100", "--seed", "7",
             "--in", pairs, "--out", str(out)],
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_forge_empty_input_is_data_error(tmp_path):
    pairs = _write(tmp_path / "empty.jsonl", "")
    result = CliRunner().invoke(
        main,
        ["forge", "--task", "t1", "--count", "1", "--in", pairs, "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 3


def test_stats_summary(tmp_path):
    pairs = _pairs_file(tmp_path)
    out = tmp_path / "stats.json"
    result = CliRunner().invoke(main, ["stats", "--in", pairs, "--out", str(out)])
    assert result.exit_code == 0
    stats = json.loads(out.read_text())
    assert stats["pair_count"] == 5
    assert stats["operator_counts"]["∀"] == 2


def test_bins(tmp_path):
    rows = [
        {"gpt_le": 1.0, "model_le": 0.8},
        {"gpt_le": 0.4, "model_le": 0.1},
    ]
    path = _write(tmp_path / "scores.jsonl", "\n".join(json.dumps(r) for r in rows))
    result = CliRunner().invoke(
        main, ["bins", "--in", path, "--edges", "1.0,0.5,0.0", "--group-key", "gpt_le"]
    )
    assert result.exit_code == 0
    bins = json.loads(result.output[result.output.index("[") :])
    assert bins[0]["count"] == 1 and bins[1]["count"] == 1


def test_bins_bad_edges_is_data_error(tmp_path):
    path = _write(tmp_path / "scores.jsonl", '{"gpt_le": 1.0}')
    result = CliRunner().invoke(main, ["bins", "--in", path, "--edges", "0.5,0.9"])
    assert result.exit_code == 3


def test_collect_replay(tmp_path):
    pairs = _pairs_file(tmp_path)
    response = "--- NL:\nSnow is white.\n---\n--- FOL:\nWhite(Snow)\n---"
    replay = _write(tmp_path / "replay.jsonl", json.dumps(response) + "\n")
    result = CliRunner().invoke(
        main,
        ["collect", "--target", "1", "--replay", replay, "--bootstrap", pairs,
         "--out-dir", str(tmp_path / "run"), "--seed", "0"],
    )
    assert result.exit_code == 0
    assert "accepted 1" in result.output


@pytest.mark.parametrize("gate_text", ['{"unigrams": ', json.dumps({"unigram_threshold": 1, "unigrams": {"snow": 9}})],
                         ids=["garbage", "stale"])
def test_collect_ignores_gate_json(tmp_path, gate_text):
    """The gate is rebuilt from accepted.jsonl; a gate.json in --out-dir is never read."""
    pairs = _pairs_file(tmp_path)
    responses = ["--- NL:\nSnow is white.\n---\n--- FOL:\nWhite(Snow)\n---", "--- NL:\nbroken\n---"]
    replay = _write(tmp_path / "replay.jsonl", "".join(json.dumps(r) + "\n" for r in responses))
    outputs = []
    for name, files in (("plain", {}), ("with-gate", {"gate.json": gate_text})):
        run = tmp_path / name
        run.mkdir()
        for file, text in files.items():
            _write(run / file, text)
        result = CliRunner().invoke(main, ["collect", "--target", "2", "--replay", replay, "--bootstrap", pairs,
                                           "--out-dir", str(run), "--seed", "0"])
        assert result.exit_code == 0, result.output
        summary = [line for line in result.output.splitlines() if line.startswith("accepted ")]
        outputs.append((summary, *((run / f).read_bytes() for f in ("accepted.jsonl", "rejections.jsonl"))))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == ["accepted 1  rejected 1  calls 2  stopped: replay-exhausted"]
    assert (tmp_path / "with-gate" / "gate.json").read_text(encoding="utf-8") == gate_text


def test_collect_requires_source(tmp_path):
    pairs = _pairs_file(tmp_path)
    result = CliRunner().invoke(
        main, ["collect", "--target", "1", "--bootstrap", pairs, "--out-dir", str(tmp_path / "r")]
    )
    assert result.exit_code == 2


def test_correct_replay_session(tmp_path):
    rows = _write(
        tmp_path / "rows.jsonl",
        json.dumps({"nl": "a", "pred": "P(A)", "gold": "P(A)"}) + "\n",
    )
    response = f"### Corrections:\n{NO_CHANGES}\n### FOL:\nP(A)"
    replay = _write(tmp_path / "replay.jsonl", json.dumps(response) + "\n")
    out = tmp_path / "experience.jsonl"
    result = CliRunner().invoke(
        main,
        ["correct", "--nl-fol-pred", rows, "--replay", replay, "--out", str(out)],
    )
    assert result.exit_code == 0
    tuples = [json.loads(l) for l in out.read_text().splitlines()]
    assert tuples[0]["reward"] == 1.0


def test_dry_run_writes_nothing(tmp_path):
    pairs = _pairs_file(tmp_path)
    out = tmp_path / "never.jsonl"
    result = CliRunner().invoke(
        main,
        ["forge", "--task", "t1", "--count", "5", "--in", pairs, "--out", str(out), "--dry-run"],
    )
    assert result.exit_code == 0
    assert not out.exists()


# ---------------------------------------------------------------------------
# input contract: every malformed input exits 3 and names its location

_CORRECT_RESPONSE = json.dumps(f"### Corrections:\n{NO_CHANGES}\n### FOL:\nP(A)")


def _collect_argv(tmp_path, replay_text, run_files=None):
    run = tmp_path / "run"
    run.mkdir()
    for name, text in (run_files or {}).items():
        _write(run / name, text)
    return ["collect", "--target", "9", "--replay", _write(tmp_path / "replay.jsonl", replay_text),
            "--bootstrap", _pairs_file(tmp_path), "--out-dir", str(run)]


def _correct_argv(tmp_path, rows_text):
    return ["correct", "--nl-fol-pred", _write(tmp_path / "rows.jsonl", rows_text),
            "--replay", _write(tmp_path / "replay.jsonl", (_CORRECT_RESPONSE + "\n") * 3),
            "--out", str(tmp_path / "out.jsonl")]


def _forge_t2_argv(tmp_path, preds_text):
    return ["forge", "--task", "t2", "--count", "20", "--in", _pairs_file(tmp_path),
            "--predictions", _write(tmp_path / "preds.txt", preds_text), "--out", str(tmp_path / "o.jsonl")]


_GOOD_ROW = json.dumps({"nl": "a", "pred": "P(A)", "gold": "P(A)"})

# (case, argv builder, location in the error: file name and line, or both file names)
MALFORMED = [
    ("tsv-row-without-tab", lambda t: ["score", "--pairs", _write(t / "pairs.tsv", "P(A)\tP(A)\nP(A) P(B)\n")],
     ["pairs.tsv:2:"]),
    ("bins-bad-json", lambda t: ["bins", "--in", _write(t / "s.jsonl", '{"gpt_le": 1.0}\n{bad\n'),
                                 "--edges", "1.0,0.0"], ["s.jsonl:2:"]),
    ("correct-unparseable-gold", lambda t: _correct_argv(
        t, _GOOD_ROW + "\n" + json.dumps({"nl": "a", "pred": "P(A)", "gold": "P(A) ="}) + "\n"), ["rows.jsonl:2:"]),
    ("forge-row-without-fol", lambda t: ["forge", "--task", "t1", "--count", "1", "--in",
                                         _write(t / "p.jsonl", '{"nl": "a", "fol": "P(A)"}\n{"nl": "b"}\n'),
                                         "--out", str(t / "o.jsonl")], ["p.jsonl:2:"]),
    ("stats-bad-json", lambda t: ["stats", "--in", _write(t / "p.jsonl", '{"nl": "a", "fol": "P(A)"}\n\nnope\n')],
     ["p.jsonl:3:"]),
    ("collect-bad-replay-line", lambda t: _collect_argv(t, '"ok"\n{oops\n'), ["replay.jsonl:2:"]),
    ("collect-bad-accepted-on-resume", lambda t: _collect_argv(
        t, '"ok"\n', {"accepted.jsonl": '{"nl": "a", "fol": "P(A)"}\ngarbage\n'}), ["accepted.jsonl:2:"]),
    ("correct-row-without-pred", lambda t: _correct_argv(t, '{"nl": "a"}\n'), ["rows.jsonl:1:"]),
    ("validate-fol-not-text", lambda t: ["validate", "--in", _write(t / "r.jsonl", 'P(A)\n{"fol": 5}\n')],
     ["r.jsonl:2:"]),
    ("validate-row-without-fol", lambda t: ["validate", "--in", _write(t / "r.jsonl", '{"nl": "a"}\n')],
     ["r.jsonl:1:"]),
    ("correct-row-is-array", lambda t: _correct_argv(t, _GOOD_ROW + "\n[1, 2]\n"), ["rows.jsonl:2:"]),
    ("validate-not-utf8", lambda t: ["validate", "--in", _write_bytes(t / "r.txt", b"P(A)\n\xff(A)\n")],
     ["r.txt:2:"]),
    ("forge-too-few-predictions", lambda t: _forge_t2_argv(t, "P(A)\n"), ["preds.txt", "pairs.jsonl"]),
    ("forge-empty-prediction", lambda t: _forge_t2_argv(t, "P(A)\nP(A)\n\nP(A)\nP(A)\n"), ["preds.txt:3:"]),
    ("stats-array-element-not-object", lambda t: ["stats", "--in", _write(
        t / "p.json", '[{"nl": "a", "fol": "P(A)"},\n 5]')], ["p.json:[1]:"]),
    ("bins-group-key-not-a-number", lambda t: ["bins", "--in", _write(t / "s.jsonl", '{"gpt_le": "high"}\n'),
                                               "--edges", "1.0,0.0"], ["s.jsonl:1:"]),
]


@pytest.mark.parametrize("build, where", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_3_with_location(tmp_path, build, where):
    result = CliRunner().invoke(main, build(tmp_path))
    assert result.exit_code == 3, result.output
    assert "Traceback" not in result.output
    for text in where:
        assert text in result.output


@pytest.mark.parametrize("argv", [["perturb", "--n-perturb", "a,b"], ["perturb", "--n-correct", "1,x"],
                                  ["bins", "--edges", "1.0,x"]])
def test_bad_number_list_is_usage_error(tmp_path, argv):
    result = CliRunner().invoke(main, argv + ["--in", _write(tmp_path / "in.txt", "P(A)\n")])
    assert result.exit_code == 2
    assert argv[1] in result.output


def test_oversized_rules_are_invalid_and_oversized_gold_is_data_error(tmp_path):
    deep = "(" * 200 + "P(A)" + ")" * 200
    implications = " → ".join(f"P{i}(A)" for i in range(1001))
    conjunctions = " ∧ ".join(f"P{i}(A)" for i in range(1200))
    rules = _write(tmp_path / "rules.txt", "\n".join([deep, implications, conjunctions]) + "\n")
    result = CliRunner().invoke(main, ["validate", "--in", rules])
    assert result.exit_code == 0
    assert "0 valid, 3 invalid" in result.output
    pairs = _write(tmp_path / "pairs.tsv", f"P(A)\tP(A)\n{conjunctions}\tP(A)\n")
    result = CliRunner().invoke(main, ["score", "--pairs", pairs])
    assert result.exit_code == 3
    assert "pairs.tsv:2:" in result.output


def test_forge_data_error_leaves_no_output_file(tmp_path):
    pairs = _write(tmp_path / "pairs.jsonl", json.dumps({"nl": "a", "fol": "P(A) ="}) + "\n")
    out = tmp_path / "o.jsonl"
    result = CliRunner().invoke(main, ["forge", "--task", "t3", "--count", "3", "--in", pairs, "--out", str(out)])
    assert result.exit_code == 3
    assert not out.exists()


# the input options each command needs besides the option under test
_RANGE_INPUTS = {
    "score": lambda t: ["--pairs", _write(t / "pairs.tsv", "P(A)\tP(A)\n")],
    "perturb": lambda t: ["--in", _write(t / "r.txt", "P(A)\n")],
    "forge": lambda t: ["--task", "t3", "--count", "1", "--in", _pairs_file(t), "--out", str(t / "o.jsonl")],
    "collect": lambda t: _collect_argv(t, '"ok"\n')[1:],
}


@pytest.mark.parametrize("argv", [["score", "--max-atoms", "0"], ["score", "--max-atoms", "21"],
                                  ["score", "--omega", "2", "--dry-run"], ["score", "--omega", "-0.1"],
                                  ["perturb", "--negative-prob", "2"], ["perturb", "--negative-prob", "-0.5"],
                                  ["forge", "--negative-prob", "1.01"], ["collect", "--align-threshold", "1.5"],
                                  ["collect", "--align-threshold", "-1"]])
def test_score_reward_options_out_of_range_are_usage_errors(tmp_path, argv):
    """Counts and fractions outside their range exit 2 and name the option, for every command."""
    result = CliRunner().invoke(main, argv + _RANGE_INPUTS[argv[0]](tmp_path))
    assert result.exit_code == 2, result.output
    assert argv[1] in result.output


def test_correct_omega_out_of_range_is_usage_error(tmp_path):
    argv = _correct_argv(tmp_path, _GOOD_ROW + "\n") + ["--omega", "1.5", "--dry-run"]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "--omega" in result.output
