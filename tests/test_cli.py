"""Command-line interface: exit codes, outputs, determinism."""

import json
import logging
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

import folkit.metrics
from folkit import cli, parser
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


def test_validate_out_keeps_no_parse_tree(tmp_path, monkeypatch):
    """By the time validate writes its report, every parsed tree is freed."""
    trees, alive_at_write = [], []
    real_validate, real_write = cli.validate, cli.rowio.write

    def recording_validate(text):
        verdict = real_validate(text)
        if verdict.rule is not None:
            trees.append(weakref.ref(verdict.rule))
        return verdict

    def recording_write(fh, value):
        alive_at_write.append(sum(ref() is not None for ref in trees))
        real_write(fh, value)

    monkeypatch.setattr(cli, "validate", recording_validate)
    monkeypatch.setattr(cli.rowio, "write", recording_write)
    path = _write(tmp_path / "rules.txt", "P(A)\nbroken =\n∀x Q(x)\n")
    result = CliRunner().invoke(main, ["validate", "--in", path, "--out", str(tmp_path / "report.jsonl")])
    assert result.exit_code == 0
    assert len(trees) == 2
    assert alive_at_write == [0, 0, 0]
    rows = [json.loads(l) for l in (tmp_path / "report.jsonl").read_text().splitlines()]
    assert rows == [
        {"fol": "P(A)", "valid": True, "reason": ""},
        {"fol": "broken =", "valid": False, "reason": "banned symbol '=' (at position 7)"},
        {"fol": "∀x Q(x)", "valid": True, "reason": ""},
    ]


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


def test_score_pairs_gold_and_pred_by_line_number(tmp_path):
    """Lines blank in both files are skipped; every other pair keeps its own line number."""
    g = _write(tmp_path / "g.txt", "P(A)\n\nQ(B)\n  \n\n" + json.dumps({"FOL": "R(C)"}) + "\n")
    p = _write(tmp_path / "p.txt", "P(A)\n\nQ(B)\n\n\nR(C)\n\n")
    out = tmp_path / "scores.jsonl"
    result = CliRunner().invoke(main, ["score", "--gold", g, "--pred", p, "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert [(r["gold"], r["pred"], r["le"]) for r in rows] == [("P(A)", "P(A)", 1.0), ("Q(B)", "Q(B)", 1.0),
                                                                ("R(C)", "R(C)", 1.0)]
    bad_gold = _write(tmp_path / "bad.txt", "P(A)\n\nQ(B) =\n")
    short_pred = _write(tmp_path / "short.txt", "P(A)\n\nQ(B)\n")
    result = CliRunner().invoke(main, ["score", "--gold", bad_gold, "--pred", short_pred])
    assert result.exit_code == 3
    assert "bad.txt:3: gold rule does not parse" in result.output


def test_score_builds_one_reward_config_per_run(tmp_path, monkeypatch):
    real, built = folkit.metrics.RewardConfig, []

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(folkit.metrics, "RewardConfig", counting)
    pairs = _write(tmp_path / "pairs.tsv", "P(A)\tP(A)\nP(A)\t¬P(A)\nQ(B)\tQ(B)\n")
    result = CliRunner().invoke(main, ["score", "--pairs", pairs, "--omega", "0.5", "--max-atoms", "4"])
    assert result.exit_code == 0, result.output
    assert "over 3 pairs" in result.output
    assert [(c.omega, c.max_atoms) for c in built] == [(0.5, 4)]


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


def test_bins_ignores_text_and_boolean_columns(tmp_path):
    path = _write(tmp_path / "scores.jsonl", '{"gpt_le": 0.9, "ok": true, "note": "a"}\n{"gpt_le": 0.2, "ok": false}\n')
    result = CliRunner().invoke(main, ["bins", "--in", path, "--edges", "1.0,0.5,0.0"])
    assert result.exit_code == 0, result.output
    bins = json.loads(result.stdout)
    assert [sorted(b) for b in bins] == [["count", "lower", "mean_gpt_le", "upper"]] * 2


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


def test_collect_parses_each_candidate_once(tmp_path, monkeypatch):
    """Each candidate FOL is parsed once, whatever its verdict, and the long
    predicate still brings the breakdown into the next prompt."""
    parsed = _count_parses(monkeypatch)
    candidates = [
        ("Snow is white.", "White(Snow)"),
        ("Rain falls.", "Falls(Rain) ="),
        ("The moon shines at night.", "MoonShinesAtNight(Moon)"),
        ("Totally unrelated words.", "Octopus(Tentacle)"),
        ("Nothing here.", ""),
    ]
    response = "".join(f"--- NL:\n{nl}\n---\n--- FOL:\n{fol}\n---\n" for nl, fol in candidates)
    argv = _collect_argv(tmp_path, json.dumps(response) + "\n")
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    run = tmp_path / "run"
    assert [json.loads(l)["fol"] for l in (run / "accepted.jsonl").read_text().splitlines()] == [
        "White(Snow)", "MoonShinesAtNight(Moon)"]
    reasons = [json.loads(l)["reason"] for l in (run / "rejections.jsonl").read_text().splitlines()]
    assert [r.split(":")[0] for r in reasons] == ["syntax", "alignment", "syntax"]
    assert reasons[2] == "syntax: empty"
    assert [parsed.count(fol) for _, fol in candidates[:4]] == [1, 1, 1, 1]
    assert "" not in parsed


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


def _count_parses(monkeypatch) -> list:
    """The texts parse is called on, wrapped in every folkit module that holds it.

    A command imports its modules only when it runs, so the ones whose calls
    are counted are imported here first: each then holds the real parse when
    it is wrapped, whatever ran before, and none is first loaded holding the
    wrapper."""
    import folkit.collect  # noqa: F401 - and endpoint
    import folkit.perturb  # noqa: F401
    import folkit.session  # noqa: F401 - and forge and metrics

    real_parse = parser.parse
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("folkit."):
            for attr, value in list(vars(module).items()):
                if value is real_parse:
                    monkeypatch.setattr(module, attr, counting_parse)
    return parsed


def test_correct_parses_each_gold_once(tmp_path, monkeypatch):
    gold = "forall x (Bird(x) -> Flies(x))"  # ASCII, so no canonical answer text equals it
    parsed = _count_parses(monkeypatch)
    rows = _write(tmp_path / "rows.jsonl", json.dumps({"nl": "a", "pred": "∀x (Bird(x) → Swims(x))", "gold": gold}))
    answers = [
        "### Corrections:\nChange the predicate 'Swims' to 'Flies' in 'Swims(x)'\n### FOL:\n∀x (Bird(x) → Flies(x))",
        f"### Corrections:\n{NO_CHANGES}\n### FOL:\n∀x (Bird(x) → Flies(x))",
    ]
    replay = _write(tmp_path / "replay.jsonl", "".join(json.dumps(a) + "\n" for a in answers))
    out = tmp_path / "experience.jsonl"
    result = CliRunner().invoke(main, ["correct", "--nl-fol-pred", rows, "--replay", replay, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert [json.loads(l)["reward"] for l in out.read_text().splitlines()] == [1.0, 1.0]
    assert parsed.count(gold) == 1


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
    ("score-gold-line-blank", lambda t: ["score", "--gold", _write(t / "g.txt", "P(A)\n\nQ(B)\nR(C)\n"),
                                         "--pred", _write(t / "p.txt", "P(A)\nQ(B)\n\nS(D)\n")],
     ["g.txt:2: line is blank, but", "p.txt:2"]),
    ("score-pred-line-missing", lambda t: ["score", "--gold", _write(t / "g.txt", "P(A)\n\nQ(B)\n"),
                                           "--pred", _write(t / "p.txt", "P(A)\n\n")],
     ["p.txt:3: line is missing", "g.txt:3"]),
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
    ("correct-gold-line-blank", lambda t: _correct_argv(
        t, json.dumps({"nl": "a", "pred": "P(A)"}) + "\n\n" + json.dumps({"nl": "b", "pred": "Q(B)"}) + "\n")
     + ["--gold", _write(t / "gold.txt", "P(A)\nQ(B)\n\n")], ["rows.jsonl:2: line is blank, but", "gold.txt:2"]),
    ("correct-row-without-pred", lambda t: _correct_argv(t, '{"nl": "a"}\n'), ["rows.jsonl:1:"]),
    ("correct-gold-not-text", lambda t: _correct_argv(t, json.dumps({"nl": "a", "pred": "P(A)", "gold": 5}) + "\n"),
     ["rows.jsonl:1: gold rule does not parse: not text"]),
    ("correct-gold-empty", lambda t: _correct_argv(t, json.dumps({"nl": "a", "pred": "P(A)", "gold": ""}) + "\n"),
     ["rows.jsonl:1: gold rule does not parse: empty"]),
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
    *((f"bins-group-key-{value.lower()}", lambda t, value=value: [
        "bins", "--in", _write(t / "s.jsonl", f'{{"gpt_le": 0.9, "x": 2}}\n{{"gpt_le": {value}, "x": 4}}\n'),
        "--edges", "1.0,0.5,0.0"], ["s.jsonl:2: group key 'gpt_le' is not a number"])
      for value in ("true", "NaN", "Infinity")),
    # a column that holds a number in some row must hold a finite number in every row
    *((f"bins-value-{name}", lambda t, rows=rows: [
        "bins", "--in", _write(t / "s.jsonl", rows), "--edges", "1.0,0.5,0.0"], [where])
      for name, rows, where in (
          ("nan", '{"gpt_le": 0.9, "x": NaN, "y": true}\n{"gpt_le": 0.8, "x": 1, "y": false}\n',
           "s.jsonl:1: column 'x' is not a finite number"),
          ("missing", '{"gpt_le": 0.9, "x": 1}\n{"gpt_le": 0.8}\n', "s.jsonl:2: column 'x' is missing"),
          ("text", '{"gpt_le": 0.9, "x": 1}\n{"gpt_le": 0.8, "x": "a"}\n',
           "s.jsonl:2: column 'x' is not a finite number"),
          ("true", '{"gpt_le": 0.9, "x": 1.5}\n{"gpt_le": 0.8, "x": true}\n',
           "s.jsonl:2: column 'x' is not a finite number"),
      )),
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
    "correct": lambda t: _correct_argv(t, _GOOD_ROW + "\n")[1:],
    "stats": lambda t: ["--in", _pairs_file(t)],
}


@pytest.mark.parametrize("argv", [["score", "--max-atoms", "0"], ["score", "--max-atoms", "21"],
                                  ["score", "--omega", "2", "--dry-run"], ["score", "--omega", "-0.1"],
                                  ["perturb", "--negative-prob", "2"], ["perturb", "--negative-prob", "-0.5"],
                                  ["forge", "--negative-prob", "1.01"], ["collect", "--align-threshold", "1.5"],
                                  ["collect", "--align-threshold", "-1"], ["score", "--workers", "0"],
                                  ["correct", "--max-generations", "0"], ["correct", "--max-generations", "-5"],
                                  ["forge", "--count", "0"], ["forge", "--count", "-5"],
                                  ["perturb", "--n-perturb", "-3"], ["perturb", "--n-perturb", "1,-3"],
                                  ["perturb", "--n-correct", "-1"], ["collect", "--target", "-1"],
                                  ["collect", "--max-calls", "0"], ["collect", "--max-calls", "-1"],
                                  ["stats", "--top-terms", "-1"], ["stats", "--top-pairs", "-5"]])
def test_score_reward_options_out_of_range_are_usage_errors(tmp_path, argv):
    """Counts and fractions outside their range exit 2 and name the option, for every command."""
    # the option under test comes last, so it overrides any default the inputs pass
    result = CliRunner().invoke(main, argv[:1] + _RANGE_INPUTS[argv[0]](tmp_path) + argv[1:])
    assert result.exit_code == 2, result.output
    assert argv[1] in result.output


@pytest.mark.parametrize("task", ["t1", "t3"])
def test_forge_predictions_are_a_usage_error_unless_t2(tmp_path, task):
    argv = _forge_t2_argv(tmp_path, "P(A)\n")  # fewer predictions than pairs, which t2 rejects
    argv[argv.index("--task") + 1] = task
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "--predictions" in result.output and "only --task t2" in result.output


def test_correct_omega_out_of_range_is_usage_error(tmp_path):
    argv = _correct_argv(tmp_path, _GOOD_ROW + "\n") + ["--omega", "1.5", "--dry-run"]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "--omega" in result.output


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--workers may not exceed the CPU count")
def test_score_workers_write_the_same_output(tmp_path):
    pairs = _write(tmp_path / "pairs.tsv", "P(A)\tP(A)\nP(A)\t¬P(A)\n∀x (P(x) → Q(x))\t∀y (¬P(y) ∨ Q(y))\n"
                                           "P(A) ∧ Q(B)\tQ(B)\n∀x Bird(x) → Flies(x)\t∀x Flies(x)\n")
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"scores-{workers}.jsonl"
        result = CliRunner().invoke(main, ["score", "--pairs", pairs, "--workers", workers, "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 5


def test_cli_import_leaves_multiprocessing_out():
    src = str(Path(parser.__file__).resolve().parents[1])  # the folkit under test
    code = "import sys, folkit.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# start-up: each command loads only the modules it runs

# the names `import folkit` loaded eagerly before its re-exports became lazy, by defining module
_REEXPORTS = {
    "fol": ["BinaryOp", "FolRule", "Group", "Literal", "Negation", "atoms", "print_canonical"],
    "metrics": ["RewardConfig", "fol_bleu", "fol_tokenize", "le_score", "reward"],
    "parser": ["FolSyntaxError", "parse", "validate"],
    "perturb": ["EditStep", "PerturbConfig", "apply_step", "sample_perturbation"],
}

# Run in a fresh interpreter as `-c PROBE package REEXPORTS` or `-c PROBE
# COMMAND ARGV_LISTS`: import the package or the CLI, run each argv list
# through the CLI in turn, and print, as the last line, the folkit modules
# loaded after each step.
_MODULE_PROBE = """
import json, sys
def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("folkit."))
steps = []
if sys.argv[1] == "package":
    import folkit
    steps.append(loaded())
    reexports = json.loads(sys.argv[2])
    names = {name: getattr(folkit, name) for names in reexports.values() for name in names}
    steps.append(loaded())
    same = all(names[name] is getattr(sys.modules["folkit." + module], name)
               for module, module_names in reexports.items() for name in module_names)
    print(json.dumps([steps, sorted(folkit.__all__) == sorted(names), same, sorted(set(names) - set(dir(folkit)))]))
else:
    from folkit.cli import main
    steps.append(loaded())
    for argv in json.loads(sys.argv[2]):
        main.main(argv, prog_name="folkit", standalone_mode=False)
        steps.append(loaded())
    print(json.dumps(steps))
"""

_CLI_MODULES = ["cli", "fol", "parser", "rowio"]
_RULES = "P(A)\n∀x (Q(x) → R(x))\n"
_COLLECT_RESPONSE = json.dumps("--- NL:\nSnow is white.\n---\n--- FOL:\nWhite(Snow)\n---") + "\n"

# per command: the modules it loads besides those of `import folkit.cli`, and the argv of a real run
_COMMAND_RUNS = {
    "validate": ([], lambda t: ["validate", "--in", _write(t / "rules.txt", _RULES)]),
    "score": (["metrics"], lambda t: ["score", "--pairs", _write(t / "pairs.tsv", "P(A)\tP(A)\n")]),
    "perturb": (["perturb"], lambda t: ["perturb", "--in", _write(t / "rules.txt", _RULES),
                                        "--out", str(t / "perturbed.jsonl")]),
    "forge": (["forge", "perturb"], lambda t: ["forge", "--task", "t3", "--count", "3", "--in", _pairs_file(t),
                                               "--out", str(t / "t3.jsonl")]),
    "stats": (["forge"], lambda t: ["stats", "--in", _pairs_file(t)]),
    "bins": (["forge"], lambda t: ["bins", "--in", _write(t / "s.jsonl", '{"gpt_le": 1.0}\n'),
                                              "--edges", "1.0,0.0"]),
    "collect": (["collect", "endpoint"], lambda t: _collect_argv(t, _COLLECT_RESPONSE)),
    "correct": (["endpoint", "forge", "metrics", "session"], lambda t: _correct_argv(t, _GOOD_ROW + "\n")),
}


@pytest.mark.parametrize("command", _COMMAND_RUNS)
def test_every_command_logs_all_its_options_in_its_run_config(tmp_path, caplog, command):
    argv = _COMMAND_RUNS[command][1](tmp_path) + ["--dry-run"]
    with caplog.at_level(logging.INFO, logger="folkit"):
        result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    (config,) = [json.loads(r.getMessage().split(": ", 1)[1]) for r in caplog.records
                 if r.getMessage().startswith("run config: ")]
    assert set(config) == {"command"} | {p.name for p in main.commands[command].params}
    assert config["command"] == command and config["dry_run"] is True


@pytest.mark.parametrize("case", ["package", *_COMMAND_RUNS])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, case):
    """`import folkit` loads no submodule until a re-export is used; `import
    folkit.cli` loads rowio, fol and parser; a command's --dry-run and its
    real run each load those plus what the command runs."""
    src = str(Path(parser.__file__).resolve().parents[1])  # the folkit under test
    if case == "package":
        steps = json.dumps(_REEXPORTS)
    else:
        extra, build = _COMMAND_RUNS[case]
        argv = build(tmp_path)
        steps = json.dumps([argv + ["--dry-run"], argv])
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, case, steps], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if case == "package":
        loaded, same_names, same_objects, missing_from_dir = result
        assert loaded == [[], ["fol", "metrics", "parser", "perturb", "rowio"]]
        assert same_names and same_objects and missing_from_dir == []
    else:
        assert result == [_CLI_MODULES] + [sorted(_CLI_MODULES + extra)] * 2
