"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# small versions of each workload, enough to exercise every designed case
SCALE = {"score_mixed": 0.05, "forge_t3": 0.02, "collect_resume": 0.1, "correct_replay": 0.25}


def build(name: str, seed: int, tmp_path: Path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(parents=True)
    return workloads.WORKLOADS[name](seed, workdir, ROOT, scale=SCALE[name]), workdir


def files(workdir: Path) -> dict[str, bytes]:
    return {p.relative_to(workdir).as_posix(): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}


def run_clean(case) -> str:
    _, code, stdout = run.run_inprocess(case)
    assert code == 0
    assert case.check(stdout) == 0
    return stdout


def read_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def write_rows(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    a, dir_a = build(name, 3, tmp_path / "a")
    b, dir_b = build(name, 3, tmp_path / "b")
    c, dir_c = build(name, 4, tmp_path / "c")
    assert files(dir_a) == files(dir_b)
    assert [x.replace(str(dir_a), "") for x in a.argv] == [x.replace(str(dir_b), "") for x in b.argv]
    assert files(dir_a) != files(dir_c)


def test_apportion_fills_the_total():
    assert sum(workloads.apportion(workloads.SCORE_PAIRS, workloads.SCORE_CELLS).values()) == workloads.SCORE_PAIRS
    assert workloads.apportion(20, workloads.CORRECT_DESIGN) == {
        "plain": 11, "malformed": 3, "repair": 3, "limit": 1, "bad": 2}


def test_score_check_rejects_an_altered_le(tmp_path):
    case, workdir = build("score_mixed", 1, tmp_path)
    stdout = run_clean(case)
    path = workdir / "scores.jsonl"
    rows = read_rows(path)

    altered = [dict(r) for r in rows]
    altered[0]["le"] = altered[0]["le"] / 2 + 0.25  # reward no longer 0.7 LE + 0.3 BLEU
    write_rows(path, altered)
    assert case.check(stdout) == 1

    # a consistent reward, but an LE above the exhaustive optimum
    oracle = workloads.load_oracle(ROOT)
    i = next(i for i, r in enumerate(rows)
             if r["gold"] != r["pred"] and len(r.get("binding", [])) <= 4 and oracle(r["gold"], r["pred"]) < 1.0)
    altered = [dict(r) for r in rows]
    altered[i]["le"] = 1.0
    altered[i]["reward"] = 0.7 * 1.0 + 0.3 * altered[i]["bleu"]
    write_rows(path, altered)
    assert case.check(stdout) == 1

    write_rows(path, rows[:-1])
    assert case.check(stdout) == 1


def test_forge_check_rejects_a_record_whose_replay_misses_gold(tmp_path):
    case, workdir = build("forge_t3", 1, tmp_path)
    stdout = run_clean(case)
    path = workdir / "records.jsonl"
    rows = read_rows(path)
    i = next(i for i, r in enumerate(rows) if r["target_steps"])
    rows[i]["target_steps"] = rows[i]["target_steps"][:-1]
    write_rows(path, rows)
    assert case.check(stdout) == 1


def test_collect_check_rejects_an_extra_accepted_pair(tmp_path):
    case, workdir = build("collect_resume", 1, tmp_path)
    stdout = run_clean(case)
    path = workdir / "collection" / "accepted.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"nl": "quba quda quga", "fol": "Quba(Quda)"}) + "\n")
    assert case.check(stdout) == 1


def test_correct_check_rejects_a_session_not_ending_at_gold(tmp_path):
    case, workdir = build("correct_replay", 1, tmp_path)
    stdout = run_clean(case)
    path = workdir / "experiences.jsonl"
    rows = read_rows(path)
    rows[-1]["reward"] = 0.5
    write_rows(path, rows)
    assert case.check(stdout) == 1
    assert case.check(stdout.replace(" failed ", " failed 1")) > 1


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 6.0, 0],
        ["d", 5.5, 7.0, 0],  # overlaps c: the shared half second counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])
    tracer = tracing.Tracer()
    tracer.spans = spans + [["a", 8.0, 9.0, 0]]
    assert tracer.self_seconds() == pytest.approx({"root": 4.0, "a": 3.0, "b": 1.0, "c": 1.0, "d": 1.5})


def test_tracer_records_parents_and_restores_originals(tmp_path):
    import folkit.metrics
    import folkit.session

    original = folkit.metrics.reward_detail
    case, _ = build("correct_replay", 2, tmp_path)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert folkit.metrics.reward_detail is not original
        run_clean(case)
    finally:
        tracer.uninstall()
    assert folkit.metrics.reward_detail is original
    assert folkit.session.reward.__globals__["reward_detail"] is original

    names = [s[0] for s in tracer.spans]
    by_index = dict(enumerate(names))
    assert {by_index[s[3]] for s in tracer.spans if s[0] == "metrics.le_score"} == {"metrics.reward_detail"}
    names = [m["name"] for m in run.benchmark_spec()["per_layer"] if not m["name"].startswith("trace.")]
    m = tracing.layer_metrics(tracer, names)
    designs = case.notes["designs"]
    assert m["session.run_session.calls"] == m["session.pre_repair.calls"] == case.items
    assert m["session.state.failed"] == designs["bad"]
    assert m["session.state.done_limit"] == designs["limit"]
    assert m["metrics.bind_atoms.bindings"] == m["metrics.le_score.calls"]  # oracle answers match at once


def test_tail_percentile_keeps_ten_calls_beyond_it():
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(200) == 95.0
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.percentile([1.0, 2.0, 3.0], 50.0) == 2.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert list(whys) == list(workloads.WORKLOADS)
    for why in whys.values():
        assert why.strip() and "\n" not in why and len(why) <= 200
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 1.2 for v in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, 0.1, "higher") == ("improved", 1.0)
    slower = [v * 0.8 for v in parent]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), 0.1, "higher")[0] == "worse"
    same = parent[1:] + parent[:1]
    assert compare.verdict(parent, same, list(zip(parent, same)), 0.1, "higher")[0] == "no worse"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(parent, noisy, list(zip(parent, noisy)), 0.1, "higher")[0] == "unresolved"
    assert compare.verdict(faster, parent, list(zip(faster, parent)), 0.1, "lower") == ("improved", 1.0)
