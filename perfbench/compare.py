"""Compare two series files (parent, change) against the benchmark's bounds.

For each workload and end-to-end metric: both sides' medians and quartiles,
the share of seed-paired runs the change won (ties count for neither), and a
verdict. For times scaled to the reference speed, the unscaled medians and
the slowdowns follow. A gain is claimed only when the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's quartile distance;
a metric whose run-to-run spread exceeds its bound is unresolved unless every
change run beats every parent run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from statistics import median

import run
from series import spread

MACHINE_KEYS = ("cpu", "nproc", "python", "implementation")


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, better: str) -> tuple[str, float]:
    """(improved | no worse | worse | unresolved, share of pairs the change won)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, p_q1, p_q3, p_rel = spread(parent)
    c_med, _, _, c_rel = spread(change)
    won = sum(1 for a, b in pairs if sign * (b - a) > 0) / len(pairs) if pairs else 0.0
    gain = sign * (c_med - p_med)
    every_run_better = min(sign * v for v in change) > max(sign * v for v in parent)
    if won >= 0.9 and gain > p_q3 - p_q1:
        return "improved", won
    if max(p_rel, c_rel) > bound and not every_run_better:
        return "unresolved", won
    if -gain > bound * abs(p_med):
        return "worse", won
    return "no worse", won


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _keyed(runs: list[dict]) -> dict[tuple, dict]:
    """Runs keyed by (workload, seed, repeat) so the two sides pair up."""
    seen: dict[tuple, int] = defaultdict(int)
    out = {}
    for r in runs:
        if "metrics" not in r:
            continue
        k = (r["workload"], r["seed"])
        out[k + (seen[k],)] = r
        seen[k] += 1
    return out


def main(parent_path: str, change_path: str) -> None:
    spec = run.benchmark_spec()
    parent, change = _load(parent_path), _load(change_path)
    machines = {
        tuple((r.get("machine") or {}).get(k) for k in MACHINE_KEYS)
        for side in (parent, change) for r in side["runs"]
    }
    if len(machines) > 1:
        print(f"warning: runs come from more than one machine: {sorted(map(str, machines))}")
    p_runs, c_runs = _keyed(parent["runs"]), _keyed(change["runs"])
    workloads = sorted({k[0] for k in p_runs} | {k[0] for k in c_runs})
    print(f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'won':>5s}  verdict")
    for workload in workloads:
        keys = sorted(k for k in p_runs.keys() & c_runs.keys() if k[0] == workload)
        p_failed = sum(p_runs[k]["failed"] for k in keys)
        c_failed = sum(c_runs[k]["failed"] for k in keys)
        for m in spec["end_to_end"]:
            name = m["name"]
            pairs = [(p_runs[k]["metrics"][name]["value"], c_runs[k]["metrics"][name]["value"]) for k in keys]
            if not pairs:
                continue
            pv, cv = [a for a, _ in pairs], [b for _, b in pairs]
            result, won = verdict(pv, cv, pairs, m["bound"], m["better"])
            if c_failed > p_failed:
                result = f"worse ({c_failed} failed items, parent {p_failed})"
            pm, pq1, pq3, _ = spread(pv)
            cm, cq1, cq3, _ = spread(cv)
            print(f"{workload:15s} {name:12s} {pm:12.4f} [{pq1:.4f}, {pq3:.4f}] "
                  f"{cm:12.4f} [{cq1:.4f}, {cq3:.4f}] {won:5.0%}  {result}  ({len(pairs)} pairs, "
                  f"bound {m['bound']:.0%}, {m['better']} is better, {m['unit']})")
            raw = [(p_runs[k]["raw"][name], c_runs[k]["raw"][name]) for k in keys
                   if name in p_runs[k].get("raw", {}) and name in c_runs[k].get("raw", {})]
            if raw:
                print(f"{'':28s} unscaled median {median(a['raw'] for a, _ in raw):.4f} -> "
                      f"{median(b['raw'] for _, b in raw):.4f}, slowdown median "
                      f"{median(a['slowdown'] for a, _ in raw):.4f} -> {median(b['slowdown'] for _, b in raw):.4f}")
