"""Run every workload x seeds on one or more checkouts and record every result.

Runs are untraced (``--trace 0``): the end-to-end metrics. With two
``--roots`` (parent and change), each seed runs both sides back to back and
the side that goes first alternates between seeds. One JSON file
per root is written to OUT_DIR, with the machine and commit of each run and
the raw medians and slowdowns behind its scaled times, ready for
``run.py --compare``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

RUN_TIMEOUT_S = 900  # the first run in a fresh checkout may also build


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def one_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "exit_code": proc.returncode,
              "run_wall_s": wall}
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return record
    record.update(json.loads(lines[-1]))
    for line in lines:
        for key in ("machine", "raw"):
            if line.startswith(key + " "):
                record[key] = json.loads(line[len(key) + 1:])
    return record


def main(args, seeds: list[int]) -> None:
    spec = run.benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    roots = [Path(r).resolve() for r in (args.roots or ["."])]
    labels = []
    for i, root in enumerate(roots):
        label = root.name or "root"
        labels.append(label if label not in labels else f"{label}-{i}")
    results: dict[Path, list[dict]] = {root: [] for root in roots}
    out_dir = Path(args.series)
    out_dir.mkdir(parents=True, exist_ok=True)

    for workload in names:
        for i, seed in enumerate(seeds):
            for root in (roots if i % 2 == 0 else roots[::-1]):
                rec = one_run(root, workload, seed, seconds)
                rec["order"] = i % 2 if len(roots) > 1 else 0
                results[root].append(rec)
                shown = {k: round(v["value"], 4) for k, v in rec.get("metrics", {}).items()}
                print(f"{labels[roots.index(root)]} {workload} seed {seed}: exit {rec['exit_code']} "
                      f"failed {rec.get('failed')}/{rec.get('attempted')} {shown} "
                      f"({rec['run_wall_s']:.1f} s)", flush=True)

    for root, label in zip(roots, labels):
        path = out_dir / f"{label}.json"
        path.write_text(json.dumps({"root": str(root), "seconds": seconds, "runs": results[root]}, indent=1)
                        + "\n", encoding="utf-8")
        print(f"\n{label}: {len(results[root])} runs -> {path}")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for workload in names:
            runs = [r for r in results[root] if r["workload"] == workload and "metrics" in r]
            for metric, bound in bounds.items():
                values = [r["metrics"][metric]["value"] for r in runs]
                if not values:
                    continue
                med, q1, q3, rel = spread(values)
                flag = "" if rel < bound / 3 else ("  above a third of bound" if rel <= bound else "  ABOVE BOUND")
                raw = [r["raw"][metric]["raw"] for r in runs if metric in r.get("raw", {})]
                if raw:
                    flag += f"  (unscaled: median {statistics.median(raw):.4f}, spread {spread(raw)[3]:.4f})"
                print(f"  {workload:15s} {metric:12s} median {med:.4f}  quartiles [{q1:.4f}, {q3:.4f}]  "
                      f"spread {rel:.4f} (bound {bound}){flag}")
