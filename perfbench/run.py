"""folkit benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

One run, from the root of a folkit checkout:

    python3 perfbench/run.py --workload score_mixed --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the folkit CLI as a fresh process over the whole input,
again and again (a closed loop with one client) for ``--seconds`` of CLI
time, and reports the end-to-end metrics, with times scaled to the reference
machine speed that ``calibrate.py`` measures. ``--trace 1`` runs the same
workload in-process through ``folkit.cli.main``, alternating untraced and
traced passes, and reports the per-layer metrics and the tracing overhead.
Every output is checked; the last line of stdout is one JSON object.

Series and comparison (see perfbench/README.md):

    python3 perfbench/run.py --series OUT_DIR --seeds 1-10 [--roots A B]
    python3 perfbench/run.py --compare PARENT.json CHANGE.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
STATE_DIR = ".perfbench"  # work files and traces, under the checkout root
SETUP_REPEATS = 9
CLI_TIMEOUT_S = 100.0
MAX_RUN_S = 60.0  # start no further pass after this much wall time
# The folkit console script, plus a note of the process's peak resident set at
# exit. VmHWM counts only this program image; the rusage maxrss that wait4
# returns also keeps the runner's peak, inherited across fork and exec.
ENTRY = """\
import atexit, os, sys
def _peak():
    with open("/proc/self/status") as f, open(os.environ["PERFBENCH_PEAK"], "w") as out:
        out.write(next(l.split()[1] for l in f if l.startswith("VmHWM:")))
if os.path.exists("/proc/self/status"):
    atexit.register(_peak)
from folkit.cli import main
sys.exit(main(prog_name="folkit"))
"""

# Two machine-speed probes that import nothing from folkit, with their median
# times on the reference machine (2-core Xeon VM, Python 3.11). calibrate.py
# is steady-state work, timed between CLI runs; the start-up probe is a fresh
# interpreter loading the modules the folkit CLI loads, timed before each
# --dry-run. A time is scaled by slowdown = the median time of the probes
# taken next to it / the reference, so it reads as if measured at the
# reference speed; CLI-run times by slowdown ** CALIBRATION_POWER. Over 20
# runs of each workload, the slope of log time on log slowdown was 0.73-0.80
# for CLI runs on calibrate.py and 0.94-1.03 for --dry-runs on the start-up
# probe (on calibrate.py, --dry-runs gave only about 0.65).
REFERENCE_CALIBRATION_S = 0.27
CALIBRATION_POWER = 0.8
STARTUP_PROBE = "import click, dataclasses, json, logging, multiprocessing, random, re"
REFERENCE_STARTUP_S = 0.118
CALIBRATION_SHARE = 0.1  # calibration time before each CLI run, as a share of the last one


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def program_root() -> Path:
    """The checkout to measure: the working directory, which must hold folkit."""
    root = Path.cwd().resolve()
    for need in ("src/folkit/cli.py", "tests/le_oracle.py"):
        if not (root / need).is_file():
            fail(f"{root / need} not found; run from the root of a folkit checkout")
    return root


def machine_info(root: Path) -> dict:
    """Python, CPU and commit of a run; compare only runs from one machine."""
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        try:
            r = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no") if sha else None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "cpu": cpu or platform.processor() or None,
        "system": platform.platform(),
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
    }


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# end-to-end: the CLI as a fresh process


def run_cli(root: Path, argv: list[str], workdir: Path, tag: str) -> tuple[float, float, int, str]:
    """Run the folkit CLI once; returns (wall s, peak RSS MiB, exit code, stdout)."""
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    peak_path = workdir / f"{tag}.peak_kib"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", PERFBENCH_PEAK=str(peak_path))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=workdir, env=env)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: folkit {argv[0]} exited {proc.returncode}:\n")
        sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
    peak_kib = float(peak_path.read_text()) if peak_path.exists() else usage.ru_maxrss
    return wall, peak_kib / 1024.0, proc.returncode, stdout


def calibrate(workdir: Path, seconds: float, samples: list[float]) -> None:
    """Time the fixed calibration work until ``seconds`` are spent (at least once)."""
    spent = 0.0
    while not spent or spent < seconds:
        proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], cwd=workdir, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout))
        spent += samples[-1]


def time_startup(workdir: Path) -> float:
    """Wall time of one start-up probe process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_PROBE], cwd=workdir, stdin=subprocess.DEVNULL,
                   capture_output=True, timeout=CLI_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def end_to_end(root: Path, case, workdir: Path, seconds: float,
               report: list[str]) -> tuple[dict, dict, int, int]:
    """End-to-end metrics at reference speed, and the raw medians and slowdowns behind them."""
    attempted = failed = 0
    # every --dry-run is timed right after a start-up probe of its own, so
    # setup times are scaled by the machine speed of the same moments
    setup, startup_probes = [], []
    for i in range(SETUP_REPEATS):
        startup_probes.append(time_startup(workdir))
        wall, _, code, _ = run_cli(root, case.dry_argv, workdir, f"dry{i}")
        setup.append(wall)
        if code != 0:
            attempted += case.items
            failed += case.items
    calibration: list[float] = []
    rates, rss = [], []
    cli_time = wall = 0.0
    t0 = time.perf_counter()
    while not rates or (cli_time < seconds and time.perf_counter() - t0 < MAX_RUN_S):
        calibrate(workdir, CALIBRATION_SHARE * wall, calibration)
        case.reset()
        wall, peak, code, stdout = run_cli(root, case.argv, workdir, f"run{len(rates)}")
        cli_time += wall
        bad = case.items if code != 0 else case.check(stdout)
        attempted += case.items
        failed += bad
        rates.append(case.items / wall)
        rss.append(peak)
    calibrate(workdir, CALIBRATION_SHARE * wall, calibration)
    # slowdown >1 while the machine runs slower than the reference; one factor
    # per metric, from the probes taken next to its runs
    raw = {
        "items_per_s": {"raw": median(rates), "slowdown": median(calibration) / REFERENCE_CALIBRATION_S,
                        "power": CALIBRATION_POWER},
        "setup_s": {"raw": median(setup), "slowdown": median(startup_probes) / REFERENCE_STARTUP_S},
    }
    metrics = {
        "items_per_s": median(rates) * raw["items_per_s"]["slowdown"] ** CALIBRATION_POWER,
        "setup_s": median(setup) / raw["setup_s"]["slowdown"],
        "peak_rss_mb": median(rss),
    }
    report.append(f"  items_per_s  {metrics['items_per_s']:.4f} items/s at reference speed  (raw median "
                  f"{median(rates):.4f} of {len(rates)} CLI runs of {case.items} items: "
                  f"{', '.join(f'{r:.2f}' for r in rates)}; slowdown {raw['items_per_s']['slowdown']:.4f} "
                  f"from {len(calibration)} calibrations, power {CALIBRATION_POWER})")
    report.append(f"  setup_s      {metrics['setup_s']:.4f} s at reference speed  (raw median "
                  f"{median(setup):.4f} of {len(setup)} --dry-run runs; slowdown "
                  f"{raw['setup_s']['slowdown']:.4f} from {len(startup_probes)} start-up probes)")
    report.append(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MiB  (median of {len(rss)} CLI runs)")
    report.append(f"  reference probe times: calibration {REFERENCE_CALIBRATION_S} s, "
                  f"start-up {REFERENCE_STARTUP_S} s")
    return metrics, raw, attempted, failed


# ---------------------------------------------------------------------------
# per-layer: in-process, traced


def run_inprocess(case) -> tuple[float, int, str]:
    """One pass of the CLI in this process; returns (wall s, exit code, stdout)."""
    import click

    from folkit.cli import main

    case.reset()
    buf = io.StringIO()
    code = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            main.main(case.argv, prog_name="folkit", standalone_mode=False)
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # noqa: BLE001 - a crash fails the pass's items, reported below
            traceback.print_exc(file=sys.stderr)
            code = 1
    return time.perf_counter() - start, code, buf.getvalue()


def per_layer(case, spec: list[dict], seconds: float, spans_path: Path,
              report: list[str]) -> tuple[dict, int, int]:
    import tracing

    names = [m["name"] for m in spec]

    # the CLI logs at INFO to stderr; keep that cost but not the output
    logging.basicConfig(stream=open(os.devnull, "w"), level=logging.INFO)
    # an unreported first pass fills the allocator and lazy imports, so the
    # untraced and traced passes that follow start equally warm
    wall, code, stdout = run_inprocess(case)
    attempted = case.items
    failed = case.items if code else case.check(stdout)
    untraced, traced, passes = [], [], []
    t0 = time.perf_counter()
    while not traced or (sum(untraced) + sum(traced) < seconds and time.perf_counter() - t0 < MAX_RUN_S):
        wall, code, stdout = run_inprocess(case)
        untraced.append(wall)
        attempted += case.items
        failed += case.items if code else case.check(stdout)

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            wall, code, stdout = run_inprocess(case)
        finally:
            tracer.uninstall()
        traced.append(wall)
        attempted += case.items
        failed += case.items if code else case.check(stdout)
        passes.append(tracing.layer_metrics(tracer, names))
        if len(passes) == 1:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_path)
            n_spans = len(tracer.spans)
        del tracer

    metrics = {name: median([p[name] for p in passes]) for name in passes[0]}
    metrics["trace.untraced_s"] = median(untraced)
    metrics["trace.traced_s"] = median(traced)
    metrics["trace.overhead_ratio"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"] - 1.0
    for m in spec:
        name = m["name"]
        line = f"  {name:44s} {metrics[name]:.6g} {m['unit']}"
        base = tracing.RATIO_BASES.get(name)
        if base:
            line += f"  (base {base} = {metrics[base]:.6g})"
        elif name.endswith(".tail_ms") and metrics[name.replace("tail_ms", "calls")]:
            pct = metrics[name.replace("tail_ms", "tail_pct")]
            line += f"  (p{pct:g} of {metrics[name.replace('tail_ms', 'calls')]:.0f} calls)"
        report.append(line)
    report.append(f"  medians of {len(passes)} traced and untraced passes; "
                  f"{n_spans} spans of the first traced pass in {spans_path}")
    unstable = sorted(m["name"] for m in spec
                      if m["unit"] == "count" and len({p[m["name"]] for p in passes}) > 1)
    if unstable:
        report.append(f"  note: counts differ between passes: {', '.join(unstable)}")
    return {n: metrics[n] for n in names}, attempted, failed


def single_run(args) -> None:
    root = program_root()
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workdir = root / STATE_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report: list[str] = []
    spec = benchmark_spec()
    raw = None
    try:
        t0 = time.perf_counter()
        case = workloads.WORKLOADS[args.workload](args.seed, workdir, root)
        report.append(f"{args.workload} seed {args.seed} trace {args.trace}: {case.items} items per pass, "
                      f"inputs generated in {time.perf_counter() - t0:.2f} s {case.notes or ''}")
        if args.trace:
            spans = root / STATE_DIR / "traces" / f"{args.workload}-seed{args.seed}.spans.json.gz"
            metrics, attempted, failed = per_layer(case, spec["per_layer"], args.seconds, spans, report)
        else:
            metrics, raw, attempted, failed = end_to_end(root, case, workdir, args.seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.append(f"  error_ratio  {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    print("\n".join(report))
    print("machine " + json.dumps(machine_info(root), sort_keys=True))
    if raw:
        print("raw " + json.dumps(raw))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    print(json.dumps(result))


# ---------------------------------------------------------------------------


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--series", metavar="OUT_DIR", help="run every workload x seeds untraced; one JSON per root")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--roots", nargs="+", default=None, help="checkouts to measure, alternating order")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args(argv)

    if args.compare:
        import compare
        compare.main(args.compare[0], args.compare[1])
        return
    if args.series:
        import series
        series.main(args, parse_seeds(args.seeds))
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    single_run(args)


def benchmark_spec() -> dict:
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


if __name__ == "__main__":
    main()
