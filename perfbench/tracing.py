"""In-memory span tracing around folkit's public functions.

Nothing under ``src/`` is edited: the tracer swaps each traced function for a
wrapper in every ``folkit`` module that holds it (modules call each other by
imported name, so patching only the defining module would miss most calls),
and puts the originals back on ``uninstall``.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1. A layer's self time is its span time minus the part of
that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import Counter

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    k = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """Highest reported percentile with at least ten calls beyond it (50 if none)."""
    best = 50.0
    for pct in PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            best = pct
    return best


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.le_cells: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None, error=None):
        """A wrapper recording one span per call.

        ``before(args, kwargs)`` returns a context handed to ``after(result,
        ctx, args, kwargs)``, which returns the result the caller sees, and to
        ``error(exc, ctx)``. Hooks run outside the span.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if error:
                    error(exc, ctx)
                raise
            span[2] = clock()
            stack.pop()
            if after:
                result = after(result, ctx, args, kwargs)
            return result

        return wrapper

    def wrap_generator(self, name, fn, on_item=None):
        """Like ``wrap`` for a generator function: one span per resumption."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                span = [name, clock(), 0.0, stack[-1] if stack else -1]
                spans.append(span)
                stack.append(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    span[2] = clock()
                    stack.pop()
                if on_item:
                    on_item(item)
                yield item

        return wrapper

    def replace(self, original, wrapper) -> int:
        """Swap ``original`` for ``wrapper`` in every loaded folkit module."""
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "folkit" or mod_name.startswith("folkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    n += 1
        if n == 0:
            raise LookupError(f"{original!r} is not referenced by any folkit module")
        return n

    def replace_attr(self, owner, attr: str, wrapper) -> None:
        """Swap a class attribute (method, classmethod) or command callback."""
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return sorted(end - start for n, start, end, _ in self.spans if n == name)

    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (name, *_), s in zip(self.spans, self_times(self.spans)):
            totals[name] = totals.get(name, 0.0) + s
        return totals

    def write(self, path) -> None:
        """Spans as gzipped JSON: names listed once, spans as index rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - t0, 9), round(b - t0, 9), p] for n, a, b, p in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)


# ---------------------------------------------------------------------------
# folkit layers

def _pairs_space(pairs) -> int:
    """Number of one-to-one bindings between the two atom lists of a binding."""
    n_p = sum(1 for a, _ in pairs if a is not None)
    n_q = sum(1 for _, b in pairs if b is not None)
    hi, lo = max(n_p, n_q), min(n_p, n_q)
    return math.perm(hi, lo)


def install(tracer: Tracer) -> None:
    """Wrap every traced folkit function; ``tracer.uninstall()`` reverts."""
    import folkit.cli as cli
    import folkit.collect as collect
    import folkit.fol as fol
    import folkit.forge as forge
    import folkit.metrics as metrics
    import folkit.parser as parser
    import folkit.perturb as perturb
    import folkit.session as session

    c = tracer.counts
    t = tracer

    def plain(name, fn, **hooks):
        t.replace(fn, t.wrap(name, fn, **hooks))

    def count_error(key, kinds):
        def error(exc, ctx):
            if isinstance(exc, kinds):
                c[key] += 1
        return error

    # parser / fol
    plain("parser.parse", parser.parse, error=count_error("parser.parse.errors", parser.FolSyntaxError))
    plain("parser.validate", parser.validate)

    def roundtrip_after(result, ctx, args, kwargs):
        if not result:
            c["parser.roundtrip_stable.false"] += 1
        return result

    plain("parser.roundtrip_stable", parser.roundtrip_stable, after=roundtrip_after)
    plain("fol.print_canonical", fol.print_canonical)

    # metrics
    def le_before(args, kwargs):
        cell = [0]
        t.le_cells.append(cell)
        config = args[2] if len(args) > 2 else kwargs.get("config", metrics.RewardConfig())
        return cell, config.search_cap

    def le_after(result, ctx, args, kwargs):
        cell, cap = ctx
        t.le_cells.pop()
        consumed = cell[0]
        c["metrics.le_score.rows_evaluated"] += result.rows_total * consumed
        if result.rows_matched == result.rows_total:
            c["metrics.le_score.exact"] += 1
        elif consumed >= cap and _pairs_space(result.binding.pairs) > cap:
            c["metrics.le_score.search_cap_hits"] += 1
        return result

    def le_error(exc, ctx):
        t.le_cells.pop()
        if isinstance(exc, metrics.TooManyAtoms):
            c["metrics.le_score.too_many_atoms"] += 1

    plain("metrics.le_score", metrics.le_score, before=le_before, after=le_after, error=le_error)

    def counted(bindings, cell):
        for b in bindings:
            cell[0] += 1
            c["metrics.bind_atoms.bindings"] += 1
            yield b

    def bind_after(result, ctx, args, kwargs):
        return counted(result, t.le_cells[-1] if t.le_cells else [0])

    plain("metrics.bind_atoms", metrics.bind_atoms, after=bind_after)
    plain("metrics.fol_bleu", metrics.fol_bleu)
    plain("metrics.reward_detail", metrics.reward_detail)

    # perturb
    plain("perturb.sample_perturbation", perturb.sample_perturbation)
    plain("perturb.apply_step", perturb.apply_step,
          error=count_error("perturb.apply_step.rejected", (fol.InvalidLocation, perturb.WouldProduceInvalid)))

    def steps_before(args, kwargs):
        c["perturb.render_fix_steps.steps"] += len(args[1] if len(args) > 1 else kwargs["steps"])

    plain("perturb.render_fix_steps", perturb.render_fix_steps, before=steps_before)

    # forge
    def record_item(item):
        c["forge.forge_records.records"] += 1

    t.replace(forge.forge_records, t.wrap_generator("forge.forge_records", forge.forge_records, record_item))
    plain("forge.format_prompt", forge.format_prompt)
    plain("forge.parse_correction_output", forge.parse_correction_output)

    # collect
    gate = collect.NgramGate
    for meth in ("find_blocked", "blocked", "update"):
        t.replace_attr(gate, meth, t.wrap(f"collect.NgramGate.{meth}", gate.__dict__[meth]))
    from_dict = gate.__dict__["from_dict"].__func__
    t.replace_attr(gate, "from_dict", classmethod(t.wrap("collect.NgramGate.from_dict", from_dict)))
    plain("collect.run_collection", collect.run_collection)
    plain("collect.assemble_prompt", collect.assemble_prompt)

    def response_after(result, ctx, args, kwargs):
        c["collect.parse_response.malformed"] += len(result[1])
        return result

    plain("collect.parse_response", collect.parse_response, after=response_after)

    def verdict_after(result, ctx, args, kwargs):
        if result.accepted:
            c["collect.accept_pair.accepted"] += 1
        else:
            cls = result.reason.split(":", 1)[0]
            key = {"syntax": "syntax", "blocked-ngram": "blocked", "alignment": "alignment"}.get(cls, "other")
            c[f"collect.accept_pair.rejected.{key}"] += 1
        return result

    plain("collect.accept_pair", collect.accept_pair, after=verdict_after)
    plain("collect.alignment_score", collect.alignment_score)

    # session
    def session_after(result, ctx, args, kwargs):
        state = result[2]
        c[f"session.state.{state.status}"] += 1
        c["session.violations"] += state.violations
        return result

    plain("session.run_session", session.run_session, after=session_after)
    plain("session.step", session.step)
    plain("session.pre_repair", session.pre_repair)

    # cli: command bodies and input readers
    for cmd in cli.main.commands.values():
        t.replace_attr(cmd, "callback", t.wrap("cli.command", cmd.callback))
    for fn in (cli._read_lines, cli._load_pairs_for_scoring, forge.load_pairs):
        plain("cli.read_inputs", fn)
    init = collect.ReplayGenerator.__dict__["__init__"]
    t.replace_attr(collect.ReplayGenerator, "__init__", t.wrap("cli.read_inputs", init))


# ratio metric -> the metric holding its base, printed beside it
RATIO_BASES = {
    "parser.roundtrip_stable.false_ratio": "parser.roundtrip_stable.calls",
    "metrics.le_score.exact_ratio": "metrics.le_score.calls",
    "perturb.apply_step.accept_ratio": "perturb.apply_step.calls",
    "collect.accept_pair.accept_ratio": "collect.accept_pair.calls",
    "trace.overhead_ratio": "trace.untraced_s",
}


def layer_metrics(tracer: Tracer, names: list[str]) -> dict[str, float]:
    """The named per-layer metrics of one traced pass (0 for layers not called).

    ``names`` are BENCHMARK.json's per-layer metrics; the ``trace.*`` ones
    compare whole passes and are left to the caller.
    """
    c = tracer.counts
    calls = Counter(s[0] for s in tracer.spans)
    self_s = tracer.self_seconds()
    out: dict[str, float] = {}
    for metric in names:
        if metric.startswith("trace."):
            continue
        layer, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        else:
            out[metric] = c.get(metric, 0)

    def ratio(num, base):
        return num / base if base else 0.0

    out["parser.roundtrip_stable.false_ratio"] = ratio(
        c["parser.roundtrip_stable.false"], calls["parser.roundtrip_stable"])
    out["metrics.le_score.exact_ratio"] = ratio(c["metrics.le_score.exact"], calls["metrics.le_score"])
    out["perturb.apply_step.accept_ratio"] = ratio(
        calls["perturb.apply_step"] - c["perturb.apply_step.rejected"], calls["perturb.apply_step"])
    out["collect.accept_pair.accept_ratio"] = ratio(
        c["collect.accept_pair.accepted"], calls["collect.accept_pair"])
    for layer in ("metrics.le_score", "metrics.reward_detail"):
        d = tracer.durations(layer)
        pct = tail_percentile(len(d))
        out[f"{layer}.p50_ms"] = percentile(d, 50.0) * 1e3
        out[f"{layer}.tail_ms"] = percentile(d, pct) * 1e3
        out[f"{layer}.tail_pct"] = pct if d else 0.0
    return out
