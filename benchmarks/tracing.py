"""In-memory span tracing around the public functions of each adaptmreg module.

The tracer wraps functions from the outside (it rebinds module attributes and
restores them afterwards), so the package itself carries no tracing code.
A span records name, start, end, parent span, op id, thread and one count
(draws, values, rows, bytes, ... depending on the boundary). Spans stay in
a list until the run ends; per-layer metrics are derived from them by
layer_metrics().

Self time of a span is its duration minus the part of its interval covered
by its child spans (the union of the children, so two chunk spans running
in parallel threads are not subtracted twice).
"""

from __future__ import annotations

import gzip
import itertools
import os
import threading
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    count: int


def _nbytes_arg(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Collects spans; install() wraps the package, uninstall() restores it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str | Callable, fn: Callable,
             count: Callable | None = None, parent: int | None = None) -> Callable:
        """fn wrapped in a span.

        name may be a callable (args, kwargs) -> str; count a callable
        (args, kwargs, result) -> int evaluated after the call. parent forces
        the parent span, which links work run on pool threads to the span
        that submitted it.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            par = parent if parent is not None else (stack[-1] if stack else None)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                nm = name(args, kwargs) if callable(name) else name
                n = count(args, kwargs, result) if count is not None else 0
                tracer.spans.append(
                    Span(sid, nm, start, end, par, tracer.op, threading.get_ident(), n))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def mark(self, name: str, count: int) -> None:
        """A zero-length span carrying a count, under the current span."""
        stack = self._stack()
        now = perf_counter()
        self.spans.append(Span(next(self._ids), name, now, now,
                               stack[-1] if stack else None, self.op,
                               threading.get_ident(), int(count)))

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules: Iterable[types.ModuleType], original, wrapped) -> None:
        """Replace every module-level binding of original (from-imports too)."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        import sys

        from adaptmreg import (calibration, cli, experiments, imaging, levels,
                               losses, noise, parallel, pgmio, selector, windows)

        mods = [m for k, m in sorted(sys.modules.items())
                if k == "adaptmreg" or k.startswith("adaptmreg.")]

        def first_len(args, kwargs, result):
            return int(args[1] if len(args) > 1 else kwargs["n"])

        def hook(name, fn, count=None):
            self._rebind(mods, fn, self.wrap(name, fn, count))

        # noise: substream setup and draws
        self._set(noise.RngStream, "generator",
                  self.wrap("noise.generator", noise.RngStream.generator))
        hook("noise.sample_noise", noise.sample_noise, first_len)

        # losses: batched and scalar location estimates
        def rows_name(args, kwargs):
            loss = args[1] if len(args) > 1 else kwargs["loss"]
            return f"losses.locate_rows.{loss.kind}"

        def rows_values(args, kwargs, result):
            vals = args[0] if args else kwargs["values"]
            return int(getattr(vals, "size", 0))

        self._rebind(mods, losses.locate_rows,
                     self.wrap(rows_name, losses.locate_rows, rows_values))
        hook("losses.locate", losses.locate)

        # levels
        def runs_arg(args, kwargs, result):
            return int(args[3] if len(args) > 3 else kwargs["runs"])

        hook("levels.simulate", levels.simulate_window_estimates, runs_arg)
        for fn in (levels.levels_exact_mean, levels.levels_asymptotic,
                   levels.pair_levels_exact_mean, levels.pair_levels_asymptotic):
            hook("levels.closed_form", fn)

        # calibration
        hook("calibration.calibrate", calibration.calibrate)
        hook("calibration.verify", calibration.verify_calibration)
        hook("calibration.artifact_io", calibration.save_artifact)
        hook("calibration.artifact_io", calibration.load_artifact)

        # selector and experiments
        def batch_rows(args, kwargs, result):
            return int(len(result)) if result is not None else 0

        hook("selector.batch", selector.select_ring_batch, batch_rows)
        hook("selector.batch", selector.select_lepski_batch, batch_rows)
        hook("experiments.run_benchmark", experiments.run_benchmark)

        # windows
        hook("windows.build_family_2d", windows.build_family_2d)

        # imaging: the call itself, plus its scipy filters via a proxy module
        def denoise_pixels(args, kwargs, result):
            image, config = args[0], args[1]
            reach = int(max(config.radii) // 1)
            inner = max(0, image.width - 2 * reach) * max(0, image.height - 2 * reach)
            self.mark("imaging.border_pixels", image.width * image.height - inner)
            return image.width * image.height

        hook("imaging.denoise_image", imaging.denoise_image, denoise_pixels)
        real = imaging.ndimage
        proxy = types.ModuleType("ndimage_traced")
        proxy.__getattr__ = lambda attr: getattr(real, attr)  # type: ignore[attr-defined]
        proxy.rank_filter = self.wrap("imaging.interior_filter", real.rank_filter)
        proxy.correlate = self.wrap("imaging.interior_filter", real.correlate)
        self._set(imaging, "ndimage", proxy)

        # parallel: the chunk grid and each chunk task
        original_run_chunks = parallel.run_chunks

        def run_chunks(task, total, workers=None, chunk=parallel.CHUNK):
            stack = self._stack()
            sid = next(self._ids)
            par = stack[-1] if stack else None
            stack.append(sid)
            n_workers = parallel.resolve_workers(workers)
            n_chunks = len(parallel.chunk_ranges(total, chunk))
            traced_task = self.wrap("parallel.chunk", task, parent=sid)
            start = perf_counter()
            try:
                return original_run_chunks(traced_task, total, workers, chunk)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, "parallel.run_chunks", start, end, par,
                                       self.op, threading.get_ident(), n_chunks))
                self.mark("parallel.workers", n_workers)

        self._rebind(mods, original_run_chunks, run_chunks)

        # pgmio
        def read_bytes(args, kwargs, result):
            return _nbytes_arg(args[0])

        hook("pgmio.read", pgmio.read_pgm, read_bytes)
        hook("pgmio.read", pgmio.read_grid, read_bytes)
        hook("pgmio.write", pgmio.write_pgm, read_bytes)
        hook("pgmio.write", pgmio.write_grid, read_bytes)

        hook("cli.run", cli.run_cli)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzipped CSV (written once, at the end of the run)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent,op,thread,count\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id},{s.name},{s.start!r},{s.end!r},{parent},"
                         f"{s.op},{s.thread},{s.count}\n")


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, []))
            for s in spans}


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    pid = span.parent
    while pid is not None:
        p = by_id.get(pid)
        if p is None:
            return False
        if p.name == name:
            return True
        pid = p.parent
    return False


# Every per-layer metric, with its unit. layer_metrics() returns exactly these.
LAYER_UNITS = {
    "noise.generator.calls": "count",
    "noise.generator_s": "s",
    "noise.generator_share": "share",
    "noise.sample_noise.draws": "count",
    "noise.sample_noise.self_s": "s",
    "losses.locate_rows.calls": "count",
    "losses.locate_rows.values": "count",
    "losses.locate_rows.mean_s": "s",
    "losses.locate_rows.median_s": "s",
    "losses.locate_rows.huber_s": "s",
    "losses.locate.calls": "count",
    "losses.locate_s": "s",
    "levels.simulate.calls": "count",
    "levels.simulate.replicates": "count",
    "levels.simulate_s": "s",
    "levels.simulate.self_s": "s",
    "levels.closed_form.calls": "count",
    "levels.closed_form_s": "s",
    "calibration.calibrate.self_s": "s",
    "calibration.verify.self_s": "s",
    "calibration.artifact_io.calls": "count",
    "calibration.artifact_io_s": "s",
    "selector.batch.rows": "count",
    "selector.batch_s": "s",
    "experiments.run_benchmark.self_s": "s",
    "windows.build_family_2d.calls": "count",
    "windows.build_family_2d_s": "s",
    "imaging.pixels": "count",
    "imaging.border_share": "share",
    "imaging.interior_filter.calls": "count",
    "imaging.interior_filter_s": "s",
    "imaging.border_locate_s": "s",
    "imaging.self_s": "s",
    "imaging.estimates_used_share": "share",
    "parallel.workers": "count",
    "parallel.chunks": "count",
    "parallel.wall_s": "s",
    "parallel.busy_s": "s",
    "parallel.speedup": "ratio",
    "pgmio.read_s": "s",
    "pgmio.write_s": "s",
    "pgmio.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    extra supplies the metrics that come from outside the spans: the
    k-hat waste ratio, the single-worker speedup and the tracing overhead.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        counts[s.name] += s.count
        dur[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]

    rows_kinds = [k for k in calls if k.startswith("losses.locate_rows.")]
    sim_chunks = sum(s.end - s.start for s in spans if s.name == "parallel.chunk"
                     and _has_ancestor(s, "levels.simulate", by_id))
    sim_gen = sum(s.end - s.start for s in spans if s.name == "noise.generator"
                  and _has_ancestor(s, "levels.simulate", by_id))
    pixels = counts["imaging.denoise_image"]
    workers = [s.count for s in spans if s.name == "parallel.workers"]

    out = {
        "noise.generator.calls": calls["noise.generator"],
        "noise.generator_s": dur["noise.generator"],
        "noise.generator_share": sim_gen / sim_chunks if sim_chunks else 0.0,
        "noise.sample_noise.draws": counts["noise.sample_noise"],
        "noise.sample_noise.self_s": own["noise.sample_noise"],
        "losses.locate_rows.calls": sum(calls[k] for k in rows_kinds),
        "losses.locate_rows.values": sum(counts[k] for k in rows_kinds),
        "losses.locate_rows.mean_s": dur["losses.locate_rows.mean"],
        "losses.locate_rows.median_s": dur["losses.locate_rows.median"],
        "losses.locate_rows.huber_s": dur["losses.locate_rows.huber"],
        "losses.locate.calls": calls["losses.locate"],
        "losses.locate_s": dur["losses.locate"],
        "levels.simulate.calls": calls["levels.simulate"],
        "levels.simulate.replicates": counts["levels.simulate"],
        "levels.simulate_s": dur["levels.simulate"],
        "levels.simulate.self_s": own["levels.simulate"],
        "levels.closed_form.calls": calls["levels.closed_form"],
        "levels.closed_form_s": dur["levels.closed_form"],
        "calibration.calibrate.self_s": own["calibration.calibrate"],
        "calibration.verify.self_s": own["calibration.verify"],
        "calibration.artifact_io.calls": calls["calibration.artifact_io"],
        "calibration.artifact_io_s": dur["calibration.artifact_io"],
        "selector.batch.rows": counts["selector.batch"],
        "selector.batch_s": dur["selector.batch"],
        "experiments.run_benchmark.self_s": own["experiments.run_benchmark"],
        "windows.build_family_2d.calls": calls["windows.build_family_2d"],
        "windows.build_family_2d_s": dur["windows.build_family_2d"],
        "imaging.pixels": pixels,
        "imaging.border_share": counts["imaging.border_pixels"] / pixels if pixels else 0.0,
        "imaging.interior_filter.calls": calls["imaging.interior_filter"],
        "imaging.interior_filter_s": dur["imaging.interior_filter"],
        "imaging.border_locate_s": sum(
            s.end - s.start for s in spans if s.name == "losses.locate"
            and _has_ancestor(s, "imaging.denoise_image", by_id)),
        "imaging.self_s": own["imaging.denoise_image"],
        "parallel.workers": max(workers) if workers else 0,
        "parallel.chunks": counts["parallel.run_chunks"],
        "parallel.wall_s": dur["parallel.run_chunks"],
        "parallel.busy_s": dur["parallel.chunk"],
        "pgmio.read_s": dur["pgmio.read"],
        "pgmio.write_s": dur["pgmio.write"],
        "pgmio.bytes": counts["pgmio.read"] + counts["pgmio.write"],
        "cli.self_s": own["cli.run"],
    }
    out.update(extra)
    missing = set(LAYER_UNITS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {k: out[k] for k in LAYER_UNITS}


def hot_spots(spans: list[Span]) -> dict[str, float]:
    """Figures that test the ROADMAP's timing claims, from one traced pass.

    Per-replicate times come from simulate_window_estimates' chunks; the
    imaging split compares wall time of the border loop (run_chunks under
    denoise_image) and of the interior filters with denoise_image's own.
    """
    by_id = {s.id: s for s in spans}

    def total(name, ancestor):
        return sum(s.end - s.start for s in spans
                   if s.name == name and _has_ancestor(s, ancestor, by_id))

    replicates = sum(s.count for s in spans if s.name == "levels.simulate")
    gens = sum(1 for s in spans if s.name == "noise.generator"
               and _has_ancestor(s, "levels.simulate", by_id))
    denoise = sum(s.end - s.start for s in spans if s.name == "imaging.denoise_image")
    return {
        "simulate_replicates": replicates,
        "simulate_generator_us_per_call":
            1e6 * total("noise.generator", "levels.simulate") / gens if gens else 0.0,
        "simulate_chunk_us_per_replicate":
            1e6 * total("parallel.chunk", "levels.simulate") / replicates
            if replicates else 0.0,
        "denoise_wall_s": denoise,
        "border_loop_wall_share":
            total("parallel.run_chunks", "imaging.denoise_image") / denoise if denoise else 0.0,
        "interior_filter_wall_share":
            total("imaging.interior_filter", "imaging.denoise_image") / denoise
            if denoise else 0.0,
    }

