"""One workload client, run in a fresh process by run.py.

The client imports adaptmreg.cli from the checkout's src/, prepares the
workload inputs in its work directory and then, depending on --mode:

  setup   stops there (run.py launches several of these to time set-up);
  run     issues the workload's commands back to back in whole passes,
          as many as bring the measured time nearest to --seconds (at
          least one);
  trace   runs one untraced pass, one traced pass and one pass with
          ADAPTMREG_WORKERS=1, and derives the per-layer metrics.

Commands go through adaptmreg.cli.run_cli in-process, with their stdout and
stderr captured. The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS, OpResult, sha256_file  # noqa: E402

WORKERS_ENV = "ADAPTMREG_WORKERS"


def _import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    import adaptmreg
    import adaptmreg.cli
    pkg = Path(adaptmreg.__file__).resolve().parent
    if pkg != (root / "src" / "adaptmreg").resolve():
        raise SystemExit(f"adaptmreg imported from {pkg}, not from the checkout")
    return adaptmreg.cli


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, all) clock ticks of the machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks[:8])) if len(ticks) >= 8 else None


def run_pass(cli, workload, ops, tracer=None) -> dict:
    """Every op once, timed one by one; outputs checked after the pass.

    run_cli is looked up on the module at each call, so an installed tracer
    sees it.
    """
    results, records = [], []
    ticks_before = _cpu_ticks()
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.run_cli(list(op.argv))
            seconds = time.perf_counter() - start
        results.append(OpResult(op, rc, out.getvalue()))
        records.append({"kind": op.kind, "label": op.label, "seconds": seconds,
                        "rc": rc, "stderr": err.getvalue()[-2000:]})
    ticks_after = _cpu_ticks()
    failures, quality = workload.check(results)
    for rec, res, bad in zip(records, results, failures):
        rec["failures"] = bad
        rec["digests"] = {name: sha256_file(name) for name in res.op.outputs
                          if res.rc == 0 and Path(name).is_file()}
    # share of the machine's CPU time the hypervisor took away during the
    # pass: it explains run-to-run spread that the program did not cause
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = ((ticks_after[0] - ticks_before[0])
                 / (ticks_after[1] - ticks_before[1]))
    return {"wall_s": sum(r["seconds"] for r in records), "ops": records,
            "quality": quality, "steal_share": steal}


def trace_passes(cli, workload, ops, spans_path: Path) -> tuple[list[dict], dict, dict]:
    from tracing import Tracer, hot_spots, layer_metrics

    base = run_pass(cli, workload, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, workload, ops, tracer)
    finally:
        tracer.uninstall()
    previous = os.environ.get(WORKERS_ENV)
    os.environ[WORKERS_ENV] = "1"
    try:
        single = run_pass(cli, workload, ops)
    finally:
        if previous is None:
            del os.environ[WORKERS_ENV]
        else:
            os.environ[WORKERS_ENV] = previous
    tracer.write(spans_path)
    extra = {
        "imaging.estimates_used_share":
            traced["quality"].get("estimates_used_share", 0.0),
        "parallel.speedup": single["wall_s"] / base["wall_s"],
        "trace.overhead_s": traced["wall_s"] - base["wall_s"],
    }
    layers = layer_metrics(tracer.spans, extra)
    return [base, traced, single], layers, hot_spots(tracer.spans)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--launched", required=True, type=float,
                   help="time.monotonic() of the parent just before the launch")
    p.add_argument("--result", required=True, type=Path)
    args = p.parse_args(argv)

    cli = _import_cli(args.root)
    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)
    workload = WORKLOADS[args.workload](args.workload, args.seed, SIZES[args.size])
    log = io.StringIO()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            workload.setup(cli.run_cli, args.workdir)
    except RuntimeError:
        sys.stderr.write(log.getvalue())
        raise
    ops = workload.ops()
    setup_s = time.monotonic() - args.launched

    import numpy
    import scipy

    import adaptmreg
    from adaptmreg.parallel import resolve_workers
    result = {"setup_s": setup_s, "facts": dict(workload.facts, **{
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "adaptmreg": adaptmreg.__version__,
        "default_workers": resolve_workers(), "ops_per_pass": len(ops)})}
    if args.mode == "run":
        passes = []
        start = time.monotonic()
        # another pass only if it brings the measured time nearer to --seconds
        while True:
            passes.append(run_pass(cli, workload, ops))
            used = time.monotonic() - start
            if used + passes[-1]["wall_s"] / 2 > args.seconds:
                break
        result["passes"] = passes
    elif args.mode == "trace":
        spans_path = args.result.with_suffix(".spans.csv.gz")
        result["passes"], result["per_layer"], result["hot_spots"] = trace_passes(
            cli, workload, ops, spans_path)
        result["spans_file"] = spans_path.name
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
