"""adaptmreg benchmark: one command, three closed-loop workloads.

    python3 benchmarks/run.py --workload {table1d,denoise_large,denoise_tiles}
                              --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Every workload runs in fresh client
processes (benchmarks/client.py) that import adaptmreg from the checkout's
src/. Set-up is timed over several fresh launches and reported as the
median. With --trace 0 the client issues whole passes of the workload's
commands for about S seconds and the end-to-end metrics are printed; with
--trace 1 it runs an untraced, a traced and a single-worker pass and the
per-layer metrics are printed. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A full record (machine
facts, per-op timings, failures, output digests) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_UNITS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

WORKERS_ENV = "ADAPTMREG_WORKERS"
SETUP_LAUNCHES = 3
DEADLINE_S = 170.0

# gated metrics, reported on every workload (BENCHMARK.json end_to_end)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "quality_err": "ratio",
}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    cache = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    for idx in range(8):
        level = _read(f"{cache}/index{idx}/level")
        kind = _read(f"{cache}/index{idx}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}_size"] = _read(f"{cache}/index{idx}/size")
    # an exported checkout has no .git; git would then report an enclosing
    # repository's commit, so src_sha256 identifies the code instead
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "git_commit": commit,
            "src_sha256": _tree_digest(ROOT / "src" / "adaptmreg"), **caches}


def _tree_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(pkg.rglob("*.py")):
        h.update(f.relative_to(pkg).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def launch(args, mode: str, workdir: Path, env: dict, deadline: float) -> dict:
    """One fresh client process; returns its result record."""
    result = workdir / "client-result.json"
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "client.py"), "--root", str(ROOT),
           "--workdir", str(workdir), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--size", args.size, "--launched", repr(launched),
           "--result", str(result)]
    # client output goes to our stderr: stdout carries only the report
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
                          timeout=max(5.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"client exited with code {proc.returncode} in {mode} mode")
    return json.loads(result.read_text())


def _median(values):
    return statistics.median(values) if values else float("nan")


def mark_nondeterminism(passes: list[dict]) -> None:
    """An op whose output bytes differ from the first pass fails."""
    first = passes[0]["ops"]
    for p in passes[1:]:
        for ref, op in zip(first, p["ops"]):
            if op["digests"] != ref["digests"] and not op["failures"]:
                op["failures"] = [f"{op['kind']} {op['label']}: output differs from pass 1"]


def summarize(workload: str, passes: list[dict], setups: list[float],
              peak_rss_mb: float, error_rate: float, pixels: int) -> dict:
    """Every printed end-to-end figure, from the timed passes."""
    ops = [op for p in passes for op in p["ops"]]
    detail = {
        "setup_s": _median(setups),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": error_rate,
        "host_steal_share": _median([p["steal_share"] for p in passes
                                     if p["steal_share"] is not None]),
    }
    quality = passes[0]["quality"]
    if workload == "table1d":
        for kind in ("calibrate", "verify", "bench"):
            detail[f"{kind}_s"] = _median(
                [sum(op["seconds"] for op in p["ops"] if op["kind"] == kind)
                 for p in passes])
        detail["median_ring_err"] = quality.get("median_ring_err", float("nan"))
        detail["verify_ratio"] = quality.get("verify_ratio", float("nan"))
    else:
        secs = [op["seconds"] for op in ops]
        detail["image_p50_s"] = _median(secs)
        detail["mpix_per_s"] = pixels * len(passes) / sum(secs) / 1e6
        detail["mse_ratio"] = quality.get("mse_ratio", float("nan"))
        detail["estimates_used_share"] = quality.get("estimates_used_share", float("nan"))
    return detail


DETAIL_UNITS = {"setup_s": "s", "wall_s": "s", "calibrate_s": "s", "verify_s": "s",
                "bench_s": "s", "image_p50_s": "s", "mpix_per_s": "Mpx/s",
                "peak_rss_mb": "MB", "error_rate": "ratio", "median_ring_err": "1",
                "verify_ratio": "ratio", "mse_ratio": "ratio",
                "estimates_used_share": "share", "host_steal_share": "share"}


def findings(layers: dict, hot: dict) -> list[str]:
    """What the traced run says about the ROADMAP's timing claims."""
    out = []
    if hot["simulate_replicates"]:
        out.append(
            f"RNG setup: {hot['simulate_generator_us_per_call']:.1f} us per substream "
            f"generator out of {hot['simulate_chunk_us_per_replicate']:.1f} us of chunk "
            f"time per replicate in simulate_window_estimates "
            f"({layers['noise.generator_share']:.0%}; traced, "
            f"{layers['parallel.workers']} workers); ROADMAP: 23 of 32 us")
    if hot["denoise_wall_s"]:
        border = hot["border_loop_wall_share"]
        interior = hot["interior_filter_wall_share"]
        out.append(
            f"imaging: border band {layers['imaging.border_share']:.1%} of pixels; "
            f"border loop {border:.0%} and interior filters {interior:.0%} of "
            f"denoise_image wall time ("
            + ("border loop dominates" if border > interior else "interior dominates")
            + ")")
    speed = layers["parallel.speedup"]
    verdict = ("one worker is faster than the default" if speed < 0.95 else
               "the default is faster than one worker" if speed > 1.05 else
               "no difference beyond 5 %")
    out.append(f"workers: single-worker wall / default ({layers['parallel.workers']} "
               f"workers) wall = {speed:.3f}: {verdict}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="adaptmreg benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="input sizes; 'smoke' is a reduced run for the harness tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (ROOT / "src" / "adaptmreg" / "cli.py").is_file():
        print(f"error: no adaptmreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    facts = machine_facts()
    flags = []
    env = dict(os.environ)
    if WORKERS_ENV in env:
        flags.append(f"{WORKERS_ENV}={env.pop(WORKERS_ENV)} was set; "
                     "removed so the default worker count is measured")
    if (facts["cpu_count"] or 0) > facts["nproc"]:
        flags.append(f"os.cpu_count() = {facts['cpu_count']} exceeds nproc = "
                     f"{facts['nproc']}: the default runs more threads than cores")
    for flag in flags:
        print(f"flag: {flag}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = ROOT / ".bench_work" / stem
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    setups = []
    try:
        if args.trace == 0:
            for i in range(SETUP_LAUNCHES - 1):
                setups.append(launch(args, "setup", work / f"setup{i}", env,
                                     deadline)["setup_s"])
        main_dir = work / "main"
        res = launch(args, "run" if args.trace == 0 else "trace", main_dir, env, deadline)
        setups.append(res["setup_s"])
        if "spans_file" in res:
            shutil.move(main_dir / res["spans_file"], out_dir / f"{stem}.spans.csv.gz")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = res["passes"]
    mark_nondeterminism(passes)
    attempted = sum(len(pss["ops"]) for pss in passes)
    failed = sum(1 for pss in passes for op in pss["ops"] if op["failures"])
    # a traced run times only its first (untraced, default-worker) pass
    timed = passes if args.trace == 0 else passes[:1]
    detail = summarize(args.workload, timed, setups, res["peak_rss_mb"],
                       failed / attempted, res["facts"].get("pixels", 0))
    quality_key = "median_ring_err" if args.workload == "table1d" else "mse_ratio"
    if args.trace == 0:
        values = {"setup_s": detail["setup_s"], "wall_s": detail["wall_s"],
                  "peak_rss_mb": detail["peak_rss_mb"],
                  "success_rate": 1.0 - detail["error_rate"],
                  "quality_err": detail[quality_key]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        layers = res["per_layer"]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}

    record = {"args": vars(args), "facts": {**facts, **res["facts"]}, "flags": flags,
              "setup_samples_s": setups, "detail": detail, "metrics": metrics,
              "passes": passes}
    if args.trace:
        record["hot_spots"] = res["hot_spots"]
        record["findings"] = findings(res["per_layer"], res["hot_spots"])
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed}")
    for k, v in detail.items():
        print(f"{k:<24} {v:>14.6g} {DETAIL_UNITS[k]}")
    for line in record.get("findings", []):
        print(f"finding: {line}")
    for op in (op for pss in passes for op in pss["ops"] if op["failures"]):
        for msg in op["failures"]:
            print(f"failure: {op['kind']} {op['label']}: {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
