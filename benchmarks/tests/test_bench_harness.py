"""Tests of the benchmark harness itself (not of adaptmreg).

Run with: python3 -m pytest benchmarks/tests -q
The smoke tests run every workload at reduced size through run.py.
"""

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import LAYER_UNITS, Span, Tracer, layer_metrics, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("table1d", "denoise_large", "denoise_tiles")


def _span(sid, start, end, parent=None, name="x", count=0):
    return Span(sid, name, start, end, parent, 0, 0, count)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),   # overlaps span 2, as pool threads do
        _span(2, 3.0, 6.0, parent=0),
        _span(3, 2.0, 3.0, parent=1),
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_self_time_of_nested_and_disjoint_children():
    spans = [_span(0, 0.0, 8.0), _span(1, 1.0, 2.0, parent=0),
             _span(2, 1.5, 1.8, parent=1), _span(3, 5.0, 7.0, parent=0)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(8.0 - 1.0 - 2.0)
    assert selfs[1] == pytest.approx(1.0 - 0.3)


def test_tracer_links_parents_across_threads():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    holder = {}

    def outer():
        sid = tracer._stack()[-1]
        task = tracer.wrap("chunk", inner, parent=sid)
        t = threading.Thread(target=task)
        t.start()
        t.join(timeout=10)
        holder["alive"] = t.is_alive()

    tracer.wrap("outer", outer)()
    assert holder["alive"] is False
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["chunk"].parent == by_name["outer"].id
    assert by_name["inner"].parent == by_name["chunk"].id
    assert by_name["chunk"].thread != by_name["outer"].thread


def test_layer_metrics_from_synthetic_spans():
    spans = [
        _span(0, 0.0, 4.0, name="cli.run"),
        _span(1, 0.5, 3.5, 0, "levels.simulate", count=100),
        _span(2, 0.6, 3.4, 1, "parallel.run_chunks", count=2),
        _span(3, 0.6, 2.0, 2, "parallel.chunk"),
        _span(4, 0.7, 1.0, 3, "noise.generator"),
        _span(5, 1.0, 1.5, 3, "losses.locate_rows.median", count=40),
        _span(6, 0.6, 3.4, 2, "parallel.chunk"),
        _span(7, 0.6, 0.6, 2, "parallel.workers", count=2),
    ]
    extra = {"imaging.estimates_used_share": 0.0, "parallel.speedup": 0.9,
             "trace.overhead_s": 0.1}
    m = layer_metrics(spans, extra)
    assert list(m) == list(LAYER_UNITS)
    assert m["levels.simulate.replicates"] == 100
    assert m["levels.simulate.self_s"] == pytest.approx(3.0 - 2.8)
    assert m["parallel.busy_s"] == pytest.approx(1.4 + 2.8)
    assert m["parallel.workers"] == 2
    assert m["losses.locate_rows.values"] == 40
    assert m["noise.generator_share"] == pytest.approx(0.3 / 4.2)
    assert m["cli.self_s"] == pytest.approx(1.0)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table in (LAYER_UNITS, run.END_TO_END_UNITS, run.DETAIL_UNITS):
        for name in table:
            assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run(*args, cwd=ROOT, script=None):
    script = script or BENCH / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _smoke(workload, trace, seed=3):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


PRINTED_METRICS = {
    "table1d": ("setup_s", "wall_s", "calibrate_s", "verify_s", "bench_s",
                "peak_rss_mb", "error_rate", "median_ring_err"),
    "denoise_large": ("setup_s", "wall_s", "mpix_per_s", "peak_rss_mb",
                      "error_rate", "mse_ratio"),
    "denoise_tiles": ("setup_s", "wall_s", "image_p50_s", "mpix_per_s",
                      "peak_rss_mb", "error_rate", "mse_ratio"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    lines, last = _smoke(workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in last["metrics"].values())
    printed = {line.split()[0] for line in lines[:-1] if line and line[0] != "#"}
    assert set(PRINTED_METRICS[workload]) <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_emits_every_layer_metric(workload):
    _, last = _smoke(workload, 1)
    assert last["correct"] is True
    assert {k: v["unit"] for k, v in last["metrics"].items()} == LAYER_UNITS


def test_traced_counts_repeat_exactly():
    counted = [k for k in LAYER_UNITS if k.endswith((".calls", ".draws", ".values", ".rows"))
               or k == "imaging.border_share"]
    first = _smoke("denoise_tiles", 1)[1]["metrics"]
    second = _smoke("denoise_tiles", 1)[1]["metrics"]
    assert {k: first[k]["value"] for k in counted} == {k: second[k]["value"] for k in counted}
    assert first["losses.locate.calls"]["value"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "table1d", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
