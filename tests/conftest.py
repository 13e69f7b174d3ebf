import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import adaptmreg as am  # noqa: E402
from adaptmreg import losses  # noqa: E402

BENCH_RUNS = 10000
BENCH_SEEDS = {"mean_ring": 12, "mean_lepski": 13, "median_ring": 11, "median_lepski": 15}


@pytest.fixture(autouse=True)
def simd_int16_sort(monkeypatch):
    """Sort integer images as int16 whatever the CPU, so the tests cover that path.

    The gate picks the faster dtype only; the output bits are the same.
    """
    monkeypatch.setattr(losses, "SIMD_INT16_SORT", True)


@pytest.fixture(scope="session")
def bench_family():
    xs = am.equidistant_design(200)
    return am.build_family_1d(xs, 0.0, am.benchmark_counts())


def _line_artifact(family, loss, rule, seed):
    """The bench1d artifact of a loss named "mean" or "median" and a rule."""
    meta = {"counts": [int(c) for c in family.counts], "n": 200}
    cfg = am.CalibConfig(family_kind="line1d", family_meta=meta, loss=getattr(am.LossKind, loss)(),
                         noise=am.NoiseKind.laplace(), runs=BENCH_RUNS, seed=seed, rule=rule,
                         mode="zeta")
    return am.calibrate(cfg)


@pytest.fixture(scope="session")
def bench_artifacts(bench_family):
    """Benchmark calibration suite: Laplace noise, r = 2, alpha = 1, 10^4 runs.

    calibrate's auto levels: exact for the mean, asymptotic for the median.
    """
    return {name: _line_artifact(bench_family, *name.split("_"), seed)
            for name, seed in BENCH_SEEDS.items()}


@pytest.fixture(scope="session")
def disc_artifact():
    """2d calibration artifact: median loss, Laplace, default disc radii."""
    cfg = am.CalibConfig(family_kind="disc2d",
                         family_meta={"radii": [float(r) for r in am.default_disc_radii()]},
                         loss=am.LossKind.median(), noise=am.NoiseKind.laplace(),
                         runs=BENCH_RUNS, seed=21, rule="ring", mode="zeta")
    return am.calibrate(cfg)
