import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import adaptmreg as am  # noqa: E402

BENCH_RUNS = 10000
BENCH_SEEDS = {"mean_ring": 12, "mean_lepski": 13, "median_ring": 11, "median_lepski": 15}


@pytest.fixture(scope="session")
def bench_family():
    xs = am.equidistant_design(200)
    return am.build_family_1d(xs, 0.0, am.benchmark_counts())


def _line_artifact(family, loss, levels, rule, pair, seed):
    meta = {"counts": [int(c) for c in family.counts], "n": 200}
    cfg = am.CalibConfig(family_kind="line1d", family_meta=meta, loss=loss,
                         noise=am.NoiseKind.laplace(), runs=BENCH_RUNS, seed=seed, rule=rule,
                         mode="zeta")
    return am.calibrate(cfg, levels, pair)


@pytest.fixture(scope="session")
def bench_artifacts(bench_family):
    """Benchmark calibration suite: Laplace noise, r = 2, alpha = 1, 10^4 runs."""
    med = am.LossKind.median()
    mean = am.LossKind.mean()
    lap = am.NoiseKind.laplace()
    lv_mean = am.levels_exact_mean(bench_family)
    lv_med = am.levels_asymptotic(bench_family, med, lap)
    pair_mean = am.pair_levels_exact_mean(bench_family)
    pair_med = am.pair_levels_asymptotic(bench_family, med, lap)
    return {
        "mean_ring": _line_artifact(bench_family, mean, lv_mean, "ring", None,
                                    BENCH_SEEDS["mean_ring"]),
        "mean_lepski": _line_artifact(bench_family, mean, lv_mean, "lepski",
                                      pair_mean, BENCH_SEEDS["mean_lepski"]),
        "median_ring": _line_artifact(bench_family, med, lv_med, "ring", None,
                                      BENCH_SEEDS["median_ring"]),
        "median_lepski": _line_artifact(bench_family, med, lv_med, "lepski",
                                        pair_med, BENCH_SEEDS["median_lepski"]),
    }


@pytest.fixture(scope="session")
def disc_artifact():
    """2d calibration artifact: median loss, Laplace, default disc radii."""
    med = am.LossKind.median()
    lap = am.NoiseKind.laplace()
    cfg = am.CalibConfig(family_kind="disc2d",
                         family_meta={"radii": [float(r) for r in am.default_disc_radii()]},
                         loss=med, noise=lap, runs=BENCH_RUNS, seed=21, rule="ring",
                         mode="zeta")
    lv = am.levels_asymptotic(cfg.family, med, lap)
    return am.calibrate(cfg, lv)
