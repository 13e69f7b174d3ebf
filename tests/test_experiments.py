import math

import numpy as np
import pytest

import adaptmreg as am
from adaptmreg import (ExperimentSpec, LossKind, NoiseKind, median_moment_study,
                       run_benchmark, tail_study, two_sample_study)
from adaptmreg.experiments import (METHODS, BenchRow, TwoSampleReport, csv_text,
                                   pooled_variance_formula)
from adaptmreg.losses import locate_rows
from adaptmreg.noise import density, sample_rows

from oracle_select import oracle_index


def test_method_order_fixed(bench_artifacts):
    spec = ExperimentSpec(example=1, noise=NoiseKind.laplace(), runs=20, seed=1)
    report = run_benchmark(spec, bench_artifacts)
    assert tuple(r.method for r in report.rows) == METHODS


def test_benchmark_determinism(bench_artifacts):
    spec = ExperimentSpec(example=1, noise=NoiseKind.laplace(), runs=60, seed=4)
    a = run_benchmark(spec, bench_artifacts)
    b = run_benchmark(spec, bench_artifacts)
    assert csv_text(BenchRow, a.rows) == csv_text(BenchRow, b.rows)


def test_benchmark_worker_invariance(bench_artifacts, monkeypatch):
    spec = ExperimentSpec(example=1, noise=NoiseKind.laplace(), runs=60, seed=4)
    base = csv_text(BenchRow, run_benchmark(spec, bench_artifacts).rows)
    monkeypatch.setenv("ADAPTMREG_WORKERS", "3")
    assert csv_text(BenchRow, run_benchmark(spec, bench_artifacts).rows) == base


def test_zero_noise_gives_zero_error(bench_artifacts, monkeypatch):
    monkeypatch.setattr(am.experiments, "sample_rows",
                        lambda kind, n, seed, lo, hi: np.zeros((hi - lo, n)))
    spec = ExperimentSpec(example=1, noise=NoiseKind.laplace(), runs=10, seed=2)
    report = run_benchmark(spec, bench_artifacts)
    for row in report.rows:
        assert row.mc_median_abs_error == 0.0


def test_benchmark_csv_shape(bench_artifacts):
    spec = ExperimentSpec(example=2, noise=NoiseKind.gaussian(), runs=15, seed=3)
    text = csv_text(BenchRow, run_benchmark(spec, bench_artifacts).rows)
    lines = text.strip().split("\n")
    assert lines[0] == "example,noise,method,mc_median_abs_error,runs,seed"
    assert len(lines) == 1 + len(METHODS)
    cells = lines[1].split(",")
    assert cells[0] == "2" and cells[1] == "gaussian"
    float(cells[3])


def test_missing_artifact_rejected(bench_artifacts):
    partial = {k: v for k, v in bench_artifacts.items() if k != "mean_ring"}
    spec = ExperimentSpec(example=1, noise=NoiseKind.laplace(), runs=5, seed=1)
    with pytest.raises(ValueError):
        run_benchmark(spec, partial)


def test_traces_are_replicate_zero_of_the_batch(bench_artifacts, bench_family):
    """Each method's trace holds the selection bench made on replicate 0.

    The estimates are recomputed over the whole 20-row chunk, as bench
    computed them; for mean losses a one-row batch can round differently.
    bench traces from its batch's k_hat without selecting again, and the
    trace is field by field the one select_ring or select_lepski gives on
    replicate 0, for both rules.
    """
    spec = ExperimentSpec(example=1, noise=NoiseKind.laplace(), runs=20, seed=7)
    report = run_benchmark(spec, bench_artifacts)
    assert sorted(report.traces) == sorted(bench_artifacts)
    xs = am.equidistant_design(200)
    y = am.signal_step(xs) + am.sample_rows(spec.noise, 200, spec.seed, 0, 20)
    for method, art in bench_artifacts.items():
        bases, rings = am.window_estimates(np.take(y, bench_family.order, axis=1),
                                           bench_family.counts, art.config.loss)
        if art.config.rule == "lepski":
            k_hat = am.select_lepski_batch(bases, art.pair, art.crit)[0]
        else:
            k_hat = am.select_ring_batch(bases, rings, art.levels, art.crit)[0]
        trace = report.traces[method]
        assert trace.k_hat == k_hat, method
        assert trace.theta_hat == bases[0, k_hat], method
        if art.config.rule == "lepski":
            alone = am.select_lepski(bases[0], art.pair, art.crit)
            assert trace.rings is None and alone.rings is None, method
        else:
            alone = am.select_ring(bases[0], rings[0], art.levels, art.crit)
            assert trace.rings.tobytes() == alone.rings.tobytes(), method
        assert trace.base.tobytes() == alone.base.tobytes(), method
        assert (trace.k_hat, trace.theta_hat, trace.tests) == (
            alone.k_hat, alone.theta_hat, alone.tests), method


def test_mismatched_artifact_rejected(bench_artifacts):
    swapped = dict(bench_artifacts)
    swapped["mean_ring"] = bench_artifacts["median_ring"]
    spec = ExperimentSpec(example=1, noise=NoiseKind.laplace(), runs=5, seed=1)
    with pytest.raises(ValueError):
        run_benchmark(spec, swapped)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(example=3, noise=NoiseKind.laplace())
    with pytest.raises(ValueError):
        ExperimentSpec(example=1, noise=NoiseKind.laplace(), methods=())
    with pytest.raises(ValueError):
        ExperimentSpec(example=1, noise=NoiseKind.laplace(), methods=("ransac",))


def test_two_sample_formulas_at_zero_shift():
    for kind in (NoiseKind.laplace(), NoiseKind.gaussian(), NoiseKind.student_t(3)):
        f0 = density(kind, 0.0)
        assert pooled_variance_formula(kind, 0.0) == pytest.approx(
            1.0 / (2.0 * f0 ** 2), abs=1e-12)
    # standardized Laplace: both limiting variances equal one
    assert pooled_variance_formula(NoiseKind.laplace(), 0.0) == pytest.approx(1.0)


def test_two_sample_expansion_near_zero():
    kind = NoiseKind.laplace()
    f0 = density(kind, 0.0)
    delta = 0.2
    ratio = pooled_variance_formula(kind, delta) * 2.0 * f0 ** 2
    assert abs(ratio - (1.0 + 2.0 * delta * f0)) <= delta ** 2


def test_two_sample_mc_quick():
    report = two_sample_study(NoiseKind.laplace(), 0.0, n=400, runs=4000, seed=31)
    assert report.var_w_formula == pytest.approx(1.0)
    # Laplace medians carry noticeable finite-n variance inflation at n=400
    assert report.var_w_mc == pytest.approx(1.0, rel=0.15)
    assert report.var_l_mc == pytest.approx(1.0, rel=0.20)
    text = csv_text(TwoSampleReport, [report])
    assert text.startswith("kind,delta,n,runs,seed,")


@pytest.mark.parametrize("n", [101, 40, 2])
def test_two_sample_study_is_three_separate_medians(n):
    """The statistics equal those of three locate_rows sorts, bit for bit, odd and even n.

    1500 replicates span two chunks.
    """
    kind, delta, runs, seed = NoiseKind.laplace(), 0.3, 1500, 8
    block = sample_rows(kind, 2 * n, seed, 0, runs)
    block[:, n:] += delta
    med1, med2, med_all = (locate_rows(block[:, cols], LossKind.median())
                           for cols in (slice(None, n), slice(n, None), slice(None)))
    stat_w = math.sqrt(n) * (med2 - med1 - delta)
    stat_l = math.sqrt(n) * (2.0 * (med_all - med1) - delta)
    report = two_sample_study(kind, delta, n, runs, seed)
    assert report.var_w_mc == float(stat_w.var(ddof=1))
    assert report.var_l_mc == float(stat_l.var(ddof=1))


def test_two_sample_validation():
    with pytest.raises(ValueError):
        two_sample_study(NoiseKind.laplace(), -0.1, n=100, runs=100, seed=1)


def test_moment_study_quick():
    rows = median_moment_study(NoiseKind.gaussian(), [101], r=2.0,
                               runs=20000, seed=17)
    assert rows[0].normalized_moment == pytest.approx(1.0, rel=0.1)
    with pytest.raises(ValueError):
        median_moment_study(NoiseKind.gaussian(), [100], r=2.0, runs=1000, seed=1)


def test_moment_window_gaussian_n1001():
    # the normal case has no density kink, so the limit is tight already
    rows = median_moment_study(NoiseKind.gaussian(), [1001], r=2.0,
                               runs=20000, seed=19)
    assert 0.9 <= rows[0].normalized_moment <= 1.1


def test_moment_study_r1():
    # first absolute moment, same normalization recipe
    rows = median_moment_study(NoiseKind.laplace(), [401], r=1.0,
                               runs=20000, seed=20)
    assert 0.9 <= rows[0].normalized_moment <= 1.15


def test_tail_study_quick():
    rows = tail_study(NoiseKind.gaussian(), 101, [0.0, 1.0, 2.0],
                      runs=20000, seed=18)
    ex = [row.exceedance for row in rows]
    assert ex[0] == 1.0 <= 2.0
    assert ex == sorted(ex, reverse=True)
    for row in rows:
        assert row.bound == pytest.approx(2.0 * math.exp(-row.tau ** 2 / 8.0))
    with pytest.raises(ValueError):
        tail_study(NoiseKind.gaussian(), 101, [90.0], runs=1000, seed=1)
    with pytest.raises(ValueError):
        tail_study(NoiseKind.gaussian(), 100, [1.0], runs=1000, seed=1)


def test_mean_rules_mostly_agree(bench_artifacts, bench_family):
    """Ring and classical selections coincide for sample means.

    For linear estimators the ring statistic is an exact multiple of the
    window difference, so the calibrated rules pick the same index in the
    vast majority of replicates; observed 96 percent on the change-point
    signal with Gaussian noise, frozen at 90.
    """
    from adaptmreg.losses import locate_rows
    family = bench_family
    counts, order, K = family.counts, family.order, family.K
    xs = am.equidistant_design(200)
    g = am.signal_step(xs)
    runs = 400
    bases = np.empty((runs, K + 1))
    rings = np.empty((runs, K))
    mean = LossKind.mean()
    for i in range(runs):
        y = g + am.sample_noise(NoiseKind.gaussian(), 200, am.RngStream(7, i))
        yw = y[order]
        for k in range(K + 1):
            bases[i, k] = locate_rows(yw[None, : counts[k]], mean)[0]
        for k in range(K):
            rings[i, k] = locate_rows(yw[None, counts[k]: counts[k + 1]], mean)[0]
    ring_art = bench_artifacts["mean_ring"]
    lep_art = bench_artifacts["mean_lepski"]
    k_ring = am.select_ring_batch(bases, rings, ring_art.levels, ring_art.crit)
    k_lep = am.select_lepski_batch(bases, lep_art.pair, lep_art.crit)
    assert np.mean(k_ring == k_lep) >= 0.90


def test_early_stopping_risk_bounds(bench_artifacts, bench_family):
    """One-sided sanity checks of the stopping-risk inequalities.

    With r = 2 the early-stopping loss must stay below
    3 (z_k^2 + 1 + alpha) s_k^2 for k up to the oracle index, and the total
    deviation from window k below 3 ((2 z_k^2 + 1 + alpha) s_k^2 +
    z_k^2 max_j s_ring[j, k]^2).
    """
    art = bench_artifacts["median_ring"]
    family = bench_family
    xs = am.equidistant_design(200)
    g = am.signal_step(xs)
    levels, crit = art.levels, art.crit
    K = family.K
    runs = 2000
    order = family.order
    counts = family.counts
    rng_label = 77
    bases = np.empty((runs, K + 1))
    rings = np.empty((runs, K))
    med = LossKind.median()
    from adaptmreg.losses import locate_rows
    for i in range(runs):
        y = g + am.sample_noise(NoiseKind.laplace(), 200, am.RngStream(rng_label, i))
        yw = y[order]
        for k in range(K + 1):
            bases[i, k] = locate_rows(yw[None, : counts[k]], med)[0]
        for k in range(K):
            rings[i, k] = locate_rows(yw[None, counts[k]: counts[k + 1]], med)[0]
    k_hat = am.select_ring_batch(bases, rings, levels, crit)
    theta_hat = np.take_along_axis(bases, k_hat[:, None], 1)[:, 0]
    k_star = oracle_index(g, family, crit, levels).k_star
    zf = crit.full(K)
    alpha = art.config.alpha
    for k in range(min(k_star, K - 1) + 1):
        dev = np.abs(theta_hat - bases[:, k]) ** 2
        early = float(np.mean(dev * (k_hat < k)))
        assert early <= 3.0 * (zf[k] ** 2 + 1.0 + alpha) * levels.s[k] ** 2
        total = float(np.mean(dev))
        cap = 3.0 * ((2.0 * zf[k] ** 2 + 1.0 + alpha) * levels.s[k] ** 2
                     + zf[k] ** 2 * np.max(levels.s_ring[k:, k] ** 2))
        assert total <= cap
