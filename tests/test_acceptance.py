"""Acceptance suite: one test per criterion, each printing a pass line.

Statistical criteria run on fixed seeds at the stated replication sizes, so
green runs are reproducible. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

import adaptmreg as am
from adaptmreg import (DenoiseConfig, ExperimentSpec, Image, LossKind,
                       NoiseKind, RngStream, denoise_image, estimate_noise_scale,
                       run_benchmark, sample_noise, verify_calibration)
from adaptmreg.losses import locate_rows

import oracle_moments
from oracle_locate import brute_locate, multisets


def _bench_row(bench_artifacts, example, noise, seed=7):
    spec = ExperimentSpec(example=example, noise=noise, n=200, runs=1000,
                          seed=seed)
    report = run_benchmark(spec, bench_artifacts)
    return {r.method: r.mc_median_abs_error for r in report.rows}


@pytest.fixture(scope="module")
def all_rows(bench_artifacts):
    noises = {"a": NoiseKind.laplace(), "b": NoiseKind.gaussian(),
              "c": NoiseKind.student_t(3)}
    return {f"{ex}{tag}": _bench_row(bench_artifacts, ex, kind)
            for ex in (1, 2) for tag, kind in noises.items()}


def test_criterion_1_benchmark_table(bench_artifacts):
    """Published-table reproduction on the change-point example, Laplace noise."""
    start = time.monotonic()
    row = _bench_row(bench_artifacts, 1, NoiseKind.laplace())
    elapsed = time.monotonic() - start
    assert 0.067 <= row["median_ring"] <= 0.112, row
    assert 0.22 <= row["median_lepski"] <= 0.36, row
    gap = abs(row["mean_lepski"] - row["mean_ring"])
    assert gap <= 0.10 * row["mean_lepski"], row
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 1 (benchmark table, row 1a in {elapsed:.1f}s): PASS "
          f"median_ring={row['median_ring']:.4f} median_lepski={row['median_lepski']:.4f} "
          f"mean gap={gap / row['mean_lepski']:.3f}")


def test_criterion_2_ordinal_claims(all_rows):
    """Ring rule beats the classical rule for medians and tracks the oracle."""
    for key in ("1a", "1c", "2a", "2c"):
        row = all_rows[key]
        assert row["median_ring"] <= 0.6 * row["median_lepski"], (key, row)
    ratios = {}
    for key, row in all_rows.items():
        ratios[key] = row["median_ring"] / row["median_oracle"]
        assert ratios[key] <= 1.5, (key, row)
    print(f"\nACCEPTANCE 2 (ordinal claims on six rows): PASS "
          f"oracle ratios={ {k: round(v, 3) for k, v in ratios.items()} }")


def test_criterion_3_two_sample_variances():
    start = time.monotonic()
    kind = NoiseKind.laplace()
    rep0 = am.two_sample_study(kind, 0.0, n=1000, runs=20000, seed=41)
    rep2 = am.two_sample_study(kind, 0.2, n=1000, runs=20000, seed=42)
    elapsed = time.monotonic() - start
    assert rep0.var_w_formula == pytest.approx(1.0, abs=1e-12)
    assert abs(rep0.var_w_mc - 1.0) <= 0.05
    ratio_mc = rep2.var_l_mc / rep2.var_w_mc
    ratio_formula = rep2.var_l_formula / rep2.var_w_formula
    assert abs(ratio_mc / ratio_formula - 1.0) <= 0.10
    f0 = am.density(kind, 0.0)
    assert abs(ratio_formula - (1.0 + 2.0 * 0.2 * f0)) <= 0.2 ** 2
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 (two-sample variances in {elapsed:.1f}s): PASS "
          f"var_w={rep0.var_w_mc:.4f} ratio mc/formula="
          f"{ratio_mc:.4f}/{ratio_formula:.4f}")


def test_criterion_4_propagation_and_betweenness(bench_artifacts, bench_family):
    # deterministic late-stopping bound over 10^4 noisy replicates
    art = bench_artifacts["median_ring"]
    family, levels, crit = bench_family, art.levels, art.crit
    K = family.K
    counts, order = family.counts, family.order
    xs = am.equidistant_design(200)
    g = am.signal_step(xs)
    runs = 10 ** 4
    bases = np.empty((runs, K + 1))
    rings = np.empty((runs, K))
    med = LossKind.median()
    chunk = 2048
    for lo in range(0, runs, chunk):
        hi = min(lo + chunk, runs)
        block = np.empty((hi - lo, 200))
        for i in range(lo, hi):
            block[i - lo] = g + sample_noise(NoiseKind.laplace(), 200,
                                             RngStream(88, i))
        bw = block[:, order]
        for k in range(K + 1):
            bases[lo:hi, k] = locate_rows(bw[:, : counts[k]], med)
        for k in range(K):
            rings[lo:hi, k] = locate_rows(bw[:, counts[k]: counts[k + 1]], med)
    k_hat = am.select_ring_batch(bases, rings, levels, crit)
    theta_hat = np.take_along_axis(bases, k_hat[:, None], 1)[:, 0]
    violations = 0
    for k in range(K):
        rhs = am.propagation_bound(levels, crit, k)
        past = k_hat > k
        if past.any():
            lhs = np.abs(theta_hat[past] - bases[past, k])
            violations += int(np.sum(lhs > rhs + 1e-12))
    assert violations == 0

    # betweenness over 10^5 randomized (values, partition, loss) cases
    rng = np.random.default_rng(2024)
    cases = 10 ** 5
    bad = 0
    for trial in range(cases):
        n = int(rng.integers(2, 12))
        if trial % 2 == 0:
            y = rng.integers(-3, 4, size=n).astype(float)
        else:
            y = rng.normal(size=n)
        n_blocks = int(rng.integers(1, min(n, 4) + 1))
        labels = rng.integers(0, n_blocks, size=n)
        labels[:n_blocks] = np.arange(n_blocks)
        partition = [np.flatnonzero(labels == b) for b in range(n_blocks)]
        pick = trial % 4
        if pick == 0:
            loss = LossKind.mean()
        elif pick == 1:
            loss = LossKind.median()
        elif pick == 2:
            loss = LossKind.quantile(float(rng.uniform(0.1, 0.9)))
        else:
            loss = LossKind.huber(float(rng.uniform(0.3, 2.0)))
        if not am.betweenness_holds(y, partition, loss):
            bad += 1
    assert bad == 0
    print(f"\nACCEPTANCE 4 (propagation 10^4 runs, betweenness 10^5 cases): PASS "
          f"0 violations")


MOMENT_RUNS = 10 ** 5


@pytest.fixture(scope="module")
def moment_ratios():
    moments = am.median_moment_study(NoiseKind.laplace(), [101, 401, 1601],
                                     r=2.0, runs=MOMENT_RUNS, seed=61)
    return {row.n_points: row.normalized_moment for row in moments}


def test_criterion_5_median_moments_and_tails(moment_ratios):
    for n in (401, 1601):
        assert 0.9 <= moment_ratios[n] <= 1.1, moment_ratios
    # moment scaling: the log-ratio trend over the three sizes stays flat
    ns = np.array([101, 401, 1601], dtype=float)
    vals = np.array([moment_ratios[int(n)] for n in ns])
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert abs(slope) <= 0.05
    tails = am.tail_study(NoiseKind.laplace(), 1001, [3.0], runs=10 ** 5, seed=62)
    exceed = tails[0].exceedance
    assert exceed <= 2.2 * math.exp(-9.0 / 8.0)
    print(f"\nACCEPTANCE 5 (median moments and tails): PASS "
          f"ratios={ {k: round(v, 4) for k, v in moment_ratios.items()} } "
          f"slope={slope:.4f} tail={exceed:.5f}")


def test_criterion_5_moment_window_at_n101_known_unattainable(moment_ratios):
    """N = 101 moment checked against its exact finite-sample value.

    The criterion states a [0.9, 1.1] window for 4 f(0)^2 N E[med^2] of the
    Laplace sample median, which is the normal limit +- 10 percent. No correct
    program meets it at N = 101: the Laplace density has a kink at 0, so the
    finite-N excess decays only like about 1.6 / sqrt(N), and the exact
    order-statistic values are 1.1654 at N = 101, 1.0815 at 401, 1.0512 at
    1001 and 1.0403 at 1601. The window is therefore replaced by the exact
    value from quadrature (oracle_moments), and the measured ratio must lie
    within four Monte Carlo standard errors of it, the standard error coming
    from the exact fourth moment. That band is about +-0.023, narrower than
    the stated window, and it still rejects a wrong f(0), a wrong sqrt(N)
    scaling, a wrong Laplace scale or a study that reports the normal limit.
    """
    n = 101
    f0 = oracle_moments.laplace_density(0.0)
    assert f0 == pytest.approx(am.density(NoiseKind.laplace(), 0.0),
                               rel=1e-15)
    moments = oracle_moments.median_abs_moments(n)
    assert abs(moments[0] - 1.0) <= 1e-10, moments
    scale = 4.0 * f0 ** 2 * n
    exact = scale * moments[2]
    se = (scale * math.sqrt(moments[4] - moments[2] ** 2)
          / math.sqrt(MOMENT_RUNS))
    ratio = moment_ratios[n]
    z = (ratio - exact) / se
    assert abs(ratio - exact) <= 4.0 * se, (
        f"normalized moment at N=101 is {ratio:.5f}; the exact value is "
        f"{exact:.5f}, {z:.2f} Monte Carlo standard errors ({se:.5f}) away")
    print(f"\nACCEPTANCE 5 (N=101 exact moment): PASS measured={ratio:.5f} "
          f"exact={exact:.5f} se={se:.5f} z={z:.2f}")


def test_criterion_6_calibration_soundness(bench_artifacts):
    # 10^5 fresh replicates keep the monte carlo error of the ratio near one
    # percent; the calibrated budget itself sits at the target, so smaller
    # verification runs would test the verifier's noise, not the calibration
    ratios = {}
    for name, art in bench_artifacts.items():
        ratios[name], _ = verify_calibration(art, seed=99001, runs=10 ** 5)
        assert ratios[name] <= 1.1, (name, ratios[name])
        # parametric thresholds: hard monotonicity assertions
        assert np.all(np.diff(art.crit.z) <= 1e-12)
        art.crit.check_risk_hypothesis(art.levels)
    print(f"\nACCEPTANCE 6 (calibration soundness): PASS "
          f"fresh-seed ratios={ {k: round(v, 3) for k, v in ratios.items()} }")


def test_criterion_7_imaging(disc_artifact, monkeypatch):
    # noiseless constant image: exact identity, full windows everywhere
    const = Image(np.full((64, 64), 5.0))
    config = DenoiseConfig(disc_artifact, estimate_noise_scale(const))
    out, khat = denoise_image(const, config)
    assert np.array_equal(out.intensities, const.intensities)
    assert np.all(khat == disc_artifact.config.family.K)

    # 256x256 two-region image with unit Laplace noise
    clean = np.zeros((256, 256))
    clean[:, 128:] = 4.0
    noise = sample_noise(NoiseKind.laplace(), 256 * 256, RngStream(99, 0))
    noisy = Image(clean + noise.reshape(256, 256))
    start = time.monotonic()
    sigma = estimate_noise_scale(noisy)
    monkeypatch.setenv("ADAPTMREG_WORKERS", "4")
    den4, khat4 = denoise_image(noisy, DenoiseConfig(disc_artifact, sigma))
    elapsed = time.monotonic() - start
    mse_in = float(np.mean((noisy.intensities - clean) ** 2))
    mse_out = float(np.mean((den4.intensities - clean) ** 2))
    # threshold frozen from the first oracle run (ratio 0.0116 observed)
    assert mse_out <= 0.25 * mse_in
    assert elapsed < 30.0

    monkeypatch.setenv("ADAPTMREG_WORKERS", "1")
    den1, khat1 = denoise_image(noisy, DenoiseConfig(disc_artifact, sigma))
    assert np.array_equal(den1.intensities, den4.intensities)
    assert np.array_equal(khat1, khat4)
    print(f"\nACCEPTANCE 7 (imaging in {elapsed:.1f}s): PASS "
          f"mse ratio={mse_out / mse_in:.4f}")


def test_criterion_8_locate_vs_bruteforce():
    losses = [LossKind.mean(), LossKind.median(), LossKind.quantile(0.25),
              LossKind.quantile(0.7), LossKind.huber(1.0), LossKind.huber(0.6)]
    sets = multisets(8, [0.0, 1.0, 2.0, 3.0])
    checked = 0
    for loss in losses:
        tol = 1e-6 if loss.kind == "mean" else 1e-12
        for vals in sets:
            got = am.locate(vals, loss).value
            want = brute_locate(vals, loss)
            assert abs(got - want) <= tol, (vals, loss, got, want)
            checked += 1
    print(f"\nACCEPTANCE 8 (oracle cross-check, {checked} cases): PASS")
