import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptmreg as am
from adaptmreg import (Levels, LossKind, NoiseKind, levels_asymptotic,
                       levels_exact_mean, levels_mc, normal_abs_moment,
                       pair_levels_asymptotic, pair_levels_exact_mean,
                       pair_levels_mc, simulate_window_estimates)
from adaptmreg.cli import parse_loss
from adaptmreg.levels import auto_levels_method, check_levels_loss
from adaptmreg.losses import _LOSS_KINDS
from adaptmreg.parallel import CHUNK


@pytest.fixture(scope="module")
def small_family():
    xs = am.equidistant_design(200)
    return am.build_family_1d(xs, 0.0, am.benchmark_counts())


def test_normal_abs_moment():
    assert normal_abs_moment(2.0) == pytest.approx(1.0, abs=1e-12)
    assert normal_abs_moment(1.0) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)
    assert normal_abs_moment(4.0) == pytest.approx(3.0, abs=1e-10)
    # (r - 1)!! exactly for even r; the gamma formula within 2 ulp of scipy's otherwise
    from scipy import special
    for r, want in ((2, 1.0), (4, 3.0), (6, 15.0)):
        assert normal_abs_moment(float(r)) == want
    for r in (1.0, 1.5, 3.0):
        ref = 2.0 ** (r / 2.0) * special.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)
        assert abs(normal_abs_moment(r) - ref) <= 2 * math.ulp(ref)


def test_exact_mean_formulas():
    xs = np.linspace(-1, 1, 300)
    fam = am.build_family_1d(xs, 0.0, [100, 125, 250])
    lv = levels_exact_mean(fam)
    assert lv.s[0] == pytest.approx(0.1, abs=1e-15)
    # ring of 25 points against a window of 100: independent variance sum
    assert lv.s_ring[0, 0] == pytest.approx(math.sqrt(0.04 + 0.01), abs=1e-12)
    assert lv.s[-1] < lv.s[0]
    assert np.all(np.diff(lv.s) < 0)


def test_exact_mean_requires_r2(small_family):
    with pytest.raises(ValueError):
        levels_exact_mean(small_family, r=1.0)


def test_asymptotic_median_formula():
    xs = np.linspace(-1, 1, 300)
    fam = am.build_family_1d(xs, 0.0, [100, 125, 250])
    lv = levels_asymptotic(fam, LossKind.median(), NoiseKind.laplace())
    assert lv.s[0] == pytest.approx(math.sqrt(2) / 20.0, abs=1e-12)
    # consecutive级 ratio follows sqrt(N_j / N_{j+1})
    assert lv.s[1] / lv.s[0] == pytest.approx(math.sqrt(100 / 125), abs=1e-12)


def test_quantile_half_equals_median(small_family):
    a = levels_asymptotic(small_family, LossKind.median(), NoiseKind.laplace())
    b = levels_asymptotic(small_family, LossKind.quantile(0.5), NoiseKind.laplace())
    assert np.allclose(a.s, b.s, atol=1e-15)
    tril = np.tril_indices(a.K)
    assert np.allclose(a.s_ring[tril], b.s_ring[tril], atol=1e-15)


def test_auto_levels_method_is_the_first_that_describes_the_loss():
    """--levels auto picks a method that check_levels_loss accepts for every loss kind."""
    picks = {"mean": "exact_mean", "median": "asymptotic", "quantile:0.3": "asymptotic",
             "huber:1.345": "monte_carlo"}
    for label, want in picks.items():
        loss = parse_loss(label)
        assert auto_levels_method(loss) == want, label
        check_levels_loss(want, loss)
    assert {parse_loss(label).kind for label in picks} == set(_LOSS_KINDS)


def test_asymptotic_rejects_mean(small_family):
    with pytest.raises(ValueError):
        levels_asymptotic(small_family, LossKind.mean(), NoiseKind.laplace())


def test_mc_mean_gaussian_matches_exact(small_family):
    lv = levels_mc(small_family, LossKind.mean(), NoiseKind.gaussian(),
                   runs=10 ** 5, seed=101)
    exact = levels_exact_mean(small_family)
    assert np.allclose(lv.s, exact.s, rtol=0.02)
    tril = np.tril_indices(lv.K)
    assert np.allclose(lv.s_ring[tril], exact.s_ring[tril], rtol=0.02)


def test_mc_median_laplace_near_asymptotic_largest_window(small_family):
    lv = levels_mc(small_family, LossKind.median(), NoiseKind.laplace(),
                   runs=10 ** 5, seed=102)
    asym = levels_asymptotic(small_family, LossKind.median(), NoiseKind.laplace())
    # N = 177: the exact order-statistic integral puts the finite-sample
    # inflation at 6.0 percent, so 8 percent covers it plus monte carlo noise
    assert lv.s[-1] == pytest.approx(asym.s[-1], rel=0.08)
    assert lv.s[-1] > asym.s[-1]  # the limit always understates Laplace medians


def test_mc_mean_gaussian_r1(small_family):
    lv = levels_mc(small_family, LossKind.mean(), NoiseKind.gaussian(),
                   runs=10 ** 5, seed=103, r=1.0)
    want = math.sqrt(2 / math.pi) / np.sqrt(small_family.counts)
    assert np.allclose(lv.s, want, rtol=0.02)


def test_ring_to_window_scaling_bound(small_family):
    """s_ring[k, j] / s[j] stays within [1, 3] for the benchmark family."""
    for lv in (levels_exact_mean(small_family),
               levels_asymptotic(small_family, LossKind.median(), NoiseKind.laplace()),
               levels_mc(small_family, LossKind.median(), NoiseKind.laplace(),
                         runs=10 ** 5, seed=104)):
        for k in range(lv.K):
            ratios = lv.s_ring[k, : k + 1] / lv.s[: k + 1]
            assert np.all(ratios >= 1.0 - 1e-9)
            assert np.all(ratios <= 3.0)


def test_mc_determinism(small_family):
    a = levels_mc(small_family, LossKind.median(), NoiseKind.laplace(),
                  runs=2000, seed=7)
    b = levels_mc(small_family, LossKind.median(), NoiseKind.laplace(),
                  runs=2000, seed=7)
    assert np.array_equal(a.s, b.s)
    assert a.warnings  # below the recommended run count


def test_mc_runs_validation(small_family):
    with pytest.raises(ValueError):
        levels_mc(small_family, LossKind.median(), NoiseKind.laplace(),
                  runs=500, seed=1)


def test_level_tables_check_their_provenance():
    """Only the three methods; Monte Carlo tables alone have runs (at least 1,000) and a seed."""
    s, s_ring = np.array([0.5, 0.3]), np.full((1, 1), 0.6)
    sp = np.full((1, 1), 0.4)
    for step, build in (("the window levels", lambda **kw: Levels(s, s_ring, **kw)),
                        ("the pair levels", lambda **kw: am.PairLevels(sp, **kw))):
        for kw, message in (
                ({"method": "bogus"}, f"unknown method 'bogus' of {step}"),
                ({"method": "asymptotic", "runs": 5000},
                 f"{step} are asymptotic, which has no run count or seed"),
                ({"method": "exact_mean", "seed": 1},
                 f"{step} are exact_mean, which has no run count or seed"),
                ({"method": "monte_carlo", "runs": 5000},
                 f"{step} are monte_carlo, which needs a run count and a seed"),
                ({"method": "monte_carlo", "runs": 5, "seed": 1},
                 f"need at least 1000 monte carlo runs for {step}, got 5")):
            with pytest.raises(am.ValidationError, match=f"^{message}"):
                build(**kw)
        assert build(method="asymptotic").warnings == ()
        assert build(method="monte_carlo", runs=10000, seed=1).warnings == ()
        assert build(method="monte_carlo", runs=2000, seed=1).warnings == (
            f"only 2000 monte carlo runs for {step}; estimates may be rough",)


def test_levels_warnings_are_derived():
    """warnings is no field: run-count notes, then the non-monotone note of Monte Carlo levels."""
    assert "warnings" not in {f.name for f in fields(Levels)}
    assert "warnings" not in {f.name for f in fields(am.PairLevels)}
    rising = Levels(np.array([0.3, 0.5]), np.full((1, 1), 0.6), "monte_carlo", runs=2000, seed=1)
    assert rising.warnings == (
        "only 2000 monte carlo runs for the window levels; estimates may be rough",
        "monte carlo levels are not monotone in the window index")


@pytest.mark.parametrize("s, s_ring", [
    ([np.nan, np.nan], [[0.6]]), ([np.inf, 0.3], [[0.6]]), ([0.5, 0.3], [[np.nan]]),
    ([0.5, 0.3], [[np.inf]]), ([0.5, 0.3], [[0.0]]), ([0.5, -0.3], [[0.6]]),
], ids=["nan_s", "inf_s", "nan_ring", "inf_ring", "zero_ring", "negative_s"])
def test_levels_refuse_non_finite_or_non_positive_entries(s, s_ring):
    with pytest.raises(am.ValidationError, match="must be finite and strictly positive"):
        Levels(np.array(s), np.array(s_ring), "exact_mean")


def test_pair_exact_mean_formula(small_family):
    pair = pair_levels_exact_mean(small_family)
    n = small_family.counts.astype(float)
    assert pair.s_pair.shape == (small_family.K, small_family.K)
    for k in range(small_family.K):
        want = np.sqrt(1.0 / n[:k + 1] - 1.0 / n[k + 1])
        assert np.allclose(pair.s_pair[k, :k + 1], want, atol=1e-15)
        assert np.isnan(pair.s_pair[k, k + 1:]).all()


def _pair_formula(counts, c):
    """(K, K) pair levels: [k, j] is c (1/N_j - 1/N_{k+1})^(1/2) for j <= k, NaN above."""
    n = [float(v) for v in counts]
    K = len(n) - 1
    sp = np.full((K, K), np.nan)
    for k in range(K):
        for j in range(k + 1):
            sp[k, j] = c * math.sqrt(1.0 / n[j] - 1.0 / n[k + 1])
    return sp


def test_closed_form_pair_levels_match_the_formula_bit_for_bit(small_family):
    """closed_form's s_pair is the pair formula, for one family and for a batch."""
    c = am.levels.closed_form_scale("asymptotic", 2.0, LossKind.median(), NoiseKind.laplace())
    rng = np.random.default_rng(3)
    # clipped geometries: window sizes that repeat where a level gains no sample
    clipped = 1 + np.cumsum(rng.integers(0, 4, size=(40, small_family.K + 1)), axis=1)
    for scale in (1.0, c):
        _, _, sp = am.levels.closed_form(small_family.counts, scale)
        assert np.array_equal(sp, _pair_formula(small_family.counts, scale), equal_nan=True)
        _, _, batch = am.levels.closed_form(clipped, scale)
        for counts, got in zip(clipped, batch):
            assert np.array_equal(got, _pair_formula(counts, scale), equal_nan=True)
    assert np.array_equal(pair_levels_exact_mean(small_family).s_pair,
                          _pair_formula(small_family.counts, 1.0), equal_nan=True)


def test_pair_mc_matches_exact_for_means(small_family):
    pair = pair_levels_mc(small_family, LossKind.mean(), NoiseKind.gaussian(),
                          runs=4 * 10 ** 4, seed=105)
    exact = pair_levels_exact_mean(small_family)
    tril = np.tril_indices(small_family.K)
    assert np.allclose(pair.s_pair[tril], exact.s_pair[tril], rtol=0.05)


def test_pair_mc_is_the_step_moments_of_its_draw(small_family):
    """Monte Carlo pair levels are _step_moments of the next window estimates, as drawn."""
    loss, noise = LossKind.median(), NoiseKind.laplace()
    pair = pair_levels_mc(small_family, loss, noise, 1000, r=3.0, seed=9)
    bases, _ = simulate_window_estimates(small_family, loss, noise, 1000, 9)
    want = am.levels._step_moments(bases, bases[:, 1:], 3.0)
    assert want.shape == (small_family.K, small_family.K)
    assert np.array_equal(pair.s_pair, want, equal_nan=True)


def test_pair_asymptotic_median_shape(small_family):
    f0 = am.density(NoiseKind.laplace(), 0.0)
    pair = pair_levels_asymptotic(small_family, LossKind.median(), NoiseKind.laplace())
    mean_pair = pair_levels_exact_mean(small_family)
    tril = np.tril_indices(small_family.K)
    assert np.allclose(pair.s_pair[tril], 0.5 / f0 * mean_pair.s_pair[tril], atol=1e-12)
    with pytest.raises(ValueError):
        pair_levels_asymptotic(small_family, LossKind.mean(), NoiseKind.laplace())


def test_levels_validation(small_family, monkeypatch):
    with pytest.raises(ValueError):
        Levels(s=np.array([0.1, 0.2]), s_ring=np.full((1, 1), 0.1),
               method="exact_mean")  # increasing levels rejected
    # the builders that take a moment order refuse r < 1, before any draw
    monkeypatch.setattr(am.levels, "sample_rows", None)
    med, lap = LossKind.median(), NoiseKind.laplace()
    for build in (lambda: levels_mc(small_family, med, lap, 1000, r=0.5),
                  lambda: pair_levels_mc(small_family, med, lap, 1000, r=0.5),
                  lambda: levels_asymptotic(small_family, med, lap, r=0.5),
                  lambda: pair_levels_asymptotic(small_family, med, lap, r=0.5)):
        with pytest.raises(am.ValidationError, match="moment order r must be >= 1"):
            build()
    for build in (levels_exact_mean, pair_levels_exact_mean):
        for r in (0.5, 3.0):
            with pytest.raises(am.ValidationError):
                build(small_family, r)


@pytest.mark.parametrize("r", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_order_refused_before_drawing(small_family, monkeypatch, r):
    """Every builder that takes r refuses a non-finite one with CalibConfig's message."""
    def no_draws(*args):
        raise AssertionError("drew replicates for a refused moment order")

    monkeypatch.setattr(am.levels, "sample_rows", no_draws)
    med, lap = LossKind.median(), NoiseKind.laplace()
    for build in (lambda: levels_mc(small_family, med, lap, 1000, r=r, seed=1),
                  lambda: pair_levels_mc(small_family, med, lap, 1000, r=r, seed=1),
                  lambda: levels_asymptotic(small_family, med, lap, r=r),
                  lambda: levels_exact_mean(small_family, r)):
        with pytest.raises(am.ValidationError,
                           match=f"^moment order r must be finite, got {r!r}$"):
            build()


@settings(max_examples=8, deadline=None)
@given(runs=st.integers(CHUNK + 1, 3 * CHUNK - 1).filter(lambda n: n % CHUNK),
       loss=st.sampled_from([LossKind.mean(), LossKind.median(), LossKind.huber(1.0)]))
def test_simulate_window_estimates_worker_invariant(runs, loss):
    """1, 2 and 3 workers give the same rows when the run count ends mid-chunk."""
    family = am.build_family_1d(am.equidistant_design(40), 0.0, [3, 5, 9, 14])
    noise = NoiseKind.laplace()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ADAPTMREG_WORKERS", "1")
        bases, rings = simulate_window_estimates(family, loss, noise, runs, 4)
        for workers in ("2", "3"):
            mp.setenv("ADAPTMREG_WORKERS", workers)
            b, r = simulate_window_estimates(family, loss, noise, runs, 4)
            assert np.array_equal(b, bases) and np.array_equal(r, rings)
            streamed = np.empty_like(bases)

            def consume(lo, hi, chunk_bases, chunk_rings):
                streamed[lo:hi] = chunk_bases

            simulate_window_estimates(family, loss, noise, runs, 4, consume)
            assert np.array_equal(streamed, bases)
