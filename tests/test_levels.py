import math

import numpy as np
import pytest

import adaptmreg as am
from adaptmreg import (Levels, LossKind, NoiseKind, levels_asymptotic,
                       levels_exact_mean, levels_mc, normal_abs_moment,
                       pair_levels_asymptotic, pair_levels_exact_mean,
                       pair_levels_mc)


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
    f0 = am.density_at_zero(NoiseKind.laplace())
    lv = levels_asymptotic(fam, LossKind.median(), f0)
    assert lv.s[0] == pytest.approx(math.sqrt(2) / 20.0, abs=1e-12)
    # consecutive级 ratio follows sqrt(N_j / N_{j+1})
    assert lv.s[1] / lv.s[0] == pytest.approx(math.sqrt(100 / 125), abs=1e-12)


def test_quantile_half_equals_median(small_family):
    f0 = am.density_at_zero(NoiseKind.laplace())
    a = levels_asymptotic(small_family, LossKind.median(), f0)
    b = levels_asymptotic(small_family, LossKind.quantile(0.5), f0)
    assert np.allclose(a.s, b.s, atol=1e-15)
    tril = np.tril_indices(a.K)
    assert np.allclose(a.s_ring[tril], b.s_ring[tril], atol=1e-15)


def test_asymptotic_rejects_mean(small_family):
    with pytest.raises(ValueError):
        levels_asymptotic(small_family, LossKind.mean(), 0.5)


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
    f0 = am.density_at_zero(NoiseKind.laplace())
    asym = levels_asymptotic(small_family, LossKind.median(), f0)
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
    f0 = am.density_at_zero(NoiseKind.laplace())
    for lv in (levels_exact_mean(small_family),
               levels_asymptotic(small_family, LossKind.median(), f0),
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


def test_pair_exact_mean_formula(small_family):
    pair = pair_levels_exact_mean(small_family)
    n = small_family.counts.astype(float)
    for m in range(1, small_family.K + 1):
        want = np.sqrt(1.0 / n[:m] - 1.0 / n[m])
        assert np.allclose(pair.s_pair[m, :m], want, atol=1e-15)


def test_pair_mc_matches_exact_for_means(small_family):
    pair = pair_levels_mc(small_family, LossKind.mean(), NoiseKind.gaussian(),
                          runs=4 * 10 ** 4, seed=105)
    exact = pair_levels_exact_mean(small_family)
    tril = np.tril_indices(small_family.K + 1, k=-1)
    assert np.allclose(pair.s_pair[tril], exact.s_pair[tril], rtol=0.05)


def test_pair_asymptotic_median_shape(small_family):
    f0 = am.density_at_zero(NoiseKind.laplace())
    pair = pair_levels_asymptotic(small_family, LossKind.median(), f0)
    mean_pair = pair_levels_exact_mean(small_family)
    tril = np.tril_indices(small_family.K + 1, k=-1)
    assert np.allclose(pair.s_pair[tril], 0.5 / f0 * mean_pair.s_pair[tril], atol=1e-12)
    with pytest.raises(ValueError):
        pair_levels_asymptotic(small_family, LossKind.mean(), f0)


def test_levels_validation():
    with pytest.raises(ValueError):
        Levels(r=2.0, s=np.array([0.1, 0.2]), s_ring=np.full((1, 1), 0.1),
               method="exact_mean")  # increasing levels rejected
    with pytest.raises(ValueError):
        Levels(r=0.5, s=np.array([0.2, 0.1]), s_ring=np.full((1, 1), 0.1),
               method="exact_mean")
