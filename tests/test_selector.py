import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import adaptmreg as am
from adaptmreg import (CriticalValues, LossKind, NoiseKind, RngStream,
                       propagation_gap, sample_noise, select_lepski,
                       select_lepski_batch, select_ring, select_ring_batch,
                       ValidationError, signal_step, window_estimates)
from adaptmreg.selector import first_rejection
from oracle_select import first_rejection as row_major_first_rejection
from oracle_select import lepski_reference, oracle_index, ring_reference
from oracle_windows import members, ring


@pytest.fixture(scope="module")
def setup():
    xs = am.equidistant_design(200)
    family = am.build_family_1d(xs, 0.0, am.benchmark_counts())
    levels = am.levels_asymptotic(family, LossKind.median(), NoiseKind.laplace())
    return xs, family, levels


def flat_crit(levels, value):
    return CriticalValues(z=np.full(levels.K, value))


def row_estimates(y, family, loss):
    """Window and ring estimates of one data vector, through the batched path."""
    bases, rings = window_estimates(np.asarray(y, dtype=float)[None, family.order],
                                    family.counts, loss)
    return bases[0], rings[0]


def test_base_estimates_constant(setup):
    xs, family, levels = setup
    base, rings = row_estimates(np.full(200, 3.7), family, LossKind.median())
    assert np.all(base == 3.7) and np.all(rings == 3.7)


def test_base_estimates_median_smallest_window(setup):
    xs, family, _ = setup
    rng = np.random.default_rng(0)
    y = rng.normal(size=200)
    base, _ = row_estimates(y, family, LossKind.median())
    assert base[0] == np.sort(y[members(family, 0)])[2]  # third order statistic of five


def test_noiseless_step_ring_jump(setup):
    """The first ring reaching past the flat part lands on the outer plateau."""
    xs, family, _ = setup
    g = signal_step(xs)
    base, rings = row_estimates(g, family, LossKind.median())
    first_mixed = min(k for k in range(family.K)
                      if np.any(np.abs(xs[ring(family, k)]) > 0.2))
    assert first_mixed == 9
    assert rings[first_mixed] == 2.0  # majority of the ring lies outside
    assert np.all(rings[:first_mixed] == 0.0)
    assert np.all(base[:first_mixed + 1] == 0.0)


def test_select_ring_constant_keeps_full_window(setup):
    _, family, levels = setup
    base = np.zeros(family.K + 1)
    rings = np.zeros(family.K)
    trace = select_ring(base, rings, levels, flat_crit(levels, 2.0))
    assert trace.k_hat == family.K
    assert trace.theta_hat == 0.0
    assert all(t.margin <= 0 for t in trace.tests)


def test_select_ring_forced_outlier(setup):
    _, family, levels = setup
    K = levels.K
    crit = flat_crit(levels, 2.0)
    base = np.zeros(K + 1)
    rings = np.zeros(K)
    k_bad = 5
    thr = 2.0 * levels.s_ring[k_bad, k_bad] + 2.0 * levels.s[k_bad + 1]
    rings[k_bad] = 10.0 * thr
    trace = select_ring(base, rings, levels, crit)
    assert trace.k_hat == k_bad
    assert trace.tests[-1].margin > 0
    assert trace.theta_hat == base[k_bad]


@pytest.mark.parametrize("z", [0.5, 2.0, 5.0])
def test_noiseless_step_selects_largest_inside_window(setup, z):
    # holds for z up to ~5; far larger values exceed the detectable jump
    xs, family, levels = setup
    g = signal_step(xs)
    base, rings = row_estimates(g, family, LossKind.median())
    trace = select_ring(base, rings, levels, flat_crit(levels, z))
    largest_inside = max(
        k for k in range(family.K + 1)
        if np.all(np.abs(xs[members(family, k)]) <= 0.2))
    assert trace.k_hat == largest_inside == 9


def test_trace_margin_invariants(setup):
    _, family, levels = setup
    crit = flat_crit(levels, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(25):
        y = rng.laplace(0, 2 ** -0.5, size=200) + signal_step(am.equidistant_design(200))
        base, rings = row_estimates(y, family, LossKind.median())
        trace = select_ring(base, rings, levels, crit)
        assert 0 <= trace.k_hat <= family.K
        assert trace.theta_hat == base[trace.k_hat]
        for t in trace.tests:
            if t.step < trace.k_hat:
                assert t.margin <= 0
        if trace.k_hat < family.K:
            assert any(t.step == trace.k_hat and t.margin > 0 for t in trace.tests)


def test_select_ring_batch_matches_scalar(setup):
    _, family, levels = setup
    crit = flat_crit(levels, 1.2)
    rng = np.random.default_rng(8)
    bases = rng.normal(size=(40, family.K + 1)) * 0.3
    rings = rng.normal(size=(40, family.K)) * 0.3
    got = select_ring_batch(bases, rings, levels, crit)
    want = [ring_reference(bases[i], rings[i], levels, crit)[0] for i in range(40)]
    assert got.tolist() == want
    assert len(set(want)) > 3


def test_select_lepski_constant_and_batch(setup):
    _, family, _ = setup
    pair = am.pair_levels_exact_mean(family)
    crit = CriticalValues(z=np.full(family.K, 2.0))
    base = np.full(family.K + 1, 1.25)
    trace = select_lepski(base, pair, crit)
    assert trace.k_hat == family.K and trace.rings is None

    rng = np.random.default_rng(3)
    bases = rng.normal(size=(30, family.K + 1)) * 0.2
    got = select_lepski_batch(bases, pair, crit)
    want = [lepski_reference(bases[i], pair, crit)[0] for i in range(30)]
    assert got.tolist() == want


def test_lepski_two_sample_structure():
    """A one-step family reduces the rule to a two-sample location test."""
    xs = am.equidistant_design(40)
    family = am.build_family_1d(xs, 0.0, [10, 20])
    pair = am.pair_levels_exact_mean(family)
    crit = CriticalValues(z=np.array([2.0]))
    y = np.zeros(40)
    base, _ = row_estimates(y, family, LossKind.mean())
    assert select_lepski(base, pair, crit).k_hat == 1
    y[ring(family, 0)] = 5.0  # second half shifted far away
    base, _ = row_estimates(y, family, LossKind.mean())
    trace = select_lepski(base, pair, crit)
    assert trace.k_hat == 0
    assert abs(trace.tests[0].statistic - abs(base[1] - base[0])) < 1e-15


def test_mean_ring_statistic_is_multiple_of_difference(setup):
    """ring_k - base_k = (N_{k+1} / ring size) * (base_{k+1} - base_k) for means."""
    xs, family, _ = setup
    rng = np.random.default_rng(12)
    y = rng.normal(size=200)
    base, rings = row_estimates(y, family, LossKind.mean())
    n = family.counts.astype(float)
    for k in range(family.K):
        factor = n[k + 1] / (n[k + 1] - n[k])
        assert rings[k] - base[k] == pytest.approx(
            factor * (base[k + 1] - base[k]), abs=1e-10)


def test_translation_equivariance_of_selection(setup):
    _, family, levels = setup
    crit = flat_crit(levels, 1.5)
    rng = np.random.default_rng(21)
    y = rng.laplace(size=200)
    base, rings = row_estimates(y, family, LossKind.median())
    t0 = select_ring(base, rings, levels, crit)
    base2, rings2 = row_estimates(y + 11.5, family, LossKind.median())
    t1 = select_ring(base2, rings2, levels, crit)
    assert t1.k_hat == t0.k_hat
    assert t1.theta_hat == pytest.approx(t0.theta_hat + 11.5, abs=1e-9)
    for a, b in zip(t0.tests, t1.tests):
        assert a.margin == pytest.approx(b.margin, abs=1e-9)


_DYADIC = st.integers(-32, 32).map(lambda v: v / 64)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_selection_invariant_under_shift_and_dyadic_scale(data):
    """Both rules keep every k_hat when an integer is added to all estimates, or
    when estimates and levels are multiplied by 2^m.

    The estimates are small dyadic rationals, so both operations are exact in
    floating point: statistics shift away and scale with the thresholds.
    """
    K = data.draw(st.integers(1, 6))
    counts = np.cumsum(data.draw(st.lists(st.integers(1, 12), min_size=K + 1,
                                          max_size=K + 1)))
    family = am.WindowFamily(order=np.arange(counts[-1]), counts=counts)
    levels, pair = am.levels_exact_mean(family), am.pair_levels_exact_mean(family)
    rows = data.draw(st.integers(1, 8))
    bases = data.draw(arrays(float, (rows, K + 1), elements=_DYADIC))
    rings = data.draw(arrays(float, (rows, K), elements=_DYADIC))
    z = data.draw(arrays(float, K, elements=st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0])))
    crit = CriticalValues(z=z)
    shift = data.draw(st.integers(-1000, 1000))
    f = 2.0 ** data.draw(st.integers(-12, 12))
    f_levels = am.Levels(s=f * levels.s, s_ring=f * levels.s_ring,
                         method=levels.method)
    f_pair = am.PairLevels(s_pair=f * pair.s_pair, method=pair.method)

    ring = select_ring_batch(bases, rings, levels, crit)
    assert np.array_equal(select_ring_batch(bases + shift, rings + shift, levels, crit), ring)
    assert np.array_equal(select_ring_batch(f * bases, f * rings, f_levels, crit), ring)
    lepski = select_lepski_batch(bases, pair, crit)
    assert np.array_equal(select_lepski_batch(bases + shift, pair, crit), lepski)
    assert np.array_equal(select_lepski_batch(f * bases, f_pair, crit), lepski)


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 16), rows=st.integers(1, 3000), rule=st.sampled_from(["ring", "lepski"]),
       per_row=st.booleans(), integers=st.booleans(), nan_share=st.sampled_from([0.0, 0.1, 0.6]),
       inf_share=st.sampled_from([0.0, 0.2, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
def test_first_rejection_matches_row_major_reference(K, rows, rule, per_row, integers,
                                                     nan_share, inf_share, seed):
    """The window-major stopping loop selects what the row-major loop selects.

    NaN estimates stand for empty rings (or, under the classical rule, any
    missing window estimate) and never reject; +inf thresholds never reject.
    Integer data and thresholds make statistics land exactly on thresholds.
    A per-row table is (rows, K, K) for the reference and window-major
    (K, K, rows) for the library.
    """
    rng = np.random.default_rng(seed)
    draw = ((lambda shape: rng.integers(-4, 5, shape).astype(float)) if integers
            else rng.standard_normal)
    bases, rings = draw((rows, K + 1)), draw((rows, K))
    hole = bases[:, 1:] if rule == "lepski" else rings
    hole[rng.random(hole.shape) < nan_share] = np.nan
    nxt = rings if rule == "ring" else bases[:, 1:]
    shape = (rows, K, K) if per_row else (K, K)
    thr = np.abs(draw(shape)) + (0.0 if integers else 1.0)
    thr[rng.random(shape) < inf_share] = np.inf
    thr[..., ~np.tri(K, dtype=bool)] = np.nan
    want = row_major_first_rejection(bases, nxt, thr)
    got = first_rejection(bases, nxt, np.moveaxis(thr, 0, -1) if per_row else thr)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(5, 3, 3), (3, 3, 4), (3, 4, 5), (4, 4)])
def test_first_rejection_refuses_a_table_of_another_shape(shape):
    """A per-row table in the row-major (rows, K, K) layout is refused.

    Only rows == K makes the two layouts share a shape; the library cannot
    tell them apart there, and reads the window-major one.
    """
    bases, nxt = np.zeros((5, 4)), np.zeros((5, 3))
    with pytest.raises(ValidationError, match="threshold table"):
        first_rejection(bases, nxt, np.ones(shape))


def test_oracle_index(setup):
    xs, family, levels = setup
    crit_synth = CriticalValues(z=0.5 / levels.s[:family.K])
    # z_k * s_k = 0.5 for k < K; the final allowance is 1 * s_K
    info = oracle_index(np.zeros(200), family, crit_synth, levels)
    assert info.k_star == family.K
    assert np.all(info.variations == 0.0)

    g = signal_step(xs)
    info = oracle_index(g, family, crit_synth, levels)
    assert np.all(np.diff(info.variations) >= 0)
    largest_inside = max(
        k for k in range(family.K + 1)
        if np.all(np.abs(xs[members(family, k)]) <= 0.2))
    assert info.k_star == largest_inside == 9


def test_propagation_gap_basics(setup):
    _, family, levels = setup
    crit = flat_crit(levels, 2.0)
    base = np.full(family.K + 1, 0.7)
    rings = np.full(family.K, 0.7)
    trace = select_ring(base, rings, levels, crit)
    lhs, rhs = propagation_gap(trace, 3, crit, levels)
    assert lhs == 0.0 and rhs > 0.0
    # indices at or past the selected window report zero by convention
    lhs, rhs = propagation_gap(trace, trace.k_hat, crit, levels)
    assert lhs == 0.0


def test_propagation_never_violated_small_mc(setup):
    xs, family, levels = setup
    crit = flat_crit(levels, 1.5)
    g = signal_step(xs)
    rng_seed = 33
    for i in range(300):
        y = g + sample_noise(NoiseKind.laplace(), 200, RngStream(rng_seed, i))
        base, rings = row_estimates(y, family, LossKind.median())
        trace = select_ring(base, rings, levels, crit)
        for k in range(trace.k_hat):
            lhs, rhs = propagation_gap(trace, k, crit, levels)
            assert lhs <= rhs + 1e-12


def test_risk_hypothesis_gate(setup):
    _, family, levels = setup
    # z increasing in k makes z_k * s_k checks fail for parametric values
    z = np.linspace(1.0, 3.0, family.K)
    with pytest.raises(ValueError):
        CriticalValues(z=z, zeta=1.0)
    # non-parametric values are allowed but rejected by the explicit gate
    crit = CriticalValues(z=np.full(family.K, 0.1))
    with pytest.raises(ValueError):
        # 0.1 * s_k dips below the implicit final value 1 * s_K
        crit.check_risk_hypothesis(levels)


def test_all_equal_observations_select_full_window(setup):
    _, family, levels = setup
    y = np.full(200, -2.25)
    base, rings = row_estimates(y, family, LossKind.median())
    trace = select_ring(base, rings, levels, flat_crit(levels, 0.7))
    assert trace.k_hat == family.K


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_row_view_matches_scalar_reference(setup, data):
    """Batched indices and one-row test records equal the scalar stopping loop."""
    _, family, levels = setup
    K = family.K
    rule = data.draw(st.sampled_from(["ring", "lepski"]))
    rows = data.draw(st.integers(1, 6))
    spread = data.draw(st.floats(1e-3, 3.0))
    values = st.floats(-1.0, 1.0, allow_subnormal=False)
    bases = spread * data.draw(arrays(float, (rows, K + 1), elements=values))
    rings = spread * data.draw(arrays(float, (rows, K), elements=values))
    z = data.draw(arrays(float, K, elements=st.floats(0.05, 5.0)))
    crit = CriticalValues(z=z)
    if rule == "ring":
        got = select_ring_batch(bases, rings, levels, crit)
        views = [select_ring(bases[i], rings[i], levels, crit) for i in range(rows)]
        refs = [ring_reference(bases[i], rings[i], levels, crit) for i in range(rows)]
    else:
        pair = am.pair_levels_exact_mean(family)
        got = select_lepski_batch(bases, pair, crit)
        views = [select_lepski(bases[i], pair, crit) for i in range(rows)]
        refs = [lepski_reference(bases[i], pair, crit) for i in range(rows)]
    assert got.tolist() == [k for k, _ in refs]
    for i, (view, (k_hat, tests)) in enumerate(zip(views, refs)):
        assert view.k_hat == k_hat
        assert view.theta_hat == bases[i, k_hat]
        assert view.tests == tests
