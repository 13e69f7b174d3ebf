import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptmreg as am
from adaptmreg import LossKind, betweenness_holds, locate
from adaptmreg.losses import _HUBER_BREAKS, _huber_edges, locate_rows, window_estimates

from oracle_locate import brute_locate, grid_locate, huber_edges, rho

ALL_LOSSES = [
    LossKind.mean(),
    LossKind.median(),
    LossKind.quantile(0.25),
    LossKind.quantile(0.7),
    LossKind.huber(1.0),
    LossKind.huber(0.6),
]


def random_loss(rng):
    pick = rng.integers(0, 4)
    if pick == 0:
        return LossKind.mean()
    if pick == 1:
        return LossKind.median()
    if pick == 2:
        return LossKind.quantile(float(rng.uniform(0.1, 0.9)))
    return LossKind.huber(float(rng.uniform(0.3, 2.0)))


def test_locate_median_odd():
    assert locate([3, 1, 2], LossKind.median()).value == 2.0


def test_locate_median_even_midpoint():
    # even length: mean of the two central order statistics
    res = locate([1, 2, 3, 10], LossKind.median())
    assert res.value == 2.5
    assert (res.minimizer_lo, res.minimizer_hi) == (2.0, 3.0)


def test_locate_quantile_against_stated_grid_oracle():
    loss = LossKind.quantile(0.25)
    expected = grid_locate([0, 1, 2, 3], loss, -1.0, 4.0, 1e-4)
    assert expected == pytest.approx(0.5, abs=1e-9)  # grid node round-off only
    assert locate([0, 1, 2, 3], loss).value == 0.5


def test_locate_huber_root():
    # root of 2 * (-mu) + 1 = 0
    res = locate([0, 0, 10], LossKind.huber(1.0))
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_locate_mean():
    assert locate([1.0, 2.0, 4.0], LossKind.mean()).value == pytest.approx(7.0 / 3.0)


def test_median_is_quantile_half():
    rng = np.random.default_rng(5)
    for _ in range(40):
        y = rng.normal(size=int(rng.integers(1, 15)))
        assert locate(y, LossKind.median()).value == \
            locate(y, LossKind.quantile(0.5)).value


def test_locate_matches_bruteforce_small_multisets():
    from oracle_locate import multisets
    sets = multisets(5, [0.0, 1.0, 2.0, 3.0])
    for loss in ALL_LOSSES:
        tol = 1e-6 if loss.kind == "mean" else 1e-12
        for vals in sets:
            got = locate(vals, loss).value
            want = brute_locate(vals, loss)
            assert got == pytest.approx(want, abs=tol), (vals, loss)


def test_interval_invariants():
    rng = np.random.default_rng(11)
    for _ in range(200):
        y = rng.normal(size=int(rng.integers(1, 12)))
        loss = random_loss(rng)
        res = locate(y, loss)
        assert res.minimizer_lo <= res.value <= res.minimizer_hi
        assert res.value == pytest.approx(
            0.5 * (res.minimizer_lo + res.minimizer_hi), abs=1e-12)


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        y = rng.normal(size=int(rng.integers(1, 12)))
        c = float(rng.normal())
        loss = random_loss(rng)
        assert locate(y + c, loss).value == \
            pytest.approx(locate(y, loss).value + c, abs=1e-8)


def test_scale_equivariance_except_huber():
    rng = np.random.default_rng(4)
    for _ in range(100):
        y = rng.normal(size=int(rng.integers(1, 12)))
        c = float(rng.uniform(0.1, 5.0))
        for loss in (LossKind.mean(), LossKind.median(), LossKind.quantile(0.3)):
            assert locate(c * y, loss).value == \
                pytest.approx(c * locate(y, loss).value, abs=1e-10)


def test_monotone_in_data():
    rng = np.random.default_rng(6)
    for _ in range(200):
        y = rng.normal(size=int(rng.integers(1, 10)))
        loss = random_loss(rng)
        i = int(rng.integers(0, y.size))
        bumped = y.copy()
        bumped[i] += float(rng.uniform(0.0, 3.0))
        assert locate(bumped, loss).value >= locate(y, loss).value - 1e-9


def random_partition(n, rng):
    n_blocks = int(rng.integers(1, min(n, 4) + 1))
    labels = rng.integers(0, n_blocks, size=n)
    # guarantee nonempty blocks
    labels[:n_blocks] = np.arange(n_blocks)
    return [np.flatnonzero(labels == b) for b in range(n_blocks)]


def test_betweenness_examples():
    assert betweenness_holds([1, 2, 3, 4], [[0, 1], [2, 3]], LossKind.median())
    rng = np.random.default_rng(0)
    y = rng.normal(size=9)
    assert betweenness_holds(y, [np.arange(9)], LossKind.huber(0.7))


def test_betweenness_random_cases():
    rng = np.random.default_rng(12)
    for trial in range(1000):
        n = int(rng.integers(2, 12))
        if trial % 2 == 0:
            y = rng.integers(-3, 4, size=n).astype(float)  # ties on purpose
        else:
            y = rng.normal(size=n)
        assert betweenness_holds(y, random_partition(n, rng), random_loss(rng))


def test_locate_rows_matches_scalar():
    rng = np.random.default_rng(9)
    for loss in ALL_LOSSES:
        rows = rng.normal(size=(20, int(rng.integers(1, 9))))
        got = locate_rows(rows, loss)
        want = [locate(row, loss).value for row in rows]
        assert np.allclose(got, want, atol=1e-9)


def test_locate_one_point_argmin_matches_locate_rows_bitwise():
    """A one-point argmin is the order statistic itself, in locate as in locate_rows.

    Its midpoint 0.5 * (a + a) overflows to inf above 2^1023, so the rows
    hold such values; odd lengths give the median and these quantiles one
    point each.
    """
    rng = np.random.default_rng(12)
    for n in (1, 3, 5, 9):
        rows = (rng.uniform(0.5, 1.99, size=(16, n)) * 2.0 ** 1023
                * rng.choice([-1.0, 1.0], size=(16, n)))
        rows[:4, :] = np.finfo(float).max
        for loss in (LossKind.median(), LossKind.quantile(0.25), LossKind.quantile(0.7)):
            want = locate_rows(rows, loss)
            got = np.array([locate(row, loss).value for row in rows])
            assert got.tobytes() == want.tobytes(), (n, loss)
            assert np.isfinite(got).all()


def test_rho_basic_shapes():
    """The oracle's loss values, which every brute-force minimizer sums."""
    x = np.array([-2.0, 0.0, 2.0])
    assert np.allclose(rho(LossKind.quantile(0.25), x), [2 * 0.75 * 2, 0.0, 2 * 0.25 * 2])
    assert np.allclose(rho(LossKind.huber(1.0), x), [2 - 0.5, 0.0, 2 - 0.5])


def test_errors():
    with pytest.raises(ValueError):
        locate([], LossKind.median())
    with pytest.raises(ValueError):
        locate([1.0, np.nan], LossKind.mean())
    with pytest.raises(ValueError):
        LossKind.quantile(1.0)
    with pytest.raises(ValueError):
        LossKind.huber(0.0)
    with pytest.raises(ValueError):
        LossKind("ridge")
    # one parameter: the quantile level or the Huber kink, and none for the others
    for kind in ("mean", "median"):
        with pytest.raises(ValueError, match=f"the {kind} loss takes no parameter"):
            LossKind(kind, 0.5)
    for kind in ("quantile", "huber"):
        with pytest.raises(ValueError, match=kind):
            LossKind(kind)
    assert LossKind("quantile", 0.3) == LossKind.quantile(0.3)
    assert LossKind("huber", 1.345).label == "huber:1.345"
    with pytest.raises(ValueError):
        betweenness_holds([1, 2, 3], [[0, 1]], LossKind.median())
    with pytest.raises(ValueError):
        betweenness_holds([1, 2, 3], [[0, 1], [1, 2]], LossKind.median())
    with pytest.raises(ValueError):
        betweenness_holds([1, 2, 3], [[0, 1, 2], []], LossKind.median())


# quarter-integers make ties (flat argmin stretches) common; floats cover the rest
_VALUES = st.one_of(st.integers(-8, 8).map(lambda v: v / 4.0),
                    st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
       n_rows=st.integers(1, 4), loss=st.sampled_from(ALL_LOSSES), data=st.data())
def test_window_estimates_match_scalar_locate(sizes, n_rows, loss, data):
    """Every prefix and ring estimate equals locate() on that slice of the row."""
    counts = np.cumsum(sizes)
    flat = data.draw(st.lists(_VALUES, min_size=n_rows * int(counts[-1]),
                              max_size=n_rows * int(counts[-1])))
    rows = np.asarray(flat, dtype=float).reshape(n_rows, -1)
    bases, rings = window_estimates(rows, counts, loss)
    assert bases.shape == (n_rows, counts.size) and rings.shape == (n_rows, counts.size - 1)
    want_bases = [[locate(row[:c], loss).value for c in counts] for row in rows]
    want_rings = [[locate(row[a:b], loss).value for a, b in zip(counts[:-1], counts[1:])]
                  for row in rows]
    if loss.kind != "mean":
        assert np.array_equal(bases, np.reshape(want_bases, bases.shape))
        assert np.array_equal(rings, np.reshape(want_rings, rings.shape))
        return
    assert np.all(np.abs(bases - np.reshape(want_bases, bases.shape)) <= 1e-12)
    assert np.all(np.abs(rings - np.reshape(want_rings, rings.shape)) <= 1e-12)


_MISSING = np.iinfo(np.int32).max
# small integers make ties common; the extremes reach the int32 path's bound |v| < 2**30
_INTS = st.one_of(st.integers(-4, 4), st.integers(-(2 ** 30) + 1, 2 ** 30 - 1))


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
       n_rows=st.integers(1, 4), masked=st.booleans(),
       loss=st.sampled_from([LossKind.median(), LossKind.quantile(0.3),
                             LossKind.quantile(0.75)]),
       data=st.data())
def test_int32_rows_match_float_rows(sizes, n_rows, masked, loss, data):
    """int32 rows marking missing values with iinfo.max give float64 rows' bits.

    The float64 rows hold the same values with NaN at the missing ones; with
    masked False there are none and no valid counts. Each estimate over
    values that are there also equals locate() on them alone.
    """
    counts = np.cumsum(sizes)
    size = n_rows * int(counts[-1])
    values = np.array(data.draw(st.lists(_INTS, min_size=size, max_size=size)),
                      dtype=np.int32).reshape(n_rows, -1)
    missing = np.zeros(values.shape, dtype=bool)
    if masked:
        missing = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                           dtype=bool).reshape(values.shape)
    ints = np.where(missing, _MISSING, values).astype(np.int32)
    floats = np.where(missing, np.nan, values)
    valid = np.cumsum(~missing, axis=1)[:, counts - 1] if masked else None
    got = window_estimates(ints, counts, loss, valid)
    want = window_estimates(floats, counts, loss, valid)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert np.array_equal(g, w, equal_nan=True)
    spans = [(0, c) for c in counts] + list(zip(counts[:-1], counts[1:]))
    est = np.concatenate(got, axis=1)
    for i in range(n_rows):
        for c, (a, b) in enumerate(spans):
            kept = values[i, a:b][~missing[i, a:b]]
            if kept.size:
                assert est[i, c] == locate(kept, loss).value
            else:
                assert np.isnan(est[i, c])


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
       n_rows=st.integers(1, 4), kind=st.sampled_from(["float", "nan", "int32"]),
       loss=st.sampled_from([LossKind.median(), LossKind.quantile(0.3)]), data=st.data())
def test_window_estimates_leave_rows_unchanged(sizes, n_rows, kind, loss, data):
    """The spans are sorted in a copy: the caller's rows keep their order and bits."""
    counts = np.cumsum(sizes)
    shape = (n_rows, int(counts[-1]))
    values = np.array(data.draw(st.lists(_INTS if kind == "int32" else _VALUES,
                                         min_size=shape[0] * shape[1],
                                         max_size=shape[0] * shape[1])))
    rows = values.reshape(shape).astype(np.int32 if kind == "int32" else float)
    valid = None
    if kind != "float":
        missing = np.array(data.draw(st.lists(st.booleans(), min_size=rows.size,
                                              max_size=rows.size))).reshape(shape)
        rows[missing] = _MISSING if kind == "int32" else np.nan
        valid = np.cumsum(~missing, axis=1)[:, counts - 1]
    before = rows.copy()
    window_estimates(rows, counts, loss, valid)
    assert rows.dtype == before.dtype
    assert rows.tobytes() == before.tobytes()


def test_integer_rows_with_missing_values_need_order_statistics():
    """The mean of integer rows cannot skip a marker value that sorts last."""
    rows = np.array([[1, 2, _MISSING]], dtype=np.int32)
    with pytest.raises(am.ValidationError, match="only as NaN in float rows"):
        window_estimates(rows, np.array([1, 3]), LossKind.mean(), np.array([[1, 2]]))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 9), n_rows=st.integers(1, 5), n_other=st.integers(0, 6),
       loss=st.sampled_from([lk for lk in ALL_LOSSES if lk.kind != "mean"]),
       data=st.data())
def test_locate_rows_bitwise_independent_of_batch(n, n_rows, n_other, loss, data):
    """A row's estimate is the same bits alone, in its batch and in another batch."""
    def draw_rows(count):
        flat = data.draw(st.lists(_VALUES, min_size=count * n, max_size=count * n))
        return np.asarray(flat, dtype=float).reshape(count, n)

    rows, others = draw_rows(n_rows), draw_rows(n_other)
    got = locate_rows(rows, loss)
    alone = np.array([locate(row, loss).value for row in rows])
    assert np.array_equal(got, alone)
    at = data.draw(st.integers(0, n_other))
    mixed = np.concatenate([others[:at], rows, others[at:]])
    assert np.array_equal(locate_rows(mixed, loss)[at: at + n_rows], got)


def test_huber_blocks_of_rows_match_scalar():
    # 177 values per row are solved 92 rows at a time, so 400 rows span 5 blocks
    rows = np.random.default_rng(8).laplace(size=(400, 177))
    loss = LossKind.huber(1.345)
    got = locate_rows(rows, loss)
    assert np.array_equal(got, [locate(row, loss).value for row in rows])
    assert np.array_equal(locate_rows(rows[::-1], loss), got[::-1])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), n_rows=st.integers(1, 5),
       kink=st.sampled_from([0.25, 0.6, 1.0, 1.345, 3.0]),
       whole=st.booleans(), data=st.data())
def test_huber_edges_match_reference(n, n_rows, kink, whole, data):
    """The flat gathers give the take_along_axis solver's edges bit for bit.

    Integer values make ties and, for even n, flat stretches of zeros (a
    middle gap wider than 2 kink); quarter-integers and floats cover the
    rest. Repeating the drawn rows past one _HUBER_BREAKS block makes the
    solver split the batch.
    """
    values = st.integers(-6, 6).map(float) if whole else _VALUES
    rows = np.array(data.draw(st.lists(values, min_size=n * n_rows,
                                       max_size=n * n_rows))).reshape(n_rows, n)
    block = max(1, _HUBER_BREAKS // (2 * n))
    for batch in (rows, np.tile(rows, (block // n_rows + 2, 1))):
        got, want = _huber_edges(batch, kink), huber_edges(batch, kink)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def test_huber_flat_stretch_ends_are_exact():
    # psi = -2 + 2 = 0 for every mu in [0 + 1, 10 - 1]
    res = locate([0, 0, 10, 10], LossKind.huber(1.0))
    assert (res.value, res.minimizer_lo, res.minimizer_hi) == (5.0, 1.0, 9.0)
    res = locate([10, -2.5, 0.5, 7], LossKind.huber(0.75))
    assert (res.minimizer_lo, res.minimizer_hi) == (0.5 + 0.75, 7 - 0.75)
    # the middle gap equal to 2 kink leaves a single root
    res = locate([0, 2], LossKind.huber(1.0))
    assert (res.value, res.minimizer_lo, res.minimizer_hi) == (1.0, 1.0, 1.0)


def test_huber_single_value_is_returned():
    for y in (3.5, -1e-300, 0.1, 1e12):
        for kink in (1e-3, 1.345, 50.0):
            res = locate([y], LossKind.huber(kink))
            assert (res.value, res.minimizer_lo, res.minimizer_hi) == (y, y, y)


def test_loss_param_is_held_as_a_float():
    """Equal losses print equal labels, whatever number type their parameter came as."""
    for made in (LossKind("huber", 2), LossKind("huber", np.int64(2)), LossKind.huber(2),
                 LossKind("huber", np.float32(2.0))):
        assert type(made.param) is float and made.label == "huber:2.0"
        assert made == LossKind.huber(2.0) and hash(made) == hash(LossKind.huber(2.0))
    assert LossKind("quantile", np.float64(0.25)).label == "quantile:0.25"
    for bad in ("abc", [1.0], object()):
        for kind in ("quantile", "huber", "median"):
            with pytest.raises(am.ValidationError, match="is not a number"):
                LossKind(kind, bad)


def test_loss_level():
    assert LossKind.median().level == 0.5
    assert LossKind.quantile(0.3).level == 0.3
    for loss in (LossKind.mean(), LossKind.huber(1.0)):
        with pytest.raises(ValueError):
            loss.level


_SAMPLES = st.lists(_VALUES, min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(values=_SAMPLES, loss=st.sampled_from(ALL_LOSSES))
def test_locate_returns_midpoint_of_minimizers(values, loss):
    """The value is the midpoint of [minimizer_lo, minimizer_hi], both minimizers."""
    res = locate(values, loss)
    assert res.minimizer_lo <= res.minimizer_hi
    assert res.value == 0.5 * (res.minimizer_lo + res.minimizer_hi)
    objective = [float(np.sum(rho(loss, np.asarray(values) - mu)))
                 for mu in (res.minimizer_lo, res.value, res.minimizer_hi)]
    assert max(objective) - min(objective) <= 1e-9 * (1.0 + min(objective))


@settings(max_examples=200, deadline=None)
@given(values=_SAMPLES, loss=st.sampled_from([lk for lk in ALL_LOSSES
                                              if lk.kind in ("mean", "median", "huber")]))
def test_locate_sign_flip_symmetry(values, loss):
    """locate(-y) = -locate(y): exactly for mean and median, to rounding for Huber."""
    y = np.asarray(values, dtype=float)
    flipped, value = locate(-y, loss).value, locate(y, loss).value
    if loss.kind == "huber":
        assert abs(flipped + value) <= 1e-12 * (1.0 + np.abs(y).max())
    else:
        assert flipped == -value
