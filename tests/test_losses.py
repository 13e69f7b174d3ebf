import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaptmreg as am
from adaptmreg import LossKind, betweenness_holds, locate, losses
from adaptmreg.losses import (_HUBER_BREAKS, _huber_edges, _quantile_bracket, locate_rows,
                              row_dtype, window_estimates)

from oracle_locate import brute_locate, grid_locate, huber_edges, huber_root_exact, rho

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


def argmin_ends(values, loss: LossKind) -> tuple[float, float]:
    """Ends of the interval of minimizers of sum_i rho(y_i - mu), from the solvers' own reads.

    Order statistics at _quantile_bracket for the median and quantiles, the
    zero set's _huber_edges for Huber; the mean's minimizer is unique.
    """
    y = np.asarray(values, dtype=float)
    if loss.kind == "mean":
        return (locate(y, loss),) * 2
    if loss.kind == "huber":
        left, right = _huber_edges(y[None, :], loss.param)
        return float(left[0]), float(right[0])
    i, j = _quantile_bracket(y.size, loss.level)
    ys = np.sort(y)
    return float(ys[i]), float(ys[j])


def test_locate_median_odd():
    assert locate([3, 1, 2], LossKind.median()) == 2.0


def test_locate_median_even_midpoint():
    # even length: mean of the two central order statistics
    assert locate([1, 2, 3, 10], LossKind.median()) == 2.5
    assert argmin_ends([1, 2, 3, 10], LossKind.median()) == (2.0, 3.0)


def test_locate_quantile_against_stated_grid_oracle():
    loss = LossKind.quantile(0.25)
    expected = grid_locate([0, 1, 2, 3], loss, -1.0, 4.0, 1e-4)
    assert expected == pytest.approx(0.5, abs=1e-9)  # grid node round-off only
    assert locate([0, 1, 2, 3], loss) == 0.5


def test_locate_huber_root():
    # root of 2 * (-mu) + 1 = 0
    assert locate([0, 0, 10], LossKind.huber(1.0)) == pytest.approx(0.5, abs=1e-9)


def test_locate_mean():
    assert locate([1.0, 2.0, 4.0], LossKind.mean()) == pytest.approx(7.0 / 3.0)


def test_median_is_quantile_half():
    rng = np.random.default_rng(5)
    for _ in range(40):
        y = rng.normal(size=int(rng.integers(1, 15)))
        assert locate(y, LossKind.median()) == locate(y, LossKind.quantile(0.5))


def test_locate_matches_bruteforce_small_multisets():
    from oracle_locate import multisets
    sets = multisets(5, [0.0, 1.0, 2.0, 3.0])
    for loss in ALL_LOSSES:
        tol = 1e-6 if loss.kind == "mean" else 1e-12
        for vals in sets:
            got = locate(vals, loss)
            want = brute_locate(vals, loss)
            assert got == pytest.approx(want, abs=tol), (vals, loss)


def test_interval_invariants():
    rng = np.random.default_rng(11)
    for _ in range(200):
        y = rng.normal(size=int(rng.integers(1, 12)))
        loss = random_loss(rng)
        value, (lo, hi) = locate(y, loss), argmin_ends(y, loss)
        assert lo <= value <= hi
        assert value == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_translation_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        y = rng.normal(size=int(rng.integers(1, 12)))
        c = float(rng.normal())
        loss = random_loss(rng)
        assert locate(y + c, loss) == pytest.approx(locate(y, loss) + c, abs=1e-8)


def test_scale_equivariance_except_huber():
    rng = np.random.default_rng(4)
    for _ in range(100):
        y = rng.normal(size=int(rng.integers(1, 12)))
        c = float(rng.uniform(0.1, 5.0))
        for loss in (LossKind.mean(), LossKind.median(), LossKind.quantile(0.3)):
            assert locate(c * y, loss) == pytest.approx(c * locate(y, loss), abs=1e-10)


def test_monotone_in_data():
    rng = np.random.default_rng(6)
    for _ in range(200):
        y = rng.normal(size=int(rng.integers(1, 10)))
        loss = random_loss(rng)
        i = int(rng.integers(0, y.size))
        bumped = y.copy()
        bumped[i] += float(rng.uniform(0.0, 3.0))
        assert locate(bumped, loss) >= locate(y, loss) - 1e-9


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
        want = [locate(row, loss) for row in rows]
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
            got = np.array([locate(row, loss) for row in rows])
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
    want_bases = [[locate(row[:c], loss) for c in counts] for row in rows]
    want_rings = [[locate(row[a:b], loss) for a, b in zip(counts[:-1], counts[1:])]
                  for row in rows]
    if loss.kind != "mean":
        assert np.array_equal(bases, np.reshape(want_bases, bases.shape))
        assert np.array_equal(rings, np.reshape(want_rings, rings.shape))
        return
    assert np.all(np.abs(bases - np.reshape(want_bases, bases.shape)) <= 1e-12)
    assert np.all(np.abs(rings - np.reshape(want_rings, rings.shape)) <= 1e-12)


_MISSING = np.iinfo(np.int32).max
# small integers make ties common; the extremes reach int32 rows' bounds, below the marker
_INTS = st.one_of(st.integers(-4, 4), st.integers(-(2 ** 31), 2 ** 31 - 2))


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
                assert est[i, c] == locate(kept, loss)
            else:
                assert np.isnan(est[i, c])


def _sorted_reference(rows: np.ndarray, counts, loss: LossKind) -> np.ndarray:
    """Every prefix and ring estimate from a whole np.sort of its float64 values."""
    spans = [(0, c) for c in counts] + list(zip(counts[:-1], counts[1:]))
    est = []
    for a, b in spans:
        ys = np.sort(rows[:, a:b].astype(float), axis=1)
        i, j = _quantile_bracket(int(b - a), loss.level)
        est.append(ys[:, i] if i == j else 0.5 * (ys[:, i] + ys[:, j]))
    return np.stack(est, axis=1)


_DISC_SIZES = np.diff(am.build_family_2d(am.default_disc_radii()).counts, prepend=0).tolist()


@settings(max_examples=150, deadline=None)
@example(sizes=_DISC_SIZES, n_rows=3, dtype=np.int16, loss=LossKind.median(), seed=0)
@example(sizes=_DISC_SIZES, n_rows=3, dtype=np.int32, loss=LossKind.quantile(0.75), seed=1)
@example(sizes=[3, 3, 2], n_rows=4, dtype=np.int16, loss=LossKind.median(), seed=2)
@example(sizes=[2, 6], n_rows=4, dtype=np.int32, loss=LossKind.quantile(0.3), seed=3)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
       n_rows=st.integers(1, 6), dtype=st.sampled_from([np.int16, np.int32]),
       loss=st.sampled_from([LossKind.median(), LossKind.quantile(0.3),
                             LossKind.quantile(0.75)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_integer_rows_match_a_full_sort(sizes, n_rows, dtype, loss, seed):
    """Integer rows give every estimate of a whole sort of each span, bit for bit.

    The largest window of full integer rows is read from a narrowed stretch;
    the families cover odd and even largest windows and brackets that reach
    below the last ring's size (nothing of window K-1 is left out). Values
    from -3..3 make ties common; a few reach the dtype's bounds below its
    largest value, whose midpoints overflow a sum in the dtype.
    """
    counts = np.cumsum(sizes)
    rng = np.random.default_rng(seed)
    rows = rng.integers(-3, 4, (n_rows, int(counts[-1])))
    far = rng.random(rows.shape) < 0.1
    info = np.iinfo(dtype)
    rows[far] = rng.integers(info.min, info.max, far.sum())
    got = np.concatenate(window_estimates(rows.astype(dtype), counts, loss), axis=1)
    assert got.tobytes() == _sorted_reference(rows, counts, loss).tobytes()


def test_row_dtype_takes_integers_only_where_they_keep_the_bits(monkeypatch):
    """int16 within [-32768, 32766] where numpy sorts it with SIMD, else int32 below its max.

    The mean and Huber losses, non-integers, -0.0 and int32's largest value keep float64.
    """
    median = LossKind.median()
    small = np.array([-32768.0, 0.0, 32766.0])
    monkeypatch.setattr(losses, "SIMD_INT16_SORT", True)
    assert row_dtype(small, median) == (np.int16, 32767)
    assert row_dtype(small, LossKind.quantile(0.3)) == (np.int16, 32767)
    for v in (32767.0, -32769.0, 2.0 ** 31 - 2, -(2.0 ** 31)):
        assert row_dtype(np.append(small, v), median) == (np.int32, 2 ** 31 - 1), v
    monkeypatch.setattr(losses, "SIMD_INT16_SORT", False)
    assert row_dtype(small, median) == (np.int32, 2 ** 31 - 1)
    for values, loss in ((small, LossKind.mean()), (small, LossKind.huber(1.0)),
                         (small + 0.5, median), (np.append(small, -0.0), median),
                         (np.append(small, 2.0 ** 31 - 1), median)):
        dtype, missing = row_dtype(values, loss)
        assert dtype is float and np.isnan(missing), (values, loss)


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
    alone = np.array([locate(row, loss) for row in rows])
    assert np.array_equal(got, alone)
    at = data.draw(st.integers(0, n_other))
    mixed = np.concatenate([others[:at], rows, others[at:]])
    assert np.array_equal(locate_rows(mixed, loss)[at: at + n_rows], got)


@st.composite
def _edge_rows(draw):
    """1 to 4 rows of 1 to 9 values from _VALUES, +-0.0 and +-1e17."""
    n, n_rows = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    values = st.one_of(_VALUES, st.sampled_from([0.0, -0.0, 1e17, -1e17]))
    return np.array(draw(st.lists(values, min_size=n * n_rows,
                                  max_size=n * n_rows))).reshape(n_rows, n)


@settings(max_examples=150, deadline=None)
@given(rows=_edge_rows(), loss=st.sampled_from([LossKind.mean(), LossKind.median(),
                                                LossKind.quantile(0.3), LossKind.huber(1.345)]))
@example(rows=np.array([[-0.0, 0.0, 1e17, -1e17], [0.0, -0.0, -0.0, 0.5]]), loss=LossKind.median())
@example(rows=np.array([[-0.0, 0.0, 1e17, -1e17, 0.25]]), loss=LossKind.huber(1.345))
def test_one_location_solver(rows, loss):
    """locate_rows is window_estimates of one window, and locate its one-row case, bit for bit.

    Odd and even n give one and two order statistics, quarter-integers make
    ties, and the examples tie -0.0 with 0.0 in the middle of the row.
    """
    got = locate_rows(rows, loss)
    assert got.tobytes() == window_estimates(rows, [rows.shape[1]], loss)[0][:, 0].tobytes()
    for row, value in zip(rows, got):
        alone = locate_rows(row[None], loss)[0]
        assert np.float64(locate(row, loss)).tobytes() == alone.tobytes() == value.tobytes()


def test_huber_blocks_of_rows_match_scalar():
    # 177 values per row are solved 92 rows at a time, so 400 rows span 5 blocks
    rows = np.random.default_rng(8).laplace(size=(400, 177))
    loss = LossKind.huber(1.345)
    got = locate_rows(rows, loss)
    assert np.array_equal(got, [locate(row, loss) for row in rows])
    assert np.array_equal(locate_rows(rows[::-1], loss), got[::-1])


@st.composite
def _huber_rows(draw):
    """1 to 5 rows of 1 to 40 values, all integers or all drawn from _VALUES."""
    n, n_rows = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    values = st.integers(-6, 6).map(float) if draw(st.booleans()) else _VALUES
    return np.array(draw(st.lists(values, min_size=n * n_rows,
                                  max_size=n * n_rows))).reshape(n_rows, n)


# a root on the breakpoint 0.25 - 0.6, where unclipped prefix sums (with -10 and -4)
# rounded psi away from 0 and gave -0.3499999999999999
_CLIPPED_ROW = ([0.0] * 5 + [0.25, 0.25, -0.25] + [0.5] * 8 + [-0.5, -0.75] + [-1.0] * 11
                + [-1.75, -2.0, -2.0, 1.0, 1.0, 0.2, 0.2, -4.0, -10.0])


@settings(max_examples=80, deadline=None)
@given(rows=_huber_rows(), kink=st.sampled_from([0.25, 0.6, 1.0, 1.345, 3.0]), root=st.none())
@example(rows=np.array([_CLIPPED_ROW]), kink=0.6,
         root=float(huber_root_exact(_CLIPPED_ROW, 0.6)))
def test_huber_edges_match_reference(rows, kink, root):
    """The flat gathers give the take_along_axis solver's edges bit for bit.

    Integer values make ties and, for even n, flat stretches of zeros (a
    middle gap wider than 2 kink); quarter-integers and floats cover the
    rest. Repeating the rows past one _HUBER_BREAKS block makes the solver
    split the batch. Where the exact root is given, both midpoints are it.
    """
    n_rows, n = rows.shape
    block = max(1, _HUBER_BREAKS // (2 * n))
    for batch in (rows, np.tile(rows, (block // n_rows + 2, 1))):
        got, want = _huber_edges(batch, kink), huber_edges(batch, kink)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        if root is not None:
            assert np.all(0.5 * (got[0] + got[1]) == root)
            assert np.all(0.5 * (want[0] + want[1]) == root)


def test_huber_flat_stretch_ends_are_exact():
    # psi = -2 + 2 = 0 for every mu in [0 + 1, 10 - 1]
    assert locate([0, 0, 10, 10], LossKind.huber(1.0)) == 5.0
    assert argmin_ends([0, 0, 10, 10], LossKind.huber(1.0)) == (1.0, 9.0)
    assert argmin_ends([10, -2.5, 0.5, 7], LossKind.huber(0.75)) == (0.5 + 0.75, 7 - 0.75)
    # the middle gap equal to 2 kink leaves a single root
    assert locate([0, 2], LossKind.huber(1.0)) == 1.0
    assert argmin_ends([0, 2], LossKind.huber(1.0)) == (1.0, 1.0)


def test_huber_single_value_is_returned():
    for y in (3.5, -1e-300, 0.1, 1e12):
        for kink in (1e-3, 1.345, 50.0):
            assert locate([y], LossKind.huber(kink)) == y
            assert argmin_ends([y], LossKind.huber(kink)) == (y, y)


def test_huber_root_is_exact_under_gross_outliers_and_tiny_kinks():
    """The Huber root is the exact rational one, whatever the outliers' size or the kink's.

    Outliers of 1e15 and more once entered the prefix sums that give psi's
    sign, and their rounding exceeded the kink: the named cases returned
    -1e17 and -1.2, and rows like the random ones missed their root. Halved
    values make ties.
    """
    huber = LossKind.huber
    for far in (5e16, 1e17):
        got = locate([0.1, 0.2, 0.3, far, -far], huber(1.345))
        assert got == pytest.approx(0.2, abs=1e-12)
    assert locate([0.3, -1.2, 2.5, 0.1, -0.4, 1.7, 0.9], huber(1e-300)) == 0.3
    rng = np.random.default_rng(1)
    for kink in (1.345, 1e-16, 1e-300):
        for n in (5, 8, 13):
            rows = rng.laplace(size=(40, n))
            rows[::3] = np.round(2.0 * rows[::3]) / 2.0
            far = rng.random(rows.shape) < 0.25
            rows[far] = (rng.choice([-1.0, 1.0], far.sum())
                         * 10.0 ** rng.uniform(15.0, 300.0, far.sum()))
            for row, got in zip(rows, locate_rows(rows, huber(kink))):
                want = float(huber_root_exact(row, kink))
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (list(row), kink)


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
    """The value is the midpoint of the argmin interval [lo, hi], all three minimizers."""
    value, (lo, hi) = locate(values, loss), argmin_ends(values, loss)
    assert lo <= hi
    assert value == 0.5 * (lo + hi)
    objective = [float(np.sum(rho(loss, np.asarray(values) - mu))) for mu in (lo, value, hi)]
    assert max(objective) - min(objective) <= 1e-9 * (1.0 + min(objective))


@settings(max_examples=200, deadline=None)
@given(values=_SAMPLES, loss=st.sampled_from([lk for lk in ALL_LOSSES
                                              if lk.kind in ("mean", "median", "huber")]))
def test_locate_sign_flip_symmetry(values, loss):
    """locate(-y) = -locate(y): exactly for mean and median, to rounding for Huber."""
    y = np.asarray(values, dtype=float)
    flipped, value = locate(-y, loss), locate(y, loss)
    if loss.kind == "huber":
        assert abs(flipped + value) <= 1e-12 * (1.0 + np.abs(y).max())
    else:
        assert flipped == -value
