"""Location M-estimators: mean, median, quantile and Huber variants.

Median, quantile and Huber estimates are computed in closed form, with no
iteration: order statistics for the first two, and for Huber the root of a
piecewise-linear score. Each row of a batch is solved on its own, so for
these losses locate_rows gives a row bit for bit the value that locate
gives it, whatever the rest of the batch. The mean is too, as long as each
row is contiguous in memory: numpy sums the rows of a column-major batch
(such as y[:, order]) in another order than a single row, so callers that
gather columns gather them in C order, with np.take(y, order, axis=1).

All estimators share one tie convention: when the objective has a flat
stretch of minimizers, the midpoint of the argmin interval is returned.
This keeps estimates symmetric under sign flips, makes the even-length
sample median the mean of the two central order statistics, and preserves
the partition betweenness property that the window selection rule needs
(the estimate over a union always lies between the smallest and largest
blockwise estimates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "LossKind",
    "LocationResult",
    "locate",
    "locate_rows",
    "window_estimates",
    "betweenness_holds",
]

_LOSS_KINDS = ("mean", "median", "quantile", "huber")

# Breakpoints per block of rows in the Huber solver, so each (rows, 2n)
# temporary stays near 256 KB. Whole 1024-row Monte Carlo chunks made them
# about 3 MB each, and the memory the allocator kept after freeing them
# raised the peak RSS of a later verify by about 20 MB.
_HUBER_BREAKS = 32768


@dataclass(frozen=True)
class LossKind:
    """Which convex loss is minimized, with its one tuning constant.

    kind is one of "mean", "median", "quantile", "huber". param is the
    quantile loss's level, strictly inside (0, 1), or the Huber loss's
    positive kink, held as a float; the mean and the median take none.
    Quantile at level 1/2 must reproduce the median exactly.
    """

    kind: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}")
        try:
            p = None if self.param is None else float(self.param)
        except (TypeError, ValueError):
            raise ValidationError(f"loss parameter {self.param!r} is not a number") from None
        object.__setattr__(self, "param", p)
        if self.kind == "quantile" and (p is None or not 0.0 < p < 1.0):
            raise ValidationError("quantile alpha must lie strictly inside (0, 1)")
        if self.kind == "huber" and (p is None or not (p > 0.0 and math.isfinite(p))):
            raise ValidationError("huber kink must be a positive finite real")
        if self.kind in ("mean", "median") and p is not None:
            raise ValidationError(f"the {self.kind} loss takes no parameter")

    @classmethod
    def mean(cls) -> "LossKind":
        return cls("mean")

    @classmethod
    def median(cls) -> "LossKind":
        return cls("median")

    @classmethod
    def quantile(cls, alpha: float) -> "LossKind":
        return cls("quantile", alpha)

    @classmethod
    def huber(cls, kink: float) -> "LossKind":
        return cls("huber", kink)

    @property
    def label(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param!r}"

    @property
    def level(self) -> float:
        """Target quantile level: 1/2 for the median, param for a quantile loss."""
        if self.kind == "median":
            return 0.5
        if self.kind == "quantile":
            return self.param
        raise ValidationError(f"the {self.kind} loss has no target quantile level")


@dataclass(frozen=True)
class LocationResult:
    """Estimate plus the endpoints of the minimizing interval.

    For a unique minimizer the endpoints coincide with the value; otherwise
    value is the midpoint of [minimizer_lo, minimizer_hi].
    """

    value: float
    minimizer_lo: float
    minimizer_hi: float


def _quantile_bracket(n: int, alpha: float) -> tuple[int, int]:
    """0-based order-statistic indices bracketing the argmin interval.

    If alpha * n is an integer m in 1..n-1 the minimizers form the interval
    between the m-th and (m+1)-th order statistics; otherwise the minimizer
    is the ceil(alpha * n)-th order statistic alone.
    """
    h = alpha * n
    nearest = math.floor(h + 0.5)
    if abs(h - nearest) <= 1e-9 * n and 1 <= nearest <= n - 1:
        return nearest - 1, nearest
    k = math.ceil(h - 1e-9)
    k = min(max(k, 1), n)
    return k - 1, k - 1


def _huber_edges(rows: np.ndarray, kink: float) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the zero set of psi(mu) = sum clip(y - mu, -kink, kink), per row.

    psi is continuous, non-increasing and piecewise linear, with breakpoints
    at y_i - kink (above it y_i is no longer clipped at +kink) and y_i + kink
    (above it y_i is clipped at -kink). Merging the two shifted copies of the
    sorted row y_(0) <= ... <= y_(n-1) counts, past each breakpoint, the L
    values past their lower and the U past their upper breakpoint; the active
    values are y_(U) .. y_(L-1), so on the following piece

        psi(mu) = kink (n - L - U) + (S_L - S_U) - (L - U) mu

    with prefix sums S. The root lies on the piece that ends at the first
    breakpoint where psi <= 0 and is solved there in closed form, summing the
    active values directly. A flat stretch of zeros needs L = U = n/2, so it
    exists only for even n, from y_(n/2-1) + kink to y_(n/2) - kink, and its
    ends are returned exactly. Every step works within a row, so a row's
    edges do not depend on the other rows of the batch, nor on the blocks
    of rows solved together. The per-row lookups are flat takes from the
    contiguous tables at row offset plus column.
    """
    r, n = rows.shape
    block = max(1, _HUBER_BREAKS // (2 * n))
    if r > block:
        parts = [_huber_edges(rows[i: i + block], kink) for i in range(0, r, block)]
        return tuple(np.concatenate(side) for side in zip(*parts))
    ys = np.sort(rows, axis=1)
    prefix = np.zeros((r, n + 1))
    np.cumsum(ys, axis=1, out=prefix[:, 1:])
    breaks = np.concatenate([ys - kink, ys + kink], axis=1)
    order = np.argsort(breaks, axis=1, kind="stable")
    # row offsets into the flattened (r, 2n) tables and the (r, n + 1) prefix sums
    wide = np.arange(r) * (2 * n)
    t = breaks.take(order + wide[:, None])
    lower = np.cumsum(order < n, axis=1)
    upper = np.arange(1, 2 * n + 1) - lower
    sums = np.arange(r)[:, None] * (n + 1)
    psi = (kink * (n - lower - upper)
           + (prefix.take(lower + sums) - prefix.take(upper + sums))
           - (lower - upper) * t)
    # piece (t[j-1], t[j]) holds the root; its counts are those past t[j-1]
    j = np.argmax(psi <= 0, axis=1)
    at_j, at_p = j + wide, np.maximum(j - 1, 0) + wide
    t_hi, t_lo = t.take(at_j), t.take(at_p)
    lo_idx, hi_idx = upper.take(at_p), lower.take(at_p)
    m = hi_idx - lo_idx
    idx = np.arange(n)
    active = np.where((idx >= lo_idx[:, None]) & (idx < hi_idx[:, None]), ys, 0.0).sum(axis=1)
    solved = (kink * (n - hi_idx - lo_idx) + active) / np.maximum(m, 1)
    on_edge = (j == 0) | (m == 0) | (psi.take(at_j) == 0)
    root = np.where(on_edge, t_hi, np.clip(solved, t_lo, t_hi))
    left, right = root, root.copy()
    if n % 2 == 0:
        a, b = ys[:, n // 2 - 1] + kink, ys[:, n // 2] - kink
        flat = a < b
        left[flat], right[flat] = a[flat], b[flat]
    return left, right


def _check_values(values) -> np.ndarray:
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("values must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(y)):
        raise ValidationError("values must be finite")
    return y


def locate(values: Sequence[float], loss: LossKind) -> LocationResult:
    """Location estimate minimizing sum_i rho(y_i - mu).

    Mean returns the arithmetic mean. Median and quantile losses are solved
    exactly through order statistics. The Huber estimate is the root of the
    clipped-residual sum, solved in closed form on the linear piece that
    holds it. Flat argmin intervals yield their midpoint.
    """
    y = _check_values(values)
    if loss.kind == "mean":
        v = float(y.mean())
        return LocationResult(v, v, v)
    if loss.kind in ("median", "quantile"):
        ys = np.sort(y)
        i, j = _quantile_bracket(y.size, loss.level)
        lo, hi = float(ys[i]), float(ys[j])
        return LocationResult(lo if i == j else 0.5 * (lo + hi), lo, hi)
    left, right = _huber_edges(y[None, :], loss.param)
    lo, hi = float(left[0]), float(right[0])
    return LocationResult(0.5 * (lo + hi), lo, hi)


def locate_rows(values: np.ndarray, loss: LossKind) -> np.ndarray:
    """Row-wise locate() values for a 2-d array, same tie conventions.

    Bit for bit those of locate(). For the mean this needs each row to be
    contiguous in memory; on a column-major batch a mean row can differ in
    its last bit.
    """
    rows = np.asarray(values, dtype=float)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValidationError("values must be a 2-d array with nonempty rows")
    if loss.kind == "mean":
        return rows.mean(axis=1)
    if loss.kind in ("median", "quantile"):
        i, j = _quantile_bracket(rows.shape[1], loss.level)
        ys = np.sort(rows, axis=1)
        if i == j:
            return ys[:, i].copy()
        return 0.5 * (ys[:, i] + ys[:, j])
    left, right = _huber_edges(rows, loss.param)
    return 0.5 * (left + right)


@lru_cache(maxsize=8)
def _bracket_table(n_max: int, level: float) -> np.ndarray:
    """Read-only _quantile_bracket of every sample size 0..n_max; size 0 gets (0, 0)."""
    table = np.array([(0, 0)] + [_quantile_bracket(n, level) for n in range(1, n_max + 1)])
    table.flags.writeable = False
    return table


def window_estimates(rows: np.ndarray, counts, loss: LossKind, valid=None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Estimates over every window and every ring of a nested family, row-wise.

    Each row holds one point's values in nearest-first order, so window k is
    the prefix [:counts[k]] and ring k the slice [counts[k]:counts[k+1]].
    Returns float64 bases of shape (rows, K+1) and rings of shape (rows, K).

    With valid, rows mark missing values and valid[i, k] counts the values
    row i has in window k. Each estimate then uses only those values,
    exactly as if the missing ones had been removed. Float rows mark them
    with NaN; integer rows, which need the median or quantile loss, with
    their dtype's largest value. Either marker sorts last, so the order
    statistics sit at per-row positions. A ring with no values gets NaN.
    Missing values need the mean, median or quantile loss.

    Median and quantile rows are copied once and sorted in their own dtype,
    span by span in place: the rings, then the prefixes in increasing order,
    each read right after its sort. A sort permutes values only inside its
    span, which every later span holds whole or misses, so every order
    statistic keeps its bits. Order statistics of integers are exact in any
    integer dtype, and the midpoint 0.5 * (a + b) of two of them is exact in
    float64 as long as a + b does not overflow the dtype, so integer rows
    give the same bits as the same values as float64.
    """
    K = len(counts) - 1
    n_rows = rows.shape[0]
    spans = ([(0, counts[k]) for k in range(K + 1)]
             + [(counts[k], counts[k + 1]) for k in range(K)])
    est = np.empty((n_rows, 2 * K + 1))
    full = valid is None or (valid[:, -1] == counts[-1]).all()
    if not full:
        sizes = np.concatenate([valid, np.diff(valid, axis=1)], axis=1)
    if loss.kind in ("median", "quantile"):
        n = int(counts[-1])
        table = _bracket_table(n, loss.level)
        at = np.arange(n_rows) * n
        # one copy of the rows, never the caller's array, sorted span by span in place
        work = rows[:, :n].copy()
        for c in [*range(K + 1, 2 * K + 1), *range(K + 1)]:
            a, b = spans[c]
            ys = work[:, a:b]
            ys.sort(axis=1)
            if full:
                i, j = table[b - a]
                est[:, c] = ys[:, i] if i == j else 0.5 * (ys[:, i] + ys[:, j])
                continue
            lo, hi = table[sizes[:, c]].T
            first = work.take(at + a + lo)
            single = lo == hi
            if single.all():
                est[:, c] = first
            else:
                second = work.take(at + a + hi)
                est[:, c] = np.where(single, first, 0.5 * (first + second))
        if not full:
            est[sizes == 0] = np.nan
    elif full:
        for c, (a, b) in enumerate(spans):
            est[:, c] = locate_rows(rows[:, a:b], loss)
    elif loss.kind != "mean":
        raise ValidationError(f"the {loss.kind} loss does not take missing values")
    elif rows.dtype.kind != "f":
        raise ValidationError("the mean loss takes missing values only as NaN in float rows")
    else:
        filled = np.where(np.isnan(rows), 0.0, rows)
        for c, (a, b) in enumerate(spans):
            est[:, c] = filled[:, a:b].sum(axis=1)
        with np.errstate(invalid="ignore"):
            est /= sizes
    return est[:, : K + 1], est[:, K + 1:]


def betweenness_holds(values, partition, loss: LossKind, rtol: float = 1e-12) -> bool:
    """Whether the estimate over all values sits between the blockwise extremes.

    partition must be a list of index blocks that are nonempty, pairwise
    disjoint, and together cover every index. A slack of rtol times
    (1 + max |value|) absorbs floating-point rounding of the mean and Huber
    estimates.
    """
    y = _check_values(values)
    blocks = [np.asarray(b, dtype=int) for b in partition]
    if not blocks or any(b.size == 0 for b in blocks):
        raise ValidationError("partition blocks must be nonempty")
    merged = np.concatenate(blocks)
    if merged.size != y.size or not np.array_equal(np.sort(merged), np.arange(y.size)):
        raise ValidationError("partition blocks must be disjoint and cover all indices")
    whole = locate(y, loss).value
    parts = [locate(y[b], loss).value for b in blocks]
    slack = rtol * (1.0 + float(np.abs(y).max()))
    return min(parts) - slack <= whole <= max(parts) + slack
