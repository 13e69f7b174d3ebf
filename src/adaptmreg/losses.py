"""Location M-estimators: mean, median, quantile and Huber variants.

Median, quantile and Huber estimates are computed in closed form, with no
iteration: order statistics for the first two, and for Huber the root of a
piecewise-linear score. Each row of a batch is solved on its own, so for
these losses locate_rows gives a row bit for bit the value that locate
gives it, whatever the rest of the batch. The mean is not batch-independent:
numpy sums the rows of a column-major batch (such as y[:, order]) in
another order than a single row, so its last bit can depend on the batch.

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
    """Which convex loss is minimized.

    kind is one of "mean", "median", "quantile", "huber". A quantile loss
    carries alpha strictly inside (0, 1); a Huber loss carries a positive
    kink where the quadratic part turns linear. Quantile at alpha = 1/2
    must reproduce the median exactly.
    """

    kind: str
    alpha: float | None = None
    kink: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}")
        if self.kind == "quantile":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValidationError("quantile alpha must lie strictly inside (0, 1)")
        elif self.alpha is not None:
            raise ValidationError("alpha only applies to the quantile loss")
        if self.kind == "huber":
            if self.kink is None or not (self.kink > 0.0 and math.isfinite(self.kink)):
                raise ValidationError("huber kink must be a positive finite real")
        elif self.kink is not None:
            raise ValidationError("kink only applies to the huber loss")

    @classmethod
    def mean(cls) -> "LossKind":
        return cls("mean")

    @classmethod
    def median(cls) -> "LossKind":
        return cls("median")

    @classmethod
    def quantile(cls, alpha: float) -> "LossKind":
        return cls("quantile", alpha=float(alpha))

    @classmethod
    def huber(cls, kink: float) -> "LossKind":
        return cls("huber", kink=float(kink))

    @property
    def label(self) -> str:
        if self.kind == "quantile":
            return f"quantile:{self.alpha!r}"
        if self.kind == "huber":
            return f"huber:{self.kink!r}"
        return self.kind

    @property
    def level(self) -> float:
        """Target quantile level: 1/2 for the median, alpha for a quantile loss."""
        if self.kind == "median":
            return 0.5
        if self.kind == "quantile":
            return self.alpha
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
    of rows solved together.
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
    t = np.take_along_axis(breaks, order, axis=1)
    lower = np.cumsum(order < n, axis=1)
    upper = np.arange(1, 2 * n + 1) - lower
    psi = (kink * (n - lower - upper)
           + (np.take_along_axis(prefix, lower, axis=1)
              - np.take_along_axis(prefix, upper, axis=1))
           - (lower - upper) * t)
    # piece (t[j-1], t[j]) holds the root; its counts are those past t[j-1]
    j = np.argmax(psi <= 0, axis=1)[:, None]
    p = np.maximum(j - 1, 0)
    t_hi = np.take_along_axis(t, j, axis=1)[:, 0]
    t_lo = np.take_along_axis(t, p, axis=1)[:, 0]
    lo_idx = np.take_along_axis(upper, p, axis=1)
    hi_idx = np.take_along_axis(lower, p, axis=1)
    m = (hi_idx - lo_idx)[:, 0]
    idx = np.arange(n)
    active = np.where((idx >= lo_idx) & (idx < hi_idx), ys, 0.0).sum(axis=1)
    solved = (kink * (n - hi_idx - lo_idx)[:, 0] + active) / np.maximum(m, 1)
    on_edge = (j[:, 0] == 0) | (m == 0) | (np.take_along_axis(psi, j, axis=1)[:, 0] == 0)
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
        return LocationResult(0.5 * (lo + hi), lo, hi)
    left, right = _huber_edges(y[None, :], loss.kink)
    lo, hi = float(left[0]), float(right[0])
    return LocationResult(0.5 * (lo + hi), lo, hi)


def locate_rows(values: np.ndarray, loss: LossKind) -> np.ndarray:
    """Row-wise locate() values for a 2-d array, same tie conventions.

    Bit for bit those of locate(), except that a mean row can differ in its
    last bit, depending on the batch's memory layout and row count.
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
    left, right = _huber_edges(rows, loss.kink)
    return 0.5 * (left + right)


def window_estimates(rows: np.ndarray, counts, loss: LossKind, valid=None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Estimates over every window and every ring of a nested family, row-wise.

    Each row holds one point's values in nearest-first order, so window k is
    the prefix [:counts[k]] and ring k the slice [counts[k]:counts[k+1]].
    Returns bases of shape (rows, K+1) and rings of shape (rows, K).

    With valid, rows mark missing values with NaN and valid[i, k] counts the
    values row i has in window k. Each estimate then uses only those values,
    exactly as if the missing ones had been removed: NaN sorts last, so the
    order statistics sit at per-row positions. A ring with no values gets
    NaN. Missing values need the mean, median or quantile loss.
    """
    K = len(counts) - 1
    n_rows = rows.shape[0]
    spans = ([(0, counts[k]) for k in range(K + 1)]
             + [(counts[k], counts[k + 1]) for k in range(K)])
    est = np.empty((n_rows, 2 * K + 1))
    if valid is None or (valid[:, -1] == counts[-1]).all():
        for c, (a, b) in enumerate(spans):
            est[:, c] = locate_rows(rows[:, a:b], loss)
        return est[:, : K + 1], est[:, K + 1:]
    sizes = np.concatenate([valid, np.diff(valid, axis=1)], axis=1)
    if loss.kind == "mean":
        filled = np.where(np.isnan(rows), 0.0, rows)
        for c, (a, b) in enumerate(spans):
            est[:, c] = filled[:, a:b].sum(axis=1)
        with np.errstate(invalid="ignore"):
            est /= sizes
    elif loss.kind in ("median", "quantile"):
        brackets = np.array([(0, 0)] + [_quantile_bracket(n, loss.level)
                                        for n in range(1, counts[-1] + 1)])
        lo, hi = brackets[sizes, 0], brackets[sizes, 1]
        single = lo == hi
        row = np.arange(n_rows)
        # one sort buffer for every span: a fresh array per span made the
        # allocator return and refault its pages on every chunk
        work = np.empty(rows.size)
        for c, (a, b) in enumerate(spans):
            ys = work[: n_rows * (b - a)].reshape(n_rows, b - a)
            ys[...] = rows[:, a:b]
            ys.sort(axis=1)
            first = work[row * (b - a) + lo[:, c]]
            if single[:, c].all():
                est[:, c] = first
            else:
                second = work[row * (b - a) + hi[:, c]]
                est[:, c] = np.where(single[:, c], first, 0.5 * (first + second))
    else:
        raise ValidationError(f"the {loss.kind} loss does not take missing values")
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
