"""Location M-estimators: mean, median, quantile and Huber variants.

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
    "influence",
    "betweenness_holds",
]

_LOSS_KINDS = ("mean", "median", "quantile", "huber")


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

    def rho(self, x):
        """Loss value rho(x), vectorized. rho(0) = 0 for every variant."""
        x = np.asarray(x, dtype=float)
        if self.kind == "mean":
            return 0.5 * x * x
        if self.kind == "median":
            return np.abs(x)
        if self.kind == "quantile":
            return np.abs(x) + (2.0 * self.alpha - 1.0) * x
        k = self.kink
        return np.where(np.abs(x) <= k, 0.5 * x * x, k * np.abs(x) - 0.5 * k * k)


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
    """Endpoints of the zero set of mu -> sum clip(y - mu, -kink, kink), per row.

    The map is continuous and non-increasing in mu, so each edge is found by
    bisection on a sign predicate; tolerance 1e-12 * (1 + data range). Inside
    a flat zero stretch the clipped terms cancel only up to float rounding,
    so the sign tests carry a summation-noise allowance (any true slope moves
    the sum by at least the distance to the edge, far above that allowance).
    """
    lo0 = rows.min(axis=1) - kink
    hi0 = rows.max(axis=1) + kink
    span = rows.max(axis=1) - rows.min(axis=1)
    tol = 1e-12 * (1.0 + span)
    zero_tol = 1e-12 * rows.shape[1] * (kink + span + 1.0)

    def psi_sum(mu: np.ndarray) -> np.ndarray:
        return np.clip(rows - mu[:, None], -kink, kink).sum(axis=1)

    # left edge: boundary between {sum > 0} and {sum <= 0}
    a, b = lo0.copy(), hi0.copy()
    while np.any(b - a > tol):
        mid = 0.5 * (a + b)
        go_right = psi_sum(mid) > zero_tol
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
    left = 0.5 * (a + b)

    # right edge: boundary between {sum >= 0} and {sum < 0}
    a, b = lo0.copy(), hi0.copy()
    while np.any(b - a > tol):
        mid = 0.5 * (a + b)
        go_right = psi_sum(mid) >= -zero_tol
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
    right = 0.5 * (a + b)
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
    clipped-residual sum, found by bisection. Flat argmin intervals yield
    their midpoint.
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
    """Row-wise locate() values for a 2-d array, same tie conventions."""
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


def window_estimates(rows: np.ndarray, counts, loss: LossKind
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Estimates over every window and every ring of a nested family, row-wise.

    Each row holds one point's values in nearest-first order, so window k is
    the prefix [:counts[k]] and ring k the slice [counts[k]:counts[k+1]].
    Returns bases of shape (rows, K+1) and rings of shape (rows, K).
    """
    K = len(counts) - 1
    bases = np.empty((rows.shape[0], K + 1))
    rings = np.empty((rows.shape[0], K))
    for k in range(K + 1):
        bases[:, k] = locate_rows(rows[:, : counts[k]], loss)
    for k in range(K):
        rings[:, k] = locate_rows(rows[:, counts[k]: counts[k + 1]], loss)
    return bases, rings


def influence(loss: LossKind, residual: float):
    """Derivative rho'(residual) with a fixed subgradient choice at kinks.

    Median uses sign (0 at the kink); quantile uses the branch midpoint
    2*alpha - 1 at zero; huber clips the identity; mean is the identity
    (rho(x) = x^2 / 2, so the constant factor is 1).
    """
    x = np.asarray(residual, dtype=float)
    if loss.kind == "mean":
        out = x
    elif loss.kind == "median":
        out = np.sign(x)
    elif loss.kind == "quantile":
        out = np.sign(x) + (2.0 * loss.alpha - 1.0)
    else:
        out = np.clip(x, -loss.kink, loss.kink)
    if np.isscalar(residual) or np.ndim(residual) == 0:
        return float(out)
    return out


def betweenness_holds(values, partition, loss: LossKind, rtol: float = 1e-9) -> bool:
    """Whether the estimate over all values sits between the blockwise extremes.

    partition must be a list of index blocks that are nonempty, pairwise
    disjoint, and together cover every index. A tiny slack (rtol scaled by
    the data magnitude) absorbs bisection round-off in the Huber case.
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
