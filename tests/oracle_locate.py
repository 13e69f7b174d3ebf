"""Brute-force location minimizers, independent of the library's algorithms.

Piecewise-linear losses (median, quantile) are minimized by enumerating the
objective at the data values: the argmin of a convex piecewise-linear
function is an interval whose endpoints are breakpoints. The Huber objective
is piecewise quadratic, so every segment between consecutive breakpoints
y_i +- kink is minimized in closed form. The mean uses golden-section search
on the smooth objective. All oracles return the midpoint of the argmin set,
matching the library's tie convention.

huber_edges is the library's exact Huber solver as it stood with
np.take_along_axis gathers, kept as the reference that losses._huber_edges
must match bit for bit. huber_root_exact solves the Huber score in exact
rational arithmetic, with no rounding for far outliers or tiny kinks.
"""

from fractions import Fraction

import numpy as np

from adaptmreg.losses import _HUBER_BREAKS


def rho(loss, x):
    """Loss value rho(x), vectorized. rho(0) = 0 for every variant."""
    x = np.asarray(x, dtype=float)
    if loss.kind == "mean":
        return 0.5 * x * x
    if loss.kind == "median":
        return np.abs(x)
    if loss.kind == "quantile":
        return np.abs(x) + (2.0 * loss.level - 1.0) * x
    k = loss.param
    return np.where(np.abs(x) <= k, 0.5 * x * x, k * np.abs(x) - 0.5 * k * k)


def _objective(values, loss, mu):
    return float(np.sum(rho(loss, np.asarray(values, dtype=float) - mu)))


def brute_piecewise_linear(values, loss):
    values = np.asarray(values, dtype=float)
    cands = np.unique(values)
    objs = np.array([_objective(values, loss, m) for m in cands])
    best = objs.min()
    tol = 1e-9 * (1.0 + abs(best))
    hits = cands[objs <= best + tol]
    return 0.5 * (hits.min() + hits.max())


def brute_huber(values, loss):
    values = np.asarray(values, dtype=float)
    kink = loss.param
    bps = np.unique(np.concatenate([values - kink, values + kink]))
    cands = list(bps)
    # interior vertex of each quadratic segment, clamped to the segment
    segs = list(zip(bps[:-1], bps[1:]))
    for lo, hi in segs:
        mid = 0.5 * (lo + hi)
        active = np.abs(values - mid) < kink
        n_act = int(active.sum())
        if n_act == 0:
            continue
        n_above = int(np.sum(values - mid >= kink))
        n_below = int(np.sum(values - mid <= -kink))
        vertex = (values[active].sum() + kink * (n_above - n_below)) / n_act
        if lo <= vertex <= hi:
            cands.append(float(vertex))
    cands = np.asarray(sorted(set(cands)))
    objs = np.array([_objective(values, loss, m) for m in cands])
    best = objs.min()
    tol = 1e-9 * (1.0 + abs(best))
    hits = cands[objs <= best + tol]
    return 0.5 * (hits.min() + hits.max())


def huber_root_exact(values, kink):
    """Midpoint of the zero set of psi(mu) = sum clip(y - mu, -kink, kink), as a Fraction.

    Every float is an exact rational, and psi is non-increasing and linear
    between the breakpoints y_i +- kink, positive (n kink) at the lowest and
    negative at the highest. The zero set's left end is the first breakpoint
    where psi <= 0, or the zero of the line to it from the one before; the
    right end likewise from the top.
    """
    k = Fraction(float(kink))
    ys = [Fraction(float(v)) for v in values]
    bps = sorted({y + s for y in ys for s in (-k, k)})
    psi = [sum(max(-k, min(k, y - mu)) for y in ys) for mu in bps]

    def crossing(i, j):
        # the zero of the line through (bps[i], psi[i]) and (bps[j], psi[j])
        return bps[i] + (bps[j] - bps[i]) * psi[i] / (psi[i] - psi[j])

    lo = next(i for i, v in enumerate(psi) if v <= 0)
    hi = next(i for i in reversed(range(len(psi))) if psi[i] >= 0)
    left = bps[lo] if psi[lo] == 0 else crossing(lo - 1, lo)
    right = bps[hi] if psi[hi] == 0 else crossing(hi, hi + 1)
    return (left + right) / 2


def brute_mean(values, loss):
    values = np.asarray(values, dtype=float)
    lo, hi = values.min() - 1.0, values.max() + 1.0
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = _objective(values, loss, c), _objective(values, loss, d)
    while b - a > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _objective(values, loss, c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _objective(values, loss, d)
    return 0.5 * (a + b)


def brute_locate(values, loss):
    if loss.kind == "mean":
        return brute_mean(values, loss)
    if loss.kind in ("median", "quantile"):
        return brute_piecewise_linear(values, loss)
    return brute_huber(values, loss)


def grid_locate(values, loss, lo, hi, step):
    """Plain grid minimization; returns the midpoint of the grid argmin set."""
    grid = np.arange(lo, hi + 0.5 * step, step)
    objs = np.array([_objective(values, loss, m) for m in grid])
    best = objs.min()
    hits = grid[objs <= best + 1e-9 * (1.0 + abs(best))]
    return 0.5 * (hits.min() + hits.max())


def multisets(max_size, grid):
    """All multisets of the grid values up to max_size, as tuples."""
    out = []

    def rec(start, current):
        if current:
            out.append(tuple(current))
        if len(current) == max_size:
            return
        for i in range(start, len(grid)):
            current.append(grid[i])
            rec(i, current)
            current.pop()

    rec(0, [])
    return out


def huber_edges(rows: np.ndarray, kink: float) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the zero set of psi(mu) = sum clip(y - mu, -kink, kink), per row.

    psi is continuous, non-increasing and piecewise linear, with breakpoints
    at y_i - kink (above it y_i is no longer clipped at +kink) and y_i + kink
    (above it y_i is clipped at -kink). Merging the two shifted copies of the
    sorted row y_(0) <= ... <= y_(n-1) counts, past each breakpoint, the L
    values past their lower and the U past their upper breakpoint; the active
    values are y_(U) .. y_(L-1), so on the following piece

        psi(mu) = kink (n - L - U) + (S_L - S_U) - (L - U) mu

    with S the prefix sums of the row clipped to three kinks around its lower
    middle value m = y_((n-1)/2): psi is unchanged on [m - 2 kink, m + 2 kink],
    which holds the root. The root lies on the piece that ends at the first
    breakpoint where psi <= 0 and is solved there in closed form, summing the
    active values of the unclipped row directly. A flat stretch of zeros needs L = U = n/2, so it
    exists only for even n, from y_(n/2-1) + kink to y_(n/2) - kink, and its
    ends are returned exactly. Every step works within a row, so a row's
    edges do not depend on the other rows of the batch, nor on the blocks
    of rows solved together.
    """
    r, n = rows.shape
    block = max(1, _HUBER_BREAKS // (2 * n))
    if r > block:
        parts = [huber_edges(rows[i: i + block], kink) for i in range(0, r, block)]
        return tuple(np.concatenate(side) for side in zip(*parts))
    ys = np.sort(rows, axis=1)
    mid = ys[:, (n - 1) // 2, None]
    yc = np.clip(ys, mid - 3 * kink, mid + 3 * kink)
    prefix = np.zeros((r, n + 1))
    np.cumsum(yc, axis=1, out=prefix[:, 1:])
    breaks = np.concatenate([yc - kink, yc + kink], axis=1)
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
