"""Brute-force location minimizers, independent of the library's algorithms.

Piecewise-linear losses (median, quantile) are minimized by enumerating the
objective at the data values: the argmin of a convex piecewise-linear
function is an interval whose endpoints are breakpoints. The Huber objective
is piecewise quadratic, so every segment between consecutive breakpoints
y_i +- kink is minimized in closed form. The mean uses golden-section search
on the smooth objective. All oracles return the midpoint of the argmin set,
matching the library's tie convention.
"""

import numpy as np


def rho(loss, x):
    """Loss value rho(x), vectorized. rho(0) = 0 for every variant."""
    x = np.asarray(x, dtype=float)
    if loss.kind == "mean":
        return 0.5 * x * x
    if loss.kind == "median":
        return np.abs(x)
    if loss.kind == "quantile":
        return np.abs(x) + (2.0 * loss.alpha - 1.0) * x
    k = loss.kink
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
    kink = loss.kink
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
