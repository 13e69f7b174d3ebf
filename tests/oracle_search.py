"""Reference calibration: dense statistics, and searches that evaluate every replicate.

DenseStats holds the (runs, K, K) statistics of a calibration's replicate
set and tests each (step, window) pair against its own scalar threshold.
smallest_passing is the bisection the library ran before its search learned
to re-test only the replicates whose totals the evaluated ends leave open;
calibrate_full runs both calibration modes through it on DenseStats,
evaluating the whole objective at each candidate. The library must return
the same bytes.
"""

import numpy as np

from adaptmreg.calibration import SEARCH_TOL, Z_MAX, ZETA_MAX, ZETA_MIN, _budget, _zeta_to_z
from adaptmreg.errors import CalibrationError
from adaptmreg.levels import simulate_window_estimates
from adaptmreg.selector import CriticalValues


class DenseStats:
    """Brute-force reference: dense (runs, K, K) statistics, scalar thresholds.

    The replicate set is the calibration's own (config.runs replicates from
    config.seed).
    """

    def __init__(self, config, levels, pair):
        K = config.family.K
        bases, rings = simulate_window_estimates(
            config.family, config.loss, config.noise, config.runs, config.seed)
        if config.rule == "ring":
            self.nxt, self.scale, self.additive = rings, levels.s_ring, levels.s[1:]
        else:
            self.nxt = bases[:, 1:]
            self.scale, self.additive = pair.s_pair[1:, :K], np.zeros(K)
        self.K, self.runs = K, config.runs
        self.weights = np.abs(bases[:, :K]) ** config.r
        self.raw = np.full((config.runs, K, K), -np.inf)
        for j in range(K):
            for l in range(j + 1):
                self.raw[:, j, l] = np.abs(self.nxt[:, j] - bases[:, l])

    def rejections(self, z, bare):
        """rej[i, j, l]: step j of replicate i rejects against window l."""
        zf = np.append(z, 1.0)
        rej = np.zeros(self.raw.shape, dtype=bool)
        for j in range(self.K):
            for l in range(j + 1):
                extra = 0.0 if bare else zf[j + 1] * self.additive[j]
                rej[:, j, l] = self.raw[:, j, l] > zf[l] * self.scale[j, l] + extra
        return rej

    def row_totals(self, z, bare=False):
        rejected = self.rejections(z, bare).any(axis=2)
        total = np.zeros(self.runs)
        for j in range(self.K):
            total += self.weights[:, j] * rejected[:, j]
        return total

    def objective(self, z, bare=False):
        return float(self.row_totals(z, bare).mean())

    def shares(self, z, bare=False):
        rej = self.rejections(z, bare)
        out = np.zeros(self.K)
        for j in range(self.K):
            for i in range(self.runs):
                hits = np.flatnonzero(rej[i, j])
                if hits.size:
                    out[hits[0]] += self.weights[i, j]
        return out / self.runs


def smallest_passing(value, target, cap, unattainable):
    """Smallest x on the search grid with value(x) <= target, value non-increasing.

    Returns ZETA_MIN when that already passes. Otherwise doubles from 1 until
    value passes, raising CalibrationError(unattainable()) past cap, then
    bisects to SEARCH_TOL and keeps the end known to pass.
    """
    if value(ZETA_MIN) <= target:
        return ZETA_MIN
    lo, hi = ZETA_MIN, 1.0
    while value(hi) > target:
        lo = hi
        hi *= 2.0
        if hi > cap:
            raise CalibrationError(unattainable())
    while hi - lo > SEARCH_TOL:
        mid = 0.5 * (lo + hi)
        if value(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def calibrate_full(config, levels, pair=None, evaluated=None):
    """(crit, shares) of calibrate(config, levels, pair), evaluating every replicate.

    Every replicate is evaluated at every candidate; evaluated, if given,
    collects each candidate the search evaluates.
    """
    dense = DenseStats(config, levels, pair)
    budget = _budget(config, levels)

    def track(value):
        def tracked(x):
            if evaluated is not None:
                evaluated.append(x)
            return value(x)
        return tracked

    if config.mode == "zeta":
        def z_of(zeta):
            return _zeta_to_z(zeta, levels, config.alpha, config.r)

        zeta = smallest_passing(track(lambda zeta: dense.objective(z_of(zeta))), budget,
                                ZETA_MAX, lambda: "unattainable")
        z = z_of(zeta)
        return CriticalValues(z=z, zeta=zeta), dense.shares(z)
    K = dense.K
    z = np.empty(K)
    acc = np.ones((config.runs, K), dtype=bool)
    for k in range(K):
        raw_k, scale_k = dense.raw[:, k:, k], dense.scale[k:, k]
        live, w_k = acc[:, k:], dense.weights[:, k:]

        def share(zk):
            hit = live & (raw_k > zk * scale_k)
            return float((w_k * hit).sum(axis=1).mean())

        z[k] = smallest_passing(track(share), budget / K, Z_MAX, lambda: "unattainable")
        acc[:, k:] &= raw_k <= z[k] * scale_k
    return CriticalValues(z=z), dense.shares(z, bare=True)
