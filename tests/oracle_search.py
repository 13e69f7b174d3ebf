"""The threshold searches with every replicate evaluated at every step.

smallest_passing is the bisection the library ran before its search learned
to re-test only the replicates whose totals the evaluated ends leave open;
calibrate_full runs both calibration modes through it, evaluating the whole
objective at each candidate. The library must return the same bytes.
"""

import numpy as np

from adaptmreg.calibration import (SEARCH_TOL, Z_MAX, ZETA_MAX, ZETA_MIN, CalibResult,
                                   _budget, _calibration_stats, _zeta_to_z)
from adaptmreg.errors import CalibrationError
from adaptmreg.selector import CriticalValues


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
    """calibrate(config, levels, pair), evaluating every replicate at every candidate.

    evaluated, if given, collects each candidate the search evaluates.
    """
    stats = _calibration_stats(config, levels, pair)
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

        zeta = smallest_passing(track(lambda zeta: stats.objective(z_of(zeta))), budget,
                                ZETA_MAX, lambda: "unattainable")
        z = z_of(zeta)
        return CalibResult(CriticalValues(z=z, zeta=zeta), stats.shares(z))
    K = stats.K
    z = np.empty(K)
    acc = np.ones((config.runs, K), dtype=bool)
    for k in range(K):
        raw_k, scale_k = stats.column(k), stats.scale[k:, k]
        live, w_k = acc[:, k:], stats.weights[:, k:]

        def share(zk):
            hit = live & (raw_k > zk * scale_k)
            return float((w_k * hit).sum(axis=1).mean())

        z[k] = smallest_passing(track(share), budget / K, Z_MAX, lambda: "unattainable")
        acc[:, k:] &= raw_k <= z[k] * scale_k
    return CalibResult(CriticalValues(z=z), stats.shares(z, bare=True))
