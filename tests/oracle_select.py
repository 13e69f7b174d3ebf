"""Scalar reference for window estimates and the sequential selection rules.

Independent of the library's batched path: every window and ring estimate is
a separate scalar locate() over the window's sorted indices, and both rules
run the stopping loop one test at a time with thresholds written out from
the levels. The library must agree with it bit for bit on the selected
index and the test records, except that mean estimates may differ by
rounding, because they sum in another order.

first_rejection is the batched stopping loop in its earlier row-major form
(rows, k + 1 statistics per step, per-row tables as (rows, K, K)); the
library's window-major loop must select the same indices.

oracle_index is the best non-adaptive stopping index for a known signal,
the benchmark against which the studies measure the adaptive rules.
"""

from dataclasses import dataclass

import numpy as np

from adaptmreg.errors import ValidationError
from adaptmreg.levels import Levels
from adaptmreg.losses import LossKind, locate
from adaptmreg.selector import CriticalValues, TestRecord
from adaptmreg.windows import WindowFamily

from oracle_windows import members, ring


def base_estimates(values, family: WindowFamily, loss: LossKind
                   ) -> tuple[np.ndarray, np.ndarray]:
    """All window estimates and all ring estimates for one data vector."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValidationError("values must be 1-d")
    if int(family.order.max()) >= y.size:
        raise ValidationError("family indices exceed the data length")
    K = family.K
    base = np.empty(K + 1)
    rings = np.empty(K)
    for k in range(K + 1):
        base[k] = locate(y[members(family, k)], loss).value
    for k in range(K):
        rings[k] = locate(y[ring(family, k)], loss).value
    return base, rings


def select_scalar(stats: np.ndarray, thr: np.ndarray
                  ) -> tuple[int, tuple[TestRecord, ...]]:
    """Shared stopping loop; stats[k, j] is the step-k statistic against window j.

    Within a step the tests run from j = k down to 0 (the most recent window
    gives the most powerful test); the order only affects which comparison is
    recorded as the trigger, never the selected index.
    """
    K = thr.shape[0]
    tests: list[TestRecord] = []
    k_hat = K
    for k in range(K):
        rejected = False
        for j in range(k, -1, -1):
            stat = float(stats[k, j])
            threshold = float(thr[k, j])
            margin = stat - threshold
            tests.append(TestRecord(k, j, stat, threshold, margin))
            if margin > 0.0:
                rejected = True
                break
        if rejected:
            k_hat = k
            break
    return k_hat, tuple(tests)


def first_rejection(bases: np.ndarray, nxt: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Batched stopping loop: the first step k with a rejected test, K if none.

    Row i rejects at step k when |nxt[i, k] - bases[i, j]| > thr[k, j] for
    some j <= k; a (rows, K, K) thr gives every row its own table. The ring
    rule passes the ring estimates as nxt, the classical rule the next
    window estimates bases[:, 1:]. A NaN statistic never rejects.
    """
    K = thr.shape[-1]
    k_hat = np.full(bases.shape[0], K, dtype=np.int64)
    undecided = np.ones(bases.shape[0], dtype=bool)
    for k in range(K):
        stat = np.abs(nxt[:, k, None] - bases[:, : k + 1])
        reject = (stat > thr[..., k, : k + 1]).any(axis=1)
        k_hat[undecided & reject] = k
        undecided &= ~reject
        if not undecided.any():
            break
    return k_hat


def ring_reference(base, rings, levels, crit) -> tuple[int, tuple[TestRecord, ...]]:
    """Ring rule: |ring_k - base_j| against z_j s_ring[k, j] + z_{k+1} s[k+1]."""
    K = levels.K
    z = list(crit.z) + [1.0]
    stats = np.full((K, K), np.nan)
    thr = np.full((K, K), np.nan)
    for k in range(K):
        for j in range(k + 1):
            stats[k, j] = abs(rings[k] - base[j])
            thr[k, j] = z[j] * levels.s_ring[k, j] + z[k + 1] * levels.s[k + 1]
    return select_scalar(stats, thr)


def lepski_reference(base, pair, crit) -> tuple[int, tuple[TestRecord, ...]]:
    """Classical rule: |base_{k+1} - base_j| against z_j s_pair[k+1, j]."""
    K = pair.K
    stats = np.full((K, K), np.nan)
    thr = np.full((K, K), np.nan)
    for k in range(K):
        for j in range(k + 1):
            stats[k, j] = abs(base[k + 1] - base[j])
            thr[k, j] = crit.z[j] * pair.s_pair[k + 1, j]
    return select_scalar(stats, thr)


@dataclass(frozen=True)
class OracleInfo:
    """Best non-adaptive stopping index for a known signal.

    variations[k] is the total variation of the signal over window k;
    k_star is the first k whose next window varies more than its noise
    allowance z_{k+1} * s_{k+1}, capped at K.
    """

    k_star: int
    variations: np.ndarray


def oracle_index(g_values, family: WindowFamily, crit: CriticalValues,
                 levels: Levels) -> OracleInfo:
    """Oracle stopping index for a known signal evaluated at the design points."""
    g = np.asarray(g_values, dtype=float)
    if int(family.order.max()) >= g.size:
        raise ValidationError("family indices exceed the signal length")
    # windows are prefixes of the nearest-first ordering
    vals = g[family.order]
    spread = np.maximum.accumulate(vals) - np.minimum.accumulate(vals)
    variations = spread[family.counts - 1]
    over = np.flatnonzero(variations[1:] > crit.full(family.K)[1:] * levels.s[1:])
    return OracleInfo(k_star=int(over[0]) if over.size else family.K,
                      variations=variations)
