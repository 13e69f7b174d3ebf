"""Sequential window selection.

Two rules are implemented. The ring rule grows the window while the
estimate over each newly added ring stays within threshold of every earlier
window estimate; the test at step k against window j uses the threshold
z_j * s_ring[k, j] + z_{k+1} * s[k+1], with the final critical value pinned
to 1 so that bias and noise balance at the last step. The classical rule
(Lepski's method) instead compares the next window estimate against all
earlier window estimates with thresholds z_l * s_pair[k+1, l].

Both rules stop at the first rejected step and keep the last accepted
window. Selection is deterministic given the inputs, and because the
location estimators satisfy partition betweenness, the extra error from
stopping late is bounded per realization (see propagation_gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .levels import Levels, PairLevels
from .losses import LossKind, locate
from .windows import WindowFamily

__all__ = [
    "CriticalValues",
    "TestRecord",
    "SelectionTrace",
    "OracleInfo",
    "base_estimates",
    "threshold_table",
    "ring_thresholds",
    "first_rejection",
    "select_ring",
    "select_ring_batch",
    "select_lepski",
    "select_lepski_batch",
    "oracle_index",
    "propagation_bound",
    "propagation_gap",
]


@dataclass(frozen=True)
class CriticalValues:
    """Test thresholds z_0 .. z_{K-1}; the implicit z_K is fixed at 1.

    zeta is set when the values come from the one-parameter family
    z_k^2 = zeta * (2 r log(s_k / s_K) + log(1/alpha) + log K); such values
    are non-increasing in k by construction and this is enforced.
    """

    z: np.ndarray
    alpha: float
    r: float
    zeta: float | None = None

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if z.ndim != 1 or z.size < 1 or np.any(z <= 0) or not np.all(np.isfinite(z)):
            raise ValidationError("critical values must be positive finite reals")
        if not self.alpha > 0:
            raise ValidationError("alpha must be positive")
        if self.r < 1:
            raise ValidationError("moment order r must be >= 1")
        if self.zeta is not None:
            if not self.zeta > 0:
                raise ValidationError("zeta must be positive")
            if np.any(np.diff(z) > 1e-12):
                raise ValidationError("parametric critical values must be non-increasing")

    @property
    def K(self) -> int:
        return int(self.z.size)

    def full(self, K: int | None = None) -> np.ndarray:
        """z extended by the fixed final value 1."""
        if K is not None and K != self.K:
            raise ValidationError(f"critical values sized for {self.K} steps, needed {K}")
        return np.append(self.z, 1.0)

    def check_risk_hypothesis(self, levels: Levels) -> None:
        """Require z_k * s_k non-increasing (total-risk bound hypothesis).

        Parametric values always satisfy this for non-increasing levels; the
        check guards hand-rolled values before they reach the selection rule.
        """
        zs = self.full(levels.K) * levels.s
        if np.any(np.diff(zs) > 1e-12):
            raise ValidationError("z_k * s_k must be non-increasing in k")


class TestRecord(NamedTuple):
    step: int
    j: int
    statistic: float
    threshold: float
    margin: float


@dataclass(frozen=True)
class SelectionTrace:
    """Everything one selection run produced.

    base holds all window estimates, rings the ring estimates (None for the
    classical rule), tests the executed comparisons in execution order. Every
    test before the selected step has margin <= 0, and when selection stopped
    early the stopping step contains a test with margin > 0.
    """

    base: np.ndarray
    rings: np.ndarray | None
    k_hat: int
    theta_hat: float
    tests: tuple[TestRecord, ...]

    def format_rows(self) -> str:
        lines = ["k j statistic threshold margin"]
        for t in self.tests:
            lines.append(f"{t.step} {t.j} {t.statistic!r} {t.threshold!r} {t.margin!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OracleInfo:
    """Best non-adaptive stopping index for a known signal.

    variations[k] is the total variation of the signal over window k;
    k_star is the first k whose next window varies more than its noise
    allowance z_{k+1} * s_{k+1}, capped at K.
    """

    k_star: int
    variations: np.ndarray


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
        base[k] = locate(y[family.members(k)], loss).value
    for k in range(K):
        rings[k] = locate(y[family.ring(k)], loss).value
    return base, rings


def threshold_table(zf: np.ndarray, scale: np.ndarray, additive) -> np.ndarray:
    """Test thresholds thr[k, j] = zf[j] * scale[k, j] + zf[k+1] * additive[k].

    zf holds the K+1 critical values (the last one closes the final step),
    scale the (K, K) error levels of the step-k statistic against window j,
    additive the level of the step's closing term (0 for the classical rule).
    Leading axes hold one table per family. Entries above the diagonal
    (j > k) are NaN.
    """
    K = scale.shape[-1]
    thr = zf[..., None, :K] * scale + (zf[..., 1: K + 1] * additive)[..., :, None]
    thr[..., ~np.tri(K, dtype=bool)] = np.nan
    return thr


def ring_thresholds(levels: Levels, crit: CriticalValues) -> np.ndarray:
    """Ring-rule thresholds z_j * s_ring[k, j] + z_{k+1} * s[k+1]."""
    return threshold_table(crit.full(levels.K), levels.s_ring, levels.s[1:])


def _pair_thresholds(pair: PairLevels, crit: CriticalValues) -> np.ndarray:
    """Classical-rule thresholds z_j * s_pair[k+1, j]."""
    return threshold_table(crit.full(pair.K), pair.s_pair[1:, : pair.K], 0.0)


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


def _select_scalar(stats: np.ndarray, thr: np.ndarray
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


def select_ring(base, rings, levels: Levels, crit: CriticalValues) -> SelectionTrace:
    """Ring-rule selection for one data realization.

    Accept step k when |ring_k - base_j| <= z_j s_ring[k, j] + z_{k+1} s[k+1]
    for every j <= k; stop at the first rejection and keep the last accepted
    window, capping the index at K.
    """
    base = np.asarray(base, dtype=float)
    rings = np.asarray(rings, dtype=float)
    K = levels.K
    if base.shape != (K + 1,) or rings.shape != (K,):
        raise ValidationError("estimate arrays do not match the level table")
    if crit.zeta is not None:
        crit.check_risk_hypothesis(levels)
    stats = np.abs(rings[:, None] - base[None, :K])
    k_hat, tests = _select_scalar(stats, ring_thresholds(levels, crit))
    return SelectionTrace(base=base, rings=rings, k_hat=k_hat,
                          theta_hat=float(base[k_hat]), tests=tests)


def select_ring_batch(bases: np.ndarray, rings: np.ndarray, levels: Levels,
                      crit: CriticalValues) -> np.ndarray:
    """Selected indices for many realizations at once (rows are replicates)."""
    R = bases.shape[0]
    K = levels.K
    if bases.shape != (R, K + 1) or rings.shape != (R, K):
        raise ValidationError("estimate arrays do not match the level table")
    if crit.zeta is not None:
        crit.check_risk_hypothesis(levels)
    return first_rejection(bases, rings, ring_thresholds(levels, crit))


def select_lepski(base, pair: PairLevels, crit: CriticalValues) -> SelectionTrace:
    """Classical selection: compare the next window estimate with all earlier ones.

    Accept step k when |base_{k+1} - base_l| <= z_l * s_pair[k+1, l] for all
    l <= k. With a single growth step (K = 1) this reduces to a two-sample
    location test on |base_1 - base_0|.
    """
    base = np.asarray(base, dtype=float)
    K = pair.K
    if base.shape != (K + 1,):
        raise ValidationError("estimate array does not match the pair table")
    stats = np.abs(base[1:, None] - base[None, :K])
    k_hat, tests = _select_scalar(stats, _pair_thresholds(pair, crit))
    return SelectionTrace(base=base, rings=None, k_hat=k_hat,
                          theta_hat=float(base[k_hat]), tests=tests)


def select_lepski_batch(bases: np.ndarray, pair: PairLevels,
                        crit: CriticalValues) -> np.ndarray:
    R = bases.shape[0]
    K = pair.K
    if bases.shape != (R, K + 1):
        raise ValidationError("estimate array does not match the pair table")
    return first_rejection(bases, bases[:, 1:], _pair_thresholds(pair, crit))


def oracle_index(g_values, family: WindowFamily, crit: CriticalValues,
                 levels: Levels) -> OracleInfo:
    """Oracle stopping index for a known signal evaluated at the design points."""
    g = np.asarray(g_values, dtype=float)
    if int(family.order.max()) >= g.size:
        raise ValidationError("family indices exceed the signal length")
    K = family.K
    zf = crit.full(K)
    variations = np.empty(K + 1)
    for k in range(K + 1):
        vals = g[family.members(k)]
        variations[k] = float(vals.max() - vals.min())
    k_star = K
    for k in range(K):
        if variations[k + 1] > zf[k + 1] * levels.s[k + 1]:
            k_star = k
            break
    return OracleInfo(k_star=k_star, variations=variations)


def propagation_bound(levels: Levels, crit: CriticalValues, k: int) -> float:
    """Deterministic cap on |theta_hat - base_k| whenever selection ran past k.

    Every accepted step m >= k includes the test against window k, and by
    betweenness the selected estimate stays inside the hull of window k plus
    the accepted ring estimates, so

        |theta_hat - base_k| <= max_{m=k..K-1} (z_k s_ring[m, k] + z_{m+1} s[m+1]).

    The maximum starts at m = k: the step-k test itself is part of the chain
    (dropping it would make the bound fail, for instance at k = K-1).
    """
    K = levels.K
    if not 0 <= k <= K:
        raise ValidationError(f"window index {k} outside 0..{K}")
    if k == K:
        return 0.0
    zf = crit.full(K)
    terms = zf[k] * levels.s_ring[k:, k] + zf[k + 1:] * levels.s[k + 1:]
    return float(terms.max())


def propagation_gap(trace: SelectionTrace, k: int, crit: CriticalValues,
                    levels: Levels) -> tuple[float, float]:
    """(lhs, rhs) of the late-stopping inequality at window k.

    lhs is |theta_hat - base_k| when k < k_hat and 0 by convention otherwise;
    rhs is the deterministic bound from propagation_bound. The contract
    lhs <= rhs holds per realization for losses with partition betweenness.
    """
    rhs = propagation_bound(levels, crit, k)
    if k >= trace.k_hat:
        return 0.0, rhs
    lhs = abs(trace.theta_hat - float(trace.base[k]))
    return lhs, rhs
