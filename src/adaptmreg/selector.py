"""Sequential window selection.

Two rules are implemented. The ring rule grows the window while the
estimate over each newly added ring stays within threshold of every earlier
window estimate; the test at step k against window j uses the threshold
z_j * s_ring[k, j] + z_{k+1} * s[k+1], with the final critical value pinned
to 1 so that bias and noise balance at the last step. The classical rule
(Lepski's method) instead compares the next window estimate against all
earlier window estimates with thresholds z_l * s_pair[k+1, l].

Both rules stop at the first rejected step and keep the last accepted
window. _rule_terms says what a rule tests, _step_rejections runs the tests
step by step; the batched selectors and the calibration build on them, and
select_ring / select_lepski trace one row through the batched path.
Selection is deterministic given the inputs, and because the location
estimators satisfy partition betweenness, the extra error from stopping late
is bounded per realization (see propagation_gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .levels import Levels, PairLevels

__all__ = [
    "CriticalValues",
    "TestRecord",
    "SelectionTrace",
    "threshold_table",
    "first_rejection",
    "select_ring",
    "select_ring_batch",
    "select_lepski",
    "select_lepski_batch",
    "propagation_bound",
    "propagation_gap",
]


@dataclass(frozen=True)
class CriticalValues:
    """Test thresholds z_0 .. z_{K-1}; the implicit z_K is fixed at 1.

    zeta is set when the values come from the one-parameter family
    z_k^2 = zeta * (2 r log(s_k / s_K) + log(1/alpha) + log K), with r and
    alpha those of the calibration's CalibConfig; such values are
    non-increasing in k by construction and this is enforced.
    """

    z: np.ndarray
    zeta: float | None = None

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if z.ndim != 1 or z.size < 1 or np.any(z <= 0) or not np.all(np.isfinite(z)):
            raise ValidationError("critical values must be positive finite reals")
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


def _rule_terms(rule: str, bases: np.ndarray, rings: np.ndarray | None,
                levels: Levels | None, pair: PairLevels | None):
    """What a rule tests: (nxt, scale, additive) for threshold_table.

    Step k compares nxt[:, k] with every window estimate bases[:, j], j <= k.
    The ring rule tests the ring estimates against s_ring[k, j] and closes
    the step with s[k+1]; the classical rule ("lepski") tests the next window
    estimate against s_pair[k+1, j], with no closing term. bases holds one
    row of K+1 window estimates per realization; the classical rule may pass
    levels=None.
    """
    K = bases.shape[-1] - 1
    if bases.ndim != 2 or (levels is not None and levels.K != K):
        raise ValidationError("estimate arrays do not match the level table")
    if rule == "ring":
        if rings.shape != (bases.shape[0], K):
            raise ValidationError("estimate arrays do not match the level table")
        return rings, levels.s_ring, levels.s[1:]
    if pair is None:
        raise ValidationError("the classical rule needs pair levels")
    if pair.K != K:
        raise ValidationError("estimate array does not match the pair table")
    return bases[:, 1:], pair.s_pair[1:, :K], 0.0


def _step_rejections(bases: np.ndarray, nxt: np.ndarray, thr: np.ndarray):
    """Yield (k, exceed) for every step k: exceed[j, i] is |nxt[i, k] - bases[i, j]| > thr[k, j].

    This is the one place the window test is written. exceed has shape
    (k + 1, rows); row i rejects at step k when any exceed[:, i] holds, and
    its first rejecting window is exceed[:, i].argmax(). thr is (K, K) or
    window-major (K, K, rows), as for first_rejection. The loop is
    window-major too: bases[:, :K] and nxt are copied once to (K, rows), so
    step k compares k + 1 contiguous rows. A caller that needs only the
    first rejection stops early.
    """
    rows, K = nxt.shape
    if thr.shape not in ((K, K), (K, K, rows)):
        raise ValidationError("threshold table is neither (K, K) nor (K, K, rows)")
    thr = thr.reshape(K, K, -1)
    bases_t = np.ascontiguousarray(bases[:, :K].T)
    nxt_t = np.ascontiguousarray(nxt.T)
    for k in range(K):
        yield k, np.abs(nxt_t[k] - bases_t[: k + 1]) > thr[k, : k + 1]


def first_rejection(bases: np.ndarray, nxt: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Batched stopping loop: the first step k with a rejected test, K if none.

    Row i rejects at step k when |nxt[i, k] - bases[i, j]| > thr[k, j] for
    some j <= k; a window-major (K, K, rows) thr gives row i the table
    thr[:, :, i]. The ring rule passes the ring estimates as nxt, the
    classical rule the next window estimates bases[:, 1:]. A NaN statistic
    never rejects.
    """
    k_hat = np.full(bases.shape[0], thr.shape[0], dtype=np.int64)
    undecided = np.ones(bases.shape[0], dtype=bool)
    for k, exceed in _step_rejections(bases, nxt, thr):
        reject = exceed.any(axis=0)
        k_hat[undecided & reject] = k
        undecided &= ~reject
        if not undecided.any():
            break
    return k_hat


def select_ring_batch(bases: np.ndarray, rings: np.ndarray, levels: Levels,
                      crit: CriticalValues) -> np.ndarray:
    """Ring-rule selected indices for many realizations (rows are replicates).

    Accept step k when |ring_k - base_j| <= z_j s_ring[k, j] + z_{k+1} s[k+1]
    for every j <= k; stop at the first rejection and keep the last accepted
    window, capping the index at K.
    """
    nxt, scale, additive = _rule_terms("ring", bases, rings, levels, None)
    if crit.zeta is not None:
        crit.check_risk_hypothesis(levels)
    return first_rejection(bases, nxt, threshold_table(crit.full(levels.K), scale, additive))


def select_lepski_batch(bases: np.ndarray, pair: PairLevels,
                        crit: CriticalValues) -> np.ndarray:
    """Classical-rule selected indices: compare the next window estimate with all earlier ones.

    Accept step k when |base_{k+1} - base_l| <= z_l * s_pair[k+1, l] for all
    l <= k. With a single growth step (K = 1) this reduces to a two-sample
    location test on |base_1 - base_0|.
    """
    nxt, scale, additive = _rule_terms("lepski", bases, None, None, pair)
    return first_rejection(bases, nxt, threshold_table(crit.full(pair.K), scale, additive))


def _one_row(rule: str, base: np.ndarray, rings: np.ndarray | None, k_hat: int,
             levels: Levels | None, pair: PairLevels | None,
             crit: CriticalValues) -> SelectionTrace:
    """The trace of one row that select_*_batch assigned k_hat.

    Within a step the tests run from j = k down to 0 (the most recent window
    gives the most powerful test). The records hold every test of the steps
    before k_hat, then those of step k_hat up to the first one rejecting.
    """
    nxt, scale, additive = _rule_terms(rule, base[None], None if rings is None
                                       else rings[None], levels, pair)
    K = scale.shape[0]
    thr = threshold_table(crit.full(K), scale, additive)
    stats = np.abs(nxt[0, :, None] - base[None, :K])
    step, j = np.tril_indices(K)
    j = step - j
    margin = stats[step, j] - thr[step, j]
    n = k_hat * (k_hat + 1) // 2
    if k_hat < K:
        n += int(np.argmax(margin[n: n + k_hat + 1] > 0.0)) + 1
    tests = tuple(TestRecord(int(a), int(b), float(stats[a, b]), float(thr[a, b]), float(m))
                  for a, b, m in zip(step[:n], j[:n], margin[:n]))
    return SelectionTrace(base=base, rings=rings, k_hat=k_hat,
                          theta_hat=float(base[k_hat]), tests=tests)


def select_ring(base, rings, levels: Levels, crit: CriticalValues) -> SelectionTrace:
    """Ring-rule selection for one data realization: select_ring_batch on one row."""
    base = np.asarray(base, dtype=float)
    rings = np.asarray(rings, dtype=float)
    k_hat = int(select_ring_batch(base[None], rings[None], levels, crit)[0])
    return _one_row("ring", base, rings, k_hat, levels, None, crit)


def select_lepski(base, pair: PairLevels, crit: CriticalValues) -> SelectionTrace:
    """Classical selection for one data realization: select_lepski_batch on one row."""
    base = np.asarray(base, dtype=float)
    k_hat = int(select_lepski_batch(base[None], pair, crit)[0])
    return _one_row("lepski", base, None, k_hat, None, pair, crit)


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
