"""Stochastic error levels of the window and ring estimators under pure noise.

s[j] is the r-th-moment scale of the window-j estimate when the signal is
identically zero; s_ring[k, j] is the scale of the difference between the
ring-k estimate and the window-j estimate (defined for j <= k). Three
methods: exact formulas for unit-variance sample means, normal-limit
asymptotics for medians and quantiles, and plain Monte Carlo for anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .losses import LossKind, window_estimates
from .noise import NoiseKind, density, quantile_point, sample_rows
from .parallel import run_chunks
from .windows import WindowFamily

__all__ = [
    "Levels",
    "PairLevels",
    "normal_abs_moment",
    "target_density",
    "closed_form",
    "asymptotic_scale",
    "levels_exact_mean",
    "levels_asymptotic",
    "levels_mc",
    "pair_levels_exact_mean",
    "pair_levels_asymptotic",
    "pair_levels_mc",
    "simulate_window_estimates",
]

MC_WARN_RUNS = 10000


@dataclass(frozen=True)
class Levels:
    """Error levels for one window family.

    s has one entry per window (K+1 values); s_ring is lower triangular with
    entry [k, j] for j <= k <= K-1 and NaN above the diagonal. Levels scale
    linearly in the noise scale.
    """

    r: float
    s: np.ndarray
    s_ring: np.ndarray
    method: str
    runs: int | None = None
    seed: int | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float)
        s_ring = np.asarray(self.s_ring, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "s_ring", s_ring)
        if self.r < 1:
            raise ValidationError("moment order r must be >= 1")
        if s.ndim != 1 or s.size < 1 or np.any(s <= 0):
            raise ValidationError("s must be strictly positive")
        K = s.size - 1
        if s_ring.shape != (K, K):
            raise ValidationError(f"s_ring must have shape ({K}, {K})")
        if np.any(np.diff(s) > 0):
            if self.method == "monte_carlo":
                object.__setattr__(
                    self, "warnings",
                    self.warnings + ("monte carlo levels are not monotone in the window index",))
            else:
                raise ValidationError("levels must be non-increasing in the window index")

    @property
    def K(self) -> int:
        return int(self.s.size - 1)


@dataclass(frozen=True)
class PairLevels:
    """Error levels of differences between two window estimates.

    s_pair[m, l] is the scale of estimate_m - estimate_l under pure noise,
    defined for l < m; NaN elsewhere.
    """

    r: float
    s_pair: np.ndarray
    method: str
    runs: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        sp = np.asarray(self.s_pair, dtype=float)
        object.__setattr__(self, "s_pair", sp)
        if sp.ndim != 2 or sp.shape[0] != sp.shape[1] or sp.shape[0] < 2:
            raise ValidationError("s_pair must be square with at least two windows")
        tril = np.tril_indices(sp.shape[0], k=-1)
        if np.any(~np.isfinite(sp[tril])) or np.any(sp[tril] <= 0):
            raise ValidationError("pair levels below the diagonal must be positive")

    @property
    def K(self) -> int:
        return int(self.s_pair.shape[0] - 1)


def normal_abs_moment(r: float) -> float:
    """E|Z|^r for a standard normal Z.

    2^(r/2) Gamma((r + 1)/2) / sqrt(pi) in general, and exactly the double
    factorial (r - 1)!! for even integer r, so the default r = 2 gives 1.0.
    """
    if r < 0:
        raise ValidationError("moment order must be nonnegative")
    if float(r).is_integer() and int(r) % 2 == 0:
        return float(math.prod(range(int(r) - 1, 0, -2)))
    return 2.0 ** (r / 2.0) * math.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)


def target_density(noise: NoiseKind, loss: LossKind) -> float:
    """Standardized noise density at the loss's target quantile (f0 of the asymptotics)."""
    return density(noise, quantile_point(noise, loss.level))


def closed_form(counts, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form levels c N_j^(-1/2) and c (1/M_k + 1/N_j)^(1/2) from window sizes.

    counts holds the K+1 window sizes N_j, along the last axis of any number
    of families; M_k = N_{k+1} - N_k is the ring size. Returns s (..., K+1)
    and s_ring (..., K, K), NaN above the diagonal, +inf on an empty ring.
    """
    n = np.asarray(counts, dtype=float)
    K = n.shape[-1] - 1
    s = c / np.sqrt(n)
    with np.errstate(divide="ignore"):
        s_ring = c * np.sqrt(1.0 / np.diff(n, axis=-1)[..., :, None] + 1.0 / n[..., None, :K])
    s_ring[..., ~np.tri(K, dtype=bool)] = np.nan
    return s, s_ring


def _pair_closed_form(counts, c: float) -> np.ndarray:
    """Closed-form difference levels c (1/N_l - 1/N_m)^(1/2), for l < m only."""
    n = np.asarray(counts, dtype=float)
    with np.errstate(invalid="ignore"):
        sp = c * np.sqrt(1.0 / n[None, :] - 1.0 / n[:, None])
    sp[~np.tri(n.size, k=-1, dtype=bool)] = np.nan
    return sp


def asymptotic_scale(loss: LossKind, f0: float, r: float = 2.0) -> float:
    """c_r * sd0: the normal-limit level of a single observation.

    The sample alpha-quantile over N points is asymptotically normal with
    variance alpha * (1 - alpha) / (f0^2 N), f0 the density at the target
    quantile, so sd0 = (alpha * (1 - alpha))^(1/2) / f0. The r-th moment
    scale multiplies the standard deviation by c_r = (E|Z|^r)^(1/r).
    """
    if loss.kind not in ("median", "quantile"):
        raise ValidationError("asymptotic levels apply to median and quantile losses")
    if not f0 > 0:
        raise ValidationError("density at the target quantile must be positive")
    c_r = normal_abs_moment(r) ** (1.0 / r)
    sd0 = math.sqrt(loss.level * (1.0 - loss.level)) / f0
    return c_r * sd0


def _require_r2(r: float, what: str) -> None:
    if r != 2.0:
        raise ValidationError(f"exact mean {what} are only available for r = 2")


def levels_exact_mean(family: WindowFamily, r: float = 2.0) -> Levels:
    """Exact levels for sample means of unit-variance noise, r = 2 only.

    Windows and their rings are disjoint, so the variances of the difference
    add: s[j] = N_j^(-1/2) and s_ring[k, j] = (1/M_k + 1/N_j)^(1/2) with M_k
    the ring size.
    """
    _require_r2(r, "levels")
    s, s_ring = closed_form(family.counts, 1.0)
    return Levels(r=2.0, s=s, s_ring=s_ring, method="exact_mean")


def levels_asymptotic(family: WindowFamily, loss: LossKind, f0: float,
                      r: float = 2.0) -> Levels:
    """Normal-limit levels for median or quantile estimates.

    The exact-mean levels times asymptotic_scale; differences combine by
    independence.
    """
    s, s_ring = closed_form(family.counts, asymptotic_scale(loss, f0, r))
    return Levels(r=float(r), s=s, s_ring=s_ring, method="asymptotic")


def simulate_window_estimates(family: WindowFamily, loss: LossKind, kind: NoiseKind,
                              runs: int, seed: int, workers: int | None = None,
                              consume: Callable[[int, int, np.ndarray, np.ndarray], None]
                              | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """Pure-noise window and ring estimates, one row per replicate.

    Replicate i draws its noise from substream i of seed, so the output is
    reproducible and independent of worker scheduling. Pure noise is
    exchangeable, hence draws are laid out directly in nearest-first window
    order. For a quantile loss the draws are shifted so that the target
    quantile of the noise sits at zero, matching the location model.

    Without consume, returns the stacked (bases, rings) of shapes (runs, K+1)
    and (runs, K). With it, nothing is stacked: each chunk of the fixed grid
    calls consume(lo, hi, bases, rings) with the estimates of replicates
    lo..hi-1, on whichever worker ran the chunk, and the function returns
    None. The consumer must write only into slots lo..hi-1 of its outputs.
    """
    if runs < 1:
        raise ValidationError("runs must be positive")
    K = family.K
    n_max = int(family.counts[-1])
    shift = 0.0
    if loss.kind == "quantile":
        shift = quantile_point(kind, loss.alpha) * kind.scale

    def estimates(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        block = sample_rows(kind, n_max, seed, lo, hi)
        if shift:
            block -= shift
        return window_estimates(block, family.counts, loss)

    if consume is not None:
        run_chunks(lambda lo, hi: consume(lo, hi, *estimates(lo, hi)), runs, workers)
        return None
    bases = np.empty((runs, K + 1))
    rings = np.empty((runs, K))

    def task(lo: int, hi: int) -> None:
        bases[lo:hi], rings[lo:hi] = estimates(lo, hi)

    run_chunks(task, runs, workers)
    return bases, rings


def _mc_runs_check(runs: int) -> tuple[str, ...]:
    if runs < 1000:
        raise ValidationError("monte carlo levels need at least 1000 runs")
    if runs < MC_WARN_RUNS:
        return (f"only {runs} monte carlo runs; estimates may be rough",)
    return ()


def levels_mc(family: WindowFamily, loss: LossKind, kind: NoiseKind, runs: int,
              r: float = 2.0, seed: int = 0, workers: int | None = None) -> Levels:
    """Monte Carlo levels: empirical r-th moments over pure-noise replicates."""
    warnings = _mc_runs_check(runs)
    bases, rings = simulate_window_estimates(family, loss, kind, runs, seed, workers)
    K = family.K
    s = np.mean(np.abs(bases) ** r, axis=0) ** (1.0 / r)
    s_ring = np.full((K, K), np.nan)
    for k in range(K):
        diffs = np.abs(rings[:, k, None] - bases[:, : k + 1])
        s_ring[k, : k + 1] = np.mean(diffs ** r, axis=0) ** (1.0 / r)
    return Levels(r=float(r), s=s, s_ring=s_ring, method="monte_carlo",
                  runs=runs, seed=seed, warnings=warnings)


def pair_levels_exact_mean(family: WindowFamily, r: float = 2.0) -> PairLevels:
    """Exact difference levels for nested sample means: sqrt(1/N_l - 1/N_m)."""
    _require_r2(r, "pair levels")
    return PairLevels(r=2.0, s_pair=_pair_closed_form(family.counts, 1.0),
                      method="exact_mean")


def pair_levels_asymptotic(family: WindowFamily, loss: LossKind, f0: float,
                           r: float = 2.0) -> PairLevels:
    """Normal-limit difference levels for nested median or quantile estimates.

    In the linearized limit the estimate over the larger window behaves like
    the average of indicator terms over its points, so the covariance of the
    nested pair equals the larger window's variance and the difference has
    variance alpha * (1 - alpha) / f0^2 * (1/N_l - 1/N_m), exactly the shape
    of the sample-mean case.
    """
    sp = _pair_closed_form(family.counts, asymptotic_scale(loss, f0, r))
    return PairLevels(r=float(r), s_pair=sp, method="asymptotic")


def pair_levels_mc(family: WindowFamily, loss: LossKind, kind: NoiseKind, runs: int,
                   r: float = 2.0, seed: int = 0, workers: int | None = None) -> PairLevels:
    """Monte Carlo difference levels between nested window estimates.

    Nested estimates are dependent, so no independence shortcut applies; the
    moments are taken over joint pure-noise replicates.
    """
    _mc_runs_check(runs)
    bases, _ = simulate_window_estimates(family, loss, kind, runs, seed, workers)
    K = family.K
    sp = np.full((K + 1, K + 1), np.nan)
    for m in range(1, K + 1):
        diffs = np.abs(bases[:, m, None] - bases[:, :m])
        sp[m, :m] = np.mean(diffs ** r, axis=0) ** (1.0 / r)
    return PairLevels(r=float(r), s_pair=sp, method="monte_carlo", runs=runs, seed=seed)
