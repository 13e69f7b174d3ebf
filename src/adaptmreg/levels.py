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
    "closed_form",
    "closed_form_scale",
    "check_levels_loss",
    "auto_levels_method",
    "levels_exact_mean",
    "levels_asymptotic",
    "levels_mc",
    "pair_levels_exact_mean",
    "pair_levels_asymptotic",
    "pair_levels_mc",
    "simulate_window_estimates",
]

# run counts below which Monte Carlo levels and calibrations fail or warn
MC_MIN_RUNS = 1000
MC_WARN_RUNS = 10000
LEVEL_METHODS = ("exact_mean", "asymptotic", "monte_carlo")
# the losses each closed-form method describes; Monte Carlo levels describe every loss
_CLOSED_FORM_LOSSES = {"exact_mean": ("mean",), "asymptotic": ("median", "quantile")}
WINDOW_LEVELS = "the window levels"
PAIR_LEVELS = "the pair levels"


@dataclass(frozen=True)
class Levels:
    """Error levels for one window family.

    s has one entry per window (K+1 values); s_ring is lower triangular with
    entry [k, j] for j <= k <= K-1 and NaN above the diagonal. Levels scale
    linearly in the noise scale. Monte Carlo levels carry their runs and seed.
    """

    s: np.ndarray
    s_ring: np.ndarray
    method: str
    runs: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float)
        s_ring = np.asarray(self.s_ring, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "s_ring", s_ring)
        _check_provenance(self.method, self.runs, self.seed, WINDOW_LEVELS)
        K = s.size - 1
        if s.ndim != 1 or K < 0 or s_ring.shape != (K, K):
            raise ValidationError("s must have K + 1 entries and s_ring shape (K, K)")
        known = np.append(s, s_ring[np.tril_indices(K)])
        if not np.all(np.isfinite(known) & (known > 0)):
            raise ValidationError("s and s_ring on and below the diagonal must be finite "
                                  "and strictly positive")
        if np.any(np.diff(s) > 0) and self.method != "monte_carlo":
            raise ValidationError("levels must be non-increasing in the window index")

    @property
    def K(self) -> int:
        return int(self.s.size - 1)

    @property
    def warnings(self) -> tuple[str, ...]:
        """The run-count warnings of Monte Carlo levels, and whether they are non-monotone."""
        note = ("monte carlo levels are not monotone in the window index",)
        return (_check_provenance(self.method, self.runs, self.seed, WINDOW_LEVELS)
                + (note if np.any(np.diff(self.s) > 0) else ()))


@dataclass(frozen=True)
class PairLevels:
    """Error levels of differences between two window estimates.

    s_pair[k, j] is the scale of estimate_{k+1} - estimate_j under pure
    noise, for j <= k <= K-1, and NaN above the diagonal: the (step, window)
    layout of Levels.s_ring. method, runs and seed are as for Levels.
    """

    s_pair: np.ndarray
    method: str
    runs: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        sp = np.asarray(self.s_pair, dtype=float)
        object.__setattr__(self, "s_pair", sp)
        _check_provenance(self.method, self.runs, self.seed, PAIR_LEVELS)
        if sp.ndim != 2 or sp.shape[0] != sp.shape[1] or sp.shape[0] < 1:
            raise ValidationError("s_pair must be square with at least one step")
        tril = np.tril_indices(sp.shape[0])
        if np.any(~np.isfinite(sp[tril])) or np.any(sp[tril] <= 0):
            raise ValidationError("pair levels on and below the diagonal must be positive")

    @property
    def K(self) -> int:
        return int(self.s_pair.shape[0])

    @property
    def warnings(self) -> tuple[str, ...]:
        """The run-count warnings of Monte Carlo pair levels."""
        return _check_provenance(self.method, self.runs, self.seed, PAIR_LEVELS)


def _check_provenance(method: str, runs: int | None, seed: int | None, step: str) -> tuple:
    """Refuse provenance that no level builder gives; return check_mc_runs' warnings."""
    if method not in LEVEL_METHODS:
        raise ValidationError(f"unknown method {method!r} of {step}")
    if method != "monte_carlo":
        if runs is not None or seed is not None:
            raise ValidationError(f"{step} are {method}, which has no run count or seed")
        return ()
    if runs is None or seed is None:
        raise ValidationError(f"{step} are monte_carlo, which needs a run count and a seed")
    return check_mc_runs(runs, step)


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


def closed_form(counts, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form levels from window sizes: window, ring and pair levels.

    counts holds the K+1 window sizes N_j, along the last axis of any number
    of families; M_k = N_{k+1} - N_k is the ring size. Returns
    s = c N_j^(-1/2) (..., K+1) and, on one (..., K, K) grid of step k and
    window j <= k with NaN above the diagonal, s_ring = c (1/M_k + 1/N_j)^(1/2)
    (+inf on an empty ring) and s_pair = c (1/N_j - 1/N_{k+1})^(1/2).
    """
    n = np.asarray(counts, dtype=float)
    K = n.shape[-1] - 1
    s = c / np.sqrt(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_ring = c * np.sqrt(1.0 / np.diff(n, axis=-1)[..., :, None] + 1.0 / n[..., None, :K])
        s_pair = c * np.sqrt(1.0 / n[..., None, :K] - 1.0 / n[..., 1:, None])
    above = ~np.tri(K, dtype=bool)
    s_ring[..., above] = s_pair[..., above] = np.nan
    return s, s_ring, s_pair


def check_levels_loss(method: str, loss: LossKind) -> None:
    """Refuse levels whose method describes the estimates of another loss than loss."""
    kinds = _CLOSED_FORM_LOSSES.get(method, (loss.kind,))
    if loss.kind not in kinds:
        raise ValidationError(f"{method.replace('_', ' ')} levels apply to "
                              f"{' and '.join(kinds)} losses")


def auto_levels_method(loss: LossKind) -> str:
    """The method of --levels auto: the first closed form that describes loss, else monte_carlo."""
    return next((m for m, ks in _CLOSED_FORM_LOSSES.items() if loss.kind in ks), "monte_carlo")


def _check_order(r: float) -> None:
    """Refuse a moment order that is not a finite real >= 1."""
    if not math.isfinite(r):
        raise ValidationError(f"moment order r must be finite, got {r!r}")
    if r < 1:
        raise ValidationError("moment order r must be >= 1")


def closed_form_scale(method: str, r: float, loss: LossKind | None = None,
                      noise: NoiseKind | None = None) -> float:
    """The constant c of closed-form levels (closed_form).

    "exact_mean": c = 1, the levels of sample means of unit-variance noise,
    for r = 2 only. "asymptotic": c = c_r * sd0, the normal-limit level of a
    single observation. The sample alpha-quantile over N points is
    asymptotically normal with variance alpha * (1 - alpha) / (f0^2 N), f0
    the noise density at the target quantile, so
    sd0 = (alpha * (1 - alpha))^(1/2) / f0; the r-th moment scale multiplies
    the standard deviation by c_r = (E|Z|^r)^(1/r).
    """
    _check_order(r)
    if method == "exact_mean":
        if r != 2.0:
            raise ValidationError("exact mean levels are only available for r = 2")
        return 1.0
    check_levels_loss(method, loss)
    f0 = density(noise, quantile_point(noise, loss.level))
    if not f0 > 0:
        raise ValidationError("density at the target quantile must be positive")
    c_r = normal_abs_moment(r) ** (1.0 / r)
    sd0 = math.sqrt(loss.level * (1.0 - loss.level)) / f0
    return c_r * sd0


def levels_exact_mean(family: WindowFamily, r: float = 2.0) -> Levels:
    """Exact levels for sample means of unit-variance noise, r = 2 only.

    Windows and their rings are disjoint, so the variances of the difference
    add: s[j] = N_j^(-1/2) and s_ring[k, j] = (1/M_k + 1/N_j)^(1/2) with M_k
    the ring size.
    """
    s, s_ring, _ = closed_form(family.counts, closed_form_scale("exact_mean", r))
    return Levels(s=s, s_ring=s_ring, method="exact_mean")


def levels_asymptotic(family: WindowFamily, loss: LossKind, noise: NoiseKind,
                      r: float = 2.0) -> Levels:
    """Normal-limit levels for median or quantile estimates.

    The exact-mean levels times closed_form_scale; differences combine by
    independence.
    """
    s, s_ring, _ = closed_form(family.counts, closed_form_scale("asymptotic", r, loss, noise))
    return Levels(s=s, s_ring=s_ring, method="asymptotic")


def simulate_window_estimates(family: WindowFamily, loss: LossKind, kind: NoiseKind,
                              runs: int, seed: int,
                              consume: Callable[[int, int, np.ndarray, np.ndarray], None]
                              | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """Pure-noise window and ring estimates, one row per replicate.

    Replicate i draws its noise through noise.sample_rows, from the
    substream of its chunk of seed, so the output is reproducible and
    independent of worker scheduling. Pure noise is exchangeable, hence
    draws are laid out directly in nearest-first window order. For a
    quantile loss the draws are shifted so that the target quantile of the
    noise sits at zero, matching the location model.

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
        shift = quantile_point(kind, loss.level)

    def estimates(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        block = sample_rows(kind, n_max, seed, lo, hi)
        if shift:
            block -= shift
        return window_estimates(block, family.counts, loss)

    if consume is not None:
        run_chunks(lambda lo, hi: consume(lo, hi, *estimates(lo, hi)), runs)
        return None
    bases = np.empty((runs, K + 1))
    rings = np.empty((runs, K))

    def task(lo: int, hi: int) -> None:
        bases[lo:hi], rings[lo:hi] = estimates(lo, hi)

    run_chunks(task, runs)
    return bases, rings


def check_mc_runs(runs: int, step: str) -> tuple[str, ...]:
    """The warnings of a Monte Carlo step (e.g. "the pair levels") run with runs replicates.

    Below MC_WARN_RUNS it warns; below MC_MIN_RUNS it raises ValidationError.
    """
    if runs < MC_MIN_RUNS:
        raise ValidationError(f"need at least {MC_MIN_RUNS} monte carlo runs for {step}, "
                              f"got {runs}")
    if runs < MC_WARN_RUNS:
        return (f"only {runs} monte carlo runs for {step}; estimates may be rough",)
    return ()


def _step_moments(bases: np.ndarray, nxt: np.ndarray, r: float) -> np.ndarray:
    """(K, K) r-th moment scales of nxt[:, k] - bases[:, j], j <= k; NaN above the diagonal.

    nxt holds what each step k compares with the earlier windows: the ring
    estimates for the window levels, the next window estimates bases[:, 1:]
    for the pair levels.
    """
    K = nxt.shape[1]
    out = np.full((K, K), np.nan)
    for k in range(K):
        diffs = np.abs(nxt[:, k, None] - bases[:, : k + 1])
        out[k, : k + 1] = np.mean(diffs ** r, axis=0) ** (1.0 / r)
    return out


def levels_mc(family: WindowFamily, loss: LossKind, kind: NoiseKind, runs: int,
              r: float = 2.0, seed: int = 0) -> Levels:
    """Monte Carlo levels: empirical r-th moments over pure-noise replicates."""
    _check_order(r)
    check_mc_runs(runs, WINDOW_LEVELS)
    bases, rings = simulate_window_estimates(family, loss, kind, runs, seed)
    s = np.mean(np.abs(bases) ** r, axis=0) ** (1.0 / r)
    return Levels(s=s, s_ring=_step_moments(bases, rings, r), method="monte_carlo",
                  runs=runs, seed=seed)


def pair_levels_exact_mean(family: WindowFamily, r: float = 2.0) -> PairLevels:
    """Exact difference levels for nested sample means: sqrt(1/N_j - 1/N_{k+1})."""
    *_, sp = closed_form(family.counts, closed_form_scale("exact_mean", r))
    return PairLevels(s_pair=sp, method="exact_mean")


def pair_levels_asymptotic(family: WindowFamily, loss: LossKind, noise: NoiseKind,
                           r: float = 2.0) -> PairLevels:
    """Normal-limit difference levels for nested median or quantile estimates.

    In the linearized limit the estimate over the larger window behaves like
    the average of indicator terms over its points, so the covariance of the
    nested pair equals the larger window's variance and the difference has
    variance alpha * (1 - alpha) / f0^2 * (1/N_j - 1/N_{k+1}), exactly the shape
    of the sample-mean case.
    """
    *_, sp = closed_form(family.counts, closed_form_scale("asymptotic", r, loss, noise))
    return PairLevels(s_pair=sp, method="asymptotic")


def pair_levels_mc(family: WindowFamily, loss: LossKind, kind: NoiseKind, runs: int,
                   r: float = 2.0, seed: int = 0) -> PairLevels:
    """Monte Carlo difference levels between nested window estimates.

    Nested estimates are dependent, so no independence shortcut applies; the
    moments are taken over joint pure-noise replicates.
    """
    _check_order(r)
    check_mc_runs(runs, PAIR_LEVELS)
    bases, _ = simulate_window_estimates(family, loss, kind, runs, seed)
    return PairLevels(s_pair=_step_moments(bases, bases[:, 1:], r), method="monte_carlo",
                      runs=runs, seed=seed)
