"""Simulation studies: the 1d benchmark and the statistical validation suites.

The benchmark estimates a signal at x = 0 from n equidistant noisy
observations on [-1, 1] and reports, per method, the Monte Carlo median of
the absolute error. Methods: local means or local medians combined with
either the classical selection rule or the ring rule, plus the fixed oracle
window. Calibration artifacts are produced once (for Laplace noise) and
reused unchanged for the other noise laws, which is exactly the robustness
point the benchmark is after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .calibration import CalibArtifact
from .errors import ValidationError
from .levels import normal_abs_moment, simulate_window_estimates
from .losses import LossKind, locate_rows, window_estimates
from .noise import NoiseKind, cdf, density, sample_rows
from .parallel import run_chunks
from .selector import SelectionTrace, _one_row, select_lepski_batch, select_ring_batch
from .windows import WindowFamily, equidistant_design

__all__ = [
    "METHODS",
    "CALIBRATED_METHODS",
    "signal_step",
    "signal_smooth",
    "ExperimentSpec",
    "csv_text",
    "BenchRow",
    "BenchmarkReport",
    "replicate_rows",
    "run_benchmark",
    "SampleRow",
    "TwoSampleReport",
    "two_sample_study",
    "MomentRow",
    "median_moment_study",
    "TailRow",
    "tail_study",
]

# fixed reporting order of the benchmark methods
METHODS = ("mean_lepski", "mean_ring", "median_lepski", "median_ring", "median_oracle")
# the methods that select with a calibration artifact, all but the fixed oracle window
CALIBRATED_METHODS = tuple(m for m in METHODS if m != "median_oracle")

ORACLE_HALFWIDTH = {1: 0.2, 2: 0.39}


def signal_step(x: np.ndarray) -> np.ndarray:
    """Change-point example: 0 on |x| <= 0.2 and 2 outside."""
    return np.where(np.abs(x) <= 0.2, 0.0, 2.0)


def signal_smooth(x: np.ndarray) -> np.ndarray:
    """Smooth example 2 x (x + 1), a caricature of a C2 function near 0."""
    return 2.0 * x * (x + 1.0)


SIGNALS: dict[int, Callable[[np.ndarray], np.ndarray]] = {1: signal_step, 2: signal_smooth}


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark run: which example, noise, size and methods."""

    example: int
    noise: NoiseKind
    n: int = 200
    runs: int = 1000
    methods: tuple[str, ...] = METHODS
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValidationError("methods must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValidationError(f"unknown methods {unknown}")
        if self.example not in SIGNALS:
            raise ValidationError("example must be 1 or 2")
        if self.runs < 1:
            raise ValidationError("runs must be positive")


def csv_text(row_type: type, rows: Sequence) -> str:
    """CSV of rows of a dataclass: its field names as the header, then one line each.

    Floats print as repr(float(v)), which reads back exactly; the rest with str.
    """
    names = [f.name for f in fields(row_type)]
    lines = [",".join(names)]
    for row in rows:
        values = (getattr(row, name) for name in names)
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in values))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BenchRow:
    example: str
    noise: str
    method: str
    mc_median_abs_error: float
    runs: int
    seed: int


@dataclass(frozen=True)
class BenchmarkReport:
    """The benchmark rows, plus each calibrated method's selection trace of replicate 0."""

    rows: tuple[BenchRow, ...]
    traces: Mapping[str, SelectionTrace]


def _check_artifacts(spec: ExperimentSpec, calib: Mapping[str, CalibArtifact]
                     ) -> tuple[WindowFamily | None, dict[str, CalibArtifact]]:
    """The artifacts' window family, and the artifact of each method that needs one.

    A method's artifact must be calibrated for the loss and rule its name
    gives, over a line1d family of spec's n design points, and all the same
    family. An oracle-only run has no family: no method selects.
    """
    needed = {m: calib.get(m) for m in spec.methods if m in CALIBRATED_METHODS}
    missing = [m for m, art in needed.items() if art is None]
    if missing:
        raise ValidationError(f"missing calibration artifacts for {missing}")
    family = None
    for m, art in needed.items():
        cfg = art.config
        if (cfg.loss.kind, cfg.rule) != tuple(m.split("_")):
            raise ValidationError(f"artifact for {m} was calibrated as "
                                  f"{cfg.loss.kind}/{cfg.rule}")
        if (cfg.family_kind, cfg.family_meta.get("n")) != ("line1d", spec.n):
            raise ValidationError(f"artifact for {m} does not match an n={spec.n} design "
                                  "centred at 0")
        if family is None:
            family = cfg.family
        elif not np.array_equal(family.counts, cfg.family.counts):
            raise ValidationError("calibration artifacts use different window families")
    return family, needed


def replicate_rows(spec: ExperimentSpec, g: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Replicates lo..hi-1 of spec, one row each: the signal g plus noise.sample_rows.

    The benchmark and the simulate command both draw here, so replicate i
    holds the same data wherever it appears.
    """
    return g + sample_rows(spec.noise, spec.n, spec.seed, lo, hi)


@dataclass(frozen=True)
class SampleRow:
    """One design point of a simulated replicate: index, location, signal, observation."""

    i: int
    x: float
    g: float
    y: float


def run_benchmark(spec: ExperimentSpec, calib: Mapping[str, CalibArtifact]
                  ) -> BenchmarkReport:
    """Monte Carlo median absolute error at x = 0 for each requested method.

    Windows are gathered and estimated only when some method selects. The
    chunk holding replicate 0 traces each one's selection on that replicate
    from its batch's own k_hat. An oracle window with no design point is refused.
    """
    family, calibrated = _check_artifacts(spec, calib)
    xs = equidistant_design(spec.n)
    g = SIGNALS[spec.example](xs)
    theta = float(SIGNALS[spec.example](np.zeros(1))[0])
    oracle_idx = np.flatnonzero(np.abs(xs) <= ORACLE_HALFWIDTH[spec.example] + 1e-12)
    if "median_oracle" in spec.methods and oracle_idx.size == 0:
        raise ValidationError(f"the oracle window of half-width {ORACLE_HALFWIDTH[spec.example]!r}"
                              f" holds no point of the n={spec.n} design")

    losses = dict.fromkeys(art.config.loss for art in calibrated.values())
    errors = {m: np.empty(spec.runs) for m in spec.methods}
    traces: dict[str, SelectionTrace] = {}

    def task(lo: int, hi: int) -> None:
        y = replicate_rows(spec, g, lo, hi)
        if calibrated:
            # np.take gathers in C order (y[:, order] is column-major), so that a
            # mean row sums as locate() sums it alone
            yw = np.take(y, family.order, axis=1)
            estimates = {loss: window_estimates(yw, family.counts, loss) for loss in losses}
        for method, art in calibrated.items():
            bases, rings = estimates[art.config.loss]
            lepski = art.config.rule == "lepski"
            if lepski:
                k_hat = select_lepski_batch(bases, art.pair, art.crit)
            else:
                k_hat = select_ring_batch(bases, rings, art.levels, art.crit)
            theta_hat = np.take_along_axis(bases, k_hat[:, None], axis=1)[:, 0]
            errors[method][lo:hi] = np.abs(theta_hat - theta)
            if lo == 0:
                traces[method] = _one_row(art.config.rule, bases[0], None if lepski else rings[0],
                                          int(k_hat[0]), art.levels, art.pair, art.crit)
        if "median_oracle" in spec.methods:
            est = locate_rows(y[:, oracle_idx], LossKind.median())
            errors["median_oracle"][lo:hi] = np.abs(est - theta)

    run_chunks(task, spec.runs)
    rows = tuple(
        BenchRow(str(spec.example), spec.noise.label, m,
                 float(np.median(errors[m])), spec.runs, spec.seed)
        for m in METHODS if m in spec.methods)
    return BenchmarkReport(rows=rows, traces=traces)


# ----------------------------------------------------------------------------
# two-sample location test variances
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSampleReport:
    """Monte Carlo and formula variances of the two test statistics.

    var_w is for the difference of the two within-sample medians (centered
    at the shift); var_l for twice the pooled-minus-first-sample median
    difference, centered the same way. The formula values are the limiting
    variances 1 / (2 f(0)^2) and the pooled-statistic expression in terms of
    the cdf and density at half the shift.
    """

    kind: str
    delta: float
    n: int
    runs: int
    seed: int
    var_w_mc: float
    var_l_mc: float
    var_w_formula: float
    var_l_formula: float


def pooled_variance_formula(kind: NoiseKind, delta: float) -> float:
    """Limit variance of the pooled two-sample median statistic at shift delta."""
    f0 = density(kind, 0.0)
    fd = density(kind, delta / 2.0)
    Fd = cdf(kind, delta / 2.0)
    return (2.0 * Fd * (1.0 - Fd) / fd ** 2 + 1.0 / f0 ** 2
            - 2.0 * (1.0 - Fd) / (f0 * fd))


def two_sample_study(kind: NoiseKind, delta: float, n: int, runs: int,
                     seed: int) -> TwoSampleReport:
    """Compare the two-sample median test statistics under a location shift.

    Sample one is pure noise, sample two is noise plus delta; in one row they
    are window 0 and its ring, and the pooled sample is window 1. The study
    records sqrt(n)-scaled variances of both statistics over the replicates
    together with their limiting formula values.
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise ValidationError(f"delta must be finite and nonnegative, got {delta!r}")
    if n < 2 or runs < 2:
        raise ValidationError("need n >= 2 and runs >= 2")
    med = LossKind.median()
    stat_w = np.empty(runs)
    stat_l = np.empty(runs)

    def task(lo: int, hi: int) -> None:
        block = sample_rows(kind, 2 * n, seed, lo, hi)
        block[:, n:] += delta
        (med1, med_all), (med2,) = (v.T for v in window_estimates(block, [n, 2 * n], med))
        root_n = math.sqrt(n)
        stat_w[lo:hi] = root_n * (med2 - med1 - delta)
        stat_l[lo:hi] = root_n * (2.0 * (med_all - med1) - delta)

    run_chunks(task, runs)
    f0 = density(kind, 0.0)
    return TwoSampleReport(
        kind=kind.label, delta=delta, n=n, runs=runs, seed=seed,
        var_w_mc=float(stat_w.var(ddof=1)),
        var_l_mc=float(stat_l.var(ddof=1)),
        var_w_formula=1.0 / (2.0 * f0 ** 2),
        var_l_formula=pooled_variance_formula(kind, delta))


# ----------------------------------------------------------------------------
# sample median moments and tails
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentRow:
    kind: str
    r: float
    n_points: int
    runs: int
    seed: int
    raw_moment: float
    normalized_moment: float


def _median_samples(kind: NoiseKind, n: int, runs: int, seed: int) -> np.ndarray:
    one_window = WindowFamily(np.arange(n), [n])
    return simulate_window_estimates(one_window, LossKind.median(), kind, runs, seed)[0][:, 0]


def median_moment_study(kind: NoiseKind, Ns: Sequence[int], r: float, runs: int,
                        seed: int) -> tuple[MomentRow, ...]:
    """Normalized r-th moments of the sample median over pure noise.

    For each odd N the raw moment E|med|^r is scaled by (2 f(0) sqrt(N))^r
    and divided by E|Z|^r, so the normal limit puts the ratio at 1; the ratio
    staying flat in N checks the N^(-r/2) moment scaling.
    """
    if not Ns:
        raise ValidationError("the moment study needs at least one sample size")
    if any(n % 2 == 0 or n < 1 for n in Ns):
        raise ValidationError("sample sizes must be odd and positive")
    if runs < 2:
        raise ValidationError("need at least 2 runs")
    if not math.isfinite(r):
        raise ValidationError(f"moment order r must be finite, got {r!r}")
    f0 = density(kind, 0.0)
    ez = normal_abs_moment(r)
    rows = []
    for n in Ns:
        med = _median_samples(kind, int(n), runs, seed)
        raw = float(np.mean(np.abs(med) ** r))
        normalized = raw * (2.0 * f0 * math.sqrt(n)) ** r / ez
        rows.append(MomentRow(kind.label, float(r), int(n), runs, seed, raw, normalized))
    return tuple(rows)


@dataclass(frozen=True)
class TailRow:
    kind: str
    n_points: int
    tau: float
    runs: int
    seed: int
    exceedance: float
    bound: float


def tail_study(kind: NoiseKind, n: int, taus: Sequence[float], runs: int,
               seed: int) -> tuple[TailRow, ...]:
    """Exceedance of the scaled sample median versus the 2 exp(-tau^2 / 8) cap."""
    if n % 2 == 0 or n < 1:
        raise ValidationError("sample size must be odd and positive")
    taus = [float(t) for t in taus]
    if not taus:
        raise ValidationError("the tail study needs at least one tau")
    if not all(0 <= t <= math.sqrt(n) / 2.0 for t in taus):
        raise ValidationError("need 0 <= tau <= sqrt(N) / 2")
    if runs < 1:
        raise ValidationError("runs must be positive")
    med = _median_samples(kind, n, runs, seed)
    scaled = 2.0 * math.sqrt(n) * density(kind, 0.0) * np.abs(med)
    return tuple(
        TailRow(kind.label, n, t, runs, seed, float(np.mean(scaled > t)),
                float(2.0 * math.exp(-t * t / 8.0)))
        for t in taus)
