"""Monte Carlo calibration of the critical values under pure noise.

The error budget requires, with the signal identically zero,

    sum_j E[ |base_j|^r * 1{step j rejects} ] <= alpha * s_K^r,

evaluated on a fixed replicate set (common random numbers), which makes the
left side monotone in the thresholds, so bisection is well posed.

The two search modes bound slightly different event families:

* "zeta" fits the one-parameter family
  z_k^2 = zeta * (2 r log(s_k/s_K) + log(1/alpha) + log K) and bisects the
  smallest zeta meeting the budget, with step j rejecting under the
  thresholds the selection rule actually applies, including the additive
  closing term z_{j+1} * s[j+1] of the ring rule. Calibrating the budget of
  the procedure that actually runs is what lets the ring rule match the
  classical rule for sample means; against bare thresholds the fitted zeta
  roughly doubles and the selector visibly oversmooths.

* "sequential" fixes z_0, z_1, ... in turn, each step spending at most
  alpha/K of the budget, counted at the first rejecting window index. Here
  the rejection events use the bare thresholds z_l * level only: the
  additive term would pull not-yet-determined later values into earlier
  searches. Bare events contain the selection-form events, so a sequential
  calibration is the more conservative of the two.

calibrate returns a checked CalibArtifact on the levels of config's loss, noise and r;
verify_calibration measures the selection-form budget the rule needs on fresh replicates.

A replicate set is kept as the window estimates, what the rule tests
(selector._rule_terms) and the weights |base_j|^r (_replicates). The window
test itself is written once, in selector._step_rejections: _row_totals sums
its per-replicate budget terms for the zeta search, the objective and each
verified chunk, and _shares splits them by the first rejecting window.

Both searches re-test only the replicates they have not settled. Each
replicate's total is non-increasing in the search variable bit for bit:
the thresholds are sums and products of nonnegative values, the total is a
running sum of nonnegative terms, and correctly rounded arithmetic keeps
both monotone. So a total that is equal at the nearest evaluated points
below and above a candidate is that total at the candidate too, and a
total of 0 below it stays 0. Reassembled, the totals give the objective
of a full evaluation to the last bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, ValidationError
from .levels import (LEVEL_METHODS, PAIR_LEVELS, WINDOW_LEVELS, Levels, PairLevels,
                     _check_order, auto_levels_method, check_levels_loss, check_mc_runs,
                     closed_form, closed_form_scale, levels_mc, pair_levels_mc,
                     simulate_window_estimates)
from .losses import LossKind
from .noise import NoiseKind
from .parallel import chunk_ranges
from .selector import CriticalValues, _rule_terms, _step_rejections, threshold_table
from .windows import WindowFamily, build_family_1d, build_family_2d, equidistant_design

__all__ = [
    "CalibConfig",
    "calibrate",
    "verify_calibration",
    "CalibArtifact",
    "build_family",
    "save_artifact",
    "load_artifact",
]

CALIBRATION_STEP = "the calibration"
ZETA_MIN = 1e-6
ZETA_MAX = 100.0
Z_MAX = 100.0
SEARCH_TOL = 1e-3


@dataclass(frozen=True)
class CalibConfig:
    """Inputs of one calibration run.

    family_kind and family_meta describe the window family as an artifact
    saves it; family is what build_family makes of them, built on
    construction (dataclasses.replace builds it again) and kept nowhere else.
    rule selects the statistic being calibrated: "ring" for the ring rule,
    "lepski" for the classical window-difference rule (the same budget
    principle applies to both).
    """

    family_kind: str
    family_meta: dict
    loss: LossKind
    noise: NoiseKind
    r: float = 2.0
    alpha: float = 1.0
    runs: int = 10000
    seed: int = 0
    mode: str = "zeta"
    rule: str = "ring"
    family: WindowFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", build_family(self.family_kind, self.family_meta))
        if not math.isfinite(self.alpha):
            raise ValidationError(f"alpha must be finite, got {self.alpha!r}")
        _check_order(self.r)
        if not self.alpha > 0:
            raise ValidationError("alpha must be positive")
        check_mc_runs(self.runs, CALIBRATION_STEP)
        if self.mode not in ("zeta", "sequential"):
            raise ValidationError(f"unknown calibration mode {self.mode!r}")
        if self.rule not in ("ring", "lepski"):
            raise ValidationError(f"unknown selection rule {self.rule!r}")
        if self.family.K < 1:
            raise ValidationError("calibration needs at least one growth step")

    @property
    def warnings(self) -> tuple[str, ...]:
        """The run-count warnings of the calibration step."""
        return check_mc_runs(self.runs, CALIBRATION_STEP)


def _replicates(config: CalibConfig, levels: Levels, pair: PairLevels | None,
                bases: np.ndarray | None = None, rings: np.ndarray | None = None):
    """A replicate set as the budget reads it: (bases, nxt, scale, additive, weights).

    bases and rings are the (runs, K+1) window and (runs, K) ring estimates
    of simulate_window_estimates, by default the calibration's whole fixed
    replicate set (common random numbers, re-read at every threshold
    candidate). nxt, scale and additive are what config.rule tests
    (selector._rule_terms), and weights[i, j] = |bases[i, j]|^r is what
    replicate i loses when it stops at window j.
    """
    if bases is None:
        bases, rings = simulate_window_estimates(
            config.family, config.loss, config.noise, config.runs, config.seed)
    nxt, scale, additive = _rule_terms(config.rule, bases, rings, levels, pair)
    return bases, nxt, scale, additive, np.abs(bases[:, :nxt.shape[1]]) ** config.r


def _row_totals(bases: np.ndarray, nxt: np.ndarray, weights: np.ndarray,
                thr: np.ndarray) -> np.ndarray:
    """Per-replicate sum over steps j of weights[:, j] * 1{step j rejects} under thr."""
    total = np.zeros(len(weights))
    for j, exceed in _step_rejections(bases, nxt, thr):
        total += weights[:, j] * exceed.any(axis=0)
    return total


def _shares(bases: np.ndarray, nxt: np.ndarray, weights: np.ndarray,
            thr: np.ndarray) -> np.ndarray:
    """The mean of _row_totals split by each step's first rejecting window index."""
    out = np.zeros(nxt.shape[1])
    for j, exceed in _step_rejections(bases, nxt, thr):
        hit = exceed.any(axis=0)
        np.add.at(out, exceed.argmax(axis=0)[hit], weights[hit, j])
    return out / len(weights)


def _zeta_to_z(zeta: float, levels: Levels, alpha: float, r: float) -> np.ndarray:
    """Parametric thresholds; K in the log term is the number of growth steps."""
    K = levels.K
    arg = 2.0 * r * np.log(levels.s[:K] / levels.s[K]) + np.log(1.0 / alpha) + np.log(K)
    arg = np.maximum(arg, 1e-12)
    return np.sqrt(zeta * arg)


def _budget(config: CalibConfig, levels: Levels) -> float:
    return config.alpha * float(levels.s[-1]) ** config.r


def _smallest_passing(totals, runs: int, target: float, cap: float, unattainable) -> float:
    """Smallest x on the search grid whose mean replicate total is <= target.

    totals(x, rows) gives the totals at x of the replicates rows (an index
    array). Returns ZETA_MIN when that already passes. Otherwise doubles
    from 1 until the mean passes, raising CalibrationError(unattainable())
    past cap, then bisects to SEARCH_TOL and keeps the end known to pass.
    Only the replicates that the nearest evaluated x below and above leave
    open are evaluated (see the module docstring), in blocks of
    parallel.CHUNK rows.
    """
    def mean_at(x: float, below: np.ndarray | None, above: np.ndarray | None = None):
        if below is None:
            out, todo = np.empty(runs), np.arange(runs)
        else:
            out = below.copy()
            todo = np.flatnonzero(below != (0.0 if above is None else above))
        for lo, hi in chunk_ranges(todo.size):
            out[todo[lo:hi]] = totals(x, todo[lo:hi])
        return float(out.mean()), out

    value, at_lo = mean_at(ZETA_MIN, None)
    if value <= target:
        return ZETA_MIN
    lo, hi = ZETA_MIN, 1.0
    value, at_hi = mean_at(hi, at_lo)
    while value > target:
        lo, at_lo = hi, at_hi
        hi *= 2.0
        if hi > cap:
            raise CalibrationError(unattainable())
        value, at_hi = mean_at(hi, at_lo)
    while hi - lo > SEARCH_TOL:
        mid = 0.5 * (lo + hi)
        value, at_mid = mean_at(mid, at_lo, at_hi)
        if value <= target:
            hi, at_hi = mid, at_mid
        else:
            lo, at_lo = mid, at_mid
    return hi


def _calibrate_zeta(config: CalibConfig, levels: Levels, pair: PairLevels | None
                    ) -> tuple[CriticalValues, np.ndarray]:
    """The smallest zeta on the bisection grid that meets the budget: (crit, shares)."""
    rises = np.flatnonzero(np.diff(levels.s[:levels.K]) > 0)
    if rises.size:
        # z_k grows with s_k, and the family must give non-increasing z
        k = int(rises[0]) + 1
        raise ValidationError(
            f"Monte Carlo levels are non-monotone at window {k} "
            f"(s[{k}] = {float(levels.s[k])!r} > s[{k - 1}] = {float(levels.s[k - 1])!r}), "
            "so the zeta family would give increasing critical values; "
            "use --levels asymptotic or --mode sequential")
    bases, nxt, scale, additive, weights = _replicates(config, levels, pair)
    budget = _budget(config, levels)

    def thr_of(z: np.ndarray) -> np.ndarray:
        return threshold_table(np.append(z, 1.0), scale, additive)

    def z_of(zeta: float) -> np.ndarray:
        return _zeta_to_z(zeta, levels, config.alpha, config.r)

    zeta = _smallest_passing(
        lambda zeta, rows: _row_totals(bases[rows], nxt[rows], weights[rows],
                                       thr_of(z_of(zeta))),
        config.runs, budget, ZETA_MAX,
        lambda: (f"budget {budget!r} unattainable with zeta <= {ZETA_MAX}: lhs at the cap is "
                 f"{float(_row_totals(bases, nxt, weights, thr_of(z_of(ZETA_MAX))).mean())!r}"))
    z = z_of(zeta)
    return CriticalValues(z=z, zeta=zeta), _shares(bases, nxt, weights, thr_of(z))


def _calibrate_sequential(config: CalibConfig, levels: Levels, pair: PairLevels | None
                          ) -> tuple[CriticalValues, np.ndarray]:
    """Fix z_0, z_1, ... in turn, each spending at most alpha/K of the budget.

    The step-k error only counts replicates whose tests against windows
    before k all accepted, so the shares partition the global condition.
    Events use the bare thresholds z_l * level: the k-th search must not
    depend on later values, and the selection rule's extra closing term only
    shrinks events, so the resulting thresholds stay on the safe side.
    """
    bases, nxt, scale, _, weights = _replicates(config, levels, pair)
    K = nxt.shape[1]
    budget = _budget(config, levels)
    per_step = budget / K
    z = np.empty(K)
    # acc[i, j]: step j accepted against every window before the current k
    acc = np.ones((config.runs, K), dtype=bool)
    for k in range(K):
        # the statistics of steps k..K-1 against window k, row-major (runs, K - k)
        raw_k = np.abs(nxt[:, k:] - bases[:, k, None])
        scale_k = scale[k:, k]
        live = acc[:, k:]
        w_k = weights[:, k:]

        def share(zk: float, rows: np.ndarray) -> np.ndarray:
            hit = live[rows] & (raw_k[rows] > zk * scale_k)
            return (w_k[rows] * hit).sum(axis=1)

        z[k] = _smallest_passing(
            share, config.runs, per_step, Z_MAX,
            lambda: f"per-step budget {per_step!r} unattainable at step {k} with z <= {Z_MAX}")
        acc[:, k:] &= raw_k <= z[k] * scale_k
    return CriticalValues(z=z), _shares(bases, nxt, weights,
                                        threshold_table(np.append(z, 1.0), scale, 0.0))


def _closed_form_tables(cfg: CalibConfig, method: str):
    """The window, ring and pair tables of closed-form method for cfg (closed_form)."""
    return closed_form(cfg.family.counts, closed_form_scale(method, cfg.r, cfg.loss, cfg.noise))


def calibrate(config: CalibConfig, levels: str = "auto",
              levels_runs: int | None = None) -> CalibArtifact:
    """config.mode's search on the levels of config's family, loss, noise and r, checked.

    levels names the method ("auto": auto_levels_method's pick) of the window and, for the
    lepski rule, pair levels, refused before any draw if it does not describe the loss;
    Monte Carlo levels draw levels_runs (default config.runs) from seed + 1 and seed + 2.
    """
    family, loss, noise, r = config.family, config.loss, config.noise, config.r
    method = auto_levels_method(loss) if levels == "auto" else levels
    if method not in LEVEL_METHODS:
        raise ValidationError(f"unknown level method {levels!r}")
    if method != "monte_carlo" and levels_runs is not None:
        raise ValidationError(f"a level run count ({levels_runs}) needs Monte Carlo levels, "
                              f"not {method.replace('_', ' ')} levels")
    check_levels_loss(method, loss)
    lepski = config.rule == "lepski"
    if method == "monte_carlo":
        runs = config.runs if levels_runs is None else levels_runs
        lv = levels_mc(family, loss, noise, runs, r, config.seed + 1)
        pair = pair_levels_mc(family, loss, noise, runs, r, config.seed + 2) if lepski else None
    else:
        s, s_ring, s_pair = _closed_form_tables(config, method)
        lv, pair = Levels(s, s_ring, method), PairLevels(s_pair, method) if lepski else None
    search = _calibrate_zeta if config.mode == "zeta" else _calibrate_sequential
    return CalibArtifact(config, *search(config, lv, pair), lv, pair)


def verify_calibration(art: CalibArtifact, *, seed: int,
                       runs: int | None = None) -> tuple[float, tuple[str, ...]]:
    """Out-of-sample budget ratio achieved_lhs / budget of art, on fresh replicates.

    Returns the ratio and the run-count warnings of the verification step,
    which draws art.config.runs replicates unless runs is given. The seed must
    differ from the calibration seed, otherwise the check would just reread
    the replicates the thresholds were fitted to. The replicates are
    streamed: each chunk of simulate_window_estimates gets its totals from
    _row_totals, the function the calibration's objective sums, so memory
    stays at one chunk's estimates per worker plus one float per replicate.
    A replicate's total reads its own row only, so the ratio equals the
    objective over the whole set bit for bit.
    """
    config, levels, pair = art.config, art.levels, art.pair
    if seed == config.seed:
        raise ValidationError("verification needs a seed different from calibration")
    runs = config.runs if runs is None else runs
    warnings = check_mc_runs(runs, "the verification")
    zf = art.crit.full(levels.K)
    total = np.empty(runs)

    def consume(lo: int, hi: int, bases: np.ndarray, rings: np.ndarray) -> None:
        bases, nxt, scale, additive, weights = _replicates(config, levels, pair, bases, rings)
        total[lo:hi] = _row_totals(bases, nxt, weights, threshold_table(zf, scale, additive))

    simulate_window_estimates(config.family, config.loss, config.noise, runs, seed, consume)
    return float(total.mean()) / art.budget, warnings


# ----------------------------------------------------------------------------
# calibration artifacts: a small key/value text format, byte-stable per seed
# ----------------------------------------------------------------------------

FORMAT_TAG = "amreg-calib-v1"
# Version of the location estimators behind an artifact's numbers. Version 2
# solves Huber exactly; version 1 used a bisection, and artifacts without an
# estimator line are version 1.
ESTIMATOR_VERSION = 2
ESTIMATOR_VERSIONS = (1, 2)
# Version of the Monte Carlo noise layout (noise.sample_rows). Version 2
# draws each chunk of replicates as one block from the chunk's substream;
# version 1 drew one substream per replicate, and artifacts without a stream
# line are version 1.
STREAM_VERSION = 2
STREAM_VERSIONS = (1, 2)


@dataclass(frozen=True)
class CalibArtifact:
    """One calibrate run, as saved and reused.

    per_k_error_share[k] is the part of the achieved value (achieved_lhs, their sum)
    whose first rejecting window is k. The family is config's, and the versions are
    ones load_artifact reads. Only zeta mode has a zeta, and its thresholds crit are
    _zeta_to_z of it (to a relative 1e-9: np.log may round differently elsewhere);
    only the lepski rule has pair levels; the levels' methods describe the loss
    (check_levels_loss), and closed-form levels are config's (_closed_form_tables,
    to the same 1e-9). Monte Carlo levels are kept as drawn. Asymptotic ones under
    Student t noise need only be closed_form of the counts at some scale, read from
    s[-1] or s_pair[0, 0]: their own scale would import scipy.stats, which quadruples
    a short verify. The shares are finite, nonnegative and sum to at most
    the budget alpha * s_K^r. Ring-rule zeta thresholds must meet the risk
    hypothesis (z_k * s_k non-increasing), which the ring rule needs: a degenerate
    budget (huge alpha) can push z below the final value.
    """

    config: CalibConfig
    crit: CriticalValues
    per_k_error_share: np.ndarray
    levels: Levels
    pair: PairLevels | None
    estimator: int = ESTIMATOR_VERSION
    stream: int = STREAM_VERSION

    def __post_init__(self) -> None:
        shares = np.asarray(self.per_k_error_share, dtype=float)
        object.__setattr__(self, "per_k_error_share", shares)
        cfg, crit, K = self.config, self.crit, self.config.family.K
        for name, known in (("estimator", ESTIMATOR_VERSIONS), ("stream", STREAM_VERSIONS)):
            if type(getattr(self, name)) is not int or getattr(self, name) not in known:
                raise ValidationError(f"{name} version {getattr(self, name)!r} is none of {known}")
        sizes = {self.levels.K, crit.K, shares.size, K if self.pair is None else self.pair.K}
        if sizes != {K}:
            raise ValidationError(f"levels, thresholds or shares not sized for the "
                                  f"family's {K} steps")
        if (cfg.mode == "zeta") != (crit.zeta is not None):
            raise ValidationError(f"calibration mode {cfg.mode!r} does not match zeta "
                                  f"{_opt(crit.zeta)}: only zeta mode has a zeta")
        if crit.zeta is not None and not np.allclose(
                crit.z, _zeta_to_z(crit.zeta, self.levels, cfg.alpha, cfg.r), rtol=1e-9, atol=0):
            raise ValidationError(f"thresholds z are not those of zeta {crit.zeta!r}")
        if (cfg.rule == "lepski") != (self.pair is not None):
            raise ValidationError(f"the {cfg.rule} rule {'takes no' if self.pair else 'needs'} "
                                  "pair levels")
        for lv in filter(None, (self.levels, self.pair)):
            check_levels_loss(lv.method, cfg.loss)
            if lv.method == "monte_carlo":
                continue
            if lv.method == "asymptotic" and cfg.noise.kind == "student_t":
                s, _, s_pair = closed_form(cfg.family.counts, 1.0)
                c = lv.s_pair[0, 0] / s_pair[0, 0] if lv is self.pair else lv.s[-1] / s[-1]
                s, s_ring, s_pair = closed_form(cfg.family.counts, c)
            else:
                s, s_ring, s_pair = _closed_form_tables(cfg, lv.method)
            tables = [(lv.s_pair, s_pair)] if lv is self.pair else [(lv.s, s), (lv.s_ring, s_ring)]
            if not all(np.allclose(a, b, rtol=1e-9, atol=0, equal_nan=True) for a, b in tables):
                raise ValidationError(f"{PAIR_LEVELS if lv is self.pair else WINDOW_LEVELS} are "
                                      f"not the {lv.method} levels of the config")
        if not np.all(np.isfinite(shares) & (shares >= 0)):
            raise ValidationError("per-step error shares must be finite and nonnegative")
        if self.achieved_lhs > self.budget * (1.0 + 1e-9):
            raise ValidationError(f"achieved value {self.achieved_lhs!r} exceeds "
                                  f"the budget {self.budget!r}")
        if cfg.rule == "ring" and crit.zeta is not None:
            crit.check_risk_hypothesis(self.levels)

    @property
    def achieved_lhs(self) -> float:
        return float(self.per_k_error_share.sum())

    @property
    def budget(self) -> float:
        return _budget(self.config, self.levels)


# the fields of each family kind's saved description; pure noise is exchangeable,
# so its calibration depends on the window sizes only and a line1d family is centred at 0
_FAMILY_META = {"line1d": {"n", "counts"}, "disc2d": {"radii"}}


def build_family(family_kind: str, family_meta: dict) -> WindowFamily:
    """The family of a saved description: line1d from n and counts, disc2d from radii."""
    keys = _FAMILY_META.get(family_kind)
    if keys is None:
        raise ValidationError(f"unknown window family kind {family_kind!r}")
    if set(family_meta) != keys:
        raise ValidationError(f"a {family_kind} family is described by {sorted(keys)}, "
                              f"not by {sorted(family_meta)}")
    if family_kind == "line1d":
        xs = equidistant_design(int(family_meta["n"]))
        return build_family_1d(xs, 0.0, family_meta["counts"])
    return build_family_2d(family_meta["radii"])


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_arr(a) -> str:
    return " ".join(map(repr, np.asarray(a, dtype=float).tolist()))


def _opt(x, fmt=_fmt) -> str:
    return "-" if x is None else fmt(x)


def _provenance(name: str, lv: Levels | PairLevels) -> list[str]:
    return [f"{name}_method: {lv.method}", f"{name}_runs: {_opt(lv.runs, str)}",
            f"{name}_seed: {_opt(lv.seed, str)}"]


def _artifact_text(art: CalibArtifact) -> str:
    """art's file: its hash line, then the body (no line for version 1 of estimator or stream)."""
    cfg, crit, K = art.config, art.crit, art.levels.K
    meta, line1d = cfg.family_meta, cfg.family_kind == "line1d"
    lines = [f"format: {FORMAT_TAG}"]
    lines += [f"{name}: {v}" for name, v in (("estimator", art.estimator),
                                             ("stream", art.stream)) if v != 1]
    lines += [
        f"rule: {cfg.rule}",
        f"mode: {cfg.mode}",
        f"loss: {cfg.loss.kind}",
        f"loss_param: {_opt(cfg.loss.param)}",
        f"noise: {cfg.noise.kind}",
        f"noise_dof: {_opt(cfg.noise.dof, str)}",
        "noise_scale: 1.0",
        f"r: {_fmt(cfg.r)}",
        f"alpha: {_fmt(cfg.alpha)}",
        f"runs: {cfg.runs}",
        f"seed: {cfg.seed}",
        f"zeta: {_opt(crit.zeta)}",
        f"achieved_lhs: {_fmt(art.achieved_lhs)}",
        f"budget: {_fmt(art.budget)}",
        f"per_k_error_share: {_fmt_arr(art.per_k_error_share)}",
        *_provenance("levels", art.levels),
        f"family_kind: {cfg.family_kind}",
        f"family_n: {int(meta['n']) if line1d else '-'}",
        f"family_center: {'0.0' if line1d else '-'}",
        f"family_radii: {'-' if line1d else _fmt_arr(meta['radii'])}",
        f"K: {K}",
        f"counts: {' '.join(str(int(c)) for c in cfg.family.counts)}",
        f"z: {_fmt_arr(crit.z)}",
        f"s: {_fmt_arr(art.levels.s)}",
    ]
    lines += [f"s_ring[{k}]: {_fmt_arr(art.levels.s_ring[k, :k + 1])}" for k in range(K)]
    if art.pair is not None:
        lines += _provenance("pair", art.pair)
        lines += [f"pair[{k + 1}]: {_fmt_arr(art.pair.s_pair[k, :k + 1])}" for k in range(K)]
    body = "\n".join(lines)
    return f"config_hash: {_digest(body)}\n{body}\n"


def _digest(body: str) -> str:
    return hashlib.sha256(body.encode()).hexdigest()


def save_artifact(path, art: CalibArtifact) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_artifact_text(art))


def load_artifact(path) -> CalibArtifact:
    """Read an artifact, accepting only the exact text save_artifact writes for it.

    The config hash on the first line must match the lines after it, and the
    family, CalibConfig and CalibArtifact are rebuilt, so a loaded artifact
    passes a fresh calibration's checks. A missing estimator or stream line
    reads as version 1. Every refusal, including the first line that differs
    from what save_artifact writes, raises ValidationError.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("ascii", errors="replace")
    except OSError as exc:
        raise ValidationError(f"cannot read calibration artifact {path}: "
                              f"{exc.strerror or exc}") from exc
    head, _, body = text.partition("\n")
    fields: dict[str, str] = {}
    for line in body.splitlines():
        key, _, val = line.partition(": ")
        fields[key] = val
    if fields.get("format") != FORMAT_TAG:
        raise ValidationError(f"not a calibration artifact: {path}")
    if head != "config_hash: " + _digest(body.removesuffix("\n")):
        raise ValidationError(f"calibration artifact has no config_hash line that matches "
                              f"its body: {path}")
    for name, known in (("estimator", ESTIMATOR_VERSIONS), ("stream", STREAM_VERSIONS)):
        version = fields.setdefault(name, "1")
        if version not in [str(v) for v in known]:
            raise ValidationError(f"calibration artifact has {name} version {version!r}, "
                                  f"this program reads {known}: {path}")
    try:
        art = _artifact_from_fields(fields)
    except KeyError as exc:
        raise ValidationError(f"calibration artifact lacks the field {exc}: {path}") from exc
    except ValidationError as exc:
        raise ValidationError(f"calibration artifact {path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed calibration artifact {path}: {exc}") from exc
    # the hash line matches the body, so the first difference is in the body
    got, want = body.split("\n"), _artifact_text(art).split("\n")[1:]
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got + [None], want + [None])) if a != b)
        shown = [repr(lines[i]) if i < len(lines) else "no line" for lines in (got, want)]
        raise ValidationError(f"calibration artifact {path}: line {i + 2} is {shown[0]}, "
                              f"where save_artifact writes {shown[1]}")
    return art


def _artifact_from_fields(fields: dict[str, str]) -> CalibArtifact:
    def opt(key: str, cast=int):
        return None if fields[key] == "-" else cast(fields[key])

    def floats(key: str) -> np.ndarray:
        return np.array([float(v) for v in fields[key].split()])

    def triangle(key: str, first: int) -> np.ndarray:
        """(K, K): row k holds the values of key.format(first + k) in columns 0..k; NaN above."""
        out = np.full((K, K), np.nan)
        for k in range(K):
            out[k, :k + 1] = floats(key.format(first + k))
        return out

    loss = LossKind(fields["loss"], opt("loss_param", float))
    K = int(fields["K"])
    levels = Levels(floats("s"), triangle("s_ring[{}]", 0),
                    fields["levels_method"], opt("levels_runs"), opt("levels_seed"))
    pair = None
    if "pair[1]" in fields:
        pair = PairLevels(triangle("pair[{}]", 1),
                          fields["pair_method"], opt("pair_runs"), opt("pair_seed"))
    kind = fields["family_kind"]
    if kind == "line1d":
        meta = {"n": int(fields["family_n"]), "counts": [int(v) for v in fields["counts"].split()]}
    else:
        meta = {"radii": floats("family_radii").tolist()}
    config = CalibConfig(family_kind=kind, family_meta=meta, loss=loss,
                         noise=NoiseKind(fields["noise"], dof=opt("noise_dof")),
                         r=float(fields["r"]), alpha=float(fields["alpha"]),
                         runs=int(fields["runs"]), seed=int(fields["seed"]),
                         mode=fields["mode"], rule=fields["rule"])
    return CalibArtifact(config, CriticalValues(floats("z"), opt("zeta", float)),
                         floats("per_k_error_share"), levels, pair,
                         estimator=int(fields["estimator"]), stream=int(fields["stream"]))
