import hashlib
import tempfile
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import adaptmreg as am
from adaptmreg import (CalibConfig, LossKind, NoiseKind, calibrate, load_artifact,
                       save_artifact, verify_calibration)
import adaptmreg.calibration as calibration
from adaptmreg.calibration import (ESTIMATOR_VERSIONS, STREAM_VERSIONS, ZETA_MIN, _budget,
                                   _calibrate_sequential, _calibrate_zeta, _replicates,
                                   _row_totals, _shares, _zeta_to_z, build_family)
from adaptmreg.cli import parse_loss
from adaptmreg.errors import CalibrationError, ValidationError
from adaptmreg.levels import (MC_MIN_RUNS, Levels, closed_form, closed_form_scale,
                              simulate_window_estimates)
from adaptmreg.parallel import CHUNK
from adaptmreg.selector import threshold_table

from oracle_search import DenseStats, calibrate_full


@pytest.fixture(scope="module")
def small_setup():
    """Eight-level family keeps unit-test calibrations quick."""
    meta = {"n": 60, "counts": am.benchmark_counts()[:8].tolist()}
    config = CalibConfig(family_kind="line1d", family_meta=meta, loss=LossKind.median(),
                         noise=NoiseKind.laplace(), runs=3000, seed=5)
    levels = am.levels_asymptotic(config.family, LossKind.median(), NoiseKind.laplace())
    return config.family, levels, config


def _objective(config, levels, pair, z):
    """The library's budget left-hand side of thresholds z on the calibration's replicates."""
    bases, nxt, scale, additive, weights = _replicates(config, levels, pair)
    thr = threshold_table(np.append(z, 1.0), scale, additive)
    return float(_row_totals(bases, nxt, weights, thr).mean())


def _with_thresholds(config, crit, levels, pair=None):
    """An artifact of hand-set thresholds without a zeta, so of sequential mode, spending 0."""
    return am.CalibArtifact(replace(config, mode="sequential"), crit, np.zeros(crit.K),
                            levels, pair)


def test_zeta_calibration_properties(small_setup):
    family, levels, config = small_setup
    res = calibrate(config)
    assert isinstance(res, am.CalibArtifact)
    assert res.config is config and res.pair is None
    assert res.levels.s.tobytes() == levels.s.tobytes()
    assert np.array_equal(res.levels.s_ring, levels.s_ring, equal_nan=True)
    assert res.crit.zeta is not None
    assert np.all(np.diff(res.crit.z) <= 1e-12)
    zs = res.crit.full(levels.K) * levels.s
    assert np.all(np.diff(zs) <= 1e-12)
    assert res.achieved_lhs == float(res.per_k_error_share.sum())
    assert res.achieved_lhs <= _budget(config, levels) * (1 + 1e-9)
    assert config.warnings  # below the recommended run count


def test_determinism(small_setup):
    family, levels, config = small_setup
    a = calibrate(config)
    b = calibrate(config)
    assert a.crit.zeta == b.crit.zeta
    assert np.array_equal(a.per_k_error_share, b.per_k_error_share)


def test_calibrate_runs_the_search_of_its_mode(small_setup):
    """calibrate runs the search that config.mode names, and no other."""
    family, levels, config = small_setup
    for mode, search in (("zeta", _calibrate_zeta), ("sequential", _calibrate_sequential)):
        cfg = replace(config, mode=mode)
        art = calibrate(cfg)
        crit, shares = search(cfg, levels, None)
        assert art.config.mode == mode and (art.crit.zeta is None) == (mode == "sequential")
        assert art.crit.z.tobytes() == crit.z.tobytes()
        assert art.per_k_error_share.tobytes() == shares.tobytes()


def test_huge_alpha_hits_grid_minimum(small_setup):
    family, levels, config = small_setup
    cfg = replace(config, alpha=1e9)
    crit, shares = _calibrate_zeta(cfg, levels, None)
    assert crit.zeta == ZETA_MIN
    # such tiny values violate the risk-bound hypothesis: calibrate returns no
    # artifact of them, none holds them, and the selection rule refuses them
    with pytest.raises(ValidationError, match=r"z_k \* s_k must be non-increasing"):
        calibrate(cfg)
    with pytest.raises(ValidationError, match=r"z_k \* s_k must be non-increasing"):
        am.CalibArtifact(cfg, crit, shares, levels, None)
    with pytest.raises(ValueError):
        am.select_ring(np.zeros(levels.K + 1), np.zeros(levels.K), levels, crit)


def test_artifact_checks_mode_and_budget(small_setup):
    """An artifact checks its mode, thresholds, pair levels and shares.

    The mode matches the threshold form, and zeta thresholds derive from
    zeta; only the lepski rule has pair levels; closed-form window and pair
    levels describe the loss; the shares are finite, nonnegative and within
    the budget.
    """
    family, levels, config = small_setup
    res = _calibrate_zeta(config, levels, None)
    seq = _calibrate_sequential(config, levels, None)
    # a sequential search run on a zeta-mode config makes no artifact, nor the reverse
    with pytest.raises(ValidationError, match="calibration mode 'zeta' does not match zeta -"):
        am.CalibArtifact(config, *seq, levels, None)
    with pytest.raises(ValidationError, match="calibration mode 'sequential' does not match"):
        am.CalibArtifact(replace(config, mode="sequential"), *res, levels, None)
    art = am.CalibArtifact(config, *res, levels, None)
    assert art.budget == _budget(config, levels) == config.alpha * levels.s[-1] ** config.r
    over = 1.01 * art.budget / levels.K * np.ones(levels.K)
    with pytest.raises(ValidationError, match="exceeds the budget"):
        am.CalibArtifact(config, res[0], over, levels, None)

    def artifact(crit=res[0], shares=res[1], cfg=config, pair=None):
        return am.CalibArtifact(cfg, crit, shares, levels, pair)

    # np.log may round differently on another CPU: a relative 1e-9 is allowed
    z, zeta = art.crit.z, art.crit.zeta
    artifact(crit=am.CriticalValues(z * (1 + 1e-12), zeta))
    with pytest.raises(ValidationError, match="thresholds z are not those of zeta"):
        artifact(crit=am.CriticalValues(0.5 * z, zeta))
    pair = am.pair_levels_asymptotic(family, config.loss, config.noise)
    with pytest.raises(ValidationError, match="the ring rule takes no pair levels"):
        artifact(pair=pair)
    with pytest.raises(ValidationError, match="the lepski rule needs pair levels"):
        artifact(cfg=replace(config, rule="lepski"))
    artifact(cfg=replace(config, rule="lepski"), pair=pair)
    # sample-mean levels do not describe the median, as window or as pair levels
    with pytest.raises(ValidationError, match="exact mean levels apply to mean losses"):
        am.CalibArtifact(replace(config, mode="sequential"), *seq,
                         am.levels_exact_mean(family), None)
    with pytest.raises(ValidationError, match="exact mean levels apply to mean losses"):
        artifact(cfg=replace(config, rule="lepski"), pair=am.pair_levels_exact_mean(family))
    for bad in (-art.per_k_error_share, np.full(levels.K, np.nan)):
        with pytest.raises(ValidationError, match="shares must be finite and nonnegative"):
            artifact(shares=bad)


def test_objective_monotone_in_thresholds(small_setup):
    family, levels, config = small_setup
    z = calibrate(config).crit.z
    lhs = [_objective(config, levels, None, f * z) for f in (1.5, 1.0, 0.5)]
    assert lhs[0] <= lhs[1] <= lhs[2]


def test_sequential_per_step_budget(small_setup):
    family, levels, config = small_setup
    cfg = replace(config, mode="sequential")
    res = calibrate(cfg)
    budget = _budget(cfg, levels)
    assert np.all(res.per_k_error_share <= budget / levels.K + 1e-12)
    assert res.achieved_lhs <= budget * (1 + 1e-9)


def test_sequential_vs_zeta_profiles(small_setup):
    """The two searches answer related budgets but spread them differently.

    The sequential mode equalizes per-step shares against bare-threshold
    events, the parametric fit shapes one multiplier against the selection
    thresholds; observed gaps reach ~60 percent, frozen here at 90.
    """
    family, levels, config = small_setup
    res_z = calibrate(config)
    cfg = replace(config, mode="sequential")
    res_s = calibrate(cfg)
    rel = np.abs(res_s.crit.z - res_z.crit.z) / res_z.crit.z
    assert rel.max() <= 0.90
    budget = _budget(cfg, levels)
    assert res_s.achieved_lhs <= budget * (1 + 1e-9)
    # bare events contain the selection-form events, so the sequential values
    # also satisfy the selection-form budget
    assert _objective(cfg, levels, None, res_s.crit.z) <= budget * (1 + 1e-9)


def test_zeta_ratio_structure(small_setup):
    """z_0^2 / z_{K-1}^2 equals the ratio of the parametric arguments exactly."""
    family, levels, config = small_setup
    res = calibrate(config)
    K = levels.K
    arg = (2.0 * config.r * np.log(levels.s[:K] / levels.s[K])
           + np.log(1.0 / config.alpha) + np.log(K))
    assert (res.crit.z[0] / res.crit.z[-1]) ** 2 == pytest.approx(
        arg[0] / arg[-1], rel=1e-12)


def test_sequential_k1_matches_bruteforce():
    """One growth step: the search reduces to a weighted quantile problem."""
    config = CalibConfig(family_kind="line1d",
                         family_meta={"n": 40, "counts": [10, 20]},
                         loss=LossKind.median(), noise=NoiseKind.laplace(), runs=4000, seed=9,
                         mode="sequential")
    family = config.family
    levels = am.levels_asymptotic(family, LossKind.median(), NoiseKind.laplace())
    res = calibrate(config)

    bases, rings = simulate_window_estimates(
        family, config.loss, config.noise, config.runs, config.seed)
    w = bases[:, 0] ** 2
    stat = np.abs(rings[:, 0] - bases[:, 0])
    cand = np.sort(stat / levels.s_ring[0, 0])
    budget = _budget(config, levels)  # single step: the per-step budget is the whole one
    best = None
    for z0 in np.concatenate(([ZETA_MIN], cand + 1e-12)):
        if z0 <= 0:
            continue
        lhs = float(np.mean(w * (stat > z0 * levels.s_ring[0, 0])))
        if lhs <= budget:
            best = z0
            break
    assert best is not None
    assert res.crit.z[0] == pytest.approx(best, abs=2e-3)


def _lepski_setup(small_setup):
    family, levels, config = small_setup
    pair = am.pair_levels_asymptotic(family, LossKind.median(), NoiseKind.laplace())
    return replace(config, rule="lepski"), pair


@pytest.mark.parametrize("rule", ["ring", "lepski"])
def test_row_totals_and_shares_match_dense_reference(small_setup, rule):
    """The library's row totals and shares equal a dense brute force exactly."""
    family, levels, config = small_setup
    pair = None
    if rule == "lepski":
        config, pair = _lepski_setup(small_setup)
    assert levels.K >= 4
    bases, nxt, scale, additive, weights = _replicates(config, levels, pair)
    dense = DenseStats(config, levels, pair)
    rng = np.random.default_rng(2024)
    for factor in (0.5, 1.5, 3.0):
        z = factor * rng.uniform(0.5, 2.0, levels.K)
        for bare in (False, True):
            thr = threshold_table(np.append(z, 1.0), scale, 0.0 if bare else additive)
            totals = _row_totals(bases, nxt, weights, thr)
            assert np.array_equal(totals, dense.row_totals(z, bare))
            assert float(totals.mean()) == dense.objective(z, bare)
            assert np.array_equal(_shares(bases, nxt, weights, thr), dense.shares(z, bare))


def test_sequential_matches_dense_reference(small_setup):
    family, levels, config = small_setup
    cfg = replace(config, mode="sequential")
    res = calibrate(cfg)
    crit, shares = calibrate_full(cfg, levels)
    assert np.array_equal(res.crit.z, crit.z)
    assert np.array_equal(res.per_k_error_share, shares)


SEARCH_LOSSES = {"mean": LossKind.mean(), "median": LossKind.median(),
                 "huber": LossKind.huber(1.345)}


@pytest.fixture(scope="module")
def search_levels(small_setup):
    """Window and pair levels of the small family for each loss of SEARCH_LOSSES."""
    family, _, config = small_setup
    lap, median, huber = config.noise, SEARCH_LOSSES["median"], SEARCH_LOSSES["huber"]
    return {
        "mean": (am.levels_exact_mean(family), am.pair_levels_exact_mean(family)),
        "median": (am.levels_asymptotic(family, median, lap),
                   am.pair_levels_asymptotic(family, median, lap)),
        "huber": (am.levels_mc(family, huber, lap, 1000, seed=1),
                  am.pair_levels_mc(family, huber, lap, 1000, seed=2)),
    }


def _same_result(got, want):
    """The (crit, shares) pairs got and want hold the same bytes."""
    assert got[0].z.tobytes() == want[0].z.tobytes()
    assert got[0].zeta == want[0].zeta
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("loss", sorted(SEARCH_LOSSES))
@pytest.mark.parametrize("rule", ["ring", "lepski"])
@pytest.mark.parametrize("mode", ["zeta", "sequential"])
def test_search_matches_full_evaluation(small_setup, search_levels, mode, rule, loss,
                                        monkeypatch):
    """Re-testing only the open replicates gives the bytes of the full bisection.

    The full search evaluates every replicate at every candidate. The
    library's evaluates each replicate only while the candidates evaluated
    below and above it leave its total open, here well under half the rows.
    """
    family, _, config = small_setup
    levels, pair = search_levels[loss]
    cfg = replace(config, loss=SEARCH_LOSSES[loss], mode=mode, rule=rule)
    pair = pair if rule == "lepski" else None
    evaluated = []
    want = calibrate_full(cfg, levels, pair, evaluated)
    seen = []  # replicates evaluated per _row_totals call
    row_totals = calibration._row_totals

    def counted(bases, nxt, weights, thr):
        seen.append(len(weights))
        return row_totals(bases, nxt, weights, thr)

    monkeypatch.setattr(calibration, "_row_totals", counted)
    search = _calibrate_zeta if mode == "zeta" else _calibrate_sequential
    _same_result(search(cfg, levels, pair), want)
    if mode == "zeta":
        assert len(evaluated) > 10
        assert 0 < sum(seen) < 0.5 * len(evaluated) * cfg.runs
        assert max(seen) <= CHUNK


@pytest.mark.parametrize("alpha", [1e9, 1e-3])
def test_search_ends_match_full_evaluation(small_setup, alpha):
    """The ZETA_MIN exit (huge alpha), and a search that doubles to 8 before it bisects."""
    family, levels, config = small_setup
    cfg = replace(config, alpha=alpha)
    evaluated = []
    want = calibrate_full(cfg, levels, None, evaluated)
    if alpha == 1e9:
        assert evaluated == [ZETA_MIN]
    else:
        assert evaluated[:6] == [ZETA_MIN, 1.0, 2.0, 4.0, 8.0, 6.0]
    _same_result(_calibrate_zeta(cfg, levels, None), want)


def test_verify_extreme_thresholds(small_setup):
    family, levels, config = small_setup
    K = levels.K
    huge = _with_thresholds(config, am.CriticalValues(z=np.full(K, 1e6)), levels)
    tiny = _with_thresholds(config, am.CriticalValues(z=np.full(K, 1e-9)), levels)
    assert verify_calibration(huge, seed=99)[0] == 0.0
    assert verify_calibration(tiny, seed=99)[0] > 10.0


def test_verify_requires_fresh_seed(small_setup):
    family, levels, config = small_setup
    art = calibrate(config)
    with pytest.raises(ValueError):
        verify_calibration(art, seed=config.seed)


VERIFY_CASES = [(rule, loss, thresholds) for thresholds in ("decreasing", "sequential")
                for rule in ("ring", "lepski")
                for loss in ("mean", "median", "huber:1.345", "quantile:0.3")]


@pytest.mark.parametrize("rule,loss,thresholds", VERIFY_CASES,
                         ids=[f"{r}-{l}" + ("-sequential" if t == "sequential" else "")
                              for r, l, t in VERIFY_CASES])
def test_streamed_verify_matches_whole_replicate_set(small_setup, loss, rule, thresholds,
                                                     monkeypatch):
    """The streamed ratio equals the dense objective over all replicates at once, bit for bit.

    The thresholds are hand-set decreasing values, or those of a sequential
    calibration, which need not decrease.
    """
    family, _, config = small_setup
    loss = parse_loss(loss)
    if loss.kind == "mean":
        levels, pair = am.levels_exact_mean(family), am.pair_levels_exact_mean(family)
    elif loss.kind == "huber":
        levels = am.levels_mc(family, loss, config.noise, MC_MIN_RUNS, seed=3)
        pair = am.pair_levels_mc(family, loss, config.noise, MC_MIN_RUNS, seed=4)
    else:
        levels = am.levels_asymptotic(family, loss, config.noise)
        pair = am.pair_levels_asymptotic(family, loss, config.noise)
    pair = pair if rule == "lepski" else None
    runs = 2 * CHUNK + 7  # the last chunk is partial
    cfg = replace(config, loss=loss, runs=runs, rule=rule)
    if thresholds == "decreasing":
        art = _with_thresholds(cfg, am.CriticalValues(z=np.linspace(1.6, 0.9, levels.K)),
                               levels, pair)
    else:
        seq = replace(cfg, runs=MC_MIN_RUNS, mode="sequential")
        art = am.CalibArtifact(seq, *_calibrate_sequential(seq, levels, pair), levels, pair)
    whole = DenseStats(replace(cfg, seed=77), levels, pair)
    want = whole.objective(art.crit.z) / (cfg.alpha * float(levels.s[-1]) ** cfg.r)
    assert want > 0.0
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("ADAPTMREG_WORKERS", workers)
        got, _ = verify_calibration(art, seed=77, runs=runs)
        assert got == want


def test_verify_never_holds_the_packed_statistics(monkeypatch):
    """Verify's memory peak stays far below a (runs, K (K + 1) / 2) float64 array.

    That array would hold every step statistic of every replicate at once.
    """
    meta = {"n": 200, "counts": am.benchmark_counts().tolist()}
    loss = LossKind.median()
    cfg = CalibConfig(family_kind="line1d", family_meta=meta, loss=loss,
                      noise=NoiseKind.laplace(), seed=1)
    levels = am.levels_asymptotic(cfg.family, loss, NoiseKind.laplace())
    runs = 50_000
    monkeypatch.setenv("ADAPTMREG_WORKERS", "2")
    art = _with_thresholds(cfg, am.CriticalValues(z=np.full(levels.K, 1.2)), levels)
    packed_bytes = runs * levels.K * (levels.K + 1) // 2 * 8
    tracemalloc.start()
    try:
        verify_calibration(art, seed=2, runs=runs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < packed_bytes / 4


def test_calibration_failure_diagnostics(small_setup):
    family, _, config = small_setup
    # absurdly small levels make every statistic exceed any affordable threshold
    K = family.K
    bogus = Levels(s=np.full(K + 1, 1e-9), s_ring=np.full((K, K), 1e-12),
                   method="exact_mean")
    with pytest.raises(CalibrationError):
        _calibrate_zeta(config, bogus, None)


def test_lepski_rule_needs_pair(small_setup):
    """calibrate gives the lepski rule its pair levels; an artifact without them is refused."""
    family, levels, config = small_setup
    cfg = replace(config, rule="lepski")
    art = calibrate(cfg)
    want = am.pair_levels_asymptotic(family, cfg.loss, cfg.noise)
    assert art.pair.method == "asymptotic"
    assert np.array_equal(art.pair.s_pair, want.s_pair, equal_nan=True)
    with pytest.raises(ValueError, match="the lepski rule needs pair levels"):
        replace(art, pair=None)


def test_calibrate_builds_the_levels_of_its_config(small_setup):
    """calibrate's tables are those of the config's loss, noise and r, and no others load.

    Closed-form tables that another r, loss or noise law gives make no
    artifact, even with the thresholds a search found on them.
    """
    family, levels, config = small_setup
    cfg = replace(config, r=3.0, rule="lepski")
    art = calibrate(cfg)
    want = am.levels_asymptotic(family, cfg.loss, cfg.noise, 3.0)
    assert art.levels.method == "asymptotic"
    assert art.levels.s.tobytes() == want.s.tobytes()
    assert np.array_equal(art.levels.s_ring, want.s_ring, equal_nan=True)
    assert np.array_equal(art.pair.s_pair, am.pair_levels_asymptotic(
        family, cfg.loss, cfg.noise, 3.0).s_pair, equal_nan=True)
    quantile = replace(config, loss=LossKind.quantile(0.3))
    gaussian_quantile = am.levels_asymptotic(family, quantile.loss, NoiseKind.gaussian())
    for cfg, lv in ((replace(config, r=3.0), levels), (config, gaussian_quantile),
                    (quantile, levels)):
        found = _calibrate_zeta(cfg, lv, None)
        with pytest.raises(ValidationError, match="the window levels are not the asymptotic "
                                                  "levels of the config"):
            am.CalibArtifact(cfg, *found, lv, None)
    pair_r2 = am.pair_levels_asymptotic(family, config.loss, config.noise)
    with pytest.raises(ValidationError, match="the pair levels are not the asymptotic"):
        replace(art, pair=pair_r2)
    # Monte Carlo tables draw levels_runs replicates from seed + 1 and seed + 2
    mc = calibrate(replace(config, rule="lepski", loss=LossKind.huber(1.345)),
                   levels_runs=MC_MIN_RUNS)
    lv_mc = am.levels_mc(family, mc.config.loss, config.noise, MC_MIN_RUNS, seed=config.seed + 1)
    pair_mc = am.pair_levels_mc(family, mc.config.loss, config.noise, MC_MIN_RUNS,
                                seed=config.seed + 2)
    assert (mc.levels.runs, mc.levels.seed, mc.pair.runs, mc.pair.seed) == (
        MC_MIN_RUNS, config.seed + 1, MC_MIN_RUNS, config.seed + 2)
    assert mc.levels.s.tobytes() == lv_mc.s.tobytes()
    assert np.array_equal(mc.pair.s_pair, pair_mc.s_pair, equal_nan=True)


@pytest.mark.parametrize("loss, levels, runs, message", [
    ("median", "asymptotic", 5,
     r"a level run count \(5\) needs Monte Carlo levels, not asymptotic levels"),
    ("mean", "auto", 2000,
     r"a level run count \(2000\) needs Monte Carlo levels, not exact mean levels"),
    ("median", "exact_mean", None, "exact mean levels apply to mean losses"),
    ("huber:1.345", "asymptotic", None, "asymptotic levels apply to median and quantile losses"),
    ("median", "exact", None, "unknown level method 'exact'"),
], ids=["runs_asymptotic", "runs_auto_mean", "exact_median", "asymptotic_huber", "unknown"])
def test_calibrate_refuses_its_levels_before_drawing(small_setup, monkeypatch, loss, levels,
                                                    runs, message):
    """A level method that does not describe the loss, or a stray run count, draws nothing."""
    import adaptmreg.levels as lv

    def no_draws(*args):
        raise AssertionError("drew replicates for a refused calibration")

    monkeypatch.setattr(lv, "sample_rows", no_draws)
    _, _, config = small_setup
    for rule in ("ring", "lepski"):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            calibrate(replace(config, loss=parse_loss(loss), rule=rule), levels, runs)


def test_artifact_coerces_shares_and_checks_versions(small_setup):
    """Shares become a float array as level tables do; versions are ones load_artifact reads."""
    family, levels, config = small_setup
    art = _with_thresholds(config, am.CriticalValues(z=np.full(levels.K, 1.5)), levels)
    shares = np.linspace(0.0, 1e-3, levels.K)
    listed = replace(art, per_k_error_share=shares.tolist())
    assert isinstance(listed.per_k_error_share, np.ndarray)
    assert listed.per_k_error_share.tobytes() == shares.tobytes()
    with pytest.raises(ValidationError, match="not sized for the family's"):
        replace(art, per_k_error_share=shares.tolist()[:-1])
    for name, bad in (("estimator", 7), ("estimator", 2.0), ("estimator", "1"),
                      ("estimator", True), ("stream", 3), ("stream", 0), ("stream", "2")):
        with pytest.raises(ValidationError, match=f"^{name} version {bad!r} is none of "):
            replace(art, **{name: bad})


def test_artifact_family_must_be_the_described_one(disc_artifact):
    """A config's family is the one build_family makes of its description.

    A line1d kind over disc radii used to fail in save_artifact with a
    KeyError; the config refuses it now. Other radii give another family,
    for which the artifact's levels and thresholds are not sized.
    """
    config = disc_artifact.config
    with pytest.raises(ValidationError, match=r"a line1d family is described by \['counts', "
                                              r"'n'\], not by \['radii'\]"):
        replace(config, family_kind="line1d")
    other = replace(config, family_meta={"radii": [1.0, 2.0]})
    assert np.array_equal(other.family.order, build_family("disc2d", {"radii": [1.0, 2.0]}).order)
    with pytest.raises(ValidationError, match="sized for the family's 1 steps"):
        replace(disc_artifact, config=other)


def test_artifact_roundtrip(tmp_path, small_setup):
    family, levels, config = small_setup
    art = calibrate(config)
    path = tmp_path / "test.cal"
    save_artifact(path, art)
    loaded = load_artifact(path)
    assert loaded.config.rule == "ring"
    assert loaded.crit.zeta == art.crit.zeta
    assert np.array_equal(loaded.crit.z, art.crit.z)
    assert np.array_equal(loaded.levels.s, levels.s)
    tril = np.tril_indices(levels.K)
    assert np.array_equal(loaded.levels.s_ring[tril], levels.s_ring[tril])
    assert np.array_equal(loaded.per_k_error_share, art.per_k_error_share)
    assert np.array_equal(loaded.config.family.order, family.order)
    assert np.array_equal(loaded.config.family.counts, family.counts)
    assert path.read_text().startswith("config_hash: ")
    # the estimator and stream versions follow the format line and survive a round trip
    assert path.read_text().splitlines()[1:4] == ["format: amreg-calib-v1", "estimator: 2",
                                                  "stream: 2"]
    assert (loaded.estimator, loaded.stream) == (2, 2)
    again = tmp_path / "again.cal"
    save_artifact(again, loaded)
    assert again.read_bytes() == path.read_bytes()
    # level tables sized for another K than the counts give do not load
    body = path.read_text().splitlines()[1:]
    short = tmp_path / "short.cal"
    short.write_text(_rehashed([x.rsplit(" ", 1)[0] if x.startswith("counts: ") else x
                                for x in body]))
    with pytest.raises(ValidationError, match="sized for the family's 6 steps"):
        load_artifact(short)


def _positive(lo=1e-6, hi=1e6):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def _artifacts(draw):
    """Artifacts with every saved field drawn.

    The families build (radii below 10, counts[-1] <= n <= 10^4), the
    settings are ones a calibration accepts, a zeta is drawn in zeta mode
    only and the thresholds derive from it, the nonnegative shares sum to at
    most the budget, the levels stay non-increasing, closed-form levels
    describe the loss and are the ones closed_form gives for the family,
    loss, noise and r, Monte Carlo levels alone carry a run count (at least
    1,000) and a seed, pair levels come with the lepski rule only, and
    ring-rule zeta values meet the risk hypothesis.
    """
    family_kind = draw(st.sampled_from(["line1d", "disc2d"]))
    if family_kind == "line1d":
        counts = np.cumsum(draw(st.lists(st.integers(1, 50), min_size=2, max_size=6)))
        meta = {"n": draw(st.integers(int(counts[-1]), 10 ** 4)),
                "counts": [int(c) for c in counts]}
    else:
        radii = draw(st.lists(_positive(0.5, 10.0), min_size=2, max_size=6, unique=True))
        meta = {"radii": sorted(radii)}
    family = build_family(family_kind, meta)
    assume(family.K >= 1)
    K = family.K
    r = draw(st.sampled_from([1.0, 2.0, 2.5]))
    alpha = draw(_positive(1e-3, 10.0))

    def positives(size):
        return np.array(draw(st.lists(_positive(), min_size=size, max_size=size)))

    def lower_triangle(size, k):
        out = np.full((size, size), np.nan)
        tril = np.tril_indices(size, k=k)
        out[tril] = positives(len(tril[0]))
        return out

    loss = draw(st.sampled_from([LossKind.mean(), LossKind.median()])
                | st.builds(LossKind.quantile, _positive(1e-3, 0.999))
                | st.builds(LossKind.huber, _positive()))
    noise = draw(st.sampled_from(["laplace", "gaussian", "student_t"]).flatmap(
        lambda kind: st.builds(NoiseKind, st.just(kind),
                               st.integers(3, 30) if kind == "student_t" else st.none())))

    def provenance():
        # closed-form levels only for the losses they describe (exact ones for r = 2 only)
        closed = {"mean": ["exact_mean"] if r == 2.0 else [], "median": ["asymptotic"],
                  "quantile": ["asymptotic"]}
        method = draw(st.sampled_from(closed.get(loss.kind, []) + ["monte_carlo"]))
        if method != "monte_carlo":
            return {"method": method}
        return {"method": method, "runs": draw(st.integers(MC_MIN_RUNS, 2 ** 40)),
                "seed": draw(st.integers(0, 2 ** 40))}

    def closed_form_tables(method):
        return closed_form(family.counts, closed_form_scale(method, r, loss, noise))

    # closed-form tables are the config's own; Monte Carlo ones are drawn
    window = provenance()
    if window["method"] == "monte_carlo":
        levels = Levels(np.sort(positives(K + 1))[::-1], lower_triangle(K, 0), **window)
    else:
        levels = Levels(*closed_form_tables(window["method"])[:2], **window)
    mode = draw(st.sampled_from(["zeta", "sequential"]))
    rule = draw(st.sampled_from(["ring", "lepski"]))
    pair = None
    if rule == "lepski":
        prov = provenance()
        pair = am.PairLevels(lower_triangle(K, 0) if prov["method"] == "monte_carlo"
                             else closed_form_tables(prov["method"])[2], **prov)
    config = CalibConfig(
        family_kind=family_kind, family_meta=meta, loss=loss, noise=noise, r=r, alpha=alpha,
        runs=draw(st.integers(1000, 10 ** 9)), seed=draw(st.integers(-(2 ** 63), 2 ** 63)),
        mode=mode, rule=rule)
    if mode == "zeta":
        zeta = draw(_positive())
        crit = am.CriticalValues(_zeta_to_z(zeta, levels, alpha, r), zeta)
        if rule == "ring":
            # the risk hypothesis of ring-rule zeta values: z_k * s_k non-increasing, z_K = 1
            assume(np.all(np.diff(crit.full(K) * levels.s) <= 1e-12))
    else:
        crit = am.CriticalValues(z=np.sort(positives(K))[::-1])
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K))
    shares = _budget(config, levels) / K * np.array(fractions)
    return am.CalibArtifact(config, crit, shares, levels, pair,
                            estimator=draw(st.sampled_from(ESTIMATOR_VERSIONS)),
                            stream=draw(st.sampled_from(STREAM_VERSIONS)))


def _same(a, b) -> bool:
    """Field-by-field equality; arrays compare with NaN equal to NaN."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@settings(max_examples=60, deadline=None)
@given(_artifacts())
def test_artifact_roundtrip_keeps_every_field(art):
    """Every saved field survives save and load; stream lines other than 1 or 2 fail.

    The config compares in every field, its family, rebuilt from the
    description, by order, counts and dropped levels.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.cal"
        save_artifact(path, art)
        loaded = load_artifact(path)
        assert _same(loaded, art)
        body = path.read_text().splitlines()[1:]
        # version 1 has no stream line, and a missing stream line reads as version 1
        assert (f"stream: {art.stream}" in body) == (art.stream != 1)
        old = Path(tmp) / "old.cal"
        old.write_text(_rehashed([x for x in body if not x.startswith("stream: ")]))
        assert _same(load_artifact(old), replace(art, stream=1))
        bad = Path(tmp) / "bad.cal"
        bad.write_text(_rehashed(body[:1] + ["stream: 3"]
                                 + [x for x in body[1:] if not x.startswith("stream: ")]))
        with pytest.raises(ValidationError, match="stream version '3'"):
            load_artifact(bad)


def _rehashed(lines):
    body = "\n".join(lines)
    return f"config_hash: {hashlib.sha256(body.encode()).hexdigest()}\n{body}\n"


def test_artifact_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.cal"
    path.write_text("hello: world\n")
    with pytest.raises(ValueError):
        load_artifact(path)


def test_config_validation(small_setup):
    family, levels, config = small_setup
    with pytest.raises(ValueError):
        replace(config, runs=10)
    with pytest.raises(ValueError):
        replace(config, alpha=0.0)
    with pytest.raises(ValueError):
        replace(config, mode="grid")
    with pytest.raises(ValueError):
        replace(config, rule="aws")
