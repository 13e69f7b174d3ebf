import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptmreg as am
from adaptmreg.calibration import save_artifact
from adaptmreg.cli import _build_parser, parse_loss, run_cli
from adaptmreg.parallel import CHUNK
from adaptmreg.pgmio import read_pgm, write_pgm


def run(*args):
    return run_cli([str(a) for a in args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One quick calibration artifact shared by the CLI tests."""
    path = tmp_path_factory.mktemp("cli")
    rc = run("calibrate", "--family", "bench1d", "--loss", "median",
             "--noise", "laplace", "--runs", "2000", "--seed", "11",
             "--out", path / "med.cal")
    assert rc == 0
    return path


def test_parse_loss():
    assert parse_loss("median") == am.LossKind.median()
    assert parse_loss("quantile:0.2") == am.LossKind.quantile(0.2)
    assert parse_loss("huber:1.5") == am.LossKind.huber(1.5)
    with pytest.raises(ValueError):
        parse_loss("l2")


def test_calibrate_deterministic_artifacts(workdir):
    rc = run("calibrate", "--family", "bench1d", "--loss", "median",
             "--noise", "laplace", "--runs", "2000", "--seed", "11",
             "--out", workdir / "med2.cal")
    assert rc == 0
    assert (workdir / "med.cal").read_bytes() == (workdir / "med2.cal").read_bytes()


def test_verify_runs(workdir, capsys):
    """Stdout holds the ratio alone; below 10^4 runs stderr warns, naming the verification."""
    rc = run("verify", "--calib", workdir / "med.cal", "--seed", "99",
             "--runs", "2000")
    assert rc == 0
    out, err = capsys.readouterr()
    assert out.startswith("ratio: ") and out.count("\n") == 1
    float(out.split(":")[1])
    assert err == ("warning: only 2000 monte carlo runs for the verification; "
                   "estimates may be rough\n")


def _rehashed(lines):
    """Artifact text with a config hash recomputed over the given body lines."""
    body = "\n".join(lines)
    return f"config_hash: {hashlib.sha256(body.encode()).hexdigest()}\n{body}\n"


def test_verify_rejects_damaged_artifacts(workdir, capsys):
    """Damaged artifacts are validation errors (exit 1), never runtime errors."""
    lines = (workdir / "med.cal").read_text().splitlines()
    assert lines[0].startswith("config_hash: ")
    body = lines[1:]
    cut = next(i for i, x in enumerate(lines) if x.startswith("s_ring[3]"))
    z = next(i for i, x in enumerate(lines) if x.startswith("z: "))
    z_values = [float(v) for v in lines[z].split()[1:]]
    z_values[0] *= 1.01  # still non-increasing, so only the hash can notice
    edited = lines[:z] + ["z: " + " ".join(map(repr, z_values))] + lines[z + 1:]
    cases = {
        "truncated": "\n".join(lines[:cut]) + "\n",
        "edited_z": "\n".join(edited) + "\n",
        "no_hash": "\n".join(body) + "\n",
        # the hash matches, but a field is missing or unparsable
        "missing_key": _rehashed([x for x in body if not x.startswith("s_ring[3]")]),
        "bad_number": _rehashed(["K: sixteen" if x.startswith("K: ") else x for x in body]),
    }
    for name, text in cases.items():
        path = workdir / f"damaged_{name}.cal"
        path.write_text(text)
        rc = run("verify", "--calib", path, "--seed", "99", "--runs", "1000")
        err = capsys.readouterr().err
        assert rc == 1, (name, err)
        assert err.startswith("error: validation: "), (name, err)
        if name == "missing_key":
            assert "s_ring[3]" in err


@pytest.fixture(scope="module")
def disc_cal(tmp_path_factory):
    """A small disc2d artifact and an image it can denoise."""
    path = tmp_path_factory.mktemp("disc")
    assert run("calibrate", "--family", "disc2d", "--radius-levels", "3", "--runs", "1000",
               "--seed", "21", "--out", path / "d.cal") == 0
    write_pgm(path / "in.pgm", np.full((12, 12), 90.0), maxval=255)
    return path


def _last_count_plus_one(counts: str) -> str:
    *head, last = counts.split()
    return " ".join(head + [str(int(last) + 1)])


@pytest.mark.parametrize("key, edit, message", [
    ("mode", lambda v: "grid", "unknown calibration mode 'grid'"),
    ("runs", lambda v: "10", "need at least 1000 monte carlo runs for the calibration"),
    ("rule", lambda v: "aws", "unknown selection rule 'aws'"),
    ("counts", _last_count_plus_one, "is 'counts: "),
], ids=["mode", "runs", "rule", "counts"])
def test_loading_validates_the_calibration(disc_cal, capsys, key, edit, message):
    """A re-hashed artifact that a calibration would refuse does not load: exit 1."""
    body = (disc_cal / "d.cal").read_text().splitlines()[1:]
    i = next(i for i, x in enumerate(body) if x.startswith(f"{key}: "))
    path = disc_cal / f"bad_{key}.cal"
    path.write_text(_rehashed(body[:i] + [f"{key}: {edit(body[i].split(': ', 1)[1])}"]
                              + body[i + 1:]))
    with pytest.raises(am.ValidationError, match=message):
        am.load_artifact(path)
    for argv in (("denoise", "--in", disc_cal / "in.pgm", "--calib", path,
                  "--out", disc_cal / "out.pgm"),
                 ("verify", "--calib", path, "--seed", "99", "--runs", "1000")):
        capsys.readouterr()
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: validation: ") and message in err, (argv, err)


def test_loader_says_malformed_only_for_unparsable_values(disc_cal):
    """A value that parses but fails a check is named as such; only an unparsable one is malformed."""
    body = (disc_cal / "d.cal").read_text().splitlines()[1:]
    for key, value, message in (("mode", "grid", "calibration artifact {path}: unknown "
                                 "calibration mode 'grid'"),
                                ("alpha", "abc", "malformed calibration artifact {path}: ")):
        path = disc_cal / f"loader_{key}.cal"
        path.write_text(_rehashed([f"{key}: {value}" if x.startswith(f"{key}: ") else x
                                   for x in body]))
        with pytest.raises(am.ValidationError) as info:
            am.load_artifact(path)
        assert str(info.value).startswith(message.format(path=path)), str(info.value)
        assert ("malformed" in str(info.value)) == (key == "alpha")


def _scaled(factor):
    return lambda v: " ".join(repr(factor * float(x)) for x in v.split())


def _set(**edits):
    """An edit of artifact body lines that maps the value of each named key's line."""
    def edit(body):
        lines = [line.partition(": ") for line in body]
        return [f"{k}: {edits[k](v)}" if k in edits else k + sep + v for k, sep, v in lines]
    return edit


def _insert_before(key, line):
    """An edit that inserts a line ahead of the key's line."""
    def edit(body):
        i = next(i for i, x in enumerate(body) if x.startswith(f"{key}: "))
        return body[:i] + [line] + body[i:]
    return edit


def _swap_rule_and_mode(body):
    i = next(i for i, x in enumerate(body) if x.startswith("rule: "))
    return body[:i] + [body[i + 1], body[i]] + body[i + 2:]


def _closed_form_pair_lines(body):
    """Exact-mean pair level lines for the counts of an artifact body."""
    counts = next(x for x in body if x.startswith("counts: ")).split()[1:]
    *_, sp = am.levels.closed_form([int(c) for c in counts], 1.0)
    rows = [" ".join(map(repr, sp[m, :m].tolist())) for m in range(1, len(counts))]
    return (["pair_method: exact_mean", "pair_runs: -", "pair_seed: -"]
            + [f"pair[{m}]: {row}" for m, row in enumerate(rows, start=1)])


@pytest.mark.parametrize("edit, message", [
    (_set(budget=_scaled(1000.0)), "is 'budget: "),
    (_set(budget=_scaled(1000.0), per_k_error_share=_scaled(100.0)), "exceeds the budget"),
    (_set(achieved_lhs=lambda v: "0.0"),
     "is 'achieved_lhs: 0.0', where save_artifact writes 'achieved_lhs: "),
    (_set(noise_scale=lambda v: "2.0"),
     "is 'noise_scale: 2.0', where save_artifact writes 'noise_scale: 1.0'"),
    (_set(mode=lambda v: "sequential"), "calibration mode 'sequential' does not match zeta"),
    (_insert_before("rule", "# edited by hand"),
     "is '# edited by hand', where save_artifact writes 'rule: ring'"),
    (_insert_before("rule", "foo: bar"), "is 'foo: bar', where save_artifact writes 'rule: ring'"),
    (_insert_before("alpha", "alpha: 50.0"),
     "is 'alpha: 50.0', where save_artifact writes 'alpha: 1.0'"),
    (_set(alpha=lambda v: "1"), "is 'alpha: 1', where save_artifact writes 'alpha: 1.0'"),
    (_swap_rule_and_mode, "is 'mode: zeta', where save_artifact writes 'rule: ring'"),
    (_set(levels_runs=lambda v: "5"),
     "the window levels are asymptotic, which has no run count or seed"),
    (_set(levels_method=lambda v: "bogus"), "unknown method 'bogus' of the window levels"),
    (_set(levels_method=lambda v: "exact_mean"), "exact mean levels apply to mean losses"),
    (_set(z=_scaled(0.5)), "thresholds z are not those of zeta "),
    (_set(s=_scaled(math.nan)),
     "s and s_ring on and below the diagonal must be finite and strictly positive"),
    (_set(per_k_error_share=_scaled(-1.0)),
     "per-step error shares must be finite and nonnegative"),
    (lambda body: body + _closed_form_pair_lines(body), "the ring rule takes no pair levels"),
    (_set(rule=lambda v: "lepski"), "the lepski rule needs pair levels"),
], ids=["budget", "budget_and_shares", "achieved_lhs", "noise_scale", "mode", "comment",
        "unknown_key", "duplicate_alpha", "alpha_int", "swapped_lines", "levels_runs",
        "levels_method", "exact_levels", "halved_z", "nan_s", "negated_shares", "ring_with_pair",
        "lepski_without_pair"])
def test_tampered_derived_values_refused_by_every_command(workdir, disc_cal, tmp_path, capsys,
                                                         edit, message):
    """A re-hashed artifact that save_artifact would not write, or that a check refuses.

    Values that others determine (budget, achieved_lhs, noise_scale) count
    among them. denoise, verify and bench all exit 1, naming the line or the
    check.
    """
    def tampered(path):
        bad = tmp_path / f"tampered_{path.name}"
        bad.write_text(_rehashed(edit(path.read_text().splitlines()[1:])))
        return bad

    disc, line = tampered(disc_cal / "d.cal"), tampered(workdir / "med.cal")
    for argv in (("denoise", "--in", disc_cal / "in.pgm", "--calib", disc,
                  "--out", tmp_path / "out.pgm"),
                 ("verify", "--calib", disc, "--seed", "99", "--runs", "1000"),
                 ("verify", "--calib", line, "--seed", "99", "--runs", "1000"),
                 ("bench", "--example", "1", "--runs", "30", "--seed", "7",
                  "--methods", "median_ring", "--calib", f"median_ring={line}",
                  "--out", tmp_path / "b.csv")):
        capsys.readouterr()
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: validation: calibration artifact ") and message in err, (
            argv, err)
    assert not (tmp_path / "out.pgm").exists() and not (tmp_path / "b.csv").exists()


def test_artifact_estimator_versions(workdir, capsys):
    """No estimator line reads as version 1; only versions 1 and 2 load."""
    body = (workdir / "med.cal").read_text().splitlines()[1:]
    assert body[1] == "estimator: 2"
    old = workdir / "estimator1.cal"
    old.write_text(_rehashed(body[:1] + body[2:]))
    assert am.load_artifact(old).estimator == 1
    assert run("verify", "--calib", old, "--seed", "99", "--runs", "1000") == 0
    for bad in ("3", "0", "two"):
        path = workdir / f"estimator_{bad}.cal"
        path.write_text(_rehashed([body[0], f"estimator: {bad}"] + body[2:]))
        capsys.readouterr()
        rc = run("verify", "--calib", path, "--seed", "99", "--runs", "1000")
        err = capsys.readouterr().err
        assert rc == 1, (bad, err)
        assert err.startswith("error: validation: ") and f"estimator version '{bad}'" in err


def test_artifact_stream_versions(workdir, capsys):
    """No stream line reads as version 1; verify refuses other versions with exit 1."""
    body = (workdir / "med.cal").read_text().splitlines()[1:]
    assert body[2] == "stream: 2"
    old = workdir / "stream1.cal"
    old.write_text(_rehashed(body[:2] + body[3:]))
    assert am.load_artifact(old).stream == 1
    assert run("verify", "--calib", old, "--seed", "99", "--runs", "1000") == 0
    for bad in ("3", "0", "two"):
        path = workdir / f"stream_{bad}.cal"
        path.write_text(_rehashed(body[:2] + [f"stream: {bad}"] + body[3:]))
        capsys.readouterr()
        rc = run("verify", "--calib", path, "--seed", "99", "--runs", "1000")
        err = capsys.readouterr().err
        assert rc == 1, (bad, err)
        assert err.startswith("error: validation: ") and f"stream version '{bad}'" in err


DATA = Path(__file__).resolve().parent / "data"


def test_artifacts_of_earlier_versions_load_verify_and_resave(tmp_path, capsys):
    """Artifacts that earlier versions of the program wrote load, verify and re-save unchanged.

    Each was written by the CLI of the commit its name starts with
    (``git archive <commit> src``, then ``adaptmreg.cli.run_cli`` on
    PYTHONPATH=src):

    - 3e22d29_median_ring.cal: ``calibrate --family bench1d --loss median
      --runs 1000 --seed 11 --workers 1`` (no estimator or stream line);
    - 50ca8b8_median_disc.cal: ``calibrate --family disc2d --loss median
      --noise laplace --runs 1000 --seed 21 --workers 1`` (estimator 2, no
      stream line);
    - d70d3e5_median_lepski_mc.cal: ``calibrate --family bench1d --loss
      median --rule lepski --levels mc --levels-runs 1500 --pair mc
      --pair-runs 1200 --runs 1000 --seed 13`` with ADAPTMREG_WORKERS=1
      (pair levels drawn with other runs and seed than the window levels).
    """
    versions = {"3e22d29_median_ring.cal": (1, 1), "50ca8b8_median_disc.cal": (2, 1),
                "d70d3e5_median_lepski_mc.cal": (2, 2)}
    for name, (estimator, stream) in versions.items():
        art = am.load_artifact(DATA / name)
        assert (art.estimator, art.stream) == (estimator, stream), name
        assert run("verify", "--calib", DATA / name, "--seed", "99", "--runs", "1000") == 0
        assert capsys.readouterr().out.startswith("ratio: ")
        save_artifact(tmp_path / name, art)
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
    lepski = am.load_artifact(DATA / "d70d3e5_median_lepski_mc.cal")
    assert (lepski.levels.runs, lepski.levels.seed) == (1500, 14)
    assert (lepski.pair.runs, lepski.pair.seed) == (1200, 15)


def test_lepski_mc_artifact_is_rebuilt_byte_for_byte(tmp_path):
    """The library still writes d70d3e5_median_lepski_mc.cal from its recorded inputs."""
    meta = {"n": 200, "counts": am.benchmark_counts()}
    loss, noise = am.LossKind.median(), am.NoiseKind.laplace()
    config = am.CalibConfig(family_kind="line1d", family_meta=meta, loss=loss, noise=noise,
                            runs=1000, seed=13, rule="lepski")
    levels = am.levels_mc(config.family, loss, noise, 1500, seed=14)
    pair = am.pair_levels_mc(config.family, loss, noise, 1200, seed=15)
    art = am.calibrate(config, levels, pair)
    save_artifact(tmp_path / "lepski.cal", art)
    assert ((tmp_path / "lepski.cal").read_bytes()
            == (DATA / "d70d3e5_median_lepski_mc.cal").read_bytes())


@pytest.mark.parametrize("argv, digest", [
    (("--loss", "huber:1.345", "--levels", "mc", "--runs", "1000", "--seed", "3"),
     "a8eba85f65237f4ed33b79fd464ae6e430a8be0f74dbfc04454710bb4357bb76"),
    (("--loss", "median", "--mode", "sequential", "--runs", "2000", "--seed", "5"),
     "20e59adc4cb42dd36239efe8dc3ca31b7c46c4cdccc9d2e30278270dc17620e4"),
    (("--loss", "quantile:0.3", "--runs", "1500", "--seed", "6"),
     "ea8f5d8138de05712c39f38c69e66066f265976f49291127f8f559074b9a8437"),
], ids=["huber_mc", "sequential", "quantile"])
def test_fresh_artifacts_keep_their_bytes(tmp_path, argv, digest):
    """Fresh bench1d artifacts have the SHA-256 they had before the restricted search.

    The digests were taken with the full-evaluation search, the per-span
    sort copies and the take_along_axis Huber solver.
    """
    assert run("calibrate", "--family", "bench1d", *argv, "--out", tmp_path / "a.cal") == 0
    assert hashlib.sha256((tmp_path / "a.cal").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("edit, message", [
    (_set(family_radii=lambda v: "1.5 2.0"),
     "is 'family_radii: 1.5 2.0', where save_artifact writes 'family_radii: -'"),
    (_set(levels_runs=lambda v: "5"),
     "need at least 1000 monte carlo runs for the window levels, got 5"),
    (_set(pair_seed=lambda v: "-"), "the pair levels are monte_carlo, which needs a run count"),
    (lambda body: [x for x in body if not x.startswith("pair")],
     "the lepski rule needs pair levels"),
], ids=["family_radii", "levels_runs", "pair_seed", "no_pair_lines"])
def test_non_canonical_monte_carlo_lepski_artifacts_refused(tmp_path, capsys, edit, message):
    """The same rule holds for a line1d lepski artifact with Monte Carlo levels."""
    body = (DATA / "d70d3e5_median_lepski_mc.cal").read_text().splitlines()[1:]
    bad = tmp_path / "bad.cal"
    bad.write_text(_rehashed(edit(body)))
    for argv in (("verify", "--calib", bad, "--seed", "99", "--runs", "1000"),
                 ("bench", "--example", "1", "--runs", "30", "--seed", "7",
                  "--methods", "median_lepski", "--calib", f"median_lepski={bad}",
                  "--out", tmp_path / "b.csv")):
        capsys.readouterr()
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: validation: calibration artifact ") and message in err, (
            argv, err)
    assert not (tmp_path / "b.csv").exists()


def test_quantile_mc_levels_name_the_way_out(tmp_path, capsys):
    """Non-monotone Monte Carlo levels stop the zeta search with the cause."""
    rc = run("calibrate", "--family", "bench1d", "--loss", "quantile:0.3",
             "--levels", "mc", "--runs", "2000", "--seed", "5",
             "--out", tmp_path / "q.cal")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: validation: Monte Carlo levels are non-monotone at window ")
    assert "--levels asymptotic" in err and "--mode sequential" in err
    assert not (tmp_path / "q.cal").exists()


def module(*args):
    """python -m adaptmreg.cli with args, in a fresh process."""
    src = str(Path(am.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-m", "adaptmreg.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point(tmp_path):
    """python -m adaptmreg.cli runs the command line."""
    shown = module("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage: adaptmreg")
    missing = module("verify", "--calib", tmp_path / "none.cal", "--seed", "1")
    assert missing.returncode == 1
    assert missing.stderr.startswith("error: validation: cannot read calibration artifact")


def test_bench_partial_methods(workdir):
    out = workdir / "row.csv"
    rc = run("bench", "--example", "1", "--noise", "laplace", "--runs", "40",
             "--seed", "7", "--methods", "median_ring,median_oracle",
             "--calib", f"median_ring={workdir / 'med.cal'}", "--out", out)
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "example,noise,method,mc_median_abs_error,runs,seed"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "median_ring"


def test_bench_calib_directory_missing(workdir):
    rc = run("bench", "--example", "1", "--noise", "laplace", "--runs", "10",
             "--seed", "1", "--calib", workdir, "--out", workdir / "x.csv")
    assert rc == 1  # directory lacks <method>.cal files


def test_bench_trace_dump(workdir):
    out = workdir / "row2.csv"
    trace = workdir / "trace.txt"
    rc = run("bench", "--example", "1", "--noise", "laplace", "--runs", "10",
             "--seed", "7", "--methods", "median_ring,median_oracle",
             "--calib", f"median_ring={workdir / 'med.cal'}",
             "--trace", trace, "--out", out)
    assert rc == 0
    text = trace.read_text()
    assert text.startswith("# method median_ring k_hat ")
    assert "k j statistic threshold margin" in text


def test_bench_trace_is_replicate_zero(tmp_path):
    """The mean ring-rule trace reports the statistics bench computed on replicate 0.

    They equal |ring_k - base_j| bit for bit, with the estimates taken by
    window_estimates on replicate 0 alone in nearest-first order: bench
    averages C-ordered rows, so a mean row does not depend on its batch. And
    k_hat is bench's choice.
    """
    cal = tmp_path / "mean_ring.cal"
    assert run("calibrate", "--family", "bench1d", "--loss", "mean", "--runs", "2000",
               "--seed", "12", "--out", cal) == 0
    trace = tmp_path / "trace.txt"
    assert run("bench", "--example", "1", "--runs", "20", "--seed", "7",
               "--methods", "mean_ring", "--calib", f"mean_ring={cal}",
               "--trace", trace, "--out", tmp_path / "row.csv") == 0
    header, columns, *records = trace.read_text().splitlines()
    assert columns == "k j statistic threshold margin"

    art = am.load_artifact(cal)
    xs = am.equidistant_design(200)
    family = am.build_family_1d(xs, 0.0, art.config.family.counts)
    y = am.signal_step(xs) + am.sample_rows(am.NoiseKind.laplace(), 200, 7, 0, 1)
    bases, rings = am.window_estimates(y[:, family.order], family.counts, am.LossKind.mean())
    k_hat = int(am.select_ring_batch(bases, rings, art.levels, art.crit)[0])
    assert header == f"# method mean_ring k_hat {k_hat}"
    assert len(records) >= k_hat * (k_hat + 1) // 2
    for line in records:
        k, j, statistic = line.split()[:3]
        assert float(statistic) == abs(rings[0, int(k)] - bases[0, int(j)]), line


def test_prop1_and_studies(workdir):
    p = workdir / "p.csv"
    assert run("prop1", "--noise", "laplace", "--delta", "0.2", "--n", "200",
               "--runs", "2000", "--seed", "5", "--out", p) == 0
    assert p.read_text().startswith("kind,delta,n,runs,seed,")
    m = workdir / "m.csv"
    assert run("moments", "--noise", "gaussian", "--n-points", "101,201",
               "--runs", "4000", "--seed", "5", "--out", m) == 0
    assert len(m.read_text().strip().split("\n")) == 3
    t = workdir / "t.csv"
    assert run("tails", "--noise", "gaussian", "--n-points", "101",
               "--taus", "0,1,2", "--runs", "4000", "--seed", "5", "--out", t) == 0
    assert len(t.read_text().strip().split("\n")) == 4


def test_csv_determinism(workdir):
    a, b = workdir / "a.csv", workdir / "b.csv"
    for out in (a, b):
        assert run("moments", "--noise", "gaussian", "--n-points", "101",
                   "--runs", "3000", "--seed", "5", "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_results(workdir, capsys, monkeypatch):
    """moments, verify and a bench row are byte-identical for 1, 2 and 3 workers.

    Each run count exceeds two chunks, so every worker count splits the work.
    """
    runs = str(2 * CHUNK + 52)
    outputs = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("ADAPTMREG_WORKERS", workers)
        moments, bench = workdir / f"m{workers}.csv", workdir / f"b{workers}.csv"
        assert run("moments", "--noise", "gaussian", "--n-points", "101",
                   "--runs", "3000", "--seed", "5", "--out", moments) == 0
        capsys.readouterr()
        assert run("verify", "--calib", workdir / "med.cal", "--seed", "99",
                   "--runs", runs) == 0
        ratio = capsys.readouterr().out
        assert run("bench", "--example", "1", "--noise", "student_t", "--runs", runs,
                   "--methods", "median_ring,median_oracle",
                   "--calib", f"median_ring={workdir / 'med.cal'}", "--seed", "7",
                   "--out", bench) == 0
        outputs.append((moments.read_bytes(), ratio, bench.read_bytes()))
    assert outputs[0][1].startswith("ratio: ")
    assert outputs[0] == outputs[1] == outputs[2]


def test_calibrate_mc_levels_and_mc_pairs(tmp_path):
    out = tmp_path / "mc.cal"
    rc = run("calibrate", "--family", "bench1d", "--loss", "median",
             "--noise", "laplace", "--runs", "1500", "--levels", "mc",
             "--levels-runs", "1500", "--seed", "11", "--out", out)
    assert rc == 0
    from adaptmreg.calibration import load_artifact
    art = load_artifact(out)
    assert art.levels.method == "monte_carlo"
    out2 = tmp_path / "lep.cal"
    rc = run("calibrate", "--family", "bench1d", "--loss", "median",
             "--noise", "laplace", "--runs", "1500", "--rule", "lepski",
             "--levels", "mc", "--seed", "11", "--out", out2)
    assert rc == 0
    art2 = load_artifact(out2)
    assert art2.pair is not None and art2.pair.method == "monte_carlo"
    assert art2.pair.runs == 1500  # --runs, as --levels-runs is unset
    # sequential mode through the CLI
    out3 = tmp_path / "seq.cal"
    rc = run("calibrate", "--family", "bench1d", "--loss", "median",
             "--noise", "laplace", "--runs", "1500", "--mode", "sequential",
             "--seed", "11", "--out", out3)
    assert rc == 0
    assert load_artifact(out3).crit.zeta is None


def test_calibrate_prints_level_warnings(tmp_path, capsys):
    """Each Monte Carlo step's warning names its step on stderr; stdout keeps one line."""
    rc = run("calibrate", "--family", "bench1d", "--loss", "median", "--rule", "lepski",
             "--levels", "mc", "--levels-runs", "1200", "--runs", "1500", "--seed", "11",
             "--out", tmp_path / "w.cal")
    out, err = capsys.readouterr()
    assert rc == 0
    assert err.splitlines() == [
        "warning: only 1200 monte carlo runs for the window levels; estimates may be rough",
        "warning: only 1200 monte carlo runs for the pair levels; estimates may be rough",
        "warning: only 1500 monte carlo runs for the calibration; estimates may be rough"]
    assert out.startswith("calibrated lepski/zeta loss=median ") and out.count("\n") == 1


def test_levels_flag_sets_both_level_tables(tmp_path):
    """--levels and --levels-runs choose the pair levels too, drawn from seed + 2."""
    out = tmp_path / "lep.cal"
    assert run("calibrate", "--family", "bench1d", "--loss", "median", "--rule", "lepski",
               "--levels", "mc", "--levels-runs", "1200", "--runs", "1500",
               "--seed", "11", "--out", out) == 0
    text = out.read_text().splitlines()
    for line in ("levels_method: monte_carlo", "levels_runs: 1200", "levels_seed: 12",
                 "pair_method: monte_carlo", "pair_runs: 1200", "pair_seed: 13"):
        assert line in text, line
    art = am.load_artifact(out)
    want = am.pair_levels_mc(art.config.family, art.config.loss, art.config.noise, 1200,
                             seed=13)
    assert np.array_equal(art.pair.s_pair, want.s_pair, equal_nan=True)


@pytest.mark.parametrize("flag", [("--pair", "mc"), ("--pair-runs", "1200")],
                         ids=["pair", "pair_runs"])
def test_pair_flags_are_gone(tmp_path, capsys, flag):
    out = tmp_path / "x.cal"
    assert run("calibrate", "--rule", "lepski", *flag, "--runs", "1000", "--seed", "1",
               "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: validation: unrecognized arguments: {' '.join(flag)}\n")
    assert not out.exists()


@pytest.mark.parametrize("loss", ["mean", "huber:1.345"])
@pytest.mark.parametrize("rule", ["ring", "lepski"])
def test_asymptotic_levels_refuse_other_losses_alike(tmp_path, capsys, loss, rule):
    """Window and pair levels refuse a mean or Huber loss with one message."""
    message = "asymptotic levels apply to median and quantile losses"
    family = am.build_family_1d(am.equidistant_design(60), 0.0, [5, 9, 17])
    lap = am.NoiseKind.laplace()
    for build in (am.levels_asymptotic, am.pair_levels_asymptotic):
        with pytest.raises(am.ValidationError, match=f"^{message}$"):
            build(family, parse_loss(loss), lap)
    out = tmp_path / "x.cal"
    assert run("calibrate", "--loss", loss, "--rule", rule, "--levels", "asymptotic",
               "--runs", "1000", "--seed", "1", "--out", out) == 1
    assert capsys.readouterr().err == f"error: validation: {message}\n"
    assert not out.exists()


# small study commands and the exact CSV text the hand-written writers gave them
CSV_PINS = {
    "bench": (("bench", "--example", "2", "--noise", "gaussian", "--runs", "30",
               "--seed", "5"),
              "example,noise,method,mc_median_abs_error,runs,seed\n"
              "2,gaussian,mean_lepski,0.20685062818811584,30,5\n"
              "2,gaussian,mean_ring,0.1887358956413543,30,5\n"
              "2,gaussian,median_lepski,0.3034343301277409,30,5\n"
              "2,gaussian,median_ring,0.1218377763227124,30,5\n"
              "2,gaussian,median_oracle,0.12657453242556943,30,5\n"),
    "prop1": (("prop1", "--delta", "0.2", "--n", "51", "--runs", "40", "--seed", "3"),
              "kind,delta,n,runs,seed,var_w_mc,var_l_mc,var_w_formula,var_l_formula\n"
              "laplace,0.2,51,40,3,1.6866448836196026,1.9188182498525224,"
              "1.0000000000000002,1.303819820337818\n"),
    "moments": (("moments", "--n-points", "11,21", "--r", "1.5", "--runs", "40",
                 "--seed", "3"),
                "kind,r,n_points,runs,seed,raw_moment,normalized_moment\n"
                "laplace,1.5,11,40,3,0.0872721378894048,1.030798983072202\n"
                "laplace,1.5,21,40,3,0.06239326189783913,1.196894895110534\n"),
    "tails": (("tails", "--n-points", "21", "--taus", "0,0.5,2", "--runs", "40",
               "--seed", "3"),
              "kind,n_points,tau,runs,seed,exceedance,bound\n"
              "laplace,21,0.0,40,3,1.0,2.0\n"
              "laplace,21,0.5,40,3,0.65,1.9384664689526883\n"
              "laplace,21,2.0,40,3,0.1,1.2130613194252668\n"),
    "simulate": (("simulate", "--example", "2", "--n", "6", "--seed", "3"),
                 "i,x,g,y\n"
                 "0,-1.0,-0.0,0.06106825107791198\n"
                 "1,-0.6,-0.48,-0.6765197724961325\n"
                 "2,-0.19999999999999996,-0.31999999999999995,0.8150796376006068\n"
                 "3,0.20000000000000018,0.4800000000000005,0.6688252978311662\n"
                 "4,0.6000000000000001,1.9200000000000004,1.399123293604672\n"
                 "5,1.0,4.0,3.8078073825298366\n"),
}


def test_csv_outputs_pinned(bench_artifacts, tmp_path):
    """Every CSV command goes through one writer and keeps its exact text."""
    for method, art in bench_artifacts.items():
        save_artifact(tmp_path / f"{method}.cal", art)
    for name, (argv, text) in CSV_PINS.items():
        extra = ("--calib", tmp_path) if name == "bench" else ()
        out = tmp_path / f"{name}.csv"
        assert run(*argv, *extra, "--out", out) == 0, name
        assert out.read_text() == text, name


@pytest.mark.parametrize("argv", [
    ("tails", "--n-points", "21", "--taus", ",", "--runs", "40"),
    ("moments", "--n-points", ",", "--runs", "40"),
], ids=["tails", "moments"])
def test_empty_studies_refused_before_drawing(tmp_path, capsys, monkeypatch, argv):
    """An empty --taus or --n-points list exits 1 before any replicate is drawn."""
    import adaptmreg.experiments as ex

    def no_draws(*args):
        raise AssertionError("drew replicates for an empty study")

    monkeypatch.setattr(ex, "sample_rows", no_draws)
    out = tmp_path / "empty.csv"
    assert run(*argv, "--seed", "3", "--out", out) == 1
    assert "needs at least one" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("moments", "--n-points", "11", "--r", "nan", "--runs", "40"),
    ("moments", "--n-points", "11", "--r", "inf", "--runs", "40"),
    ("tails", "--n-points", "21", "--taus", "0,1", "--runs", "0"),
    ("tails", "--n-points", "21", "--taus", "nan", "--runs", "40"),
    ("prop1", "--delta", "nan", "--n", "51", "--runs", "40"),
    ("prop1", "--delta", "inf", "--n", "51", "--runs", "40"),
], ids=["moments_r_nan", "moments_r_inf", "tails_runs_0", "tails_tau_nan", "prop1_delta_nan",
        "prop1_delta_inf"])
def test_bad_study_numbers_refused_before_drawing(tmp_path, capsys, monkeypatch, argv):
    """A non-finite r, tau or delta, or zero runs, exits 1 before any replicate is drawn.

    These used to write NaN rows (or fail with exit 2 on an infinite delta).
    """
    import adaptmreg.experiments as ex

    def no_draws(*args):
        raise AssertionError("drew replicates for a refused study")

    monkeypatch.setattr(ex, "sample_rows", no_draws)
    out = tmp_path / "bad.csv"
    assert run(*argv, "--seed", "3", "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: validation: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("calibrate", "--loss", "quantile:abc", "--seed", "1", "--out", "x.cal"), "--loss"),
    (("calibrate", "--loss", "huber:", "--seed", "1", "--out", "x.cal"), "--loss"),
    (("calibrate", "--noise", "student_t:x", "--seed", "1", "--out", "x.cal"), "--noise"),
    (("moments", "--n-points", "1,a", "--seed", "1", "--out", "x.csv"), "--n-points"),
    (("tails", "--taus", "0,x", "--seed", "1", "--out", "x.csv"), "--taus"),
    (("denoise", "--sigma", "abc", "--out", "x.pgm"), "--sigma"),
    (("denoise", "--sigma", "inf", "--out", "x.pgm"), "sigma"),
    (("denoise", "--sigma", "nan", "--out", "x.pgm"), "sigma"),
    (("denoise", "--sigma=-1", "--out", "x.pgm"), "sigma"),
], ids=["quantile", "huber", "student_t", "n_points", "taus", "sigma_abc", "sigma_inf",
        "sigma_nan", "sigma_negative"])
def test_malformed_numbers_exit_1(disc_cal, tmp_path, capsys, monkeypatch, argv, flag):
    """A value that is not a number, or an unusable noise scale, names its flag: exit 1."""
    monkeypatch.chdir(tmp_path)
    if argv[0] == "denoise":
        argv = argv + ("--in", disc_cal / "in.pgm", "--calib", disc_cal / "d.cal")
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation: ") and flag in err, err
    assert not any(tmp_path.iterdir())


def test_verify_run_count_names_the_verification(workdir, capsys):
    assert run("verify", "--calib", workdir / "med.cal", "--seed", "99", "--runs", "500") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation: need at least 1000 monte carlo runs for "
                          "the verification, got 500"), err


def test_calibrate_refuses_its_config_before_drawing(tmp_path, capsys, monkeypatch):
    """A calibration setting is refused before any Monte Carlo level is drawn."""
    import adaptmreg.levels as lv

    def no_draws(*args):
        raise AssertionError("drew replicates for a refused calibration")

    monkeypatch.setattr(lv, "sample_rows", no_draws)
    out = tmp_path / "h.cal"
    assert run("calibrate", "--loss", "huber:1.345", "--alpha", "0", "--runs", "10000",
               "--seed", "1", "--out", out) == 1
    assert capsys.readouterr().err == "error: validation: alpha must be positive\n"
    assert not out.exists()
    # exact levels are those of sample means, so they describe no other loss
    for loss in ("median", "huber:1.345", "quantile:0.3"):
        assert run("calibrate", "--loss", loss, "--levels", "exact", "--runs", "1000",
                   "--seed", "3", "--out", out) == 1
        assert (capsys.readouterr().err
                == "error: validation: exact mean levels apply to mean losses\n")
        assert not out.exists()


@pytest.mark.parametrize("flag, value, name", [
    ("--r", "nan", "moment order r"), ("--r", "inf", "moment order r"),
    ("--alpha", "inf", "alpha"), ("--alpha", "nan", "alpha"),
], ids=["r_nan", "r_inf", "alpha_inf", "alpha_nan"])
def test_calibrate_refuses_non_finite_r_and_alpha(tmp_path, capsys, monkeypatch,
                                                 flag, value, name):
    """A non-finite r or alpha exits 1, naming it, before any draw and with no file."""
    import adaptmreg.levels as lv

    def no_draws(*args):
        raise AssertionError("drew replicates for a refused calibration")

    monkeypatch.setattr(lv, "sample_rows", no_draws)
    out = tmp_path / "x.cal"
    assert run("calibrate", "--loss", "huber:1.345", flag, value, "--seed", "1",
               "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: validation: {name} must be finite, got {float(value)!r}\n")
    assert not out.exists()


def test_degenerate_thresholds_refused_by_every_command(workdir, disc_cal, tmp_path, capsys):
    """Ring-rule zeta thresholds that break z_k * s_k non-increasing never make an artifact.

    A huge alpha drives them there: calibrate exits 1 and writes nothing. A
    re-hashed artifact holding such values is refused by every command.
    """
    message = "z_k * s_k must be non-increasing in k"
    out = tmp_path / "a100.cal"
    assert run("calibrate", "--family", "disc2d", "--loss", "median", "--alpha", "100",
               "--runs", "1000", "--seed", "21", "--out", out) == 1
    assert capsys.readouterr().err == f"error: validation: {message}\n"
    assert not out.exists()

    def shrunk(path):
        # z_k = (zeta * arg_k)^(1/2): zeta times 1e-6 is z times 1e-3
        edits = {"z": lambda v: " ".join(repr(1e-3 * float(x)) for x in v.split()),
                 "zeta": lambda v: repr(1e-6 * float(v))}
        body = [f"{k}: {edits[k](v)}" if k in edits else x
                for x in path.read_text().splitlines()[1:] for k, _, v in [x.partition(": ")]]
        bad = tmp_path / f"small_z_{path.name}"
        bad.write_text(_rehashed(body))
        return bad

    disc, line = shrunk(disc_cal / "d.cal"), shrunk(workdir / "med.cal")
    for argv in (("denoise", "--in", disc_cal / "in.pgm", "--calib", disc,
                  "--out", tmp_path / "out.pgm"),
                 ("verify", "--calib", disc, "--seed", "99", "--runs", "1000"),
                 ("verify", "--calib", line, "--seed", "99", "--runs", "1000"),
                 ("bench", "--example", "1", "--runs", "30", "--seed", "7",
                  "--methods", "median_ring", "--calib", f"median_ring={line}",
                  "--out", tmp_path / "b.csv")):
        assert run(*argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: validation: ") and message in err, (argv, err)
    assert not (tmp_path / "out.pgm").exists() and not (tmp_path / "b.csv").exists()


def test_simulate(workdir):
    out = workdir / "sim.csv"
    assert run("simulate", "--example", "2", "--noise", "student_t", "--n", "50",
               "--seed", "3", "--out", out) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "i,x,g,y"
    assert len(lines) == 51
    i, x, g, y = lines[1].split(",")
    assert float(x) == -1.0 and float(g) == 0.0


def test_denoise_cli(tmp_path):
    # quick 2d artifact with small discs
    cal = tmp_path / "d2.cal"
    rc = run("calibrate", "--family", "disc2d", "--radius-levels", "4",
             "--loss", "median", "--noise", "laplace", "--runs", "2000",
             "--seed", "21", "--out", cal)
    assert rc == 0
    clean = np.full((24, 24), 90.0)
    noisy = tmp_path / "in.pgm"
    rng = np.random.default_rng(3)
    write_pgm(noisy, clean + rng.laplace(0, 6 * 2 ** -0.5, size=(24, 24)), maxval=255)
    out = tmp_path / "out.pgm"
    khat = tmp_path / "khat.pgm"
    rc = run("denoise", "--in", noisy, "--calib", cal, "--sigma", "auto",
             "--out", out, "--khat", khat)
    assert rc == 0
    denoised, maxval = read_pgm(out)
    assert maxval == 255
    assert abs(denoised.mean() - 90.0) < 4.0
    kh, levels = read_pgm(khat)
    assert kh.shape == (24, 24)
    assert kh.max() <= levels  # map scaled to the number of growth steps
    # run again: byte identical
    out2 = tmp_path / "out2.pgm"
    rc = run("denoise", "--in", noisy, "--calib", cal, "--sigma", "auto",
             "--out", out2, "--khat", tmp_path / "k2.pgm")
    assert rc == 0
    assert out.read_bytes() == out2.read_bytes()


def test_denoise_grid_io(tmp_path):
    cal = tmp_path / "d2.cal"
    assert run("calibrate", "--family", "disc2d", "--radius-levels", "3",
               "--loss", "median", "--noise", "laplace", "--runs", "2000",
               "--seed", "21", "--out", cal) == 0
    from adaptmreg.pgmio import read_grid, write_grid
    rng = np.random.default_rng(4)
    data = rng.laplace(size=(16, 16))
    src = tmp_path / "in.grid"
    write_grid(src, data)
    dst = tmp_path / "out.grid"
    assert run("denoise", "--in", src, "--calib", cal, "--sigma", "1.0",
               "--out", dst) == 0
    assert read_grid(dst).shape == (16, 16)


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "common.cfg"
    cfg.write_text("noise = gaussian\nruns = 3000\nn-points = 101\n")
    out = tmp_path / "m.csv"
    rc = run("moments", "--config", cfg, "--seed", "5", "--out", out)
    assert rc == 0
    assert ",gaussian," not in out.read_text()  # kind column comes first
    assert out.read_text().splitlines()[1].startswith("gaussian,")
    # explicit flag overrides the file
    out2 = tmp_path / "m2.csv"
    rc = run("moments", "--config", cfg, "--noise", "laplace", "--seed", "5",
             "--out", out2)
    assert rc == 0
    assert out2.read_text().splitlines()[1].startswith("laplace,")


@pytest.mark.parametrize("argv", [
    ("--config={cfg}", "--noise", "laplace"),
    ("--config", "{cfg}", "--noise=laplace"),
    ("--config", "{cfg}", "--nois", "laplace"),
    ("--noise=laplace", "--config={cfg}"),
    ("--conf", "{cfg}", "--noise", "laplace"),
    ("--conf={cfg}", "--noise", "laplace"),
], ids=["config_equals", "noise_equals", "abbreviation", "flag_first", "config_abbreviation",
        "config_abbreviation_equals"])
def test_config_file_loses_to_every_flag_spelling(tmp_path, argv):
    """The file's settings are defaults, whatever the spelling of the flag or of --config."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("noise = gaussian\nruns = 50\n")
    out = tmp_path / "m.csv"
    assert run("moments", *(a.format(cfg=cfg) for a in argv), "--n-points", "11",
               "--seed", "5", "--out", out) == 0
    # laplace from the flag, 50 runs from the file
    assert out.read_text().splitlines()[1].startswith("laplace,2.0,11,50,5,")


def test_one_parser_per_process():
    assert _build_parser() is _build_parser()


def test_config_file_leaves_no_defaults_behind(tmp_path):
    """After a --config call, the same command without it reads as in a fresh process."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("noise = gaussian\nn-points = 11,21\n")
    argv = ["moments", "--runs", "50", "--seed", "5"]
    assert run(*argv, "--config", cfg, "--out", tmp_path / "with.csv") == 0
    assert run(*argv, "--out", tmp_path / "reused.csv") == 0
    assert module(*argv, "--out", tmp_path / "fresh.csv").returncode == 0
    assert (tmp_path / "with.csv").read_text().splitlines()[1].startswith("gaussian,2.0,11,50,5,")
    assert (tmp_path / "with.csv").read_text() != (tmp_path / "fresh.csv").read_text()
    assert (tmp_path / "reused.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.parametrize("refused", [("moments", "--seed", "5", "--out", "x.csv", "--bogus"),
                                     ("-h",), ("moments", "-h")],
                         ids=["unknown_flag", "help", "command_help"])
def test_parser_serves_a_call_after_a_refused_one(tmp_path, capsys, refused):
    """A parse that exits (an unknown flag, or -h) leaves the shared parser usable."""
    argv = ["moments", "--runs", "50", "--n-points", "11", "--seed", "5"]
    assert run(*argv, "--out", tmp_path / "before.csv") == 0
    capsys.readouterr()
    if "-h" in refused:
        with pytest.raises(SystemExit) as exc:
            run(*refused)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: adaptmreg")
    else:
        assert run(*refused) == 1
        assert capsys.readouterr().err == "error: validation: unrecognized arguments: --bogus\n"
    assert run(*argv, "--out", tmp_path / "after.csv") == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = yes\n")
    assert run("moments", "--config", cfg, "--seed", "1",
               "--out", tmp_path / "x.csv") == 1
    # a config key is refused too, in either spelling of --config
    cfg.write_text(f"config = {cfg}\n")
    assert run("moments", f"--config={cfg}", "--seed", "1",
               "--out", tmp_path / "x.csv") == 1
    assert capsys.readouterr().err.endswith("error: validation: config files cannot nest\n")


def test_validation_exit_codes(tmp_path, capsys):
    assert run("calibrate", "--out", tmp_path / "x.cal") == 1  # missing seed
    assert run("bench", "--bogus") == 1  # unknown flag
    # the worker count is set by ADAPTMREG_WORKERS alone
    assert run("moments", "--seed", "1", "--workers", "2", "--out", tmp_path / "x.csv") == 1
    assert run("nosuchcommand") == 1
    # an artifact file that does not exist is a bad input
    assert run("verify", "--calib", tmp_path / "none.cal", "--seed", "1") == 1
    # so is a config file that does not exist
    capsys.readouterr()
    assert run("moments", "--config", tmp_path / "nope.cfg", "--seed", "1",
               "--out", tmp_path / "x.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation: cannot read config file") and "nope.cfg" in err
    # and so is an input image that does not exist, PGM or grid
    cal = tmp_path / "d2.cal"
    assert run("calibrate", "--family", "disc2d", "--radius-levels", "3",
               "--runs", "2000", "--seed", "21", "--out", cal) == 0
    for name in ("missing.pgm", "missing.grid"):
        capsys.readouterr()
        assert run("denoise", "--in", tmp_path / name, "--calib", cal,
                   "--out", tmp_path / "x.pgm") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation: ") and name in err
    # the denoiser runs the ring rule, so a classical-rule artifact is refused
    lepski = tmp_path / "lepski.cal"
    assert run("calibrate", "--family", "disc2d", "--radius-levels", "3", "--rule", "lepski",
               "--runs", "2000", "--seed", "21", "--out", lepski) == 0
    write_pgm(tmp_path / "flat.pgm", np.full((12, 12), 90.0), maxval=255)
    capsys.readouterr()
    assert run("denoise", "--in", tmp_path / "flat.pgm", "--calib", lepski,
               "--out", tmp_path / "x.pgm") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation: ") and "lepski rule" in err
    assert not (tmp_path / "x.pgm").exists()
    # exact levels describe the mean only
    for loss in ("median", "huber:1.345", "quantile:0.3"):
        capsys.readouterr()
        assert run("calibrate", "--loss", loss, "--levels", "exact", "--runs", "1000",
                   "--seed", "3", "--out", tmp_path / "x.cal") == 1
        assert capsys.readouterr().err.startswith("error: validation: ")
        assert not (tmp_path / "x.cal").exists()
    # a bench --calib entry that no method of --methods uses is refused
    # before anything is written
    capsys.readouterr()
    assert run("bench", "--example", "1", "--runs", "10", "--seed", "7",
               "--methods", "median_oracle", "--calib", f"foo={cal}",
               "--trace", tmp_path / "t.txt", "--out", tmp_path / "b.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation: --calib entry") and "foo=" in err
    assert not (tmp_path / "t.txt").exists() and not (tmp_path / "b.csv").exists()
    # so are malformed PGM and grid headers
    for name, data in (("w.pgm", b"P5\nab 4\n255\n" + bytes(16)),
                       ("m.pgm", b"P5\n4 4\n2x5\n" + bytes(16)),
                       ("h.grid", b"AMRGRID1\nx 2\n" + bytes(16))):
        (tmp_path / name).write_bytes(data)
        capsys.readouterr()
        assert run("denoise", "--in", tmp_path / name, "--calib", cal,
                   "--out", tmp_path / "x.pgm") == 1
        assert capsys.readouterr().err.startswith("error: validation: ")
    # zero disc arguments are refused, not replaced by the defaults
    for flag in ("--radius0", "--radius-levels", "--radius-growth"):
        capsys.readouterr()
        assert run("calibrate", "--family", "disc2d", flag, "0", "--runs", "2000",
                   "--seed", "21", "--out", tmp_path / "z.cal") == 1
        assert capsys.readouterr().err.startswith("error: validation: ")
    # so is a zero Monte Carlo level run count, not replaced by --runs
    capsys.readouterr()
    assert run("calibrate", "--loss", "huber:1.345", "--levels", "mc", "--levels-runs", "0",
               "--runs", "2000", "--seed", "21", "--out", tmp_path / "z.cal") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation: ") and "for the window levels" in err, err
    assert not (tmp_path / "z.cal").exists()
    # a level run count is refused unless --levels gives Monte Carlo levels
    for levels in ("asymptotic", "auto"):
        capsys.readouterr()
        assert run("calibrate", "--loss", "median", "--levels", levels, "--levels-runs", "5",
                   "--runs", "1000", "--seed", "3", "--out", tmp_path / "z.cal") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation: --levels-runs ") and "asymptotic" in err, err
        assert not (tmp_path / "z.cal").exists()
    # --levels auto with a huber loss gives Monte Carlo levels, and takes the flag
    assert run("calibrate", "--loss", "huber:1.345", "--levels-runs", "1000",
               "--runs", "1000", "--seed", "3", "--out", tmp_path / "h.cal") == 0
    assert am.load_artifact(tmp_path / "h.cal").levels.runs == 1000


def test_bench_refuses_artifacts_of_another_design(workdir, tmp_path, capsys):
    """bench selects on the artifacts' own family: a line1d family over --n points at 0.

    An artifact centred elsewhere is refused when it loads, and one over
    another number of points by bench; either exits 1 and writes no CSV.
    """
    body = (workdir / "med.cal").read_text().splitlines()[1:]
    off = tmp_path / "off.cal"
    off.write_text(_rehashed(_set(family_center=lambda v: "0.5")(body)))
    centre = "is 'family_center: 0.5', where save_artifact writes 'family_center: 0.0'"
    for calib, n, start, part in (
            (off, "200", f"calibration artifact {off}: line ", centre),
            (workdir / "med.cal", "300",
             "artifact for median_ring does not match an n=300 design centred at 0", "")):
        capsys.readouterr()
        assert run("bench", "--example", "1", "--runs", "30", "--seed", "7", "--n", n,
                   "--methods", "median_ring", "--calib", f"median_ring={calib}",
                   "--out", tmp_path / "b.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation: " + start) and part in err, err
        assert not (tmp_path / "b.csv").exists()
