import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptmreg as am
from adaptmreg.cli import parse_loss, run_cli
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
    rc = run("verify", "--calib", workdir / "med.cal", "--seed", "99",
             "--runs", "2000")
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("ratio: ")
    float(out.split(":")[1])


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


def test_module_entry_point(tmp_path):
    """python -m adaptmreg.cli runs the command line."""
    src = str(Path(am.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}

    def module(*args):
        return subprocess.run([sys.executable, "-m", "adaptmreg.cli", *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=120)

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
    window_estimates over bench's whole 20-row chunk in nearest-first order
    (mean estimates of a one-row batch can round differently), and k_hat is
    bench's choice.
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
    family = am.build_family_1d(xs, 0.0, art.counts)
    y = am.signal_step(xs) + am.sample_rows(am.NoiseKind.laplace(), 200, 7, 0, 20)
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


def test_worker_flag_does_not_change_results(workdir, capsys):
    """moments, verify and a bench row are byte-identical for 1, 2 and 3 workers.

    Each run count exceeds two chunks, so every worker count splits the work.
    """
    runs = str(2 * CHUNK + 52)
    outputs = []
    for workers in ("1", "2", "3"):
        moments, bench = workdir / f"m{workers}.csv", workdir / f"b{workers}.csv"
        assert run("moments", "--noise", "gaussian", "--n-points", "101",
                   "--runs", "3000", "--seed", "5", "--workers", workers,
                   "--out", moments) == 0
        capsys.readouterr()
        assert run("verify", "--calib", workdir / "med.cal", "--seed", "99",
                   "--runs", runs, "--workers", workers) == 0
        ratio = capsys.readouterr().out
        assert run("bench", "--example", "1", "--noise", "student_t", "--runs", runs,
                   "--methods", "median_ring,median_oracle",
                   "--calib", f"median_ring={workdir / 'med.cal'}", "--seed", "7",
                   "--workers", workers, "--out", bench) == 0
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
             "--pair", "mc", "--pair-runs", "1200", "--seed", "11", "--out", out2)
    assert rc == 0
    art2 = load_artifact(out2)
    assert art2.pair is not None and art2.pair.method == "monte_carlo"
    # sequential mode through the CLI
    out3 = tmp_path / "seq.cal"
    rc = run("calibrate", "--family", "bench1d", "--loss", "median",
             "--noise", "laplace", "--runs", "1500", "--mode", "sequential",
             "--seed", "11", "--out", out3)
    assert rc == 0
    assert load_artifact(out3).zeta is None


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


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = yes\n")
    assert run("moments", "--config", cfg, "--seed", "1",
               "--out", tmp_path / "x.csv") == 1


def test_validation_exit_codes(tmp_path, capsys):
    assert run("calibrate", "--out", tmp_path / "x.cal") == 1  # missing seed
    assert run("bench", "--bogus") == 1  # unknown flag
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
    assert not (tmp_path / "z.cal").exists()
