import hashlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

import adaptmreg as am
from adaptmreg import NoiseKind, RngStream, density_at_zero, sample_noise
from adaptmreg.noise import (abs_diff_median, cdf, density, parse_noise, quantile_point,
                             sample_rows)
from adaptmreg.parallel import CHUNK

KINDS = [NoiseKind.laplace(), NoiseKind.gaussian(), NoiseKind.student_t(3)]
SRC = pathlib.Path(am.__file__).resolve().parent.parent


def test_empty_draw():
    assert sample_noise(NoiseKind.laplace(), 0, RngStream(1, 2)).size == 0


def test_determinism_and_stream_separation():
    a = sample_noise(NoiseKind.gaussian(), 50, RngStream(42, 7))
    b = sample_noise(NoiseKind.gaussian(), 50, RngStream(42, 7))
    c = sample_noise(NoiseKind.gaussian(), 50, RngStream(42, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", [NoiseKind.laplace(), NoiseKind.gaussian()])
def test_unit_variance_million_draws(kind):
    x = sample_noise(kind, 10 ** 6, RngStream(1, 0))
    assert 0.99 <= x.var() <= 1.01


@pytest.mark.parametrize("kind", KINDS)
def test_symmetry_median_within_3_se(kind):
    x = sample_noise(kind, 10 ** 6, RngStream(2, 0))
    se = 1.0 / (2.0 * density_at_zero(kind) * math.sqrt(x.size))
    assert abs(np.median(x)) <= 3.0 * se


def test_stream_independence_correlation():
    a = sample_noise(NoiseKind.laplace(), 10 ** 5, RngStream(3, 0))
    b = sample_noise(NoiseKind.laplace(), 10 ** 5, RngStream(3, 1))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_density_at_zero_frozen_values():
    assert density_at_zero(NoiseKind.laplace()) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert density_at_zero(NoiseKind.gaussian()) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)
    assert density_at_zero(NoiseKind.student_t(3)) == pytest.approx(2 / math.pi, abs=1e-12)


def test_density_against_scipy():
    assert density_at_zero(NoiseKind.laplace()) == pytest.approx(
        stats.laplace(scale=2 ** -0.5).pdf(0.0), abs=1e-12)
    c = math.sqrt(3.0)
    assert density_at_zero(NoiseKind.student_t(3)) == pytest.approx(
        c * stats.t(3).pdf(0.0), abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_cdf_density_consistency(kind):
    h = 1e-6
    for x in (-1.3, -0.2, 0.0, 0.4, 2.1):
        numeric = (cdf(kind, x + h) - cdf(kind, x - h)) / (2 * h)
        assert numeric == pytest.approx(density(kind, x), rel=1e-4)


@pytest.mark.parametrize("kind", KINDS)
def test_quantile_point_inverts_cdf(kind):
    for a in (0.05, 0.25, 0.5, 0.9):
        assert cdf(kind, quantile_point(kind, a)) == pytest.approx(a, abs=1e-9)
    assert quantile_point(kind, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_abs_diff_median_laplace_closed_form():
    # P(|X - X'| <= c) = 1/2 reduces to (2 + u) e^-u = 1 with u = c / b
    from scipy.optimize import brentq
    u = brentq(lambda t: (2.0 + t) * math.exp(-t) - 1.0, 0.1, 5.0, xtol=1e-12)
    m = abs_diff_median(NoiseKind.laplace())
    assert m == pytest.approx(u * 2 ** -0.5, abs=1e-9)
    # and the closed-form tail P(|X - X'| > m) = (1 + u/2) e^-u is 1/2 to the last bits
    u = m / 2 ** -0.5
    assert abs(1.0 - (1.0 + 0.5 * u) * math.exp(-u) - 0.5) <= 1e-15


def test_abs_diff_median_gaussian_closed_form():
    from scipy.special import ndtri
    assert abs_diff_median(NoiseKind.gaussian()) == pytest.approx(
        math.sqrt(2.0) * ndtri(0.75), abs=1e-9)


@pytest.mark.parametrize("kind,law", [(NoiseKind.laplace(), stats.laplace(scale=2 ** -0.5)),
                                      (NoiseKind.gaussian(), stats.norm())],
                         ids=["laplace", "gaussian"])
def test_abs_diff_median_matches_quadrature(kind, law):
    """The closed forms agree with P(|X - X'| <= c) = 1/2 solved by quadrature."""
    def prob_within(c):
        val, _ = integrate.quad(lambda x: law.pdf(x) * (law.cdf(x + c) - law.cdf(x - c)),
                                -np.inf, np.inf, limit=200)
        return val

    want = optimize.brentq(lambda c: prob_within(c) - 0.5, 1e-9, 20.0, xtol=1e-12)
    assert abs_diff_median(kind) == pytest.approx(want, rel=1e-9)


def test_gaussian_cdf_against_ndtr():
    """Relative accuracy deep in the left tail, where 1 + erf(x) cancels.

    Rounding x / sqrt(2) alone moves Phi(x) by a relative x^2 2^-53 or so,
    in ndtr as well (1.5e-13 from the exact value at x = -28.3), so the
    tolerance grows with x^2. A 1 + erf(x) form is off by 4e-11 at x = -5
    and 2 % at x = -8, and returns 0 below x = -8.37.
    """
    kind = NoiseKind.gaussian()
    for x in np.linspace(-30.0, 8.0, 3801):
        want = special.ndtr(x)
        assert abs(cdf(kind, float(x)) - want) <= (1e-13 + 4 * x * x * 2.0 ** -53) * want


def test_gaussian_quantile_against_ndtri():
    kind = NoiseKind.gaussian()
    for a in np.linspace(0.001, 0.999, 999):
        assert abs(quantile_point(kind, float(a)) - special.ndtri(a)) <= 1e-15
    assert quantile_point(kind, 0.5) == 0.0


def test_abs_diff_median_student_mc():
    kind = NoiseKind.student_t(3)
    x = sample_noise(kind, 2 * 10 ** 5, RngStream(9, 0))
    mc = np.median(np.abs(x[::2] - x[1::2]))
    assert abs_diff_median(kind) == pytest.approx(mc, rel=0.02)


def test_scale_factor():
    base = sample_noise(NoiseKind.laplace(), 10, RngStream(4, 4))
    scaled = sample_noise(NoiseKind.laplace(scale=2.5), 10, RngStream(4, 4))
    assert np.allclose(scaled, 2.5 * base)


def test_validation():
    with pytest.raises(ValueError):
        NoiseKind.student_t(2)
    with pytest.raises(ValueError):
        NoiseKind("cauchy")
    with pytest.raises(ValueError):
        NoiseKind.laplace(scale=-1.0)
    with pytest.raises(ValueError):
        sample_noise(NoiseKind.laplace(), -1, RngStream(0, 0))


def test_parse_noise():
    assert parse_noise("laplace") == NoiseKind.laplace()
    assert parse_noise("gaussian") == NoiseKind.gaussian()
    assert parse_noise("student_t") == NoiseKind.student_t(3)
    assert parse_noise("student_t:4") == NoiseKind.student_t(4)
    assert parse_noise("student_t5") == NoiseKind.student_t(5)
    with pytest.raises(ValueError):
        parse_noise("uniform")


@pytest.mark.parametrize("kind", KINDS + [NoiseKind.laplace(scale=2.5)],
                         ids=lambda k: f"{k.label}-{k.scale}")
@pytest.mark.parametrize("seed", [0, -5, 2 ** 32 + 5, 2 ** 63 + 17])
@pytest.mark.parametrize("lo,hi", [(0, 9), (2 ** 32 - 3, 2 ** 32 + 3), (7, 7)])
def test_sample_rows_matches_substreams(kind, seed, lo, hi):
    """Bulk seeding reproduces every stacked per-stream draw byte for byte."""
    n = 13
    got = sample_rows(kind, n, seed, lo, hi)
    want = np.array([sample_noise(kind, n, RngStream(seed, i))
                     for i in range(lo, hi)]).reshape(hi - lo, n)
    assert got.shape == (hi - lo, n)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_sample_rows_validation():
    with pytest.raises(ValueError):
        sample_rows(NoiseKind.laplace(), -1, 0, 0, 3)
    with pytest.raises(ValueError):
        sample_rows(NoiseKind.laplace(), 5, 0, 3, 2)
    with pytest.raises(ValueError):
        sample_rows(NoiseKind.laplace(), 5, 0, -1, 2)


# SHA-256 of simulate_window_estimates (bench1d family, median, Laplace,
# runs = 2 * CHUNK + 7, seed 11): bases then rings, float64 bytes. It pins
# the substream layout, which the reproducibility contract covers.
SIMULATE_DIGEST = "1eafc0ae07a5edfc36e8f9c2b5a9c1ca881f013f0435d51f11ef7fb2dc886e02"


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_stream_layout_is_pinned(workers):
    family = am.build_family_1d(am.equidistant_design(200), 0.0, am.benchmark_counts())
    bases, rings = am.simulate_window_estimates(
        family, am.LossKind.median(), NoiseKind.laplace(), 2 * CHUNK + 7, 11,
        workers=workers)
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(bases).tobytes())
    digest.update(np.ascontiguousarray(rings).tobytes())
    assert digest.hexdigest() == SIMULATE_DIGEST


def test_cli_import_loads_no_scipy():
    """Laplace and Gaussian noise need no scipy, so the CLI does not import it.

    imaging.ndimage still resolves, lazily, because the benchmark tracer
    proxies it.
    """
    code = ("import sys, adaptmreg.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from adaptmreg import imaging\n"
            "print(imaging.ndimage.__name__, callable(imaging.ndimage.rank_filter))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert out.stdout.splitlines() == ["[]", "scipy.ndimage True"]
