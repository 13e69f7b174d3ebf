"""Standardized noise models with reproducible substreams.

Every variant is scaled to mean 0 and variance 1, and is symmetric about 0:
Laplace with scale 1/sqrt(2), the standard normal, and Student t with
dof >= 3 divided by sqrt(dof / (dof - 2)). The laws carry no scale of their
own: error levels scale linearly in the noise level, so the one scale is
applied where it is known, the denoiser's sigma.

Monte Carlo replicates draw through sample_rows: each chunk of the fixed
parallel.CHUNK grid is one row-major block from its own RngStream, drawn in
a single numpy call that releases the GIL, so workers draw chunks at the
same time (the parallel module gives the measured speedup). Artifacts record
this layout as noise stream version 2 (calibration.STREAM_VERSION).

Laplace and Gaussian noise need only numpy and the standard library, so
importing this module loads no scipy. Only the Student t branches import
scipy, when first called: `scipy.stats` in density, cdf and quantile_point,
and `scipy.integrate` plus `scipy.optimize` in abs_diff_median.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .parallel import CHUNK

__all__ = [
    "NoiseKind",
    "RngStream",
    "sample_noise",
    "sample_rows",
    "density",
    "cdf",
    "quantile_point",
    "abs_diff_median",
]

_NOISE_KINDS = ("laplace", "gaussian", "student_t")

LAPLACE_SCALE = 2.0 ** -0.5  # unit variance


@dataclass(frozen=True)
class NoiseKind:
    """A standardized (unit-variance) symmetric noise law."""

    kind: str
    dof: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _NOISE_KINDS:
            raise ValidationError(f"unknown noise kind {self.kind!r}")
        if self.kind == "student_t":
            if self.dof is None or int(self.dof) != self.dof or self.dof < 3:
                raise ValidationError(
                    "student_t needs an integer dof >= 3 (variance must be finite)")
        elif self.dof is not None:
            raise ValidationError("dof only applies to student_t noise")

    @classmethod
    def laplace(cls) -> "NoiseKind":
        return cls("laplace")

    @classmethod
    def gaussian(cls) -> "NoiseKind":
        return cls("gaussian")

    @classmethod
    def student_t(cls, dof: int = 3) -> "NoiseKind":
        return cls("student_t", dof=dof)

    @property
    def label(self) -> str:
        return f"student_t{self.dof}" if self.kind == "student_t" else self.kind


@dataclass(frozen=True)
class RngStream:
    """One reproducible substream of a master seed.

    Distinct stream ids give statistically independent streams; the output is
    fully determined by (master_seed, stream_id, draw index). The stream id is
    mixed into the seed material by numpy's SeedSequence. sample_rows gives
    each chunk of the replicate grid its own stream id, so parallel
    replicates reproduce regardless of scheduling.
    """

    master_seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed & (2 ** 64 - 1),
            spawn_key=(self.stream_id & (2 ** 64 - 1),),
        )
        return np.random.Generator(np.random.PCG64(seq))


def _student_sd(dof: int) -> float:
    return math.sqrt(dof / (dof - 2.0))


def sample_noise(kind: NoiseKind, n: int, stream: RngStream) -> np.ndarray:
    """n i.i.d. draws of the standardized law."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    rng = stream.generator()
    if kind.kind == "laplace":
        return rng.laplace(0.0, LAPLACE_SCALE, n)
    if kind.kind == "gaussian":
        return rng.standard_normal(n)
    return rng.standard_t(kind.dof, n) / _student_sd(kind.dof)


def sample_rows(kind: NoiseKind, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Replicates lo..hi-1 of n draws each, one row per replicate.

    Chunk c of the fixed parallel.CHUNK grid is one row-major block drawn
    from substream c of seed: sample_noise(kind, m * n, RngStream(seed, c))
    reshaped to (m, n), and replicate i is row i - c * CHUNK of it. A
    substream yields its draws in order, so a block cut short at hi holds the
    first rows of the full one: rows never depend on hi (prefix stability),
    nor on the worker count. A range inside one chunk is a view of its block,
    with no second copy.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if not 0 <= lo <= hi:
        raise ValidationError("replicate ranges must satisfy 0 <= lo <= hi")
    blocks = []
    for c in range(lo // CHUNK, -(-hi // CHUNK)):
        start = c * CHUNK
        m = min(hi, start + CHUNK) - start
        block = sample_noise(kind, m * n, RngStream(seed, c)).reshape(m, n)
        blocks.append(block[max(lo - start, 0):])
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks) if blocks else np.empty((0, n))


def density(kind: NoiseKind, x: float) -> float:
    """Standardized density at x."""
    if kind.kind == "laplace":
        return float(np.exp(-abs(x) / LAPLACE_SCALE) / (2.0 * LAPLACE_SCALE))
    if kind.kind == "gaussian":
        return float(np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
    from scipy import stats  # deferred: importing scipy.stats takes about 0.5 s
    c = _student_sd(kind.dof)
    return float(c * stats.t.pdf(x * c, kind.dof))


def cdf(kind: NoiseKind, x: float) -> float:
    """Standardized cumulative distribution function at x."""
    if kind.kind == "laplace":
        if x < 0:
            return float(0.5 * np.exp(x / LAPLACE_SCALE))
        return float(1.0 - 0.5 * np.exp(-x / LAPLACE_SCALE))
    if kind.kind == "gaussian":
        # erfc keeps full relative accuracy in the left tail, where 1 + erf(x)
        # (NormalDist.cdf) cancels to 0
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    from scipy import stats
    return float(stats.t.cdf(x * _student_sd(kind.dof), kind.dof))


def quantile_point(kind: NoiseKind, alpha: float) -> float:
    """x with cdf(kind, x) = alpha for the standardized law."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie strictly inside (0, 1)")
    if kind.kind == "laplace":
        if alpha < 0.5:
            return float(LAPLACE_SCALE * math.log(2.0 * alpha))
        return float(-LAPLACE_SCALE * math.log(2.0 * (1.0 - alpha)))
    if kind.kind == "gaussian":
        return statistics.NormalDist().inv_cdf(alpha)
    from scipy import stats
    return float(stats.t.ppf(alpha, kind.dof) / _student_sd(kind.dof))


def _laplace_abs_diff_median() -> float:
    """u with P(|X - X'| > u b) = (1 + u/2) e^-u = 1/2 for Laplace scale b = 1.

    Newton's method from u = 1. The tail (1 + u/2) e^-u is convex and
    decreasing, so the iterates increase monotonically to the root.
    """
    u = 1.0
    for _ in range(50):
        step = ((1.0 + 0.5 * u) * math.exp(-u) - 0.5) / (-0.5 * (1.0 + u) * math.exp(-u))
        if u - step == u:
            break
        u -= step
    return u


@functools.lru_cache(maxsize=None)
def abs_diff_median(kind: NoiseKind) -> float:
    """Median of |X - X'| for two independent standardized draws.

    Closed forms for Laplace and Gaussian noise; Student t by quadrature plus
    root finding. Cached per kind; used to turn a median absolute first
    difference into a noise scale estimate.
    """
    if kind.kind == "laplace":
        return _laplace_abs_diff_median() * LAPLACE_SCALE
    if kind.kind == "gaussian":
        # X - X' is normal with variance 2
        return math.sqrt(2.0) * statistics.NormalDist().inv_cdf(0.75)
    from scipy import integrate, optimize

    def prob_within(c: float) -> float:
        val, _ = integrate.quad(
            lambda x: density(kind, x) * (cdf(kind, x + c) - cdf(kind, x - c)),
            -np.inf, np.inf, limit=200)
        return val

    return float(optimize.brentq(lambda c: prob_within(c) - 0.5, 1e-9, 20.0, xtol=1e-12))


def parse_noise(text: str) -> NoiseKind:
    """CLI parser: 'laplace', 'gaussian', 'student_t', 'student_t:4', 'student_t3'."""
    t = text.strip().lower()
    if t == "laplace":
        return NoiseKind.laplace()
    if t in ("gaussian", "normal"):
        return NoiseKind.gaussian()
    if t.startswith("student_t"):
        rest = t[len("student_t"):]
        try:
            dof = int(rest.removeprefix(":")) if rest else 3
        except ValueError:
            raise ValidationError(f"--noise: {text!r} has no integer degrees of freedom"
                                  ) from None
        return NoiseKind.student_t(dof)
    raise ValidationError(f"unknown noise {text!r}")
