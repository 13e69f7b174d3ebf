"""Standardized noise models with reproducible substreams.

Every variant is scaled to mean 0 and variance 1 (before the optional scale
factor), and is symmetric about 0: Laplace with scale 1/sqrt(2), the standard
normal, and Student t with dof >= 3 divided by sqrt(dof / (dof - 2)).

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

__all__ = [
    "NoiseKind",
    "RngStream",
    "sample_noise",
    "sample_rows",
    "density_at_zero",
    "density",
    "cdf",
    "quantile_point",
    "abs_diff_median",
]

_NOISE_KINDS = ("laplace", "gaussian", "student_t")

LAPLACE_SCALE = 2.0 ** -0.5  # unit variance


@dataclass(frozen=True)
class NoiseKind:
    """A standardized symmetric noise law plus an overall scale factor."""

    kind: str
    dof: int | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _NOISE_KINDS:
            raise ValidationError(f"unknown noise kind {self.kind!r}")
        if self.kind == "student_t":
            if self.dof is None or int(self.dof) != self.dof or self.dof < 3:
                raise ValidationError(
                    "student_t needs an integer dof >= 3 (variance must be finite)")
        elif self.dof is not None:
            raise ValidationError("dof only applies to student_t noise")
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ValidationError("scale must be a finite nonnegative real")

    @classmethod
    def laplace(cls, scale: float = 1.0) -> "NoiseKind":
        return cls("laplace", scale=scale)

    @classmethod
    def gaussian(cls, scale: float = 1.0) -> "NoiseKind":
        return cls("gaussian", scale=scale)

    @classmethod
    def student_t(cls, dof: int = 3, scale: float = 1.0) -> "NoiseKind":
        return cls("student_t", dof=dof, scale=scale)

    @property
    def label(self) -> str:
        return f"student_t{self.dof}" if self.kind == "student_t" else self.kind


@dataclass(frozen=True)
class RngStream:
    """One reproducible substream of a master seed.

    Distinct stream ids give statistically independent streams; the output is
    fully determined by (master_seed, stream_id, draw index). The stream id is
    mixed into the seed material by numpy's SeedSequence, so parallel
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


def _draw(kind: NoiseKind, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of the standardized law, before the scale factor."""
    if kind.kind == "laplace":
        return rng.laplace(0.0, LAPLACE_SCALE, n)
    if kind.kind == "gaussian":
        return rng.standard_normal(n)
    return rng.standard_t(kind.dof, n) / _student_sd(kind.dof)


def sample_noise(kind: NoiseKind, n: int, stream: RngStream) -> np.ndarray:
    """n i.i.d. draws of the standardized law times kind.scale."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    out = _draw(kind, n, stream.generator())
    if kind.scale != 1.0:
        out = out * kind.scale
    return out


# numpy's SeedSequence hash (pool size 4, 32-bit words) and PCG64 seeding
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_POOL = 4


def _hash(v: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step; returns the hashed words and the next constant.

    The running constant does not depend on the data, so one step hashes a
    whole column of streams at once.
    """
    nxt = (const * mult) & _MASK32
    v = (v ^ np.uint32(const)) * np.uint32(nxt)
    return v ^ (v >> np.uint32(16)), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence(entropy words), per row.

    entropy is (m, L) uint32 with L >= 4, the assembled entropy of m
    sequences; the result is (m, 4) uint64.
    """
    const = _INIT_A

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v, const = _hash(v, const, _MULT_A)
        return v

    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[1]):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    words = np.empty((entropy.shape[0], 2 * _POOL), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL):
        words[:, i], const = _hash(pool[i % _POOL], const, _MULT_B)
    return words[:, 0::2].astype(np.uint64) | (words[:, 1::2].astype(np.uint64) << np.uint64(32))


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's coercion of a nonnegative int: 32-bit words, low first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _pcg_states(seed: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of RngStream(seed, i).generator() for lo <= i < hi."""
    run = _uint32_words(seed & (2 ** 64 - 1))
    run += [0] * (_POOL - len(run))
    out: list[tuple[int, int]] = []
    # stream ids below 2^32 contribute one entropy word, larger ids two
    for a, b, n_words in ((lo, min(hi, 2 ** 32), 1), (max(lo, 2 ** 32), hi, 2)):
        if a >= b:
            continue
        ids = np.arange(a, b, dtype=np.uint64)
        entropy = np.empty((b - a, len(run) + n_words), dtype=np.uint32)
        entropy[:, : len(run)] = run
        entropy[:, len(run)] = ids & np.uint64(_MASK32)
        if n_words == 2:
            entropy[:, len(run) + 1] = ids >> np.uint64(32)
        # PCG64 seeding: inc = 2 (w2:w3) + 1; from state 0, one LCG step,
        # add the initial state w0:w1, one more step
        for w0, w1, w2, w3 in _seed_words(entropy).tolist():
            inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
            state = ((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & _MASK128
            out.append((state, inc))
    return out


def sample_rows(kind: NoiseKind, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of n draws each, row i - lo from substream i of seed.

    Byte-identical to stacking sample_noise(kind, n, RngStream(seed, i)),
    but seeds the substreams in bulk: every stream's SeedSequence state is
    hashed at once, and one generator is reseeded per row.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if not 0 <= lo <= hi <= 2 ** 64:
        raise ValidationError("stream ids must satisfy 0 <= lo <= hi <= 2^64")
    out = np.empty((hi - lo, n))
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for row, (state, inc) in enumerate(_pcg_states(seed, lo, hi)):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        out[row] = _draw(kind, n, rng)
    if kind.scale != 1.0:
        out *= kind.scale
    return out


def density_at_zero(kind: NoiseKind) -> float:
    """f(0) of the standardized (unit variance) density."""
    return density(kind, 0.0)


def density(kind: NoiseKind, x: float) -> float:
    """Standardized density at x; the scale factor is deliberately ignored."""
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
def _abs_diff_median_cached(kind_key: tuple) -> float:
    kind = NoiseKind(*kind_key)
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


def abs_diff_median(kind: NoiseKind) -> float:
    """Median of |X - X'| for two independent standardized draws.

    Closed forms for Laplace and Gaussian noise; Student t by quadrature plus
    root finding. Cached per kind; used to turn a median absolute first
    difference into a noise scale estimate.
    """
    return _abs_diff_median_cached((kind.kind, kind.dof, 1.0))


def parse_noise(text: str) -> NoiseKind:
    """CLI parser: 'laplace', 'gaussian', 'student_t', 'student_t:4', 'student_t3'."""
    t = text.strip().lower()
    if t == "laplace":
        return NoiseKind.laplace()
    if t in ("gaussian", "normal"):
        return NoiseKind.gaussian()
    if t.startswith("student_t"):
        rest = t[len("student_t"):]
        if rest.startswith(":"):
            rest = rest[1:]
        dof = int(rest) if rest else 3
        return NoiseKind.student_t(dof)
    raise ValidationError(f"unknown noise {text!r}")
