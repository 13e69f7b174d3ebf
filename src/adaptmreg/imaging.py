"""Per-pixel adaptive robust denoising for scalar 2d images.

Every pixel gets the full ring-rule treatment: nested disc windows, window
and ring estimates, sequential testing, and the last accepted window as the
output. Windows are clipped at the borders (never padded, which would break
the noise model); each distinct clipped geometry gets its own error levels.
The noise scale enters only as a linear factor on the levels, so one
unit-scale calibration serves all images of a given noise law.

Pixels are grouped by clip geometry, the unclipped interior being one more
group: each group builds its family, levels and thresholds once, then, in
fixed chunks of pixels, gathers every pixel's values in the family's
nearest-first order and runs the same window estimates and stopping loop as
the 1d code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage  # noqa: F401  unused; benchmarks/tracing.py proxies imaging.ndimage

from .calibration import CalibArtifact
from .errors import ValidationError
from .levels import Levels, levels_asymptotic, levels_exact_mean, target_density
from .losses import LossKind, window_estimates
from .noise import NoiseKind, abs_diff_median
from .parallel import chunk_ranges, run_chunks
from .selector import CriticalValues, first_rejection, ring_thresholds
from .windows import WindowFamily, build_family_2d

__all__ = [
    "Image",
    "KhatMap",
    "ScaleEstimate",
    "DenoiseConfig",
    "estimate_noise_scale",
    "denoise_image",
]


@dataclass(frozen=True)
class Image:
    """A scalar image with real intensities, row-major."""

    width: int
    height: int
    intensities: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "intensities", arr)
        if self.width < 1 or self.height < 1:
            raise ValidationError("image dimensions must be positive")
        if arr.shape != (self.height, self.width):
            raise ValidationError("intensity array must have shape (height, width)")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("intensities must be finite")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        arr = np.asarray(arr, dtype=float)
        return cls(width=arr.shape[1], height=arr.shape[0], intensities=arr)


@dataclass(frozen=True)
class KhatMap:
    """Selected window index per pixel, on the same grid as the input.

    Small values flag edges, large values flag homogeneous regions. Border
    pixels report the original level index of their selected window even
    when clipping collapsed some intermediate levels.
    """

    width: int
    height: int
    k_hat: np.ndarray
    n_levels: int

    def __post_init__(self) -> None:
        kh = np.asarray(self.k_hat, dtype=np.int16)
        object.__setattr__(self, "k_hat", kh)
        if kh.shape != (self.height, self.width):
            raise ValidationError("k_hat array must have shape (height, width)")
        if kh.min() < 0 or kh.max() > self.n_levels:
            raise ValidationError("selected indices outside 0..K")


@dataclass(frozen=True)
class ScaleEstimate:
    sigma: float
    degenerate: bool


def estimate_noise_scale(image: Image, kind: NoiseKind = NoiseKind.laplace()
                         ) -> ScaleEstimate:
    """Robust noise scale from horizontal first differences.

    sigma = median|Y(x+1, y) - Y(x, y)| / c with c the median absolute
    difference of two independent unit-scale draws of the noise law. Edges
    contaminate only the few differences that straddle them, which the
    median ignores. A constant image returns 0 with the degenerate flag set.
    """
    if image.width < 2 or image.height < 2:
        raise ValidationError("scale estimation needs at least a 2x2 image")
    diffs = np.abs(np.diff(image.intensities, axis=1))
    med = float(np.median(diffs))
    if med == 0.0:
        return ScaleEstimate(0.0, True)
    return ScaleEstimate(med / abs_diff_median(kind), False)


@dataclass(frozen=True)
class DenoiseConfig:
    """Denoising parameters, normally taken from a calibration artifact."""

    loss: LossKind
    radii: tuple[float, ...]
    noise: NoiseKind
    crit: CriticalValues
    levels_method: str
    r: float
    alpha: float
    noise_scale: float | str = "auto"
    workers: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.noise_scale, str):
            if self.noise_scale != "auto":
                raise ValidationError("noise_scale must be a nonnegative real or 'auto'")
        elif not self.noise_scale >= 0:
            raise ValidationError("noise_scale must be nonnegative")
        if self.levels_method not in ("asymptotic", "exact_mean"):
            raise ValidationError(
                "imaging needs closed-form levels (asymptotic or exact_mean); "
                "monte carlo level artifacts cannot be rebuilt for clipped borders")

    @classmethod
    def from_artifact(cls, art: CalibArtifact, noise_scale: float | str = "auto",
                      workers: int | None = None) -> "DenoiseConfig":
        if art.family_kind != "disc2d":
            raise ValidationError("denoising needs a disc2d calibration artifact")
        return cls(loss=art.loss, radii=tuple(art.family_meta["radii"]),
                   noise=art.noise, crit=art.crit, levels_method=art.levels.method,
                   r=art.r, alpha=art.alpha, noise_scale=noise_scale, workers=workers)


def _levels_for_family(family: WindowFamily, config: DenoiseConfig) -> Levels:
    if config.levels_method == "exact_mean":
        return levels_exact_mean(family, config.r)
    if config.loss.kind in ("median", "quantile"):
        return levels_asymptotic(family, config.loss,
                                 target_density(config.noise, config.loss), config.r)
    raise ValidationError(f"no closed-form levels for loss {config.loss.kind!r}")


def _crit_subset(crit: CriticalValues, kept: np.ndarray) -> CriticalValues:
    """Critical values for a clipped family that dropped duplicate levels.

    kept maps local level index to the original one. Each surviving test
    step reuses the original critical value of its level; the last kept
    level takes over the role of the final window with its value pinned to
    1. A running minimum keeps the sequence non-increasing after subsetting.
    """
    if kept.size < 2:
        raise ValidationError("clipped family collapsed to a single window")
    z = crit.full(crit.K)[kept[:-1]]
    z = np.maximum(np.minimum.accumulate(z), 1e-12)
    return CriticalValues(z=z, alpha=crit.alpha, r=crit.r, zeta=None)


def denoise_image(image: Image, config: DenoiseConfig) -> tuple[Image, KhatMap]:
    """Adaptive denoising; returns the estimate image and the window-size map.

    Pixels are processed independently, so the output does not depend on the
    worker count, and adding a constant to the input adds it to the output
    without touching the selected indices.
    """
    if config.loss.kind == "huber":
        raise ValidationError("huber loss has no closed-form levels for imaging")
    img = image.intensities
    h, w = image.height, image.width

    if isinstance(config.noise_scale, str):
        sigma = estimate_noise_scale(image, config.noise).sigma
    else:
        sigma = float(config.noise_scale)

    radii = np.asarray(config.radii, dtype=float)
    reach = int(np.floor(radii[-1]))
    side = 2 * reach + 1
    interior_family = build_family_2d(side, side, (reach, reach), radii)
    if interior_family.dropped_levels:
        raise ValidationError(
            "radii produce duplicate interior windows; calibrate on deduplicated radii")
    K = interior_family.K
    if K != config.crit.K:
        raise ValidationError("calibration artifact does not match the radii")

    # one batch per clip geometry (left, right, top, bottom reach); the
    # unclipped interior is the group (reach, reach, reach, reach)
    clip_shape = (reach + 1,) * 4
    py, px = np.divmod(np.arange(h * w), w)
    code = np.ravel_multi_index(
        (np.minimum(px, reach), np.minimum(w - 1 - px, reach),
         np.minimum(py, reach), np.minimum(h - 1 - py, reach)), clip_shape)
    clips, sizes = np.unique(code, return_counts=True)
    pixels = np.argsort(code, kind="stable")  # each group's pixels, row-major
    starts = np.concatenate(([0], np.cumsum(sizes)))

    def setup(clip: int):
        left, right, top, bottom = (int(v) for v in np.unravel_index(clip, clip_shape))
        fam = build_family_2d(left + right + 1, top + bottom + 1, (left, top), radii)
        kept = np.asarray(
            [lvl for lvl in range(len(radii)) if lvl not in fam.dropped_levels], dtype=int)
        crit = config.crit if kept.size == len(radii) else _crit_subset(config.crit, kept)
        thr = ring_thresholds(_levels_for_family(fam, config), crit)
        dy, dx = np.divmod(fam.order[: fam.counts[-1]], left + right + 1)
        return fam.counts, kept, thr * sigma, (dy - top) * w + (dx - left)

    setups = [setup(int(clip)) for clip in clips]
    tasks = [(g, starts[g] + lo, starts[g] + hi)
             for g in range(len(clips)) for lo, hi in chunk_ranges(int(sizes[g]))]
    flat = np.ascontiguousarray(img).ravel()
    out = np.empty(h * w)
    k_hat = np.empty(h * w, dtype=np.int16)

    def do_tasks(lo: int, hi: int) -> None:
        for g, a, b in tasks[lo:hi]:
            counts, kept, thr, offsets = setups[g]
            pix = pixels[a:b]
            bases, rings = window_estimates(flat[pix[:, None] + offsets], counts,
                                            config.loss)
            sel = first_rejection(bases, rings, thr)
            out[pix] = bases[np.arange(sel.size), sel]
            k_hat[pix] = kept[sel]

    run_chunks(do_tasks, len(tasks), config.workers, chunk=1)

    return (Image(width=w, height=h, intensities=out.reshape(h, w)),
            KhatMap(width=w, height=h, k_hat=k_hat.reshape(h, w), n_levels=K))
