"""Per-pixel adaptive robust denoising for scalar 2d images.

Every pixel gets the full ring-rule treatment: nested disc windows, window
and ring estimates, sequential testing, and the last accepted window as the
output. Windows are clipped at the borders (never padded, which would break
the noise model); each distinct clipped geometry gets its own error levels.
The noise scale enters only as a linear factor on the levels, so one
unit-scale calibration serves all images of a given noise law.

Interior pixels (where no window clips) are handled by 2d rank filters,
which keeps the per-pixel cost constant. Border pixels are grouped by clip
geometry: each group builds its clipped family once, gathers every pixel's
values in the family's nearest-first order, and runs the same window
estimates and stopping loop as the 1d code, one batch per group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .calibration import CalibArtifact
from .errors import ValidationError
from .levels import Levels, levels_asymptotic, levels_exact_mean, target_density
from .losses import LossKind, _quantile_bracket, window_estimates
from .noise import NoiseKind, abs_diff_median
from .parallel import run_chunks
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


def _interior_estimates(img: np.ndarray, family: WindowFamily, loss: LossKind,
                        reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Window and ring estimates at every pixel via 2d rank filters.

    Only pixels at distance >= reach from every border see unclipped
    windows; callers must ignore the rest. Odd-count footprints take the
    middle rank; even counts average the two middle ranks, matching the
    midpoint convention of locate().
    """
    K = family.K
    side = 2 * reach + 1
    h, w = img.shape
    bases = np.empty((K + 1, h, w))
    rings = np.empty((K, h, w))

    def footprint(indices: np.ndarray) -> np.ndarray:
        fp = np.zeros(side * side, dtype=bool)
        fp[indices] = True
        return fp.reshape(side, side)

    def filtered(fp: np.ndarray) -> np.ndarray:
        n = int(fp.sum())
        if loss.kind == "mean":
            return ndimage.correlate(img, fp / n, mode="nearest")
        i, j = _quantile_bracket(n, loss.level)
        low = ndimage.rank_filter(img, i, footprint=fp, mode="nearest")
        if i == j:
            return low
        high = ndimage.rank_filter(img, j, footprint=fp, mode="nearest")
        return 0.5 * (low + high)

    for k in range(K + 1):
        bases[k] = filtered(footprint(family.members(k)))
    for k in range(K):
        rings[k] = filtered(footprint(family.ring(k)))
    return bases, rings


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

    out = np.empty((h, w))
    k_hat = np.empty((h, w), dtype=np.int16)

    # interior pixels: every window fits without clipping
    xi0, xi1 = reach, w - reach  # half-open pixel ranges
    yi0, yi1 = reach, h - reach
    if xi1 > xi0 and yi1 > yi0:
        thr = ring_thresholds(_levels_for_family(interior_family, config), config.crit)
        bases, rings = _interior_estimates(img, interior_family, config.loss, reach)
        sel_bases = bases[:, yi0:yi1, xi0:xi1].reshape(K + 1, -1).T.copy()
        sel_rings = rings[:, yi0:yi1, xi0:xi1].reshape(K, -1).T.copy()
        kh = first_rejection(sel_bases, sel_rings, thr * sigma)
        theta = np.take_along_axis(sel_bases, kh[:, None], axis=1)[:, 0]
        out[yi0:yi1, xi0:xi1] = theta.reshape(yi1 - yi0, xi1 - xi0)
        k_hat[yi0:yi1, xi0:xi1] = kh.reshape(yi1 - yi0, xi1 - xi0)

    # border band: one batch per clip geometry (left, right, top, bottom reach)
    inside = np.zeros((h, w), dtype=bool)
    inside[yi0:yi1, xi0:xi1] = True
    py, px = np.nonzero(~inside)
    keys = np.stack([np.minimum(px, reach), np.minimum(w - 1 - px, reach),
                     np.minimum(py, reach), np.minimum(h - 1 - py, reach)], axis=1)
    clips, group = np.unique(keys, axis=0, return_inverse=True)
    group = group.ravel()

    def do_groups(lo: int, hi: int) -> None:
        for g in range(lo, hi):
            left, right, top, bottom = (int(v) for v in clips[g])
            fam = build_family_2d(left + right + 1, top + bottom + 1, (left, top), radii)
            kept = np.asarray(
                [lvl for lvl in range(len(radii)) if lvl not in fam.dropped_levels],
                dtype=int)
            crit = (config.crit if kept.size == len(radii)
                    else _crit_subset(config.crit, kept))
            thr = ring_thresholds(_levels_for_family(fam, config), crit)
            dy, dx = np.divmod(fam.order[: fam.counts[-1]], left + right + 1)
            gy, gx = py[group == g], px[group == g]
            rows = img[gy[:, None] + dy - top, gx[:, None] + dx - left]
            bases, rings = window_estimates(rows, fam.counts, config.loss)
            sel = first_rejection(bases, rings, thr * sigma)
            out[gy, gx] = bases[np.arange(sel.size), sel]
            k_hat[gy, gx] = kept[sel]

    run_chunks(do_groups, len(clips), config.workers, chunk=1)

    return (Image(width=w, height=h, intensities=out),
            KhatMap(width=w, height=h, k_hat=k_hat, n_levels=K))
