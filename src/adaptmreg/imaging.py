"""Per-pixel adaptive robust denoising for scalar 2d images.

Every pixel gets the full ring-rule treatment: nested disc windows, window
and ring estimates, sequential testing, and the last accepted window as the
output. Windows are clipped at the borders, never padded with made-up
values, which would break the noise model; each clip geometry gets its own
error levels. The noise scale enters only as a linear factor on the levels,
so one unit-scale calibration serves all images of a given noise law.

There are no per-geometry code paths. Every pixel, border or interior,
gathers the unclipped disc family's offsets from a copy of the image
padded with NaN, so out-of-image samples are marked missing; a clipped
family's nearest-first order is the unclipped order with those samples
removed. window_estimates skips them, and an empty ring (a level that
clipping collapsed) never rejects. The clip geometries only index small
tables, built for all of them at once: the in-image sample count of each
window, the reported level, and the thresholds. Chunks of pixels, the
interior first, run through the same window estimates and stopping loop
as the 1d code; a chunk of interior pixels misses no sample and shares one
threshold table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibArtifact
from .errors import ValidationError
from .levels import asymptotic_scale, closed_form, target_density
from .losses import LossKind, window_estimates
from .noise import NoiseKind, abs_diff_median
from .parallel import run_chunks
from .selector import CriticalValues, first_rejection, threshold_table
from .windows import disc_family

__all__ = [
    "Image",
    "KhatMap",
    "ScaleEstimate",
    "DenoiseConfig",
    "estimate_noise_scale",
    "denoise_image",
]


def __getattr__(name: str):
    """Import scipy.ndimage only when imaging.ndimage is asked for.

    Nothing here uses it; benchmarks/tracing.py still reads it to install a
    proxy. ROADMAP item 1 deletes both this shim and that proxy.
    """
    if name == "ndimage":
        from scipy import ndimage
        return ndimage
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
                   r=art.r, noise_scale=noise_scale, workers=workers)


def _levels_scale(config: DenoiseConfig) -> float:
    """The constant c of the clipped families' closed-form levels (levels.closed_form)."""
    if config.levels_method == "exact_mean":
        if config.r != 2.0:
            raise ValidationError("exact mean levels are only available for r = 2")
        return 1.0
    if config.loss.kind in ("median", "quantile"):
        return asymptotic_scale(config.loss, target_density(config.noise, config.loss),
                                config.r)
    raise ValidationError(f"no closed-form levels for loss {config.loss.kind!r}")


def _axis_clips(size: int, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Clip class of every coordinate along one axis.

    A class is the pair of reaches (before, after) that stay inside the
    image, each capped at reach. Returns the class id of every coordinate
    and the (classes, 2) reaches.
    """
    pos = np.arange(size)
    code = np.minimum(pos, reach) * (reach + 1) + np.minimum(size - 1 - pos, reach)
    codes, ids = np.unique(code, return_inverse=True)
    return ids, np.stack(np.divmod(codes, reach + 1), axis=1)


def _geometry_tables(dx: np.ndarray, dy: np.ndarray, x_clips: np.ndarray,
                     y_clips: np.ndarray, counts: np.ndarray, zf: np.ndarray,
                     scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of every clip geometry, geometry id = y class * x classes + x class.

    Returns the in-image counts of the K+1 windows, the level each stopping
    step reports, and the (K, K) unit-noise ring thresholds. Clipping drops
    a level whose window gains no in-image sample; the step into it has an
    empty ring and +inf thresholds, and a step reports the last kept level
    at or below it. A geometry that drops levels tests its kept steps with
    the critical values of their original levels, made non-increasing by a
    running minimum (floored at 1e-12), with the last kept level's pinned
    to 1.
    """
    in_x = (dx >= -x_clips[:, :1]) & (dx <= x_clips[:, 1:])
    in_y = (dy >= -y_clips[:, :1]) & (dy <= y_clips[:, 1:])
    inside = (in_y[:, None, :] & in_x[None, :, :]).reshape(-1, dx.size)
    valid = np.cumsum(inside, axis=1)[:, counts - 1]
    kept = np.diff(valid, axis=1, prepend=0) > 0
    if np.any(kept.sum(axis=1) < 2):
        raise ValidationError("clipped family collapsed to a single window")
    levels = np.arange(counts.size)
    reported = np.maximum.accumulate(np.where(kept, levels, 0), axis=1)
    z = np.tile(zf, (valid.shape[0], 1))
    drops = ~kept.all(axis=1)
    zd = np.minimum.accumulate(np.where(kept[drops], zf, np.inf), axis=1)
    zd = np.maximum(zd, 1e-12)
    zd[levels >= reported[drops, -1:]] = 1.0
    z[drops] = zd
    s, s_ring = closed_form(valid, scale)
    thr = threshold_table(z, s_ring, s[:, 1:])
    return valid, reported, thr


def _interior_first(pos: np.ndarray, h: int, w: int, reach: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (y, x) of the pixels at positions pos of the interior-first order.

    The order runs over the unclipped interior in raster order, then over
    the border band in raster order, so a chunk of interior pixels has one
    geometry and no missing samples.
    """
    inner_w, inner_h = max(w - 2 * reach, 0), max(h - 2 * reach, 0)
    n_inner = inner_w * inner_h
    y, x = np.divmod(pos, max(inner_w, 1))
    y += reach
    x += reach
    border = pos >= n_inner
    if border.any():
        band = np.full(h, w)  # border pixels per row
        if n_inner:
            band[reach: h - reach] = 2 * reach
        ends = np.cumsum(band)
        b = pos[border] - n_inner
        row = np.searchsorted(ends, b, side="right")
        col = b - (ends[row] - band[row])
        y[border] = row
        x[border] = np.where((band[row] < w) & (col >= reach), col + inner_w, col)
    return y, x


def denoise_image(image: Image, config: DenoiseConfig) -> tuple[Image, KhatMap]:
    """Adaptive denoising; returns the estimate image and the window-size map.

    Pixels are processed independently, so the output does not depend on the
    worker count, and adding a constant to the input adds it to the output
    without touching the selected indices.
    """
    if config.loss.kind == "huber":
        raise ValidationError("huber loss has no closed-form levels for imaging")
    h, w = image.height, image.width

    if isinstance(config.noise_scale, str):
        sigma = estimate_noise_scale(image, config.noise).sigma
    else:
        sigma = float(config.noise_scale)

    family = disc_family(config.radii)
    if family.dropped_levels:
        raise ValidationError(
            "radii produce duplicate interior windows; calibrate on deduplicated radii")
    K = family.K
    if K != config.crit.K:
        raise ValidationError("calibration artifact does not match the radii")
    counts = family.counts
    reach = int(np.floor(config.radii[-1]))
    dy, dx = (d - reach for d in np.divmod(family.order[: counts[-1]], 2 * reach + 1))

    x_class, x_clips = _axis_clips(w, reach)
    y_class, y_clips = _axis_clips(h, reach)
    valid, reported, thr = _geometry_tables(dx, dy, x_clips, y_clips, counts,
                                            config.crit.full(K), _levels_scale(config))
    with np.errstate(invalid="ignore"):  # inf * 0 on empty rings if sigma is 0
        thr = thr * sigma
    thr[np.diff(valid, axis=1) == 0] = np.inf

    padded_w = w + 2 * reach
    padded = np.full((h + 2 * reach, padded_w), np.nan)
    padded[reach: reach + h, reach: reach + w] = image.intensities
    flat = padded.ravel()
    offsets = (dy + reach) * padded_w + (dx + reach)
    n_x = len(x_clips)
    out = np.empty(h * w)
    k_hat = np.empty(h * w, dtype=np.int16)

    def task(lo: int, hi: int) -> None:
        y, x = _interior_first(np.arange(lo, hi), h, w, reach)
        geometry = y_class[y] * n_x + x_class[x]
        bases, rings = window_estimates(flat[(y * padded_w + x)[:, None] + offsets],
                                        counts, config.loss, valid[geometry])
        one = (geometry == geometry[0]).all()
        sel = first_rejection(bases, rings, thr[geometry[0]] if one else thr[geometry])
        pixels = y * w + x
        out[pixels] = bases[np.arange(hi - lo), sel]
        k_hat[pixels] = reported[geometry, sel]

    run_chunks(task, h * w, config.workers)

    return (Image(width=w, height=h, intensities=out.reshape(h, w)),
            KhatMap(width=w, height=h, k_hat=k_hat.reshape(h, w), n_levels=K))
