"""Per-pixel adaptive robust denoising for scalar 2d images.

Every pixel gets the full ring-rule treatment: nested disc windows, window
and ring estimates, sequential testing, and the last accepted window as the
output. Windows are clipped at the borders, never padded with made-up
values, which would break the noise model; each clip geometry gets its own
error levels. The noise scale enters only as a linear factor on the levels,
so one unit-scale calibration serves all images of a given noise law.

There are no per-geometry code paths. Every pixel, border or interior,
gathers the unclipped disc family's offsets from a padded copy of the
image, whose padding marks out-of-image samples missing; a clipped
family's nearest-first order is the unclipped order with those samples
removed. window_estimates skips them, and an empty ring (a level that
clipping collapsed) never rejects. The clip geometries only index small
tables, built for all of them at once: the in-image sample count of each
window, the reported level, and the thresholds, kept window-major as
(K, K, geometries), the stopping loop's layout. Chunks of DENOISE_CHUNK
pixels, the interior first, run through the same window estimates and
stopping loop as the 1d code; a chunk of interior pixels misses no sample
and shares one threshold table. The border band's pixels follow in raster
order, listed by one index array built once per image.

The padded copy's dtype and missing-sample marker are losses.row_dtype's
for the image's values, so an integer-valued image under the median or a
quantile loss is sorted as integers, with the float64 path's output bits.
A chunk of interior pixels takes each of its inner-row runs from the padded
copy with one row template, built once per image, of the offsets of every
inner-row pixel's samples; other chunks index every sample of every pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CalibArtifact
from .errors import ValidationError
from .levels import closed_form, closed_form_scale
from .losses import row_dtype, window_estimates
from .noise import NoiseKind, abs_diff_median
from .parallel import run_chunks
from .selector import first_rejection, threshold_table

__all__ = [
    "Image",
    "DenoiseConfig",
    "estimate_noise_scale",
    "denoise_image",
]

# Pixels per chunk of denoise_image. Pixels are independent, so the grid
# moves no output; it sets only how the work is cut. With the int32 sorts,
# 1024-pixel chunks left two workers waiting on GIL handoffs between a
# chunk's short sorts, and 4096 made a 64x64 image a single chunk.
DENOISE_CHUNK = 2048


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
    """A scalar image with real intensities, row-major, of shape (height, width)."""

    intensities: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "intensities", arr)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("intensities must be a nonempty 2-d array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("intensities must be finite")

    @property
    def height(self) -> int:
        return self.intensities.shape[0]

    @property
    def width(self) -> int:
        return self.intensities.shape[1]


def estimate_noise_scale(image: Image, kind: NoiseKind = NoiseKind.laplace()) -> float:
    """Robust noise scale sigma from horizontal first differences.

    sigma = median|Y(x+1, y) - Y(x, y)| / c with c the median absolute
    difference of two independent unit-scale draws of the noise law. Edges
    contaminate only the few differences that straddle them, which the
    median ignores. A constant image gives 0.0.
    """
    if image.width < 2 or image.height < 2:
        raise ValidationError("scale estimation needs at least a 2x2 image")
    med = float(np.median(np.abs(np.diff(image.intensities, axis=1))))
    return med / abs_diff_median(kind) if med else 0.0


@dataclass(frozen=True)
class DenoiseConfig:
    """A ring-rule disc2d calibration artifact and the noise scale sigma.

    The artifact supplies the family, loss, thresholds and levels method;
    its levels must be closed-form, so that the clipped border families can
    get their own. sigma multiplies the unit-scale levels.
    """

    art: CalibArtifact
    sigma: float

    def __post_init__(self) -> None:
        cfg = self.art.config
        if cfg.family_kind != "disc2d":
            raise ValidationError("denoising needs a disc2d calibration artifact")
        if cfg.rule != "ring":
            raise ValidationError(f"denoising runs the ring rule, but the artifact was "
                                  f"calibrated for the {cfg.rule} rule")
        if self.art.levels.method == "monte_carlo":
            raise ValidationError("imaging needs closed-form levels (asymptotic or exact_mean); "
                                  "monte carlo levels cannot be rebuilt for clipped borders")
        if not 0.0 <= self.sigma < math.inf:
            raise ValidationError(f"noise scale sigma must be finite and nonnegative, "
                                  f"got {self.sigma!r}")

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(self.art.config.family_meta["radii"])


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
    empty ring, whose NaN estimate never rejects, and a step reports the
    last kept level at or below it. A geometry that drops levels tests its
    kept steps with the critical values of their original levels, made
    non-increasing by a running minimum (floored at 1e-12), with the last
    kept level's pinned to 1.
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
    s, s_ring, _ = closed_form(valid, scale)
    thr = threshold_table(z, s_ring, s[:, 1:])
    return valid, reported, thr


def denoise_image(image: Image, config: DenoiseConfig) -> tuple[Image, np.ndarray]:
    """Adaptive denoising; returns the estimate image and the window-size map.

    The map is an int16 array on the input's grid holding each pixel's
    selected window index, 0..K: small values flag edges, large values
    homogeneous regions. A border pixel reports the original level index of
    its selected window even when clipping collapsed intermediate levels.
    Pixels are processed independently, so the output does not depend on the
    worker count, and adding a constant to the input adds it to the output
    without touching the selected indices.
    """
    h, w = image.height, image.width
    cfg = config.art.config
    scale = closed_form_scale(config.art.levels.method, cfg.r, cfg.loss, cfg.noise)
    family = cfg.family
    counts = family.counts
    reach = int(np.floor(config.radii[-1]))
    dy, dx = (d - reach for d in np.divmod(family.order[: counts[-1]], 2 * reach + 1))

    x_class, x_clips = _axis_clips(w, reach)
    y_class, y_clips = _axis_clips(h, reach)
    valid, reported, thr = _geometry_tables(dx, dy, x_clips, y_clips, counts,
                                            config.art.crit.full(family.K), scale)
    with np.errstate(invalid="ignore"):  # inf * 0 on empty rings if sigma is 0
        thr = thr * config.sigma
    thr = np.ascontiguousarray(np.moveaxis(thr, 0, -1))  # [:, :, g] is geometry g's

    dtype, missing = row_dtype(image.intensities, cfg.loss)
    padded_w = w + 2 * reach
    padded = np.full((h + 2 * reach, padded_w), missing, dtype=dtype)
    padded[reach: reach + h, reach: reach + w] = image.intensities
    flat = padded.ravel()
    offsets = (dy + reach) * padded_w + (dx + reach)
    n_x = len(x_clips)
    out = np.empty(h * w)
    k_hat = np.empty(h * w, dtype=np.int16)
    inner_w = max(w - 2 * reach, 0)
    n_inner = inner_w * max(h - 2 * reach, 0)
    # template[t]: the samples of the pixel t columns right of an inner-row
    # run's first pixel, as offsets from that pixel's index into flat
    template = np.arange(inner_w)[:, None] + offsets
    band = np.ones((h, w), dtype=bool)
    band[reach: h - reach, reach: w - reach] = False
    border = np.flatnonzero(band)

    def gather_interior(lo: int, hi: int) -> np.ndarray:
        """The rows of interior pixels lo..hi-1, one template take per inner-row run."""
        rows = np.empty((hi - lo, offsets.size), dtype=dtype)
        p = lo
        while p < hi:
            y, x = divmod(p, inner_w)
            length = min(hi - p, inner_w - x)
            start = (y + reach) * padded_w + x + reach
            # the indices lie in range; out= with mode="raise" would buffer the take
            np.take(flat[start:], template[:length], out=rows[p - lo: p - lo + length],
                    mode="clip")
            p += length
        return rows

    def task(lo: int, hi: int) -> None:
        pos = np.arange(lo, hi)
        y, x = np.divmod(pos, max(inner_w, 1))
        pixels = (y + reach) * w + x + reach
        pixels[pos >= n_inner] = border[pos[pos >= n_inner] - n_inner]
        y, x = np.divmod(pixels, w)
        geometry = y_class[y] * n_x + x_class[x]
        rows = (gather_interior(lo, hi) if hi <= n_inner
                else flat[(y * padded_w + x)[:, None] + offsets])
        bases, rings = window_estimates(rows, counts, cfg.loss, valid[geometry])
        one = (geometry == geometry[0]).all()
        sel = first_rejection(bases, rings, thr[..., geometry[0]] if one else thr[..., geometry])
        out[pixels] = bases[np.arange(hi - lo), sel]
        k_hat[pixels] = reported[geometry, sel]

    run_chunks(task, h * w, chunk=DENOISE_CHUNK)

    return Image(out.reshape(h, w)), k_hat.reshape(h, w)
