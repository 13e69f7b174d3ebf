"""Nested neighbourhood families around a point: 1d intervals and 2d discs.

A family is stored as a single nearest-first ordering of design indices plus
the cumulative window sizes, so every window is a prefix of the ordering and
every ring (the increment between consecutive windows) is a contiguous slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "WindowFamily",
    "benchmark_counts",
    "equidistant_design",
    "build_family_1d",
    "build_family_2d",
    "disc_family",
    "default_disc_radii",
]

DEFAULT_DISC_BASE = 1.5
# squared ratio ~ 1.4 so ring pixel counts grow roughly geometrically
DEFAULT_DISC_GROWTH = 1.4 ** 0.5
DEFAULT_DISC_LEVELS = 10


@dataclass(frozen=True)
class WindowFamily:
    """Nested index windows U_0 c U_1 c ... c U_K around a centre.

    order holds design indices sorted nearest first (see the builders for
    how each breaks distance ties), counts holds the strictly increasing
    window sizes. 2d construction may drop radii whose clipped pixel count
    duplicates the previous level; the dropped level positions are kept in
    dropped_levels.
    """

    order: np.ndarray
    counts: np.ndarray
    dropped_levels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=int)
        order = np.asarray(self.order, dtype=int)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "order", order)
        if counts.ndim != 1 or counts.size == 0 or counts[0] < 1:
            raise ValidationError("counts must be a nonempty positive sequence")
        if np.any(np.diff(counts) <= 0):
            raise ValidationError("counts must be strictly increasing")
        if order.size < counts[-1]:
            raise ValidationError("ordering shorter than the largest window")
        if np.unique(order[: counts[-1]]).size != counts[-1]:
            raise ValidationError("window ordering contains duplicate indices")

    @property
    def K(self) -> int:
        return int(self.counts.size - 1)

    def members(self, k: int) -> np.ndarray:
        """Sorted design indices of window k."""
        if not 0 <= k <= self.K:
            raise ValidationError(f"window index {k} outside 0..{self.K}")
        return np.sort(self.order[: self.counts[k]])

    def ring(self, k: int) -> np.ndarray:
        """Indices added when window k grows to window k+1."""
        if not 0 <= k < self.K:
            raise ValidationError(f"ring index {k} outside 0..{self.K - 1}")
        return self.order[self.counts[k]: self.counts[k + 1]].copy()


def benchmark_counts(n_levels: int = 17, variant: str = "standard") -> np.ndarray:
    """Window sizes for the 1d benchmark family, evaluated in exact integers.

    standard: floor(5^(k+1) / 4^k), k = 0..n_levels-1, i.e. 5, 6, 7, ..., 177
    for 17 levels. alt: floor(4 * (5/4)^k), the same law started at 4.
    """
    if n_levels < 1:
        raise ValidationError("n_levels must be positive")
    if variant == "standard":
        vals = [(5 ** (k + 1)) // (4 ** k) for k in range(n_levels)]
    elif variant == "alt":
        vals = [(4 * 5 ** k) // (4 ** k) for k in range(n_levels)]
    else:
        raise ValidationError(f"unknown counts variant {variant!r}")
    return np.asarray(vals, dtype=int)


def equidistant_design(n: int) -> np.ndarray:
    """n equidistant design points on [-1, 1], including both endpoints."""
    if n < 2:
        raise ValidationError("design needs at least two points")
    return np.linspace(-1.0, 1.0, n)


def build_family_1d(design_xs, center: float, counts) -> WindowFamily:
    """Windows of the given sizes over the design points nearest to center.

    Points are ordered by a stable argsort of the floating-point distances
    |x - center|. Equal computed distances keep the smaller index first, but
    two points at the same true distance can get distances that differ in
    the last bit, and then the rounding decides. The order is deterministic
    either way; nesting holds by construction.
    """
    xs = np.asarray(design_xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or not np.all(np.isfinite(xs)):
        raise ValidationError("design must be a nonempty finite 1-d sequence")
    if np.any(np.diff(xs) < 0):
        raise ValidationError("design must be sorted")
    counts = np.asarray(counts, dtype=int)
    if counts.size and counts[-1] > xs.size:
        raise ValidationError(
            f"largest window ({int(counts[-1])}) exceeds the design size ({xs.size})")
    order = np.argsort(np.abs(xs - center), kind="stable")[: counts[-1]]
    return WindowFamily(order=order, counts=counts)


def default_disc_radii(n_levels: int = DEFAULT_DISC_LEVELS,
                       base: float = DEFAULT_DISC_BASE,
                       growth: float = DEFAULT_DISC_GROWTH) -> np.ndarray:
    """Geometrically growing disc radii for the 2d family.

    Radii whose unclipped disc holds no more pixels than the previous one
    are left out, so every returned radius adds a ring.
    """
    if n_levels < 1 or base <= 0 or growth <= 1:
        raise ValidationError("need n_levels >= 1, base > 0, growth > 1")
    radii = base * growth ** np.arange(n_levels)
    return np.delete(radii, disc_family(radii).dropped_levels)


def disc_family(radii) -> WindowFamily:
    """Unclipped discs of the given radii in a square of side 2 reach + 1.

    reach = floor(largest radius); index i of the order is the pixel at
    (row, column) offset divmod(i, side) - reach from the centre.
    """
    reach = int(np.floor(np.asarray(radii, dtype=float)[-1]))
    side = 2 * reach + 1
    return build_family_2d(side, side, (reach, reach), radii)


def build_family_2d(width: int, height: int, center: tuple[int, int], radii) -> WindowFamily:
    """Discs of the given radii around a pixel, clipped at the image borders.

    Pixels are ordered by (squared distance, flat row-major index). Radii
    whose clipped pixel count repeats the previous level are dropped and
    recorded, which repairs monotonicity near borders.
    """
    cx, cy = int(center[0]), int(center[1])
    if not (0 <= cx < width and 0 <= cy < height):
        raise ValidationError("center must lie inside the image")
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValidationError("radii must be positive and strictly increasing")

    reach = int(np.floor(radii[-1]))
    x0, x1 = max(0, cx - reach), min(width - 1, cx + reach)
    y0, y1 = max(0, cy - reach), min(height - 1, cy + reach)
    gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
    gx, gy = gx.ravel(), gy.ravel()
    dist2 = (gx - cx) ** 2 + (gy - cy) ** 2
    flat = gy * width + gx
    keep = dist2 <= radii[-1] ** 2 + 1e-9
    dist2, flat = dist2[keep], flat[keep]
    perm = np.lexsort((flat, dist2))
    dist2, order = dist2[perm], flat[perm]

    raw_counts = np.searchsorted(dist2, radii ** 2 + 1e-9, side="right")
    counts, dropped = [], []
    for lvl, c in enumerate(raw_counts):
        if counts and c <= counts[-1]:
            dropped.append(lvl)
        else:
            counts.append(int(c))
    return WindowFamily(order=order, counts=np.asarray(counts, dtype=int),
                        dropped_levels=tuple(dropped))
