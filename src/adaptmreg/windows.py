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
    window sizes. build_family_2d drops radii whose disc holds no more
    pixels than the previous one; the dropped level positions are kept in
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
    return np.delete(radii, build_family_2d(radii).dropped_levels)


def build_family_2d(radii) -> WindowFamily:
    """Unclipped discs of the given radii in a square of side 2 reach + 1.

    reach = floor(largest radius); index i of the order is the pixel at
    (row, column) offset divmod(i, side) - reach from the centre. Pixels are
    ordered by (squared distance, index). Radii whose disc holds no more
    pixels than the previous one are dropped and recorded.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValidationError("radii must be positive and strictly increasing")
    reach = int(np.floor(radii[-1]))
    offsets = np.arange(-reach, reach + 1)
    dist2 = (offsets[:, None] ** 2 + offsets[None, :] ** 2).ravel()
    inside = np.flatnonzero(dist2 <= radii[-1] ** 2 + 1e-9)
    order = inside[np.argsort(dist2[inside], kind="stable")]
    raw_counts = np.searchsorted(dist2[order], radii ** 2 + 1e-9, side="right")
    kept = np.diff(raw_counts, prepend=0) > 0
    return WindowFamily(order=order, counts=raw_counts[kept],
                        dropped_levels=tuple(np.flatnonzero(~kept).tolist()))
