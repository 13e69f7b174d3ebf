"""Reference for disc families clipped at the image borders, and window members.

The library builds only the unclipped disc family (windows.build_family_2d);
the denoiser derives every clipped family from it by marking out-of-image
samples missing. clipped_family_2d constructs a clipped family directly, from
the pixels of an image of the given size, so tests can compare the two.
members and ring list the design indices of one window or ring, which the
library never needs: it reads windows as prefixes of the ordering.
"""

import numpy as np

from adaptmreg.errors import ValidationError
from adaptmreg.windows import WindowFamily


def clipped_family_2d(width: int, height: int, center: tuple[int, int], radii
                      ) -> WindowFamily:
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


def members(family: WindowFamily, k: int) -> np.ndarray:
    """Sorted design indices of window k."""
    return np.sort(family.order[: family.counts[k]])


def ring(family: WindowFamily, k: int) -> np.ndarray:
    """Indices added when window k grows to window k+1."""
    return family.order[family.counts[k]: family.counts[k + 1]].copy()
