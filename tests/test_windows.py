import hashlib
from fractions import Fraction

import numpy as np
import pytest

import adaptmreg as am
from adaptmreg import (benchmark_counts, build_family_1d, build_family_2d,
                       equidistant_design)
from oracle_windows import clipped_family_2d

# floor(5^(k+1) / 4^k) for k = 0..16, computed exactly
BENCH_COUNTS = (5, 6, 7, 9, 12, 15, 19, 23, 29, 37, 46, 58, 72, 90, 113, 142, 177)


def test_benchmark_counts_frozen():
    got = benchmark_counts()
    assert tuple(got) == BENCH_COUNTS
    # independent evaluation through exact rationals
    want = [int(Fraction(5 ** (k + 1), 4 ** k)) for k in range(17)]
    assert list(got) == want


def test_benchmark_counts_alt_variant():
    alt = benchmark_counts(variant="alt")
    assert alt[0] == 4
    assert tuple(alt[1:]) == BENCH_COUNTS[:16]


def test_bench_growth_within_declared_targets():
    fam = build_family_1d(equidistant_design(200), 0.0, benchmark_counts())
    ratios = fam.counts[1:] / fam.counts[:-1]
    assert np.all(ratios >= 1.15) and np.all(ratios <= 1.35)


def test_exact_tie_prefers_smaller_index():
    xs = np.array([-2.0, -1.0, 1.0, 2.0])
    fam = build_family_1d(xs, 0.0, [1, 2])
    assert fam.order[0] == 1  # distance ties resolve to the smaller index


def test_build_1d_nearest():
    xs = equidistant_design(200)
    fam = build_family_1d(xs, 0.0, benchmark_counts())
    # centre 0 falls between the two middle points
    assert set(fam.order[:2].tolist()) == {99, 100}
    for k in range(fam.K + 1):
        members = fam.members(k)
        outside = np.setdiff1d(np.arange(200), members)
        if outside.size:
            assert np.abs(xs[members]).max() <= np.abs(xs[outside]).min() + 1e-15


def test_build_1d_nesting_and_partition_identity():
    xs = np.sort(np.random.default_rng(2).uniform(-1, 1, size=60))
    fam = build_family_1d(xs, 0.1, [3, 5, 9, 14])
    acc = set(fam.members(0).tolist())
    for k in range(fam.K):
        members_k1 = set(fam.members(k + 1).tolist())
        assert set(fam.members(k).tolist()) < members_k1
        acc |= set(fam.ring(k).tolist())
        assert acc == members_k1
        assert len(acc) == fam.counts[k + 1]


def test_build_1d_single_count():
    xs = equidistant_design(11)
    fam = build_family_1d(xs, 0.37, [1])
    assert fam.members(0).tolist() == [int(np.argmin(np.abs(xs - 0.37)))]


def test_build_1d_symmetric_2_4():
    xs = np.array([-2.0, -1.0, 1.0, 2.0])
    fam = build_family_1d(xs, 0.0, [2, 4])
    assert fam.members(0).tolist() == [1, 2]
    assert fam.members(1).tolist() == [0, 1, 2, 3]


def test_ring_indices_bench():
    fam = build_family_1d(equidistant_design(200), 0.0, benchmark_counts())
    assert fam.ring(0).size == 1  # sixth nearest point
    assert fam.ring(fam.K - 1).size == 177 - 142
    with pytest.raises(ValueError):
        fam.ring(fam.K)
    with pytest.raises(ValueError):
        fam.ring(-1)


def test_build_1d_errors():
    xs = equidistant_design(10)
    with pytest.raises(ValueError):
        build_family_1d(xs, 0.0, [5, 11])
    with pytest.raises(ValueError):
        build_family_1d(xs[::-1], 0.0, [2])
    with pytest.raises(ValueError):
        build_family_1d(xs, 0.0, [3, 3])


def lattice_count(radius, cx=0, cy=0, width=None, height=None):
    """Independent enumeration of pixels within the radius."""
    n = 0
    r = int(np.ceil(radius)) + 1
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dx * dx + dy * dy <= radius * radius + 1e-9:
                x, y = cx + dx, cy + dy
                if width is None or (0 <= x < width and 0 <= y < height):
                    n += 1
    return n


def test_2d_small_radii():
    fam = clipped_family_2d(9, 9, (4, 4), [0.5])
    assert fam.counts.tolist() == [1]
    assert fam.members(0).tolist() == [4 * 9 + 4]


def test_2d_interior_counts_match_enumeration():
    fam = clipped_family_2d(21, 21, (10, 10), [1.5, 2.5, 3.5])
    assert fam.counts.tolist() == [lattice_count(r) for r in (1.5, 2.5, 3.5)]
    assert fam.counts[0] == 9


def test_2d_corner_clipping():
    fam = clipped_family_2d(16, 16, (0, 0), [1.5])
    assert fam.counts.tolist() == [lattice_count(1.5, 0, 0, 16, 16)]
    assert fam.counts[0] == 4


def test_2d_dihedral_symmetry():
    fam = clipped_family_2d(31, 31, (15, 15), [2.5, 4.2])
    for k in range(fam.K + 1):
        flat = fam.members(k)
        dx = flat % 31 - 15
        dy = flat // 31 - 15
        offs = set(zip(dx.tolist(), dy.tolist()))
        for a, b in list(offs):
            for sym in [(-a, b), (a, -b), (-a, -b), (b, a), (-b, a), (b, -a), (-b, -a)]:
                assert sym in offs


def test_2d_duplicate_levels_dropped():
    # radii 1.5 and 1.9 cover the same 9 interior pixels
    fam = clipped_family_2d(25, 25, (12, 12), [1.5, 1.9, 2.5])
    assert fam.counts.tolist() == [9, lattice_count(2.5)]
    assert fam.dropped_levels == (1,)
    assert np.all(np.diff(fam.counts) > 0)


def test_2d_center_outside_error():
    with pytest.raises(ValueError):
        clipped_family_2d(8, 8, (8, 0), [1.5])


# counts, dropped levels and the SHA-256 of the int64 order of the unclipped
# family, recorded when disc families were built by clipping to a
# (2 reach + 1)^2 square
DISC_PINS = {
    "default": ([9, 13, 21, 25, 37, 49, 69, 101, 145], (),
                "3f6a7e8570808eb361673d92d32e455b4dd9b5f905f8ab84ca5b41e3c0bb885c"),
    "integer": ([5, 13, 25], (),
                "115370aa77e7a3b80a2ea35a43cdbb0da9fc2f8f4631c940794dceddb9db1f89"),
    "duplicate": ([9, 21, 37, 69], (1,),
                  "266d996a42abe5970f7cff21581ef806dce8e8d911e8cd4a1662d2ee5f17f992"),
}
DISC_RADII = {"default": am.default_disc_radii(), "integer": [1.0, 2.0, 2.9],
              "duplicate": [1.5, 1.9, 2.5, 3.2, 4.6]}


@pytest.mark.parametrize("name", sorted(DISC_PINS))
def test_2d_unclipped_family_pinned(name):
    """The unclipped family equals the clipped one on a square that clips nothing."""
    radii = DISC_RADII[name]
    fam = build_family_2d(radii)
    counts, dropped, digest = DISC_PINS[name]
    assert fam.counts.tolist() == counts and fam.dropped_levels == dropped
    assert hashlib.sha256(fam.order.astype(np.int64).tobytes()).hexdigest() == digest
    reach = int(np.floor(radii[-1]))
    side = 2 * reach + 1
    ref = clipped_family_2d(side, side, (reach, reach), radii)
    assert np.array_equal(fam.order, ref.order) and np.array_equal(fam.counts, ref.counts)
    assert fam.dropped_levels == ref.dropped_levels
    dy, dx = (d - reach for d in np.divmod(fam.order, side))
    assert np.all(np.diff(dy ** 2 + dx ** 2) >= 0)


def test_2d_unclipped_rejects_bad_radii():
    for radii in ([], [0.0, 1.5], [2.5, 1.5]):
        with pytest.raises(ValueError):
            build_family_2d(radii)


def test_default_disc_radii_growth():
    """Geometric radii, less those whose disc adds no pixel (1.5 and 1.77 both hold 9)."""
    radii = am.default_disc_radii()
    steps = np.log(radii / 1.5) / np.log(1.4 ** 0.5)
    assert radii[0] == 1.5
    assert np.allclose(steps, np.rint(steps))
    assert np.rint(steps).astype(int).tolist() == [0, 2, 3, 4, 5, 6, 7, 8, 9]
    counts = [lattice_count(r) for r in radii]
    assert np.all(np.diff(counts) > 0)


def test_equidistant_design():
    xs = equidistant_design(200)
    assert xs[0] == -1.0 and xs[-1] == 1.0
    assert np.allclose(np.diff(xs), 2.0 / 199.0)
