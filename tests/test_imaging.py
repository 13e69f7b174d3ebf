import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaptmreg as am
from adaptmreg import (DenoiseConfig, Image, NoiseKind, RngStream, denoise_image,
                       estimate_noise_scale, read_grid, read_pgm, sample_noise,
                       write_grid, write_pgm)
from adaptmreg import losses
from adaptmreg.errors import ValidationError
from adaptmreg.imaging import DENOISE_CHUNK
from adaptmreg.levels import auto_levels_method
from adaptmreg.parallel import chunk_ranges
from adaptmreg.selector import CriticalValues
from oracle_select import base_estimates, ring_reference
from oracle_windows import clipped_family_2d


DATA = Path(__file__).resolve().parent / "data"


def two_region(width, height, contrast=4.0):
    img = np.zeros((height, width))
    img[:, width // 2:] = contrast
    return img


def test_scale_estimate_constant_degenerate():
    assert estimate_noise_scale(Image(np.full((8, 8), 2.0))) == 0.0


def test_scale_estimate_pure_laplace():
    noise = sample_noise(NoiseKind.laplace(), 256 * 256, RngStream(50, 0))
    assert 0.95 <= estimate_noise_scale(Image(noise.reshape(256, 256))) <= 1.05


def test_scale_estimate_two_region_image():
    noise = sample_noise(NoiseKind.laplace(), 128 * 128, RngStream(51, 0))
    img = two_region(128, 128) + noise.reshape(128, 128)
    assert 0.95 <= estimate_noise_scale(Image(img)) <= 1.10


def test_scale_estimate_needs_2x2():
    with pytest.raises(ValueError):
        estimate_noise_scale(Image(np.zeros((1, 5))))


def _auto(art, image):
    """The config with the noise scale estimated from the image, as denoise --sigma auto."""
    return DenoiseConfig(art, estimate_noise_scale(image, art.config.noise))


def _swapped(art, loss=None, levels=None, crit=None):
    """The artifact with another loss, levels or thresholds.

    Another loss that asymptotic levels describe takes its own unless levels are given.
    Thresholds without a zeta make it a sequential-mode artifact.
    """
    config = art.config if loss is None else replace(art.config, loss=loss)
    if loss is not None and levels is None and auto_levels_method(loss) == "asymptotic":
        levels = am.levels_asymptotic(config.family, loss, config.noise, config.r)
    if crit is not None and crit.zeta is None:
        config = replace(config, mode="sequential")
    return replace(art, config=config, crit=crit or art.crit, levels=levels or art.levels)


def test_constant_image_identity(disc_artifact):
    image = Image(np.full((30, 34), 7.5))
    config = _auto(disc_artifact, image)
    out, khat = denoise_image(image, config)
    assert np.array_equal(out.intensities, image.intensities)
    assert khat.dtype == np.int16 and khat.shape == image.intensities.shape
    assert np.all(khat == disc_artifact.config.family.K)


def test_noiseless_step_khat_smaller_at_edge(disc_artifact):
    config = DenoiseConfig(disc_artifact, 0.05)
    image = Image(two_region(64, 48))
    _, khat = denoise_image(image, config)
    # the map is the int16 window index of each pixel, 0..K
    assert khat.dtype == np.int16 and khat.shape == (48, 64)
    assert 0 <= khat.min() and khat.max() <= disc_artifact.config.family.K
    edge = khat[24, 31:33].max()
    center = min(khat[24, 8], khat[24, 55])
    assert edge < center


def test_shift_equivariance(disc_artifact):
    noise = sample_noise(NoiseKind.laplace(), 40 * 40, RngStream(52, 0))
    img = two_region(40, 40) + noise.reshape(40, 40)
    image0, image1 = Image(img), Image(img + 12.5)
    out0, khat0 = denoise_image(image0, _auto(disc_artifact, image0))
    out1, khat1 = denoise_image(image1, _auto(disc_artifact, image1))
    assert np.allclose(out1.intensities, out0.intensities + 12.5, atol=1e-9)
    assert np.array_equal(khat0, khat1)


def test_subrectangle_reproduces_pixels(disc_artifact):
    """Cropping changes nothing for pixels whose windows stay unclipped."""
    config = DenoiseConfig(disc_artifact, 1.0)
    noise = sample_noise(NoiseKind.laplace(), 48 * 48, RngStream(53, 0))
    img = two_region(48, 48) + noise.reshape(48, 48)
    full, _ = denoise_image(Image(img), config)
    crop = img[8:40, 8:40]
    part, _ = denoise_image(Image(crop), config)
    reach = int(np.floor(max(config.radii)))
    inner = slice(reach, 32 - reach)
    assert np.array_equal(part.intensities[inner, inner],
                          full.intensities[8:40, 8:40][inner, inner])


def test_worker_count_invariance(disc_artifact, monkeypatch):
    """Results do not depend on the worker count, also in a chunk of mixed pixels.

    The 40x12 image has no interior pixel and the 13x13 image one. The
    rounded 48x48 image takes int16 rows and, with the gate off, int32 rows.
    """
    noise = sample_noise(NoiseKind.laplace(), 48 * 48, RngStream(54, 0))
    img = two_region(48, 48) + noise.reshape(48, 48)
    reach = int(np.floor(max(disc_artifact.config.family_meta["radii"])))
    chunks = chunk_ranges(48 * 48, DENOISE_CHUNK)
    assert len(chunks) >= 2
    # the interior's n_inner pixels come first, then the border band's
    n_inner = (48 - 2 * reach) ** 2
    assert any(lo < n_inner < hi for lo, hi in chunks)  # one chunk holds both kinds
    assert 12 - 2 * reach <= 0 < 13 - 2 * reach  # 12 rows hold no interior pixel, 13 one
    rng = np.random.default_rng(6)
    rounded = np.rint(20 * img + 50)
    cases = ((img, True, float), (100 + rng.laplace(0, 9, (12, 40)), True, float),
             (100 + rng.laplace(0, 9, (13, 13)), True, float), (rounded, True, np.int16),
             (rounded, False, np.int32))
    seen = _gathered_dtypes(monkeypatch)
    for values, gate, dtype in cases:
        monkeypatch.setattr(losses, "SIMD_INT16_SORT", gate)
        image = Image(values)
        monkeypatch.setenv("ADAPTMREG_WORKERS", "1")
        seen.clear()
        out1, khat1 = denoise_image(image, _auto(disc_artifact, image))
        assert set(seen) == {np.dtype(dtype)}, (values.shape, gate)
        for workers in ("2", "3"):
            monkeypatch.setenv("ADAPTMREG_WORKERS", workers)
            out, khat = denoise_image(image, _auto(disc_artifact, image))
            assert np.array_equal(out1.intensities, out.intensities), (values.shape, workers)
            assert np.array_equal(khat1, khat), (values.shape, workers)


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
    return CriticalValues(z=z)


def test_every_pixel_matches_scalar_reference(disc_artifact):
    """Every pixel equals the one-pixel scalar path on its clipped family.

    The 23x17 image has interior and border pixels; in the 23x3 strip every
    pixel is a border pixel and the flattened discs drop levels. The rounded
    23x17 image has integer values, which the median configurations gather
    and sort as int32. The third configuration's critical values zigzag, so
    a clipped family's running minimum differs from its raw values. Median
    outputs match exactly; mean outputs sum in another order, so they match
    to rounding, with the same selected windows.
    """
    art = disc_artifact
    median = DenoiseConfig(art, 1.0)
    mean = DenoiseConfig(_swapped(art, am.LossKind.mean(),
                                  am.levels_exact_mean(art.config.family)), 1.0)
    z = art.crit.z * np.where(np.arange(art.crit.K) % 2, 1.4, 0.6)
    zigzag = DenoiseConfig(_swapped(art, crit=CriticalValues(z=z)), 1.0)
    radii = np.asarray(median.radii)
    reach = int(np.floor(radii[-1]))
    subsets = interior = 0
    for config in (median, mean, zigzag):
        loss, crit_full = config.art.config.loss, config.art.crit
        for h, w, rounded in ((17, 23, False), (3, 23, False), (17, 23, True)):
            noise = sample_noise(NoiseKind.laplace(), h * w, RngStream(56, h))
            img = two_region(w, h) + noise.reshape(h, w)
            if rounded:
                img = np.rint(4 * img) + 0.0  # + 0.0 turns -0.0 into 0.0
            tol = 1e-12 * (1 + np.abs(img).max()) if config is mean else 0.0
            out, khat = denoise_image(Image(img), config)
            for y in range(h):
                for x in range(w):
                    left, right = min(x, reach), min(w - 1 - x, reach)
                    top, bottom = min(y, reach), min(h - 1 - y, reach)
                    interior += min(left, right, top, bottom) == reach
                    patch = img[y - top: y + bottom + 1, x - left: x + right + 1]
                    fam = clipped_family_2d(left + right + 1, top + bottom + 1,
                                            (left, top), radii)
                    kept = [lvl for lvl in range(len(radii))
                            if lvl not in fam.dropped_levels]
                    crit = crit_full
                    if fam.dropped_levels:
                        crit = _crit_subset(crit_full, np.asarray(kept))
                        subsets += 1
                    levels = (am.levels_exact_mean(fam, config.art.config.r) if config is mean
                              else am.levels_asymptotic(fam, loss, config.art.config.noise))
                    base, rings = base_estimates(patch.ravel(), fam, loss)
                    k_hat, _ = ring_reference(base, rings, levels, crit)
                    assert abs(out.intensities[y, x] - base[k_hat]) <= tol, (w, h, x, y)
                    assert khat[y, x] == kept[k_hat], (w, h, x, y)
    assert subsets > 0 and interior > 0


def two_edge(width, height):
    img = two_region(width, height)
    img[height // 2:, :] += 2.5
    return img


PINNED_IMAGES = {"tile64": (64, 64), "strip23x3": (3, 23), "flat40x12": (12, 40)}

# SHA-256 of the output intensities (float64) and k_hat (int16) bytes, taken
# from the per-clip-geometry denoiser that the masked gather replaced. The
# tile64 and flat40x12 pins were re-taken when the disc2d calibration moved to
# noise stream version 2, which changed its thresholds; the strip23x3 outputs
# did not move.
PINNED_DIGESTS = {
    "tile64/median": ("1b7be94fc6758f512d13aadd28656aa20dcf09efba7d42ea3fab501fd322e21a",
                     "7e0ff246b87c6c6af3fbf7b1c2366acbb5656887800b57befa55957e9649335a"),
    "tile64/quantile0.3": ("fbf8ae426fc9090848d840fa9a905980b7c75288c6d7fc08b49ab8481cb6611b",
                          "840e5e27e9dfe23f24fc8f38a1386d7248825f88316ede73c1af35fc75c8c014"),
    "strip23x3/median": ("0472ace9bb1af01a4e84476ebce17d2f54ac3cc8900a5f1e5ffe02994048880d",
                        "66275dc344a88f15116552ecd6396bbcab1f921465156112976bbeb4660f6537"),
    "strip23x3/quantile0.3": ("b203011ff4b7423e9e8564bc88dd0a816aefb925c37838e0ba6c9e76bda5f1a5",
                             "924f98ea59c14d47d640ca44c3ca59a1949ec5879f839404e930ccf13bf350a2"),
    "flat40x12/median": ("3882f80669885a1bd88c8a4d29ec150e86dc79b73368c09677ed7f96621b563b",
                        "a4a94a04944da741b2ae2291bdf27e053ee13b0963940b41fbdcb127f1d975c2"),
    "flat40x12/quantile0.3": ("eece08e80de286a2de13d57989dbf60f1a29fb0f7fa474e887ccdd3c773d36e1",
                             "6c4e36d52180bd8f3f18071b36629d2021cb015ff94e089a0254d8db4ee6bbbf"),
}


def test_denoise_outputs_are_pinned(disc_artifact):
    """Median and 0.3-quantile outputs stay bit for bit what they were.

    The 64x64 tile has two edges, every pixel of the 23x3 strip drops levels,
    and the 40x12 image has no interior pixel at all.
    """
    import hashlib
    quantile = _swapped(disc_artifact, am.LossKind.quantile(0.3))
    seen = {}
    for name, (h, w) in PINNED_IMAGES.items():
        noise = sample_noise(NoiseKind.laplace(), h * w, RngStream(57, h * 100 + w))
        image = Image(two_edge(w, h) + noise.reshape(h, w))
        for label, art in (("median", disc_artifact), ("quantile0.3", quantile)):
            out, khat = denoise_image(image, _auto(art, image))
            seen[f"{name}/{label}"] = (hashlib.sha256(out.intensities.tobytes()).hexdigest(),
                                       hashlib.sha256(khat.tobytes()).hexdigest())
    assert seen == PINNED_DIGESTS


def _gathered_dtypes(monkeypatch) -> list:
    """The dtype of every batch of rows denoise_image hands to window_estimates."""
    import adaptmreg.imaging as imaging
    real, seen = imaging.window_estimates, []

    def spy(rows, *args):
        seen.append(rows.dtype)
        return real(rows, *args)

    monkeypatch.setattr(imaging, "window_estimates", spy)
    return seen


def _integer_images() -> dict:
    """8-, 12- and 16-bit values, the all-border 23x3 strip and a 64x64 tile."""
    images = {}
    for name, (h, w), scale, top in (("8bit", (40, 48), 20.0, 255),
                                     ("12bit", (40, 48), 300.0, 4095),
                                     ("16bit", (40, 48), 5000.0, 65535),
                                     ("strip23x3", (3, 23), 20.0, 255),
                                     ("tile64", (64, 64), 20.0, 255)):
        noise = sample_noise(NoiseKind.laplace(), h * w, RngStream(58, h * 100 + w))
        img = scale * (two_edge(w, h) + noise.reshape(h, w)) + 0.2 * top
        images[name] = np.clip(np.rint(img), 0, top) + 0.0
    return images


def test_integer_images_match_the_float_path(disc_artifact, monkeypatch):
    """An integer image, sorted as int16 or int32, gives the float64 path's bits.

    Values in [-32768, 32766] are sorted as int16 where numpy sorts int16
    rows with SIMD (losses.SIMD_INT16_SORT), and as int32 otherwise.
    I + 0.5 has no integer value, so it takes the float64 path, and its
    output is exactly out(I) + 0.5 with the same selected windows.
    """
    seen = _gathered_dtypes(monkeypatch)
    quantile = _swapped(disc_artifact, am.LossKind.quantile(0.3))
    for gate in (True, False):
        monkeypatch.setattr(losses, "SIMD_INT16_SORT", gate)
        for name, img in _integer_images().items():
            want = np.int16 if gate and name != "16bit" else np.int32
            for art in (disc_artifact, quantile):
                sigma = estimate_noise_scale(Image(img), art.config.noise)
                seen.clear()
                out, khat = denoise_image(Image(img), DenoiseConfig(art, sigma))
                assert set(seen) == {np.dtype(want)}, (name, gate)
                seen.clear()
                half, khat_half = denoise_image(Image(img + 0.5), DenoiseConfig(art, sigma))
                assert set(seen) == {np.dtype(float)}, name
                assert np.array_equal(out.intensities + 0.5, half.intensities), name
                assert np.array_equal(khat, khat_half), name


def test_int16_rows_need_values_below_int16_max(disc_artifact, monkeypatch):
    """Values in [-32768, 32766] take int16 rows; one at 32767 or -32769 keeps int32.

    32767 is the int16 missing-value marker. Midpoints of values this large
    overflow int16 sums, so they must be added in float64.
    """
    seen = _gathered_dtypes(monkeypatch)
    img = _integer_images()["8bit"]
    inside = np.where(img > 127, 32766, -32768) + 0.0
    for gate in (True, False):
        monkeypatch.setattr(losses, "SIMD_INT16_SORT", gate)
        cases = [(inside, np.int16 if gate else np.int32)]
        for value in (32767, -32769):
            over = inside.copy()
            over[5, 7] = value
            cases.append((over, np.int32))
        for image, want in cases:
            seen.clear()
            out, khat = denoise_image(Image(image), DenoiseConfig(disc_artifact, 1.0))
            assert set(seen) == {np.dtype(want)}, (gate, image.min(), image.max())
            half, khat_half = denoise_image(Image(image + 0.5), DenoiseConfig(disc_artifact, 1.0))
            assert np.array_equal(out.intensities + 0.5, half.intensities)
            assert np.array_equal(khat, khat_half)


def test_interior_row_runs_match_the_float_path(disc_artifact, monkeypatch):
    """Interior chunks gather inner-row runs from one template, with the same bits.

    The inner widths above 1 do not divide DENOISE_CHUNK, so chunks start
    and end inside inner rows; 13x2100 has a one-pixel inner width, so each of its
    runs is one pixel, and 2100x13 a single inner row longer than a chunk.
    The smaller images have no chunk of interior pixels only. Under int16,
    int32 and float64 rows every output is the same up to the + 0.5.
    """
    reach = int(np.floor(max(disc_artifact.config.family_meta["radii"])))
    sizes = ((57, 49), (13, 200), (200, 13), (61, 60), (13, 2100), (2100, 13))
    assert sum((w - 2 * reach) * (h - 2 * reach) >= DENOISE_CHUNK for w, h in sizes) == 3
    for w, h in sizes:
        assert w - 2 * reach == 1 or DENOISE_CHUNK % (w - 2 * reach)
        noise = sample_noise(NoiseKind.laplace(), h * w, RngStream(59, h * 10000 + w))
        img = np.clip(np.rint(20 * (two_edge(w, h) + noise.reshape(h, w)) + 50), 0, 255) + 0.0
        config = _auto(disc_artifact, Image(img))
        half, khat_half = denoise_image(Image(img + 0.5), config)
        for gate in (True, False):
            monkeypatch.setattr(losses, "SIMD_INT16_SORT", gate)
            out, khat = denoise_image(Image(img), config)
            assert np.array_equal(out.intensities + 0.5, half.intensities), (w, h, gate)
            assert np.array_equal(khat, khat_half), (w, h, gate)


def test_only_exact_small_integers_take_the_int32_path(disc_artifact, monkeypatch):
    """The mean loss, int32's largest value and -0.0 keep the float64 gather."""
    seen = _gathered_dtypes(monkeypatch)
    img = _integer_images()["8bit"]
    mean = _swapped(disc_artifact, am.LossKind.mean(),
                    am.levels_exact_mean(disc_artifact.config.family))
    big, negative_zero = img.copy(), img.copy()
    big[0, 0] = 2.0 ** 31 - 1
    negative_zero[0, 0] = -0.0
    cases = ((mean, img, float), (disc_artifact, big, float),
             (disc_artifact, negative_zero, float),
             (disc_artifact, np.where(img > 127, 2.0 ** 31 - 2, -2.0 ** 31), np.int32))
    for art, image, want in cases:
        seen.clear()
        denoise_image(Image(image), DenoiseConfig(art, 1.0))
        assert set(seen) == {np.dtype(want)}


def test_denoise_reduces_mse_small(disc_artifact):
    clean = two_region(96, 96)
    noise = sample_noise(NoiseKind.laplace(), 96 * 96, RngStream(55, 0))
    noisy = Image(clean + noise.reshape(96, 96))
    out, _ = denoise_image(noisy, _auto(disc_artifact, noisy))
    mse_in = np.mean((noisy.intensities - clean) ** 2)
    mse_out = np.mean((out.intensities - clean) ** 2)
    assert mse_out <= 0.25 * mse_in


def test_rejects_incompatible_configs(disc_artifact):
    """Each artifact or noise scale the denoiser cannot use is refused on construction."""
    art = disc_artifact
    lv = art.levels
    cases = {
        "a disc2d calibration artifact": am.load_artifact(DATA / "3e22d29_median_ring.cal"),
        "lepski rule": replace(art, config=replace(art.config, rule="lepski"),
                               pair=am.pair_levels_asymptotic(art.config.family, art.config.loss,
                                                              art.config.noise)),
        "closed-form levels": _swapped(art, levels=am.Levels(lv.s, lv.s_ring, "monte_carlo",
                                                             runs=10000, seed=1)),
    }
    for message, bad in cases.items():
        with pytest.raises(ValidationError, match=message):
            DenoiseConfig(bad, 1.0)
    # a huber artifact holds Monte Carlo levels, which cannot be rebuilt for the borders
    mc = am.Levels(lv.s, lv.s_ring, "monte_carlo", runs=10000, seed=1)
    with pytest.raises(ValidationError, match="closed-form levels"):
        DenoiseConfig(_swapped(art, am.LossKind.huber(1.0), mc), 1.0)
    # closed-form levels of another loss, and thresholds sized for other radii, do not
    # even make an artifact
    for loss in (am.LossKind.huber(1.0), am.LossKind.mean()):
        with pytest.raises(ValidationError, match="asymptotic levels apply to median and quantile"):
            _swapped(art, loss)
    with pytest.raises(ValidationError, match="sized for the family's"):
        _swapped(art, crit=CriticalValues(z=art.crit.z[:-2]))
    for sigma in (-1.0, -1e-300, np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="sigma must be finite and nonnegative"):
            DenoiseConfig(art, sigma)
    assert DenoiseConfig(art, 0.0).radii == tuple(art.config.family_meta["radii"])


def test_radii_that_add_no_pixel_move_no_output(disc_artifact):
    """An artifact whose radii repeat a window denoises as the deduplicated one does.

    The denoiser reads only the family's counts and order, which leave the
    dropped radii out.
    """
    art = disc_artifact
    radii = np.insert(art.config.family_meta["radii"], 1, 1.6)  # 1.6 adds no pixel to 1.5
    dup = replace(art, config=replace(art.config, family_meta={"radii": radii.tolist()}))
    family = dup.config.family
    assert family.dropped_levels == (1,) and family.K == art.config.family.K
    for h, w in ((13, 40), (3, 30)):
        noise = sample_noise(NoiseKind.laplace(), h * w, RngStream(60, h * 100 + w))
        image = Image(two_edge(w, h) + noise.reshape(h, w))
        out, khat = denoise_image(image, DenoiseConfig(art, 1.0))
        out_dup, khat_dup = denoise_image(image, DenoiseConfig(dup, 1.0))
        assert np.array_equal(out.intensities, out_dup.intensities), (h, w)
        assert np.array_equal(khat, khat_dup), (h, w)


def test_denoise_builds_no_family(disc_artifact, tmp_path, monkeypatch):
    """Loading an artifact builds its disc family once; denoise_image builds none."""
    real = am.build_family_2d
    calls = []

    def counted(radii):
        calls.append(radii)
        return real(radii)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "adaptmreg" and getattr(module, "build_family_2d", None) is real:
            monkeypatch.setattr(module, "build_family_2d", counted)
    am.save_artifact(tmp_path / "d.cal", disc_artifact)
    art = am.load_artifact(tmp_path / "d.cal")
    assert len(calls) == 1
    image = Image(two_edge(40, 30))
    denoise_image(image, DenoiseConfig(art, 1.0))
    assert len(calls) == 1


def test_image_validation():
    with pytest.raises(ValueError):
        Image(np.array([[np.inf, 0.0]]))
    for bad in (np.zeros(4), np.zeros((0, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValidationError, match="nonempty 2-d array"):
            Image(bad)
    image = Image(np.zeros((3, 5)))
    assert (image.height, image.width) == (3, 5)


def test_pgm_roundtrip_8bit(tmp_path):
    arr = np.arange(12, dtype=float).reshape(3, 4) * 20
    path = tmp_path / "img.pgm"
    write_pgm(path, arr, maxval=255)
    back, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(back, arr)


def test_pgm_roundtrip_16bit(tmp_path):
    arr = (np.arange(12, dtype=float).reshape(4, 3) * 3000) % 60000
    path = tmp_path / "img16.pgm"
    write_pgm(path, arr, maxval=65535)
    back, maxval = read_pgm(path)
    assert maxval == 65535
    assert np.array_equal(back, arr)


def test_pgm_clips_and_rounds(tmp_path):
    path = tmp_path / "clip.pgm"
    write_pgm(path, np.array([[-3.0, 12.4, 300.0]]), maxval=255)
    back, _ = read_pgm(path)
    assert back.tolist() == [[0.0, 12.0, 255.0]]


def test_pgm_comment_and_errors(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([0, 128, 255, 64])
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
    arr, maxval = read_pgm(path)
    assert arr.shape == (2, 2) and arr[0, 1] == 128
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + payload * 3)
    with pytest.raises(ValueError):
        read_pgm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError):
        read_pgm(trunc)
    # the file ends right after maxval: no separator byte, so no header end
    trunc.write_bytes(b"P5 0 4 25")
    with pytest.raises(ValidationError, match="truncated PGM header"):
        read_pgm(trunc)


def test_grid_roundtrip(tmp_path):
    arr = np.random.default_rng(1).normal(size=(5, 7))
    path = tmp_path / "g.bin"
    write_grid(path, arr)
    assert np.array_equal(read_grid(path), arr)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAGRID\n2 2\n")
    with pytest.raises(ValueError):
        read_grid(bad)
    # the dimension line lost its end: it declared "0 999..." before the cut
    bad.write_bytes(b"AMRGRID1\n0 9")
    with pytest.raises(ValidationError, match="one complete 'width height' line"):
        read_grid(bad)


# a header field replaced by junk: a decimal too large for any raster, one
# too long for int(), or a short token without whitespace or '#' (a leading
# '#' starts a comment)
_JUNK = st.one_of(st.integers(7, 10 ** 15).map(str), st.just("9" * 5000),
                  st.text(st.characters(min_codepoint=33, max_codepoint=126,
                                        blacklist_characters="#"),
                          min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@example(grid=True, dims=(0, 0), maxval=255, junk=(1, "9" * 5000), sep=" ", cut=12)
@given(grid=st.booleans(), dims=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       maxval=st.sampled_from([0, 1, 255, 256, 65535, 65536]),
       junk=st.one_of(st.none(), st.tuples(st.integers(0, 2), _JUNK)),
       sep=st.sampled_from([" ", "\n", "\t", "\n# c\n"]), cut=st.integers(0, 400))
def test_header_fuzz_reads_declared_shape_or_refuses(tmp_path_factory, grid, dims,
                                                     maxval, junk, sep, cut):
    """Random headers and truncated files: the declared shape or a ValidationError."""
    fields = [str(dims[0]), str(dims[1]), str(maxval)]
    if junk is not None:
        fields[junk[0]] = junk[1]
    if grid:
        head, itemsize = "AMRGRID1\n" + " ".join(fields[:2]) + "\n", 8
        reader = read_grid
    else:
        head = "P5" + "".join(sep + f for f in fields) + "\n"
        itemsize = 2 if maxval > 255 else 1
        reader = lambda p: read_pgm(p)[0]  # noqa: E731
    raster = bytes(i * 37 % 256 for i in range(dims[0] * dims[1] * itemsize))
    path = tmp_path_factory.getbasetemp() / "fuzz.img"
    path.write_bytes((head.encode("ascii") + raster)[:cut])
    try:
        arr = reader(path)
    except ValidationError:
        return
    assert arr.shape == (int(fields[1]), int(fields[0]))
