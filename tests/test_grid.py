import math

import numpy as np
import pytest

from compact_tik.grid import (
    SHEPP_LOGAN_TABLE,
    ImageGrid,
    pixel_centers,
    read_imgf,
    shepp_logan,
    write_imgf,
    write_pgm16,
)


def membership_sum(x, y):
    """Independent point-in-ellipse evaluation straight from the table."""
    total = 0.0
    for val, a, b, cx, cy, deg in SHEPP_LOGAN_TABLE:
        phi = math.radians(deg)
        u = (x - cx) * math.cos(phi) + (y - cy) * math.sin(phi)
        v = -(x - cx) * math.sin(phi) + (y - cy) * math.cos(phi)
        if (u / a) ** 2 + (v / b) ** 2 < 1.0:
            total += val
    return total


def test_pixel_centers_single():
    assert np.allclose(pixel_centers(1, 1), [[0.0, 0.0]])


def test_pixel_centers_2x2():
    expected = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)]
    assert np.allclose(pixel_centers(2, 2), expected)


def test_pixel_centers_128():
    centers = pixel_centers(128, 128)
    assert centers.shape == (16384, 2)
    assert np.allclose(centers[0], (-0.9921875, -0.9921875))
    assert np.all(np.abs(centers) < 1.0)


def test_pixel_centers_rejects_empty():
    with pytest.raises(ValueError):
        pixel_centers(0, 4)
    with pytest.raises(ValueError):
        pixel_centers(4, -1)


def test_phantom_outside_everything_is_zero():
    # (0.95, 0.95) is the center of the last pixel of a 40x40 grid
    img = shepp_logan(40, 40)
    assert img.values[-1] == 0.0
    assert membership_sum(0.95, 0.95) == 0.0


def test_phantom_origin_matches_independent_membership():
    # 65 is odd so the central pixel center is exactly the origin
    img = shepp_logan(65, 65)
    center_index = 32 * 65 + 32
    centers = pixel_centers(65, 65)
    assert np.allclose(centers[center_index], (0.0, 0.0))
    assert img.values[center_index] == pytest.approx(membership_sum(0.0, 0.0))
    # classical table: outer ellipse 2.0 plus inner -0.98
    assert img.values[center_index] == pytest.approx(1.02)


def test_phantom_matches_membership_on_coarse_grid():
    img = shepp_logan(16, 16)
    centers = pixel_centers(16, 16)
    expected = np.array([membership_sum(x, y) for x, y in centers])
    assert np.array_equal(img.values, expected)


def test_phantom_is_deterministic():
    a = shepp_logan(32, 32)
    b = shepp_logan(32, 32)
    assert np.array_equal(a.values, b.values)


def test_phantom_128_shape():
    img = shepp_logan(128, 128)
    assert img.nx == img.ny == 128
    assert img.values.size == 16384


def test_phantom_value_bounds():
    img = shepp_logan(128, 128)
    assert img.values.min() >= 0.0
    assert img.values.max() <= 2.1


def test_pointwise_evaluation_at_coinciding_centers():
    # tripling the resolution makes the center subpixel of each 3x3 block
    # land exactly on the coarse pixel center, so values must agree
    coarse = shepp_logan(20, 20)
    fine = shepp_logan(60, 60)
    coarse_arr = coarse.as_array()
    fine_arr = fine.as_array()
    assert np.array_equal(coarse_arr, fine_arr[1::3, 1::3])


def test_image_grid_validation():
    with pytest.raises(ValueError):
        ImageGrid(nx=2, ny=2, values=np.zeros(3))
    with pytest.raises(ValueError):
        ImageGrid(nx=0, ny=2, values=np.zeros(0))


def test_imgf_round_trip(tmp_path):
    img = shepp_logan(17, 9)
    path = tmp_path / "img.imgf"
    write_imgf(path, img)
    back = read_imgf(path)
    assert back.nx == 17 and back.ny == 9
    assert np.array_equal(back.values, img.values)


def test_imgf_header_layout(tmp_path):
    img = ImageGrid(nx=2, ny=1, values=np.array([1.0, -2.0]))
    path = tmp_path / "img.imgf"
    write_imgf(path, img)
    raw = path.read_bytes()
    assert raw[:4] == b"IMGF"
    assert len(raw) == 16 + 2 * 8
    assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.0, -2.0]


def test_pgm16_output(tmp_path):
    img = shepp_logan(12, 12)
    path = tmp_path / "img.pgm"
    write_pgm16(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n12 12\n65535\n")
    pixels = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
    assert pixels.size == 144
    assert pixels.max() == 65535  # max scales to full range
    sidecar = (tmp_path / "img.pgm.scale.txt").read_text()
    assert "min = 0.0" in sidecar
    assert "max = 2.0" in sidecar


def test_pgm16_constant_image(tmp_path):
    img = ImageGrid(nx=3, ny=3, values=np.full(9, 5.0))
    path = tmp_path / "flat.pgm"
    write_pgm16(path, img)
    pixels = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert np.all(pixels == 0)
