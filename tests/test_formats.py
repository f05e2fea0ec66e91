import dataclasses
import re

import numpy as np
import pytest

from compact_tik.grid import ImageGrid, read_imgf, shepp_logan, write_imgf
from compact_tik.mlp import MlpArchitecture, init_params, load_params, save_params
from compact_tik.radon import RadonGeometry, SinogramGrid, radon_forward, read_sinf, write_sinf

GEOM = RadonGeometry.for_grid(8, 5)

# format -> (writer of a small valid file, reader, header bytes)
FORMATS = {
    "imgf": (lambda path: write_imgf(path, shepp_logan(5, 3)), read_imgf, 16),
    "sinf": (lambda path: write_sinf(path, radon_forward(shepp_logan(8, 8), GEOM)), read_sinf, 28),
    "mlpw": (lambda path: save_params(path, init_params(MlpArchitecture((4, 3)), seed=1)),
             load_params, 8),
}

# the values 1.0 and -2.0 as float64 little-endian
PAYLOAD = bytes.fromhex("000000000000f03f" "00000000000000c0")

# format -> (a two-value object, its file bytes built by hand, writer, reader)
GOLDEN = {
    "imgf": (ImageGrid(nx=2, ny=1, values=[1.0, -2.0]),
             b"IMGF" + bytes.fromhex("02000000" "01000000" "00000000") + PAYLOAD,
             write_imgf, read_imgf),
    # n_bins 2, n_angles 1, det_halfwidth 1.5, step 0.25
    "sinf": (SinogramGrid(RadonGeometry(n_angles=1, n_bins=2, det_halfwidth=1.5, step=0.25),
                          [1.0, -2.0]),
             b"SNF2" + bytes.fromhex("02000000" "01000000" "000000000000f83f" "000000000000d03f")
             + PAYLOAD,
             write_sinf, read_sinf),
}


@pytest.mark.parametrize("change", ["truncated", "trailing", "cut header"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_reader_rejects_a_payload_of_the_wrong_length(tmp_path, fmt, change):
    write, read, header = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    write(path)
    good = path.read_bytes()
    read(path)
    if change == "truncated":
        # a checkpoint's length is known only layer by layer, so a cut one names a lower bound
        bound = "at least " if fmt == "mlpw" else ""
        bad, expected = good[:-1], f"{bound}{len(good)}"
    elif change == "trailing":
        bad, expected = good + bytes(3), str(len(good))
    else:
        bad, expected = good[:header - 2], f"at least {header}"
    path.write_bytes(bad)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: expected {expected} bytes, got {len(bad)}$"):
        read(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_reader_rejects_a_bad_magic_naming_the_path(tmp_path, fmt):
    write, read, _ = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    write(path)
    good = path.read_bytes()
    path.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad magic b'XXXX', expected"):
        read(path)


def test_a_sinogram_without_its_step_never_loads(tmp_path):
    # the earlier layout: magic SINF, u32 n_bins, u32 n_angles, f64 det_halfwidth (20 bytes)
    path = tmp_path / "old.sinf"
    path.write_bytes(b"SINF" + bytes.fromhex("02000000" "01000000" "000000000000f83f") + PAYLOAD)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad magic b'SINF'"):
        read_sinf(path)


@pytest.mark.parametrize("fmt", sorted(GOLDEN))
def test_writer_and_reader_match_hand_built_bytes(tmp_path, fmt):
    obj, golden, write, read = GOLDEN[fmt]
    path = tmp_path / f"file.{fmt}"
    write(path, obj)
    assert path.read_bytes() == golden
    back = read(path)
    for field in dataclasses.fields(obj):
        assert np.array_equal(getattr(back, field.name), getattr(obj, field.name)), field.name


# format -> (file bytes built by hand whose header is out of range, reader, message)
BAD_HEADERS = {
    # nx 0, ny 1: no values
    "imgf": (b"IMGF" + bytes.fromhex("00000000" "01000000" "00000000"), read_imgf,
             "nx must be positive and finite, got 0"),
    # n_bins 2, n_angles 1, det_halfwidth NaN, step 0.25
    "sinf": (b"SNF2" + bytes.fromhex("02000000" "01000000" "000000000000f87f" "000000000000d03f")
             + PAYLOAD, read_sinf, "det_halfwidth must be positive and finite, got nan"),
    # no layers
    "mlpw": (b"MLPW" + bytes.fromhex("00000000"), load_params,
             "weights and biases must pair up layer by layer"),
}


@pytest.mark.parametrize("fmt", sorted(BAD_HEADERS))
def test_reader_rejects_an_out_of_range_header_naming_the_path(tmp_path, fmt):
    blob, read, message = BAD_HEADERS[fmt]
    path = tmp_path / f"file.{fmt}"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read(path)
