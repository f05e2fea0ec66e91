import math
import os
import shutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compact_tik import radon
from compact_tik.grid import ImageGrid, pixel_centers, shepp_logan
from compact_tik.linop import adjoint_defect
from compact_tik.radon import (
    BLOCK_ENTRIES,
    RadonGeometry,
    SinogramGrid,
    _projector,
    dense_matrix,
    radon_adjoint,
    radon_forward,
    radon_operator,
    read_sinf,
    write_sinf,
)


def reference_matrix(geom, nx, ny):
    """R built by a plain loop over rays and samples.

    Each sample inside the bounding circle of [-1, 1]^2 carries a trapezoid
    weight (a half step at the first and last inside sample) and spreads it
    over the 4-point bilinear stencil at its position; stencil points
    outside the image are skipped (zero extension).
    """
    radius = math.sqrt(2.0)
    n_s = int(math.floor(2.0 * radius / geom.step)) + 1
    hx, hy = 2.0 / nx, 2.0 / ny
    mat = np.zeros((geom.size, nx * ny))
    for q, theta in enumerate(geom.angles):
        c, s = math.cos(theta), math.sin(theta)
        for p, offset in enumerate(geom.offsets):
            chord = math.sqrt(max(radius**2 - offset**2, 0.0))
            ts = [(k - (n_s - 1) / 2.0) * geom.step for k in range(n_s)]
            inside = [k for k in range(n_s) if abs(ts[k]) <= chord + 1e-12]
            for k in inside:
                weight = geom.step
                if k == inside[0]:
                    weight *= 0.5
                if k == inside[-1]:
                    weight *= 0.5
                fx = (offset * c - ts[k] * s + 1.0) / hx - 0.5
                fy = (offset * s + ts[k] * c + 1.0) / hy - 0.5
                ix0, iy0 = math.floor(fx), math.floor(fy)
                rx, ry = fx - ix0, fy - iy0
                stencil = [
                    (ix0, iy0, (1 - rx) * (1 - ry)),
                    (ix0 + 1, iy0, rx * (1 - ry)),
                    (ix0, iy0 + 1, (1 - rx) * ry),
                    (ix0 + 1, iy0 + 1, rx * ry),
                ]
                for ix, iy, w in stencil:
                    if 0 <= ix < nx and 0 <= iy < ny:
                        mat[q * geom.n_bins + p, iy * nx + ix] += weight * w
    return mat


def direct_matrix(geom, nx, ny):
    """R from the compile's per-angle loop run over every angle and bin, so with no
    mirrored angle and no reflected bin."""
    mat = np.zeros((geom.size, nx * ny))
    bins = np.arange(geom.n_bins)
    for q, (lengths, pix, val) in enumerate(radon._angle_entries(geom, nx, ny, geom.angles, bins)):
        mat[q * geom.n_bins + np.repeat(bins, lengths), pix] = val
    return mat


def table_parts(geom):
    """The rows of the table's four parts, in table order, each angle-major: the end angles
    (0, and Q/2 for even Q) at the paired bins p < P - 1 - p, the inner angles 0 < q < Q/2
    at the paired bins, the inner angles at the centre bin (odd P), the end angles there."""
    n_angles, n_bins = geom.n_angles, geom.n_bins
    ends = [0, n_angles // 2] if n_angles % 2 == 0 else [0]
    inner = range(1, (n_angles + 1) // 2)
    paired, centre = range(n_bins // 2), range(n_bins // 2, (n_bins + 1) // 2)
    return [np.array([q * n_bins + p for q in angles for p in bins], dtype=np.intp)
            for angles, bins in [(ends, paired), (inner, paired), (inner, centre), (ends, centre)]]


# each image the table applies rays to, the parts of the table it applies, and
# the ray (q or Q - q, p or P - 1 - p) that the stored ray (q, p) stands for there
IMAGES = [
    (np.s_[:, :], slice(0, 4), lambda q, p, n_angles, n_bins: q * n_bins + p),
    (np.s_[::-1, ::-1], slice(0, 2), lambda q, p, n_angles, n_bins: q * n_bins + n_bins - 1 - p),
    (np.s_[:, ::-1], slice(1, 3), lambda q, p, n_angles, n_bins: (n_angles - q) * n_bins + p),
    (np.s_[::-1, :], slice(1, 2),
     lambda q, p, n_angles, n_bins: (n_angles - q) * n_bins + n_bins - 1 - p),
]


def image_rays(geom):
    """Per image of IMAGES: its flip, the stored rows it applies, and the rays they stand for."""
    parts = table_parts(geom)
    images = []
    for flip, applied, ray in IMAGES:
        rows = np.concatenate(parts[applied])
        q, p = np.divmod(rows, geom.n_bins)
        images.append((flip, rows, ray(q, p, geom.n_angles, geom.n_bins)))
    return images


def disk_image(nx, radius=0.5):
    centers = pixel_centers(nx, nx)
    inside = centers[:, 0] ** 2 + centers[:, 1] ** 2 < radius**2
    return ImageGrid(nx=nx, ny=nx, values=inside.astype(float))


def test_geometry_validation():
    with pytest.raises(ValueError):
        RadonGeometry(n_angles=0, n_bins=10, det_halfwidth=1.0, step=0.1)
    with pytest.raises(ValueError):
        RadonGeometry(n_angles=10, n_bins=0, det_halfwidth=1.0, step=0.1)
    with pytest.raises(ValueError):
        RadonGeometry(n_angles=10, n_bins=10, det_halfwidth=-1.0, step=0.1)


def test_geometry_angles_half_open():
    geom = RadonGeometry.for_grid(16, 8)
    assert geom.angles[0] == 0.0
    assert np.all(geom.angles < np.pi)
    assert np.allclose(np.diff(geom.angles), np.pi / 8)


def test_default_bins_match_reference_shape():
    # 182 detector bins at nx = 128, so the data array is 182 x 50
    geom = RadonGeometry.for_grid(128, 50)
    assert geom.n_bins == 182
    assert geom.size == 9100
    assert geom.step == 2.0 / 128


def test_for_grid_bins_follow_the_detector_halfwidth():
    # one bin per pixel width: ceil(16 * 1.2) = 20
    geom = RadonGeometry.for_grid(16, 6, det_halfwidth=1.2)
    assert geom == RadonGeometry(n_angles=6, n_bins=20, det_halfwidth=1.2, step=2.0 / 16)
    assert RadonGeometry.for_grid(16, 6).n_bins == math.ceil(16 * math.sqrt(2.0))


def test_forward_of_zero_is_zero():
    geom = RadonGeometry.for_grid(16, 7)
    img = ImageGrid(nx=16, ny=16, values=np.zeros(256))
    sino = radon_forward(img, geom)
    assert np.array_equal(sino.values, np.zeros(geom.size))


def test_forward_linearity():
    rng = np.random.default_rng(0)
    geom = RadonGeometry.for_grid(12, 5)
    x = rng.standard_normal(144)
    z = rng.standard_normal(144)
    a, b = 2.5, -1.25
    fx = radon_forward(ImageGrid(12, 12, x), geom).values
    fz = radon_forward(ImageGrid(12, 12, z), geom).values
    fxz = radon_forward(ImageGrid(12, 12, a * x + b * z), geom).values
    assert np.allclose(fxz, a * fx + b * fz, atol=1e-12)


def test_disk_center_chord():
    # chord of a radius-0.5 disk at offset 0 has length 1.0
    nx = 128
    geom = RadonGeometry.for_grid(nx, 10)
    sino = radon_forward(disk_image(nx), geom).as_array()
    center_bin = np.argmin(np.abs(geom.offsets))
    for q in range(geom.n_angles):
        assert sino[q, center_bin] == pytest.approx(1.0, abs=2 * geom.step)


def test_disk_profile_angle_invariant():
    nx = 64
    geom = RadonGeometry.for_grid(nx, 12)
    sino = radon_forward(disk_image(nx), geom).as_array()
    deviation = np.abs(sino - sino.mean(axis=0)).max()
    assert deviation <= 2 * geom.step


def test_sinogram_shape_at_reference_scale():
    img = shepp_logan(128, 128)
    geom = RadonGeometry.for_grid(128, 50)
    sino = radon_forward(img, geom)
    assert sino.values.size == 9100


def test_adjoint_zero():
    geom = RadonGeometry.for_grid(16, 7)
    sino = SinogramGrid(geometry=geom, values=np.zeros(geom.size))
    img = radon_adjoint(sino, 16, 16)
    assert np.array_equal(img.values, np.zeros(256))


def test_adjoint_inner_product_16():
    rng = np.random.default_rng(1)
    geom = RadonGeometry.for_grid(16, 9)
    op = radon_operator(geom, 16, 16)
    for _ in range(10):
        x = rng.standard_normal(256)
        y = rng.standard_normal(geom.size)
        rx = op.apply(x)
        rty = op.apply_adjoint(y)
        defect = abs(rx @ y - x @ rty) / (np.linalg.norm(rx) * np.linalg.norm(y))
        assert defect <= 1e-12


def test_adjoint_defect_helper():
    geom = RadonGeometry.for_grid(24, 11)
    op = radon_operator(geom, 24, 24)
    assert adjoint_defect(op, n_probes=5, seed=3) <= 1e-12


def test_dense_equivalence_8x8():
    rng = np.random.default_rng(2)
    geom = RadonGeometry.for_grid(8, 10)
    mat = dense_matrix(geom, 8, 8)
    op = radon_operator(geom, 8, 8)
    for _ in range(5):
        x = rng.standard_normal(64)
        y = rng.standard_normal(geom.size)
        assert np.abs(op.apply(x) - mat @ x).max() <= 1e-12
        assert np.abs(op.apply_adjoint(y) - mat.T @ y).max() <= 1e-12


def test_single_bin_scatter_matches_dense_column():
    geom = RadonGeometry.for_grid(8, 10)
    mat = dense_matrix(geom, 8, 8)
    values = np.zeros(geom.size)
    k = geom.size // 3
    values[k] = 1.0
    img = radon_adjoint(SinogramGrid(geometry=geom, values=values), 8, 8)
    assert np.abs(img.values - mat.T[:, k]).max() <= 1e-12


def test_adjoint_dimension_mismatch():
    geom = RadonGeometry.for_grid(8, 4)
    sino = SinogramGrid(geometry=geom, values=np.zeros(geom.size))
    with pytest.raises(ValueError):
        radon_adjoint(sino, 0, 8)
    with pytest.raises(ValueError):
        SinogramGrid(geometry=geom, values=np.zeros(geom.size + 1))


def test_forward_deterministic():
    img = shepp_logan(32, 32)
    geom = RadonGeometry.for_grid(32, 15)
    a = radon_forward(img, geom).values
    b = radon_forward(img, geom).values
    assert np.array_equal(a, b)


def test_sinf_round_trip(tmp_path):
    img = shepp_logan(16, 16)
    geom = RadonGeometry.for_grid(16, 6)
    sino = radon_forward(img, geom)
    path = tmp_path / "s.sinf"
    write_sinf(path, sino)
    back = read_sinf(path)
    assert back.geometry == geom
    assert np.array_equal(back.values, sino.values)
    raw = path.read_bytes()
    assert raw[:4] == b"SNF2"
    assert len(raw) == 4 + 4 + 4 + 8 + 8 + 8 * geom.size


def test_sinf_keeps_a_step_that_is_not_the_pixel_width(tmp_path):
    # read with 2 / nx in place of 0.17, this file would rebuild a different operator
    geom = RadonGeometry(n_angles=7, n_bins=11, det_halfwidth=1.2, step=0.17)
    sino = radon_forward(shepp_logan(9, 5), geom)
    path = tmp_path / "s.sinf"
    write_sinf(path, sino)
    back = read_sinf(path)
    assert back.geometry == geom
    assert np.array_equal(radon_adjoint(back, 9, 5).values, radon_adjoint(sino, 9, 5).values)


def test_dense_matrix_equals_unit_vector_applies():
    for geom, nx, ny in [
        (RadonGeometry.for_grid(8, 10), 8, 8),
        (RadonGeometry(n_angles=7, n_bins=11, det_halfwidth=1.2, step=0.17), 9, 5),
    ]:
        op = radon_operator(geom, nx, ny)
        columns = np.column_stack([op.apply(e) for e in np.eye(nx * ny)])
        assert np.array_equal(dense_matrix(geom, nx, ny), columns)


# even and odd Q, down to Q = 1, 2 and 3; nx != ny; one bin; bins past the image
@pytest.mark.parametrize("geom, nx, ny", [
    (RadonGeometry.for_grid(16, 20), 16, 16),
    (RadonGeometry.for_grid(16, 7), 16, 16),
    (RadonGeometry.for_grid(12, 1), 12, 12),
    (RadonGeometry.for_grid(12, 2), 12, 12),
    (RadonGeometry.for_grid(12, 3), 12, 12),
    (RadonGeometry.for_grid(24, 11), 24, 16),
    (RadonGeometry.for_grid(10, 6), 10, 14),
    (RadonGeometry(n_angles=7, n_bins=1, det_halfwidth=math.sqrt(2.0), step=2.0 / 17), 17, 17),
    (RadonGeometry(n_angles=8, n_bins=1, det_halfwidth=math.sqrt(2.0), step=2.0 / 17), 17, 17),
    (RadonGeometry.for_grid(12, 5, det_halfwidth=2.0), 12, 12),
    (RadonGeometry.for_grid(12, 6, det_halfwidth=2.0), 12, 12),
    # two bins, both paired, on odd nx != ny
    (RadonGeometry(n_angles=4, n_bins=2, det_halfwidth=0.5, step=2.0 / 9), 9, 7),
])
def test_mirrored_operator_matches_a_direct_compile_of_every_angle(geom, nx, ny):
    # only the bins p <= P - 1 - p of the angles q <= Q/2 are compiled, each
    # with one run length, and the identity applies them as themselves
    assert radon._compile(geom, nx, ny)[0].size == sum(part.size for part in table_parts(geom))
    identity = _projector(geom, nx, ny)[0]
    assert identity.flip == np.s_[:, :]
    q, p = np.divmod(np.concatenate([block.rays for block in identity.blocks]), geom.n_bins)
    assert q.size and q.max() <= geom.n_angles // 2 and np.all(p <= geom.n_bins - 1 - p)
    direct, mat = direct_matrix(geom, nx, ny), dense_matrix(geom, nx, ny)
    stored = np.concatenate(table_parts(geom))  # the identity's rows
    assert np.array_equal(mat[stored], direct[stored])
    assert np.abs(mat - direct).max() <= 1e-14 * np.abs(direct).max()
    op = radon_operator(geom, nx, ny)
    x = np.random.default_rng(nx).standard_normal(nx * ny)
    y = np.random.default_rng(ny).standard_normal(geom.size)
    want_fwd, want_adj = direct @ x, direct.T @ y
    assert np.abs(op.apply(x) - want_fwd).max() <= 1e-14 * np.abs(want_fwd).max()
    assert np.abs(op.apply_adjoint(y) - want_adj).max() <= 1e-14 * np.abs(want_adj).max()


def test_rays_without_entries_are_exactly_zero():
    # bins with |s| > sqrt(2) miss the bounding circle; at s = +-1.25 the
    # rays of angle 0 miss the image. Empty rays sit next to full ones, in
    # the same angle and across angles.
    geom = RadonGeometry(n_angles=3, n_bins=9, det_halfwidth=2.0, step=0.25)
    nx, ny = 6, 4
    empty = ~dense_matrix(geom, nx, ny).any(axis=1)
    assert empty.any() and not empty.all()
    sino = radon_forward(ImageGrid(nx, ny, np.ones(nx * ny)), geom).values
    assert np.all(sino[empty] == 0.0)
    assert np.all(sino[~empty] > 0.0)


@pytest.mark.parametrize("geom, nx", [
    (RadonGeometry.for_grid(32, 20), 32),
    (RadonGeometry(n_angles=7, n_bins=1, det_halfwidth=math.sqrt(2.0), step=2.0 / 17), 17),
    (RadonGeometry.for_grid(12, 5, det_halfwidth=2.0), 12),  # bins past sqrt(2) have no entries
])
def test_adjoint_is_bitwise_the_row_major_scatter_of_the_dense_nonzeros(geom, nx):
    # for each of the four images, each nonzero R[row, col] of a stored row it
    # applies adds y[ray] * R[row, col] to pixel col of an image of its own,
    # where ray is the ray the row stands for there, in row-major order part
    # by part: the order of the table's entries. The four images are added
    # into zeros, each transformed back, in the order of IMAGES
    mat = dense_matrix(geom, nx, nx)
    y = np.random.default_rng(5).standard_normal(geom.size)
    want = np.zeros((nx, nx))
    for flip, rows, rays in image_rays(geom):
        r, cols = np.nonzero(mat[rows])
        want[flip] += np.bincount(cols, weights=y[rays[r]] * mat[rows[r], cols],
                                  minlength=nx * nx).reshape(nx, nx)
    got = radon_adjoint(SinogramGrid(geometry=geom, values=y), nx, nx).values
    assert np.array_equal(got, want.ravel())
    if geom.det_halfwidth > math.sqrt(2.0):
        assert not mat.any(axis=1).all()


def table_nbytes(table):
    """Bytes of the table's arrays: the identity's block views cover each array once, and
    another image's block adds only its rays and offsets, its entries being views of them."""
    identity, *others = table
    return (sum(field.nbytes for block in identity.blocks for field in block)
            + sum(block.rays.nbytes + block.offsets.nbytes
                  for group in others for block in group.blocks))


def all_blocks(table):
    return [block for group in table for block in group.blocks]


def test_cached_table_holds_two_arrays_per_entry_and_three_per_ray():
    # col and val per entry, rays, run_lengths and offsets per ray, and the
    # output ray and offset of each ray applied to another image: no
    # per-entry row index
    identity, *others = table = _projector(RadonGeometry.for_grid(64, 30), 64, 64)
    entries = sum(block.col.size for block in identity.blocks)
    rays = sum(block.rays.size for block in identity.blocks)
    transformed = sum(block.rays.size for group in others for block in group.blocks)
    assert table_nbytes(table) <= 16 * entries + 24 * rays + 16 * transformed
    for block in all_blocks(table):
        assert np.array_equal(block.run_lengths, np.diff(block.offsets, append=block.col.size))


def test_table_at_128x128_50_angles_is_at_most_8_mib():
    # it holds the bins p <= 90 of 182 of the angles q <= 25 of 50; all 50
    # angles took 28 MiB, and all their bins of the angles q <= 25 14.5 MiB
    table = _projector(RadonGeometry.for_grid(128, 50), 128, 128)
    q, p = np.divmod(np.concatenate([block.rays for block in table[0].blocks]), 182)
    assert q.max() <= 25 and p.max() <= 90
    assert table_nbytes(table) <= 8 * 2**20


def test_table_built_under_a_tracer_equals_a_plain_build():
    # a tracer holds the build's locals, so numpy's reference check of
    # ndarray.resize would refuse to grow col and val
    geom, nx, ny = RadonGeometry.for_grid(20, 9), 20, 14
    plain = radon._compile(geom, nx, ny)
    previous = sys.gettrace()
    sys.settrace(lambda *args: None)
    try:
        traced = radon._compile(geom, nx, ny)
    finally:
        sys.settrace(previous)
    assert len(traced) == len(plain) == 3
    for traced_field, plain_field in zip(traced, plain):
        assert np.array_equal(traced_field, plain_field)


def test_cold_build_holds_one_copy_of_the_table(tmp_path, monkeypatch):
    # each angle's entries go straight into the growing table, so the build
    # peaks at the table plus one angle's working set, not at two tables;
    # the publish that follows writes the arrays without copying them. At
    # 128x128/50 the 7.3 MiB table peaks at 10.6 MiB; at 64x64/30 one angle's
    # working set is too large a share of the 1.2 MiB table for this bound
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _projector.cache_clear()
    compiles = count_compiles(monkeypatch)
    tracemalloc.start()
    try:
        table = _projector(RadonGeometry.for_grid(128, 50), 128, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert compiles == [1]
    assert peak <= 1.5 * table_nbytes(table)


def count_compiles(monkeypatch):
    """Count the calls of the compile step from now on, in a list holding one count."""
    compiles = [0]
    compile_table = radon._compile

    def counted(*args):
        compiles[0] += 1
        return compile_table(*args)

    monkeypatch.setattr(radon, "_compile", counted)
    return compiles


def assert_same_table(table, expected):
    assert ([(group.flip, len(group.blocks)) for group in table]
            == [(group.flip, len(group.blocks)) for group in expected])
    for block, expected_block in zip(all_blocks(table), all_blocks(expected)):
        for field, expected_field in zip(block, expected_block):
            assert field.dtype == expected_field.dtype
            assert np.array_equal(field, expected_field)


# 32x32/20 and 64x64/30 angles; then a single bin, a grid with nx != ny,
# and the geometry whose table has no entries
CACHED_GEOMETRIES = [
    (RadonGeometry.for_grid(32, 20), 32, 32),
    (RadonGeometry.for_grid(64, 30), 64, 64),
    (RadonGeometry(n_angles=20, n_bins=1, det_halfwidth=math.sqrt(2.0), step=2.0 / 32), 32, 32),
    (RadonGeometry.for_grid(24, 11), 24, 16),
    (RadonGeometry(n_angles=2, n_bins=2, det_halfwidth=2.0, step=0.3), 4, 4),
]


@pytest.mark.parametrize("geom, nx, ny", CACHED_GEOMETRIES)
def test_cached_table_loads_with_the_bits_of_a_compile(geom, nx, ny, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compiles = count_compiles(monkeypatch)
    _projector.cache_clear()
    compiled = _projector(geom, nx, ny)
    assert compiles == [1]
    entry = Path(radon._cache_entry(geom, nx, ny)[1])
    assert [p for p in (tmp_path / "compact-tik").iterdir()] == [entry]  # no copy left behind
    assert sorted(p.name for p in entry.iterdir()) == [
        "check.npy", "col.npy", "run_lengths.npy", "val.npy"]
    _projector.cache_clear()
    loaded = _projector(geom, nx, ny)
    assert compiles == [1]
    assert_same_table(loaded, compiled)


def damage_truncate_val(entry, other_entry, geom):
    path = entry / "val.npy"
    with open(path, "r+b") as f:
        f.truncate(path.stat().st_size - 8)


def damage_flip_a_col_byte(entry, other_entry, geom):
    path = entry / "col.npy"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def rewrite_header(path, old, new):
    """Replace ``old`` by ``new`` in a ``.npy`` header, keeping its length by its padding."""
    data = path.read_bytes()
    length = int.from_bytes(data[8:10], "little")  # format version 1.0
    header = data[10:10 + length].replace(old, new, 1)
    assert header != data[10:10 + length]
    path.write_bytes(data[:10] + header.rstrip(b" \n").ljust(length - 1) + b"\n"
                     + data[10 + length:])


def damage_col_header_not_tokenizable(entry, other_entry, geom):
    # an unclosed parenthesis: np.load raises tokenize.TokenError
    rewrite_header(entry / "col.npy", b"'shape': (", b"'shape': ((")


def damage_val_shape_beyond_memory(entry, other_entry, geom):
    # 10^15 float64 values, 7.1 PiB, more than a 47-bit address space: MemoryError
    val = np.load(entry / "val.npy")
    rewrite_header(entry / "val.npy", f"'shape': ({val.size},".encode(),
                   f"'shape': ({10**15},".encode())


def rewrite_with_a_matching_record(entry, geom, **fields):
    """Replace some arrays of the entry and write the record that matches them."""
    table = [fields.get(name, np.load(entry / f"{name}.npy")) for name in radon.TABLE_DTYPES]
    for name, array in fields.items():
        np.save(entry / f"{name}.npy", array)
    np.save(entry / "check.npy", radon._check_record(geom, 32, 32, table))


def damage_col_dtype(entry, other_entry, geom):
    rewrite_with_a_matching_record(entry, geom, col=np.load(entry / "col.npy").astype(np.int32))


def damage_col_out_of_range(entry, other_entry, geom):
    col = np.load(entry / "col.npy")
    col[-1] = 32 * 32
    rewrite_with_a_matching_record(entry, geom, col=col)


def damage_val_not_finite(entry, other_entry, geom):
    val = np.load(entry / "val.npy")
    val[0] = np.nan
    rewrite_with_a_matching_record(entry, geom, val=val)


def damage_run_lengths_one_short(entry, other_entry, geom):
    # the last stored ray's entries go to the one before it: the lengths still
    # sum to the entry count, but one stored ray has no length
    run_lengths = np.load(entry / "run_lengths.npy")
    run_lengths[-2] += run_lengths[-1]
    rewrite_with_a_matching_record(entry, geom, run_lengths=run_lengths[:-1])


def damage_negative_run_length(entry, other_entry, geom):
    # the first stored ray gets -1 entries and the second the rest of both:
    # one length per stored ray, summing to the entry count
    run_lengths = np.load(entry / "run_lengths.npy")
    run_lengths[:2] = -1, run_lengths[0] + run_lengths[1] + 1
    rewrite_with_a_matching_record(entry, geom, run_lengths=run_lengths)


def damage_copy_other_geometry(entry, other_entry, geom):
    shutil.rmtree(entry)
    shutil.copytree(other_entry, entry)


# the first four fail the record's CRC-32 or the load itself; the others
# come with a record that matches their arrays, so only the dtype, range,
# run length and geometry checks refuse them
@pytest.mark.parametrize("damage", [
    damage_truncate_val, damage_flip_a_col_byte, damage_col_header_not_tokenizable,
    damage_val_shape_beyond_memory, damage_col_dtype,
    damage_col_out_of_range, damage_val_not_finite, damage_run_lengths_one_short,
    damage_negative_run_length, damage_copy_other_geometry,
])
def test_damaged_entry_is_compiled_and_published_again(damage, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # the other table's rays and pixels are all in range for this geometry
    geom, other = RadonGeometry.for_grid(32, 20), RadonGeometry.for_grid(32, 19)
    _projector.cache_clear()
    expected = _projector(geom, 32, 32)
    _projector(other, 32, 32)
    entry, other_entry = (Path(radon._cache_entry(g, 32, 32)[1]) for g in (geom, other))
    damage(entry, other_entry, geom)
    compiles = count_compiles(monkeypatch)
    _projector.cache_clear()
    assert_same_table(_projector(geom, 32, 32), expected)
    assert compiles == [1]
    _projector.cache_clear()
    assert_same_table(_projector(geom, 32, 32), expected)  # the new entry loads
    assert compiles == [1]


def test_a_process_that_loses_the_race_to_publish_discards_its_copy(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    geom = RadonGeometry.for_grid(32, 20)
    _projector.cache_clear()
    expected = _projector(geom, 32, 32)
    entry = Path(radon._cache_entry(geom, 32, 32)[1])
    winner = tmp_path / "winner"
    entry.rename(winner)
    compile_table = radon._compile

    def compile_while_another_process_publishes(*args):
        table = compile_table(*args)
        winner.rename(entry)
        return table

    monkeypatch.setattr(radon, "_compile", compile_while_another_process_publishes)
    (winner / "published-first").write_bytes(b"")
    _projector.cache_clear()
    assert_same_table(_projector(geom, 32, 32), expected)
    assert (entry / "published-first").exists()
    assert [p.name for p in entry.parent.iterdir()] == [entry.name]  # no copy left behind


def test_unusable_cache_root_compiles_silently_and_writes_nothing(tmp_path, monkeypatch):
    root = tmp_path / "not-a-directory"
    root.write_bytes(b"x")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    compiles = count_compiles(monkeypatch)
    geom = RadonGeometry.for_grid(32, 20)
    _projector.cache_clear()
    first = _projector(geom, 32, 32)
    _projector.cache_clear()
    assert_same_table(_projector(geom, 32, 32), first)
    assert compiles == [2]
    assert [p.name for p in tmp_path.iterdir()] == ["not-a-directory"]
    assert root.read_bytes() == b"x"


def test_relative_cache_home_is_ignored_for_the_default(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    geom = RadonGeometry.for_grid(8, 4)
    for value in ("relative/cache", ""):
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        root, entry = radon._cache_entry(geom, 8, 8)
        assert root == str(tmp_path / ".cache" / "compact-tik")
        assert entry.startswith(root + "/")


# with no load, the first of the eight published entries is the least recently
# used; a load of it makes the second one that
@pytest.mark.parametrize("loaded, evicted", [(None, 0), (0, 1)])
def test_a_ninth_entry_evicts_the_least_recently_used(loaded, evicted, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    geoms = [RadonGeometry.for_grid(8, k) for k in range(1, radon.CACHE_ENTRIES + 2)]
    entries = [Path(radon._cache_entry(g, 8, 8)[1]) for g in geoms]
    for k, (geom, entry) in enumerate(zip(geoms[:-1], entries)):
        radon._cached_table(geom, 8, 8)
        os.utime(entry, ns=(k * 10**9, k * 10**9))  # published in the order of the list
    compiles = count_compiles(monkeypatch)
    if loaded is not None:
        radon._cached_table(geoms[loaded], 8, 8)
        assert compiles == [0]
    radon._cached_table(geoms[-1], 8, 8)
    assert compiles == [1]
    kept = set(entries) - {entries[evicted]}
    assert set((tmp_path / "compact-tik").iterdir()) == kept
    assert len(kept) == radon.CACHE_ENTRIES


def test_compiled_and_loaded_rays_and_weights_are_read_only(tmp_path, monkeypatch):
    # col stays writable: np.bincount in R^T would copy a read-only one,
    # one intp per entry, on every call
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    geom = RadonGeometry.for_grid(32, 20)
    compiles = count_compiles(monkeypatch)
    for expected_compiles in (1, 1):  # compiled, then loaded
        _projector.cache_clear()
        table = _projector(geom, 32, 32)
        assert compiles == [expected_compiles]
        for block in (group.blocks[0] for group in table):
            with pytest.raises(ValueError):
                block.rays[0] = 0
            with pytest.raises(ValueError):
                block.val[0] = 1.0
            with pytest.raises(ValueError):
                block.run_lengths[0] = 0


def one_shot_sum_and_scatter(blocks, x, y_rays, n_pix):
    """The blocks' ray sums of x, and their scatter of one value per ray, with no block loop."""
    run_lengths, col, val = (np.concatenate([getattr(block, field) for block in blocks])
                             for field in ("run_lengths", "col", "val"))
    starts = np.cumsum(run_lengths) - run_lengths
    return (np.add.reduceat(x[col] * val, starts),
            np.bincount(col, weights=np.repeat(y_rays, run_lengths) * val, minlength=n_pix))


# 32x32/20 angles is one block per image, the shape of every committed
# table, and so is 64x64/30; 128x128/50 streams in two for each of the four images
@pytest.mark.parametrize("n, n_angles", [(32, 20), (64, 30), (128, 50)])
def test_blocked_transforms_equal_the_one_shot_formulas_bit_for_bit(n, n_angles):
    geom = RadonGeometry.for_grid(n, n_angles)
    table = _projector(geom, n, n)
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n * n), rng.standard_normal(geom.size)
    # each image's rays sum its transformed x and scatter into an image of
    # their own, which is added transformed back
    one_shot_forward, one_shot_adjoint = np.zeros(geom.size), np.zeros((n, n))
    for flip, blocks in table:
        rays = np.concatenate([block.rays for block in blocks])
        one_shot_forward[rays], scattered = one_shot_sum_and_scatter(
            blocks, x.reshape(n, n)[flip].ravel(), y[rays], n * n)
        one_shot_adjoint[flip] += scattered.reshape(n, n)
    forward = radon_forward(ImageGrid(nx=n, ny=n, values=x), geom).values
    adjoint = radon_adjoint(SinogramGrid(geometry=geom, values=y), n, n).values
    assert np.array_equal(forward, one_shot_forward)
    assert np.array_equal(adjoint, one_shot_adjoint.ravel())


@pytest.mark.parametrize("geom, nx, ny", [
    (RadonGeometry.for_grid(32, 20), 32, 32),
    (RadonGeometry.for_grid(64, 30), 64, 64),
    (RadonGeometry.for_grid(128, 50), 128, 128),
])
def test_blocks_cover_the_rays_in_order_without_splitting_one(geom, nx, ny):
    table = _projector(geom, nx, ny)
    assert ([len(group.blocks) for group in table]
            == {32: [1, 1, 1, 1], 64: [3, 3, 2, 2], 128: [15, 15, 14, 14]}[nx])
    # each ray lies in one block. The identity's blocks hold the stored rays
    # with entries, in table order; each other image's blocks hold the rays
    # that those of its parts stand for, in the same order, through their entries
    identity = np.concatenate([block.rays for block in table[0].blocks])
    assert len(table) == len(IMAGES)
    for group, (flip, rows, rays) in zip(table, image_rays(geom)):
        assert group.flip == flip
        assert np.array_equal(np.concatenate([block.rays for block in group.blocks]),
                              rays[np.isin(rows, identity)])
    # the blocks' entries are views; the identity's cover the whole entry
    # array, the other images' a part of it
    col = table[0].blocks[0].col.base
    assert sum(block.col.size for block in table[0].blocks) == col.size
    for block in all_blocks(table):
        assert block.col.base is col
        entries = block.col.size
        assert block.rays.size >= 1 and block.offsets[0] == 0
        assert block.val.size == entries == block.run_lengths.sum()
        assert entries <= BLOCK_ENTRIES or block.rays.size == 1


def test_table_without_entries_transforms_to_exact_zeros():
    # every ray of this geometry misses a 4x4 image
    geom = RadonGeometry(n_angles=2, n_bins=2, det_halfwidth=2.0, step=0.3)
    assert _projector(geom, 4, 4) == ()
    sino = radon_forward(ImageGrid(nx=4, ny=4, values=np.ones(16)), geom)
    image = radon_adjoint(SinogramGrid(geometry=geom, values=np.ones(geom.size)), 4, 4)
    assert np.array_equal(sino.values, np.zeros(geom.size))
    assert np.array_equal(image.values, np.zeros(16))


def test_transforms_hold_one_block_of_float64_not_one_per_entry():
    # one float64 per entry would be 3.8 MB at 128x128/50 (472,354 entries);
    # R and R^T peak at 0.51 MiB with 2^15-entry blocks, 2.25 MiB with 2^18
    geom, n = RadonGeometry.for_grid(128, 50), 128
    _projector(geom, n, n)
    x = ImageGrid(nx=n, ny=n, values=np.ones(n * n))
    y = SinogramGrid(geometry=geom, values=np.ones(geom.size))
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        radon_forward(x, geom)
        radon_adjoint(y, n, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - baseline <= 2**20


# (geometry, nx, ny) of the preconditioner tests here and in test_tikhonov,
# which imports this list: two for_grid ones (square and not) and two
# degenerate ones, a single bin and bins past the image
PRECONDITIONED_GEOMETRIES = [
    (RadonGeometry.for_grid(32, 20), 32, 32),
    (RadonGeometry.for_grid(24, 11), 24, 16),
    # degenerate: more iterations than CG
    (RadonGeometry(n_angles=20, n_bins=1, det_halfwidth=math.sqrt(2.0), step=2.0 / 32), 32, 32),
    (RadonGeometry.for_grid(12, 5, det_halfwidth=2.0), 12, 12),
]


@pytest.mark.parametrize("geom, nx, ny", PRECONDITIONED_GEOMETRIES)
def test_normal_preconditioner_is_the_padded_2d_transform_bit_for_bit(geom, nx, ny):
    # the symbol places the centre pixel's response on the torus without
    # np.roll, and the preconditioner runs rfft2's and irfft2's 1-D passes in
    # place; both must match the library's whole-array forms exactly
    shape = (2 * ny, 2 * nx)
    unit = np.zeros((ny, nx))
    unit[ny // 2, nx // 2] = 1.0
    op = radon_operator(geom, nx, ny)
    kernel = np.zeros(shape)
    kernel[:ny, :nx] = op.apply_adjoint(op.apply(unit.ravel())).reshape(ny, nx)
    symbol = np.fft.rfft2(np.roll(kernel, (-(ny // 2), -(nx // 2)), axis=(0, 1))).real
    symbol = np.maximum(symbol, 1e-2 * symbol.max())
    assert np.array_equal(radon._normal_symbol(geom, nx, ny), symbol)
    pre = op.normal_preconditioner
    v = np.random.default_rng(nx + ny).standard_normal(nx * ny)
    for alpha in (1e-6, 1e-2, 1.0):
        spectrum = np.fft.rfft2(v.reshape(ny, nx), s=shape) / (symbol + alpha)
        want = np.fft.irfft2(spectrum, s=shape)[:ny, :nx].ravel()
        assert np.array_equal(pre(v, alpha), want)


@pytest.mark.parametrize("geom, nx, ny", PRECONDITIONED_GEOMETRIES)
def test_normal_preconditioner_is_symmetric_positive_definite(geom, nx, ny):
    pre = radon_operator(geom, nx, ny).normal_preconditioner
    for alpha in (1e-6, 1e-2, 1.0):
        dense = np.column_stack([pre(e, alpha) for e in np.eye(nx * ny)])
        # entry (i, j) is <e_i, P e_j>, so symmetry is <u, P v> = <P u, v>
        assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
        assert np.linalg.eigvalsh(dense).min() > 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    nx=st.integers(1, 7),
    ny=st.integers(1, 7),
    n_angles=st.integers(1, 5),
    n_bins=st.integers(1, 9),
    det_halfwidth=st.floats(0.1, 2.0),
    step_in_pixels=st.floats(0.3, 2.5),
    seed=st.integers(0, 2**32 - 1),
)
@example(nx=5, ny=3, n_angles=1, n_bins=1, det_halfwidth=1.0, step_in_pixels=0.7, seed=0)
@example(nx=4, ny=6, n_angles=3, n_bins=7, det_halfwidth=1.8, step_in_pixels=1.3, seed=1)
def test_matches_reference_loop(nx, ny, n_angles, n_bins, det_halfwidth, step_in_pixels, seed):
    geom = RadonGeometry(
        n_angles=n_angles, n_bins=n_bins, det_halfwidth=det_halfwidth,
        step=step_in_pixels * 2.0 / nx,
    )
    ref = reference_matrix(geom, nx, ny)
    op = radon_operator(geom, nx, ny)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(nx * ny)
    y = rng.standard_normal(geom.size)
    want_fwd, want_adj = ref @ x, ref.T @ y
    assert np.abs(op.apply(x) - want_fwd).max() <= 1e-13 * np.abs(want_fwd).max()
    assert np.abs(op.apply_adjoint(y) - want_adj).max() <= 1e-13 * np.abs(want_adj).max()
    if ref.any():
        assert adjoint_defect(op, n_probes=3, seed=seed) <= 1e-12
