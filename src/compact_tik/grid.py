"""Pixel grids on the square [-1, 1]^2 and the Shepp-Logan head phantom.

Images are samples of a function on the square: pixel (i, j) holds the
value at the cell center

    xi1_i = -1 + (i + 0.5) * (2 / nx),   xi2_j = -1 + (j + 0.5) * (2 / ny),

stored row-major (i fastest). Evaluation is pointwise at the centers, with
no area averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_positive, naming_path, read_float64_file, write_float64_file

#: Classical Shepp-Logan phantom, ten ellipses as
#: (intensity, semi-axis a, semi-axis b, center x, center y, rotation in degrees).
#: Parameters from Shepp & Logan, "The Fourier reconstruction of a head section"
#: (IEEE Trans. Nucl. Sci. 21, 1974), as tabulated in Kak & Slaney,
#: "Principles of Computerized Tomographic Imaging", Table 3.1 (the original
#: low-contrast values, not the "modified" high-contrast variant).
SHEPP_LOGAN_TABLE = (
    (2.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.98, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.01, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.01, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)

IMGF_MAGIC = b"IMGF"


@dataclass(frozen=True)
class ImageGrid:
    """A discretized function on [-1, 1]^2.

    ``values`` has length nx * ny, row-major: entry j * nx + i is the value
    at pixel center (xi1_i, xi2_j).
    """

    nx: int
    ny: int
    values: np.ndarray

    def __post_init__(self):
        check_positive("nx", self.nx)
        check_positive("ny", self.ny)
        v = np.asarray(self.values, dtype=np.float64).ravel()
        if v.size != self.nx * self.ny:
            raise ValueError(f"expected {self.nx * self.ny} values, got {v.size}")
        object.__setattr__(self, "values", v)

    def as_array(self):
        """Values as an (ny, nx) array (rows indexed by xi2)."""
        return self.values.reshape(self.ny, self.nx)


def pixel_centers(nx, ny):
    """Pixel-center coordinates of the nx-by-ny grid on [-1, 1]^2.

    Parameters
    ----------
    nx, ny : int
        Pixel counts per axis, both >= 1.

    Returns
    -------
    ndarray, shape (nx * ny, 2)
        Centers in row-major order (first coordinate fastest); all strictly
        inside (-1, 1)^2.
    """
    check_positive("nx", nx)
    check_positive("ny", ny)
    xs = -1.0 + (np.arange(nx) + 0.5) * (2.0 / nx)
    ys = -1.0 + (np.arange(ny) + 0.5) * (2.0 / ny)
    X, Y = np.meshgrid(xs, ys)
    return np.column_stack([X.ravel(), Y.ravel()])


def shepp_logan(nx, ny):
    """Shepp-Logan phantom sampled at pixel centers.

    Each pixel value is the sum of the intensities of the ``SHEPP_LOGAN_TABLE``
    ellipses whose open interior contains the pixel center; boundary points do
    not count.

    Parameters
    ----------
    nx, ny : int
        Output grid size.

    Returns
    -------
    ImageGrid
    """
    centers = pixel_centers(nx, ny)
    x, y = centers[:, 0], centers[:, 1]
    values = np.zeros(nx * ny)
    for val, a, b, cx, cy, deg in SHEPP_LOGAN_TABLE:
        phi = math.radians(deg)
        c, s = math.cos(phi), math.sin(phi)
        # (u, v): the pixel center in the ellipse's rotated frame
        u = (x - cx) * c + (y - cy) * s
        v = -(x - cx) * s + (y - cy) * c
        values += np.where((u / a) ** 2 + (v / b) ** 2 < 1.0, val, 0.0)
    return ImageGrid(nx=nx, ny=ny, values=values)


def write_imgf(path, image: ImageGrid):
    """Write raw float64 little-endian image with a 16-byte header.

    Layout: magic ``IMGF``, u32 nx, u32 ny, u32 reserved (0), then
    nx * ny float64 values row-major.
    """
    write_float64_file(path, IMGF_MAGIC, "<III", (image.nx, image.ny, 0), image.values)


def read_imgf(path):
    """Read an image written by :func:`write_imgf`."""
    (nx, ny, _reserved), values = read_float64_file(path, IMGF_MAGIC, "<III")
    with naming_path(path):
        return ImageGrid(nx=nx, ny=ny, values=values)


def write_pgm16(path, image: ImageGrid):
    """Write a 16-bit binary PGM, min-max scaled to [0, 65535].

    The affine scaling is recorded in the sidecar text file ``path`` +
    ``.scale.txt`` so intensities can be recovered. Constant images map to
    0 with scale 1.
    """
    vmin = float(image.values.min())
    vmax = float(image.values.max())
    span = vmax - vmin
    if span == 0.0:
        scaled = np.zeros(image.values.shape, dtype=">u2")
        span = 1.0
    else:
        scaled = np.round((image.values - vmin) / span * 65535.0).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{image.nx} {image.ny}\n65535\n".encode("ascii"))
        f.write(scaled.tobytes())
    with open(str(path) + ".scale.txt", "w") as f:
        f.write("# value = min + pgm / 65535 * (max - min)\n")
        f.write(f"min = {vmin!r}\n")
        f.write(f"max = {vmax!r}\n")
