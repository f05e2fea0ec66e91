"""Discrete parallel-beam Radon transform and its exact algebraic adjoint.

The forward map approximates, for each angle theta_q and signed detector
offset s_p, the line integral of the bilinear interpolant of the image
along the ray

    (x, y) = s_p * (cos theta, sin theta) + t * (-sin theta, cos theta),

with equispaced samples in t (spacing ``step``) clipped to the bounding
circle of the square, trapezoid end-weights, and the interpolant extended
by zero outside [-1, 1]^2. The map is compiled once per (geometry, grid)
into a cached sparse table: the coalesced nonzeros (col, val) of R in one
run per ray, each run sorted by pixel. The forward map sums each run; the
adjoint spreads each ray value over its run and scatters it through the
same entries, so the pair is an exact transpose up to float64 summation order.
The table is stored as its blocks of whole rays of at most ``BLOCK_ENTRIES``
entries, which both maps loop over, so each call's temporary is one block of
float64, not one float64 per table entry.

Only the angles q <= Q/2, and of them only the bins p <= P - 1 - p, are
compiled. Two symmetries give the rest of the table, for every geometry:

- The angle set {q pi / Q} is closed under theta -> pi - theta, and the ray
  (s, pi - theta) is the ray (s, theta) mirrored by x -> -x with t reversed;
  the samples in t and their trapezoid weights are symmetric about t = 0,
  and the pixel centres about x = 0. So angle Q - q has the entries of angle
  q with each pixel column i taken to nx - 1 - i.
- The point reflection (x, y) -> (-x, -y) takes the ray (s, theta) to the
  ray (-s, theta) with t reversed, and the offsets are symmetric about
  s = 0. So bin P - 1 - p has the entries of bin p with each pixel k taken
  to nx * ny - 1 - k.

So the table applies its rays to four images: the image itself; its point
reflection ``x[::-1, ::-1]``, for the rays (q, P - 1 - p); its column mirror
``x[:, ::-1]``, for the rays (Q - q, p); and its row mirror ``x[::-1, :]``,
for the rays (Q - q, P - 1 - p). The angles 0 < q < Q/2 are mirrored, the
bins p < P - 1 - p reflected. That quarters the table; the rays applied
through a transformed image match a direct compile to rounding.

Each compiled table is also cached in ``$XDG_CACHE_HOME/compact-tik/`` (see
:func:`_cached_table`), so a new process loads it instead of compiling it again;
the cache keeps the ``CACHE_ENTRIES`` most recently used tables.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import platform
import shutil
import tempfile
import zlib
from dataclasses import dataclass
from tokenize import TokenError
from typing import NamedTuple

import numpy as np

from .errors import check_positive, naming_path, read_float64_file, write_float64_file
from .grid import ImageGrid
from .linop import LinearOperator

# not "SINF", the magic of the layout without a step, so such a file never loads
SINF_MAGIC = b"SNF2"

# entries per block of R and R^T (2 MiB of float64); a ray longer than this
# is a block of its own
BLOCK_ENTRIES = 1 << 18

# tables held in memory by _projector, and entries kept on disk by the cache
CACHE_ENTRIES = 8

# the flat table's arrays and their dtypes, as the cache stores them
TABLE_DTYPES = {"run_lengths": np.intp, "col": np.intp, "val": np.float64}

# part of every cache key: the code that compiles this process's tables. It is
# read at import, so an edit of the file while a process runs cannot file that
# process's tables under the edited code's key
with open(__file__, "rb") as _source:
    _SOURCE_SHA256 = hashlib.sha256(_source.read()).hexdigest()


@dataclass(frozen=True)
class RadonGeometry:
    """Projection geometry: angles theta_q = q * pi / n_angles, q = 0..n_angles-1.

    Parameters
    ----------
    n_angles : int
        Number of projection angles in [0, pi).
    n_bins : int
        Detector bins per angle.
    det_halfwidth : float
        Detector axis covers [-det_halfwidth, det_halfwidth].
    step : float
        Sample spacing along each ray.
    """

    n_angles: int
    n_bins: int
    det_halfwidth: float
    step: float

    def __post_init__(self):
        for name in ("n_angles", "n_bins", "det_halfwidth", "step"):
            check_positive(name, getattr(self, name))

    @classmethod
    def for_grid(cls, nx, n_angles, det_halfwidth=math.sqrt(2.0)):
        """Default geometry for an nx-wide grid.

        Bin spacing matches the pixel width, so n_bins = ceil(nx *
        det_halfwidth); with the default detector covering the image
        diagonal this gives 182 bins at nx = 128. step = one pixel width.
        """
        check_positive("det_halfwidth", det_halfwidth)
        return cls(
            n_angles=n_angles,
            n_bins=math.ceil(nx * det_halfwidth),
            det_halfwidth=det_halfwidth,
            step=2.0 / nx,
        )

    @property
    def angles(self):
        return np.arange(self.n_angles) * (np.pi / self.n_angles)

    @property
    def offsets(self):
        if self.n_bins == 1:
            return np.zeros(1)
        return np.linspace(-self.det_halfwidth, self.det_halfwidth, self.n_bins)

    @property
    def size(self):
        return self.n_bins * self.n_angles


@dataclass(frozen=True)
class SinogramGrid:
    """Radon data on the (offset, angle) lattice.

    ``values`` has length n_bins * n_angles, angle-major with the bin index
    fastest: entry q * n_bins + p is the ray (s_p, theta_q).
    """

    geometry: RadonGeometry
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).ravel()
        if v.size != self.geometry.size:
            raise ValueError(f"expected {self.geometry.size} values, got {v.size}")
        object.__setattr__(self, "values", v)

    def as_array(self):
        """Values as an (n_angles, n_bins) array."""
        return self.values.reshape(self.geometry.n_angles, self.geometry.n_bins)


class _Block(NamedTuple):
    """Whole rays of the table and their entries (col, val), ray by ray, each ray's sorted by pixel.

    ``offsets`` holds each ray's first entry, relative to the block, so a
    segmented sum over it gives R x on ``rays``. Indices are intp, which
    numpy gathers and scatters without a conversion copy.
    """

    rays: np.ndarray
    run_lengths: np.ndarray
    offsets: np.ndarray
    col: np.ndarray
    val: np.ndarray


class _Group(NamedTuple):
    """Blocks of rays applied to the image under ``flip``.

    ``flip`` indexes the image's (ny, nx) array: the identity, the point
    reflection, the column mirror or the row mirror, each its own inverse.
    A block's rays are the rays it stands for; its entries are those of the
    stored rays it is compiled from, as views.
    """

    flip: tuple
    blocks: tuple[_Block, ...]


# each image transform of the table, the parts [first, last) of the table
# whose rays it applies (see _parts), and whether it takes a stored ray
# (q, p) to the angle Q - q and to the bin P - 1 - p
_GROUPS = (
    (np.s_[:, :], 0, 4, False, False),
    (np.s_[::-1, ::-1], 0, 2, False, True),
    (np.s_[:, ::-1], 1, 3, True, False),
    (np.s_[::-1, :], 1, 2, True, True),
)


def _parts(geom: RadonGeometry):
    """The table's four parts, in table order, each as the (angles, bins) of its stored rays.

    The end angles are q = 0, and Q/2 when Q is even; the inner angles
    0 < q < Q/2 are mirrored. The paired bins p < P - 1 - p are reflected;
    the centre bin (odd P only) is its own reflection. The parts are: end
    angles at paired bins, inner angles at paired bins, inner angles at the
    centre bin, end angles at the centre bin. So each image's rays in
    ``_GROUPS`` are one contiguous slice of the table.
    """
    n_angles, n_bins = geom.n_angles, geom.n_bins
    ends = np.array([0, n_angles // 2] if n_angles % 2 == 0 else [0])
    inner = np.arange(1, (n_angles + 1) // 2)
    paired, centre = np.arange(n_bins // 2), np.arange(n_bins // 2, (n_bins + 1) // 2)
    return ((ends, paired), (inner, paired), (inner, centre), (ends, centre))


def _image_rays(geom: RadonGeometry, parts, mirror_angle, reflect_bin):
    """The rays q * n_bins + p that the stored rays of ``parts`` stand for in an image of
    ``_GROUPS``: angle Q - q if mirrored, bin P - 1 - p if reflected, in table order."""
    n_angles, n_bins = geom.n_angles, geom.n_bins
    return np.concatenate([((n_angles - angles if mirror_angle else angles)[:, None] * n_bins
                            + (n_bins - 1 - bins if reflect_bin else bins)).ravel()
                           for angles, bins in parts])


def _compile(geom: RadonGeometry, nx: int, ny: int):
    """Compile the stored rays of the transform into its flat coalesced sparse table.

    Returns ``(run_lengths, col, val)``: the entry count of each stored ray,
    in the order of :func:`_parts`, zeros included, and the entries, ray by
    ray, each ray's sorted by pixel. Only the bins p <= P - 1 - p of the
    angles q <= Q/2 are stored; the others are their mirrors and reflections
    (see the module docstring). Their samples are never generated.

    Each angle's merged entries are written straight into the growing
    ``col`` and ``val``, so the build holds one copy of the table plus one
    angle's working set: a tracemalloc peak of 10.6 MiB for the 7.3 MiB
    table at 128x128/50 angles.
    """
    # the table grows in place, one angle's entries at a time. resize goes
    # through realloc, which moves a large mmapped block by remapping it, so
    # the filled part is not copied. A resize would leave a live view of col
    # or val dangling, so none outlives its statement; refcheck=False skips
    # numpy's reference count check of that, which fails whenever a tracer
    # (sys.settrace, cProfile) holds this frame's locals
    col = np.empty(0, dtype=np.intp)
    val = np.empty(0)
    lengths = []  # each angle's stored rays' entry counts; part 0 holds every end angle
    for angles, bins in _parts(geom):
        for ray_lengths, pix, weights in _angle_entries(geom, nx, ny, geom.angles[angles], bins):
            lengths.append(ray_lengths[bins])
            n = col.size
            col.resize(n + pix.size, refcheck=False)
            val.resize(n + pix.size, refcheck=False)
            col[n:] = pix
            val[n:] = weights
    return np.concatenate(lengths), col, val


def _angle_entries(geom: RadonGeometry, nx: int, ny: int, thetas, bins):
    """Yield, for each angle of ``thetas``, its rays' entry counts and its entries (pix, val),
    on the ascending bins ``bins`` only.

    Each ray sample contributes a 4-point bilinear stencil scaled by its
    trapezoid weight. Stencil points outside the image and zero weights are
    dropped, and the repeated (ray, pixel) pairs of one angle are merged in
    sample order after a stable sort, so the table is deterministic. An
    angle's entries are sorted by bin, then pixel.
    """
    offsets = geom.offsets
    radius = math.sqrt(2.0)  # bounding circle of [-1, 1]^2
    n_s = int(math.floor(2.0 * radius / geom.step)) + 1
    t = (np.arange(n_s) - (n_s - 1) / 2.0) * geom.step
    hx, hy = 2.0 / nx, 2.0 / ny
    n_pix = nx * ny

    # trapezoid weights, shared by all angles: full step inside the chord
    # |t| <= L(s), half step at the first/last inside sample
    chord = np.sqrt(np.maximum(radius**2 - offsets**2, 0.0))
    inside = np.abs(t)[None, :] <= chord[:, None] + 1e-12
    ray_w = np.where(inside, geom.step, 0.0)
    has_any = inside.any(axis=1)
    first = inside.argmax(axis=1)
    last = n_s - 1 - inside[:, ::-1].argmax(axis=1)
    rows = np.nonzero(has_any)[0]
    ray_w[rows, first[rows]] *= 0.5
    ray_w[rows, last[rows]] *= 0.5

    # only samples of the given bins with positive weight can contribute;
    # bin-major, t minor
    s_bin, s_k = np.nonzero(ray_w[bins])
    s_bin = bins[s_bin]
    s_off, s_t, s_w = offsets[s_bin], t[s_k], ray_w[s_bin, s_k]
    s_key = s_bin * n_pix
    corner = np.array([0, 1, nx, nx + 1])

    for theta in thetas:
        normal = np.array([math.cos(theta), math.sin(theta)])
        tangent = np.array([-math.sin(theta), math.cos(theta)])
        px = s_off * normal[0] + s_t * tangent[0]
        py = s_off * normal[1] + s_t * tangent[1]
        fx = (px + 1.0) / hx - 0.5
        fy = (py + 1.0) / hy - 0.5
        # a sample whose whole stencil lies outside the image adds nothing
        hit = np.flatnonzero((fx >= -1.0) & (fx < nx) & (fy >= -1.0) & (fy < ny))
        fx, fy = fx[hit], fy[hit]
        ix0 = np.floor(fx).astype(np.int64)
        iy0 = np.floor(fy).astype(np.int64)
        rx = fx - ix0
        ry = fy - iy0
        w4 = np.stack(
            [(1 - rx) * (1 - ry), rx * (1 - ry), (1 - rx) * ry, rx * ry], axis=-1
        )
        w4 *= s_w[hit, None]
        # corners (ix0, iy0), (ix0+1, iy0), (ix0, iy0+1), (ix0+1, iy0+1);
        # every sample left has -1 <= ix0 < nx and -1 <= iy0 < ny
        x_lo, x_hi = ix0 >= 0, ix0 < nx - 1
        y_lo, y_hi = iy0 >= 0, iy0 < ny - 1
        valid = np.stack([x_lo & y_lo, x_hi & y_lo, x_lo & y_hi, x_hi & y_hi], axis=-1)
        keep = valid & (w4 != 0.0)
        key = (s_key[hit] + iy0 * nx + ix0)[:, None] + corner
        key = key[keep]
        order = np.argsort(key, kind="stable")
        key = key[order]
        runs = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0, so entry 0 starts a run
        ray, pix = np.divmod(key[runs], n_pix)
        yield (np.bincount(ray, minlength=geom.n_bins), pix,
               np.add.reduceat(w4[keep][order], runs))


def _cache_entry(geom, nx, ny):
    """The cache root, and the entry named by a SHA-256 over all that the table's bits depend on."""
    base = os.environ.get("XDG_CACHE_HOME", "")  # XDG says to ignore a relative path
    root = os.path.join(base if os.path.isabs(base) else os.path.expanduser("~/.cache"),
                        "compact-tik")
    # math.cos and math.sin come from the C library
    key = repr((_check_record(geom, nx, ny, ()).tolist(), _SOURCE_SHA256, np.__version__,
                platform.python_version(), platform.machine(), platform.libc_ver()))
    return root, os.path.join(root, hashlib.sha256(key.encode()).hexdigest())


def _check_record(geom, nx, ny, table):
    """The geometry and grid, then each array's length and CRC-32, as float64."""
    sums = [x for a in table for x in (a.size, zlib.crc32(a))]
    return np.array([geom.n_angles, geom.n_bins, geom.det_halfwidth, geom.step, nx, ny, *sums])


def _load(entry, geom, nx, ny):
    """The entry's table if its record, dtypes and ranges all check, else None."""
    *table, record = [np.load(os.path.join(entry, f"{name}.npy"), allow_pickle=False)
                      for name in [*TABLE_DTYPES, "check"]]
    run_lengths, col, val = table
    ok = ([(a.dtype, a.ndim) for a in table] == [(np.dtype(t), 1) for t in TABLE_DTYPES.values()]
          and np.array_equal(record, _check_record(geom, nx, ny, table))
          and run_lengths.size == sum(angles.size * bins.size for angles, bins in _parts(geom))
          and np.all(run_lengths >= 0) and run_lengths.sum() == col.size == val.size
          and (col.size == 0 or 0 <= col.min() and col.max() < nx * ny) and np.isfinite(val).all())
    return tuple(table) if ok else None


def _evict(root):
    """Delete all but the ``CACHE_ENTRIES`` entries of the root with the newest mtimes."""
    # an entry's name is 64 hex digits; a temporary directory that another
    # process is filling is not an entry
    with os.scandir(root) as it:
        entries = [e for e in it if len(e.name) == 64 and e.is_dir()]
    entries.sort(key=lambda e: e.stat().st_mtime_ns, reverse=True)
    for e in entries[CACHE_ENTRIES:]:
        shutil.rmtree(e.path, ignore_errors=True)


def _cached_table(geom, nx, ny):
    """The table of :func:`_compile`, loaded from its cache entry or published there."""
    root, entry = _cache_entry(geom, nx, ny)
    # read into memory: a memory map would turn a file truncated under the
    # process into a SIGBUS
    try:
        table = _load(entry, geom, nx, ny)
    # a missing or damaged entry; np.load raises TokenError on a header it cannot
    # tokenize and MemoryError on one whose shape cannot be allocated
    except (OSError, ValueError, EOFError, TokenError, MemoryError):
        table = None
    if table is not None:
        try:
            os.utime(entry)  # a load makes the entry the most recently used
        except OSError:
            pass
    else:
        shutil.rmtree(entry, ignore_errors=True)  # a damaged entry would block the rename below
        table = _compile(geom, nx, ny)
        # publish: np.save writes each array through ndarray.tofile, without a
        # copy, into a temporary directory that is then renamed onto the entry;
        # a process that loses the race to rename discards its copy
        try:
            os.makedirs(root, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=root) as tmp:
                record = _check_record(geom, nx, ny, table)
                for name, a in zip([*TABLE_DTYPES, "check"], [*table, record]):
                    np.save(os.path.join(tmp, f"{name}.npy"), a)
                os.replace(tmp, entry)
            _evict(root)
        except OSError:  # an unusable root or a full disk: the next process compiles again
            pass
    return table


def _blocks(rays, run_lengths, col, val):
    """Greedy blocks of whole rays, in order: each takes every following ray that
    ends within BLOCK_ENTRIES of its first entry, and at least one ray."""
    ends = np.cumsum(run_lengths)
    starts = ends - run_lengths
    blocks, a = [], 0
    while a < rays.size:
        b = max(int(np.searchsorted(ends, starts[a] + BLOCK_ENTRIES, side="right")), a + 1)
        e0, e1 = starts[a], ends[b - 1]
        blocks.append(_Block(rays=rays[a:b], run_lengths=run_lengths[a:b],
                             offsets=starts[a:b] - e0, col=col[e0:e1], val=val[e0:e1]))
        a = b
    return tuple(blocks)


@functools.lru_cache(maxsize=CACHE_ENTRIES)
def _projector(geom: RadonGeometry, nx: int, ny: int) -> tuple[_Group, ...]:
    """The table as its groups: each image of ``_GROUPS`` that serves a ray, and its blocks."""
    run_lengths, col, val = _cached_table(geom, nx, ny)
    parts = _parts(geom)
    # the blocks hold only the rays with entries (see _forward). np.bincount
    # copies a read-only index array on every call, one intp per entry, so R^T
    # keeps col writable; np.repeat copies a read-only run_lengths too, but
    # that is one intp per ray
    has_entries = run_lengths > 0
    lengths = run_lengths[has_entries]
    lengths.flags.writeable = val.flags.writeable = False
    # the parts [first, last) hold the stored rays stored[first]:stored[last],
    # and of them those with entries are lengths[kept[first]:kept[last]]
    stored = np.cumsum([0] + [angles.size * bins.size for angles, bins in parts])
    kept = np.concatenate([[0], np.cumsum(has_entries)])[stored]
    entry_bounds = np.concatenate([[0], np.cumsum(run_lengths)])[stored]
    groups = []
    for flip, first, last, mirror_angle, reflect_bin in _GROUPS:
        a, b = kept[first], kept[last]
        if a == b:
            continue
        rays = _image_rays(geom, parts[first:last], mirror_angle, reflect_bin)
        rays = rays[has_entries[stored[first]:stored[last]]]
        rays.flags.writeable = False
        e0, e1 = entry_bounds[first], entry_bounds[last]
        groups.append(_Group(flip, _blocks(rays, lengths[a:b], col[e0:e1], val[e0:e1])))
    return tuple(groups)


def _forward(x, geom, nx, ny):
    """R x on flat pixel values, as flat ray values.

    Each ray's run is summed by one ``np.add.reduceat`` segment, whichever
    block holds it, so the result does not depend on ``BLOCK_ENTRIES``. Each
    group's blocks sum over one copy of its transformed image.
    """
    values = np.zeros(geom.size)
    image = np.asarray(x, dtype=np.float64).reshape(ny, nx)
    for flip, blocks in _projector(geom, nx, ny):
        pixels = image[flip].ravel()  # a copy, but for the identity
        # reduceat over an empty segment would return the next entry instead
        # of 0, so only the rays that have entries are summed
        for block in blocks:
            contrib = pixels[block.col]
            contrib *= block.val
            values[block.rays] = np.add.reduceat(contrib, block.offsets)
            del contrib  # one block temporary alive at a time
    return values


def radon_forward(image: ImageGrid, geom: RadonGeometry) -> SinogramGrid:
    """Apply the discrete Radon transform to an image."""
    return SinogramGrid(geometry=geom, values=_forward(image.values, geom, image.nx, image.ny))


def _scatter(blocks, y, n_pix):
    """The blocks' entries, weighted by their rays' values in ``y``, added into zeros in order.

    The first block goes through ``np.bincount``, which starts from zeros,
    and every later one through ``np.add.at`` into the same array, so each
    pixel receives its additions in table order whatever ``BLOCK_ENTRIES``
    is. A ``bincount`` per block followed by ``+=`` would regroup them and
    move low bits.
    """
    image = None
    for block in blocks:
        contrib = np.repeat(y[block.rays], block.run_lengths)
        contrib *= block.val
        if image is None:
            image = np.bincount(block.col, weights=contrib, minlength=n_pix)
        else:
            np.add.at(image, block.col, contrib)
        del contrib  # one block temporary alive at a time
    return image


def _adjoint(y, geom, nx, ny):
    """R^T y on flat ray values, as flat pixel values.

    Each group's blocks scatter into an image of their own, which is added,
    transformed back, into the result, in the order of the groups.
    """
    y = np.asarray(y, dtype=np.float64).reshape(geom.size)
    image = np.zeros((ny, nx))
    for flip, blocks in _projector(geom, nx, ny):
        image[flip] += _scatter(blocks, y, nx * ny).reshape(ny, nx)
    return image.ravel()


def radon_adjoint(sino: SinogramGrid, nx, ny) -> ImageGrid:
    """Apply the exact transpose of :func:`radon_forward`.

    Spreads each ray value over its run of table entries and scatters it
    back through them; satisfies <Rx, y> = <x, R^T y> to floating-point accuracy.
    """
    check_positive("nx", nx)
    check_positive("ny", ny)
    return ImageGrid(nx=nx, ny=ny, values=_adjoint(sino.values, sino.geometry, nx, ny))


@functools.lru_cache(maxsize=8)
def _normal_symbol(geom: RadonGeometry, nx: int, ny: int) -> np.ndarray:
    """FFT symbol of a circulant approximation of R^T R on the (2 ny, 2 nx) torus.

    Parallel-beam R^T R is nearly shift-invariant (a 1/|omega| filter in
    the continuous limit), so its response to the centre pixel, centred at
    offset 0 on a zero-padded torus, stands for every pixel's (Chan & Ng,
    SIAM Review 38 (1996); Fessler & Booth, IEEE TIP 8 (1999)). The real
    part of its rfft2 is the symbol of the symmetrised kernel, so the
    circulant is symmetric. The symbol is floored at 1e-2 of its maximum:
    clamped only at 0, small alphas leave near-null frequencies with huge
    gains, and CG at alpha = 1e-6 on noisy Shepp-Logan data then did not
    converge in 5000 iterations at 32x32/20 angles, where plain CG takes
    2785.
    """
    unit = np.zeros(nx * ny)
    cy, cx = ny // 2, nx // 2
    unit[cy * nx + cx] = 1.0
    response = radon_adjoint(radon_forward(ImageGrid(nx=nx, ny=ny, values=unit), geom), nx, ny)
    kernel = np.zeros((2 * ny, 2 * nx))
    kernel[:ny, :nx] = response.as_array()
    kernel = np.roll(kernel, (-cy, -cx), axis=(0, 1))
    symbol = np.fft.rfft2(kernel).real
    return np.maximum(symbol, 1e-2 * symbol.max())


def radon_operator(geom: RadonGeometry, nx, ny) -> LinearOperator:
    """Flat-vector LinearOperator view of the transform pair.

    Its ``normal_preconditioner`` divides by the cached symbol of
    :func:`_normal_symbol` plus alpha, on the zero-padded image; the symbol
    is built on the first call, so an operator that is never preconditioned
    never pays for it. ``apply`` and ``apply_adjoint`` work on the flat
    arrays, without an ``ImageGrid`` or ``SinogramGrid`` per call.
    """
    check_positive("nx", nx)
    check_positive("ny", ny)

    def apply(x):
        return _forward(x, geom, nx, ny)

    def apply_adjoint(y):
        return _adjoint(y, geom, nx, ny)

    def normal_preconditioner(v, alpha):
        shape = (2 * ny, 2 * nx)
        spectrum = np.fft.rfft2(v.reshape(ny, nx), s=shape)
        spectrum /= _normal_symbol(geom, nx, ny) + alpha
        return np.fft.irfft2(spectrum, s=shape)[:ny, :nx].ravel()

    return LinearOperator(
        domain_dim=nx * ny, range_dim=geom.size, apply=apply, apply_adjoint=apply_adjoint,
        normal_preconditioner=normal_preconditioner,
    )


def dense_matrix(geom: RadonGeometry, nx, ny):
    """Materialize the transform as a dense (M, N) array. Test-scale only."""
    mat = np.zeros((geom.size, nx * ny))
    pixels = np.arange(nx * ny).reshape(ny, nx)
    for flip, blocks in _projector(geom, nx, ny):
        cols = pixels[flip].ravel()
        for block in blocks:
            mat[np.repeat(block.rays, block.run_lengths), cols[block.col]] = block.val
    return mat


def write_sinf(path, sino: SinogramGrid):
    """Write raw float64 little-endian sinogram with a 28-byte header.

    Layout: magic ``SNF2``, u32 n_bins, u32 n_angles, f64 det_halfwidth,
    f64 step, then n_bins * n_angles values angle-major (bin index fastest).
    """
    geom = sino.geometry
    header = (geom.n_bins, geom.n_angles, geom.det_halfwidth, geom.step)
    write_float64_file(path, SINF_MAGIC, "<IIdd", header, sino.values)


def read_sinf(path):
    """Read a sinogram written by :func:`write_sinf`, with the writer's geometry."""
    (n_bins, n_angles, det_halfwidth, step), values = read_float64_file(path, SINF_MAGIC, "<IIdd")
    with naming_path(path):
        return SinogramGrid(RadonGeometry(n_angles, n_bins, det_halfwidth, step), values)
