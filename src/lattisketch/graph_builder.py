"""Proximity graph over lattice points: the points + a weighted adjacency.

Linked pairs get strength a_ij = 1 - norm(d_ij) where norm divides the
Euclidean pixel distance by the canvas diagonal side*sqrt(2), so norm is
always inside (0, 1). Two proximity rules: "nearby" links every pair below
a normalized threshold d_T; "nearest" links each node to its single
nearest neighbor and symmetrizes by union.

Lattice points sit on integer pixels of a side x side canvas, so a pair's
distance depends only on its offset (dx, dy) in (-side, side)^2. Graphs
are therefore gathered from per-canvas tables flat at the signed index
(dx + side - 1) * (2 side - 1) + (dy + side - 1), which is symmetric
under dx <-> dy. Per point, let q = y * (2 side - 1) + x (y-major: short
steps for row-major points) and p = q + (side - 1) * (2 side - 1) + side - 1;
pair (i, j) then sits at p[i] - q[j], one subtraction per entry.

The adjacency is stored as upper row bands: the rows are split evenly into
blocks of at most _BLOCK_ROWS, and each keeps its square diagonal block and
the columns to its right up to its last link. Points come in row-major
order and no pair farther apart in y than the weight table's reach is
linked, so on an inky 256^2 edge map (m about 1,500, d_t = 0.2) the bands
hold about 35 % of the m^2 entries; a graph of at most _BLOCK_ROWS points
is one full band.

Slabs come out in the dtype the caller asks for (the encoder's,
store["enc.fc.W"].dtype), gathered from a weight table cached per
(side, d_t, dtype). The table is computed in float64 and then cast, so a
float32 graph equals the float64 graph cast, bit for bit. "nearest" picks
neighbours on the float64 distance table in either dtype.

Graphs above MAX_NODES points raise NodeBudgetExceeded (an OutOfRange)
before any slab is allocated: a full-ink 256^2 raster (m = 15,360) would
need about 0.5 GB of float64 slabs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLattice, NodeBudgetExceeded, OutOfRange, ShapeMismatch
from .lattice import SketchLattice

PROXIMITY_MODES = ("nearest", "nearby")
# above every m the tests, demos and benchmark reach (about 1,700);
# 8192^2 float64 is 512 MB
MAX_NODES = 8192


@dataclass
class GraphConfig:
    proximity: str = "nearby"
    d_t: float = 0.2
    self_loops: bool = True

    def __post_init__(self):
        if self.proximity not in PROXIMITY_MODES:
            raise OutOfRange(f"unknown proximity mode {self.proximity!r}")
        if not 0.0 < self.d_t < 1.0:
            raise OutOfRange(f"d_t={self.d_t} outside (0, 1)")


@dataclass(frozen=True)
class SketchGraph:
    """Lattice points (x, y) on a side x side canvas plus a symmetric m x m
    adjacency A with entries in [0, 1], stored as upper row bands.

    Each band is (rows, cols, slab) with cols.start == rows.start: slab is
    the dense (rows, cols) block in build_adjacency's dtype (float64 by
    default, the encoder's on every pipeline path), and its part right of
    the diagonal block, transposed, is the block below. The row slices tile
    0..m in order. Bands hold a symmetric A, which backprop applies as A^T.
    `adjacency` assembles the dense matrix on each access.
    """

    points: np.ndarray
    bands: tuple
    side: int

    def __post_init__(self):
        shape, end = np.shape(self.points), 0
        ok = len(shape) == 2 and shape[1] == 2
        for rows, cols, slab in self.bands:
            ok = (ok and rows.start == end == cols.start and rows.stop <= cols.stop <= shape[0]
                  and slab.shape == (rows.stop - rows.start, cols.stop - cols.start))
            end = rows.stop
        if not ok or end != shape[0]:
            raise ShapeMismatch(f"bands {[b[2].shape for b in self.bands]} do not tile the "
                                f"adjacency of points {shape}: want (m, 2) points and row "
                                f"bands covering rows 0..m in order from the diagonal")

    @classmethod
    def from_dense(cls, points, adjacency, side: int) -> "SketchGraph":
        """A graph whose adjacency is one band: the whole m x m matrix, which
        must be exactly symmetric (ShapeMismatch otherwise)."""
        m, a = len(points), np.asarray(adjacency)
        graph = cls(points=points, bands=((slice(0, m), slice(0, m), a),), side=side)
        if not np.array_equal(a, a.T):
            raise ShapeMismatch("from_dense needs an exactly symmetric adjacency")
        return graph

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def adjacency(self) -> np.ndarray:
        """The dense m x m adjacency, assembled from the bands; read-only."""
        a = np.zeros((self.m, self.m), dtype=self.bands[0][2].dtype)
        for rows, cols, slab in self.bands:
            a[rows, cols] = slab
            a[rows.stop:cols.stop, rows] = slab[:, rows.stop - rows.start:].T
        a.flags.writeable = False
        return a


def _offset_norm(side: int) -> np.ndarray:
    """norm(d) of every offset, (side, side) at [|dx|, |dy|]."""
    off = np.arange(side, dtype=np.float64)
    sq = off[:, None] * off[:, None] + off[None, :] * off[None, :]
    return np.sqrt(sq) / (side * np.sqrt(2.0))


def _signed(table: np.ndarray, dtype) -> np.ndarray:
    """Spread an [|dx|, |dy|] table over signed offsets, flat at the signed
    index, in dtype; read-only. w(dx, dy) = w(|dx|, |dy|)."""
    fold = np.abs(np.arange(1 - len(table), len(table)))
    out = table.astype(dtype, copy=False).take(fold, axis=0).take(fold, axis=1).ravel()
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _distance_table(side: int) -> np.ndarray:
    """float64 norm(d) of every signed offset, for "nearest"; read-only."""
    return _signed(_offset_norm(side), np.float64)


@functools.lru_cache(maxsize=16)
def _weight_table(side: int, d_t: float, dtype: np.dtype) -> np.ndarray:
    """Weight of every signed offset under "nearby": 1 - norm(d) below d_t,
    else 0, computed in float64 and cast to dtype; read-only."""
    norm = _offset_norm(side)
    return _signed(np.where(norm < d_t, 1.0 - norm, 0.0), dtype)


_BLOCK_ROWS = 128  # most rows in a band


@functools.lru_cache(maxsize=16)
def _reach(side: int, d_t: float, dtype: np.dtype) -> int:
    """Largest |dy| with a nonzero "nearby" weight at dx = 0, read off the
    weight table: no pair farther apart in y is linked."""
    width = 2 * side - 1
    dx0 = _weight_table(side, d_t, dtype)[(side - 1) * width:side * width]
    return int(np.abs(np.flatnonzero(dx0) - (side - 1)).max())


def _band_extents(y: np.ndarray, reach: int) -> list:
    """(rows, cols) per block: the rows are split into the fewest blocks of at
    most _BLOCK_ROWS, of equal size, and cols runs from the block's first row
    to the last point whose y lies within reach of the block's y-range, so
    it holds every link (i, j >= i) of the block in any point order."""
    m = len(y)
    if m <= _BLOCK_ROWS:  # one block spans every y of the graph
        return [(slice(0, m), slice(0, m))]
    y = np.ascontiguousarray(y)  # reduceat is several times slower on a column view
    n = -(-m // _BLOCK_ROWS)
    bounds = np.arange(n + 1) * m // n
    near = ((y >= np.minimum.reduceat(y, bounds[:-1])[:, None] - reach)
            & (y <= np.maximum.reduceat(y, bounds[:-1])[:, None] + reach))
    hi = m - near[:, ::-1].argmax(axis=1)  # past the block's own last row
    bounds = bounds.tolist()
    return [(slice(r0, r1), slice(r0, c1)) for r0, r1, c1 in zip(bounds, bounds[1:], hi.tolist())]


def _offset_blocks(points: np.ndarray, side: int, extents: list):
    """Yield the signed-table indices p[i] - q[j] of each (rows, cols) extent.

    Points must already lie on the canvas; the index buffer is reused. The
    indices are intp, which take uses without a converted copy.
    """
    width = 2 * side - 1
    pts = points.astype(np.intp)
    q = pts[:, 1] * width + pts[:, 0]
    p = q + ((side - 1) * width + side - 1)
    buf = np.empty(_BLOCK_ROWS * len(q), dtype=np.intp)
    for rows, cols in extents:
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        idx = buf[:shape[0] * shape[1]].reshape(shape)
        np.subtract(p[rows, None], q[cols], out=idx)
        yield idx


def _slabs(extents: list, dtype) -> list:
    """(rows, cols, uninitialized slab) per band, all views of one buffer:
    the allocator hands the same heap block back build after build, where a
    buffer per band touched about 250 fresh pages per m = 1,500 float32
    build, and touching fresh pages dominates a gather."""
    shapes = [(rows.stop - rows.start, cols.stop - cols.start) for rows, cols in extents]
    buf = np.empty(sum(h * w for h, w in shapes), dtype=dtype)
    bands, at = [], 0
    for (rows, cols), (h, w) in zip(extents, shapes):
        bands.append((rows, cols, buf[at:at + h * w].reshape(h, w)))
        at += h * w
    return bands


def build_adjacency(L: SketchLattice, cfg: GraphConfig, dtype=np.float64) -> SketchGraph:
    """Weighted adjacency per the proximity rule, as row bands of dtype.

    nearby: link i != j iff norm(d_ij) < d_t (strict).
    nearest: each i links its nearest j != i (ties to the smaller row-major
    index), then the link set is symmetrized by union; d_t is ignored.
    Linked entries carry 1 - norm(d_ij); the diagonal is 1 with self loops
    (d_ii = 0 so the formula agrees). Entries are gathered from the
    canvas's offset tables, after every point is checked to lie on it.
    Bands end at the last column within the weight table's y-reach of their
    rows ("nearby"), or at column m ("nearest", whose links can lie at any
    distance). Nothing m x m is allocated. More than MAX_NODES points raise
    NodeBudgetExceeded.
    """
    if L.m == 0:
        raise EmptyLattice("cannot build a graph from an empty lattice")
    m, side = L.m, L.side
    if m > MAX_NODES:
        raise NodeBudgetExceeded(f"graph of {m} points exceeds the budget of {MAX_NODES}")
    # every point lies on the canvas, so the gathers below can skip take's
    # bounds check (mode="clip" never clips)
    if L.points.min() < 0 or L.points.max() >= side:
        raise OutOfRange("lattice point outside canvas")
    dtype = np.dtype(dtype)
    if cfg.proximity == "nearby":
        weights = _weight_table(side, cfg.d_t, dtype)
        extents = _band_extents(L.points[:, 1], _reach(side, cfg.d_t, dtype))
        bands = _slabs(extents, dtype)
        for (_, _, slab), idx in zip(bands, _offset_blocks(L.points, side, extents)):
            weights.take(idx, out=slab, mode="clip")
    else:
        extents = _band_extents(L.points[:, 1], side)  # every band ends at column m
        bands = _slabs(extents, dtype)
        for _, _, slab in bands:
            slab.fill(0.0)
        if m > 1:
            norm = _distance_table(side)
            nearest = np.empty(m, dtype=np.intp)
            w = np.empty(m)
            probes = [(rows, slice(0, m)) for rows, _ in extents]
            for (rows, _), idx in zip(probes, _offset_blocks(L.points, side, probes)):
                probe = norm.take(idx, mode="clip")
                block = np.arange(idx.shape[0])
                probe[block, block + rows.start] = np.inf
                nearest[rows] = np.argmin(probe, axis=1)  # first minimum = smallest index
                w[rows] = 1.0 - probe[block, nearest[rows]]
            lo, hi = np.sort(np.stack([np.arange(m), nearest]), axis=0)
            for rows, _, slab in bands:  # link (lo, hi), and (hi, lo) in the diagonal block
                mine = (lo >= rows.start) & (lo < rows.stop)
                slab[lo[mine] - rows.start, hi[mine] - rows.start] = w[mine]
                mine &= hi < rows.stop
                slab[hi[mine] - rows.start, lo[mine] - rows.start] = w[mine]
    diagonal = 1.0 if cfg.self_loops else 0.0
    for _, _, slab in bands:  # row k's own point sits in column k
        slab.reshape(-1)[::slab.shape[1] + 1] = diagonal
    return SketchGraph(points=L.points, bands=tuple(bands), side=side)
