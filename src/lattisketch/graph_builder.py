"""Proximity graph over lattice points: the points + a weighted adjacency.

Linked pairs get strength a_ij = 1 - norm(d_ij) where norm divides the
Euclidean pixel distance by the canvas diagonal side*sqrt(2), so norm is
always inside (0, 1). Two proximity rules: "nearby" links every pair below
a normalized threshold d_T; "nearest" links each node to its single
nearest neighbor and symmetrizes by union.

Lattice points sit on integer pixels of a side x side canvas, so a pair's
distance depends only on its offset (dx, dy) in (-side, side)^2. Graphs
are therefore gathered from per-canvas tables flat at the signed index
(dx + side - 1) * (2 side - 1) + (dy + side - 1). Per point, let
q = x * (2 side - 1) + y and p = q + (side - 1) * (2 side - 1) + side - 1;
pair (i, j) then sits at p[i] - q[j], one subtraction per entry.

The adjacency comes out in the dtype the caller asks for (the encoder's,
store["enc.fc.W"].dtype), gathered from a weight table cached per
(side, d_t, dtype). The table is computed in float64 and then cast, so a
float32 graph equals the float64 graph cast, bit for bit. "nearest" picks
neighbours on the float64 distance table in either dtype.

Graphs above MAX_NODES points raise OutOfRange before anything m x m is
allocated: a full-ink 256^2 raster (m = 15,360) would need about 1.9 GB in
float64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLattice, OutOfRange, ShapeMismatch
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
    adjacency with entries in [0, 1], in the dtype build_adjacency was
    given (float64 by default, the encoder's dtype on every pipeline path)."""

    points: np.ndarray
    adjacency: np.ndarray
    side: int

    def __post_init__(self):
        shape = np.shape(self.adjacency)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(self.points) != (shape[0], 2):
            raise ShapeMismatch(f"adjacency {shape} does not match points "
                                f"{np.shape(self.points)}: want (m, m) and (m, 2)")

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]


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


_BLOCK_ROWS = 128  # rows of offset indices held at a time


def _offset_blocks(points: np.ndarray, side: int):
    """Yield (row slice, int32 signed-table indices p[i] - q[j]) per block of rows.

    Points must already lie on the canvas; the index buffer is reused.
    """
    width = 2 * side - 1
    pts = points.astype(np.int32)
    q = pts[:, 0] * np.int32(width) + pts[:, 1]
    p = q + np.int32((side - 1) * width + side - 1)
    m = len(q)
    idx = np.empty((min(_BLOCK_ROWS, m), m), dtype=np.int32)
    for r0 in range(0, m, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, m)
        i = idx[:r1 - r0]
        np.subtract(p[r0:r1, None], q, out=i)
        yield slice(r0, r1), i


def build_adjacency(L: SketchLattice, cfg: GraphConfig, dtype=np.float64) -> SketchGraph:
    """Weighted adjacency per the proximity rule, as a dtype array.

    nearby: link i != j iff norm(d_ij) < d_t (strict).
    nearest: each i links its nearest j != i (ties to the smaller row-major
    index), then the link set is symmetrized by union; d_t is ignored.
    Linked entries carry 1 - norm(d_ij); the diagonal is 1 with self loops
    (d_ii = 0 so the formula agrees). Entries are gathered from the
    canvas's offset tables, after every point is checked to lie on it.
    More than MAX_NODES points raise OutOfRange.
    """
    if L.m == 0:
        raise EmptyLattice("cannot build a graph from an empty lattice")
    m, side = L.m, L.side
    if m > MAX_NODES:
        raise OutOfRange(f"graph of {m} points exceeds the budget of {MAX_NODES}")
    # every point lies on the canvas, so the gathers below can skip take's
    # bounds check (mode="clip" never clips)
    if L.points.min() < 0 or L.points.max() >= side:
        raise OutOfRange("lattice point outside canvas")
    dtype = np.dtype(dtype)
    if cfg.proximity == "nearby":
        weights = _weight_table(side, cfg.d_t, dtype)
        a = np.empty((m, m), dtype=dtype)
        for rows, idx in _offset_blocks(L.points, side):
            weights.take(idx, out=a[rows], mode="clip")
    else:
        a = np.zeros((m, m), dtype=dtype)
        if m > 1:
            norm = _distance_table(side)
            nearest = np.empty(m, dtype=np.intp)
            w = np.empty(m)
            for rows, idx in _offset_blocks(L.points, side):
                probe = norm.take(idx, mode="clip")
                block = np.arange(idx.shape[0])
                probe[block, block + rows.start] = np.inf
                nearest[rows] = np.argmin(probe, axis=1)  # first minimum = smallest index
                w[rows] = 1.0 - probe[block, nearest[rows]]
            a[np.arange(m), nearest] = w
            a[nearest, np.arange(m)] = w
    np.fill_diagonal(a, 1.0 if cfg.self_loops else 0.0)
    return SketchGraph(points=L.points, adjacency=a, side=side)
