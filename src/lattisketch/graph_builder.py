"""Proximity graph over lattice points: the points + a weighted adjacency.

Linked pairs get strength a_ij = 1 - norm(d_ij) where norm divides the
Euclidean pixel distance by the canvas diagonal side*sqrt(2), so norm is
always inside (0, 1). Two proximity rules: "nearby" links every pair below
a normalized threshold d_T; "nearest" links each node to its single
nearest neighbor and symmetrizes by union.

Lattice points sit on integer pixels of a side x side canvas, so a pair's
distance depends only on its offset (|dx|, |dy|) in [0, side)^2. Graphs
are therefore gathered from per-canvas tables indexed by
|dx| * side + |dy|, built once per (side) and (side, d_t).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLattice, OutOfRange, ShapeMismatch
from .lattice import SketchLattice

PROXIMITY_MODES = ("nearest", "nearby")


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
    adjacency with entries in [0, 1]."""

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


@functools.lru_cache(maxsize=None)
def _distance_table(side: int) -> np.ndarray:
    """norm(d) of every offset, flat at |dx| * side + |dy|; read-only."""
    off = np.arange(side, dtype=np.float64)
    sq = off[:, None] * off[:, None] + off[None, :] * off[None, :]
    table = (np.sqrt(sq) / (side * np.sqrt(2.0))).ravel()
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _weight_table(side: int, d_t: float) -> np.ndarray:
    """Weight of every offset under "nearby": 1 - norm(d) below d_t, else 0; read-only."""
    norm = _distance_table(side)
    table = np.where(norm < d_t, 1.0 - norm, 0.0)
    table.flags.writeable = False
    return table


_BLOCK_ROWS = 128  # rows of offset indices held at a time


def _offset_blocks(points: np.ndarray, side: int):
    """Yield (row slice, int32 table indices |dx| * side + |dy|) per block of rows.

    Points must already lie on the canvas; the index buffers are reused.
    """
    pts = points.astype(np.int32)
    x, y = pts[:, 0] * np.int32(side), pts[:, 1]
    m = len(pts)
    idx = np.empty((min(_BLOCK_ROWS, m), m), dtype=np.int32)
    dy = np.empty_like(idx)
    for r0 in range(0, m, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, m)
        i, d = idx[:r1 - r0], dy[:r1 - r0]
        np.subtract(x[r0:r1, None], x, out=i)
        np.abs(i, out=i)
        np.subtract(y[r0:r1, None], y, out=d)
        np.abs(d, out=d)
        i += d
        yield slice(r0, r1), i


def build_adjacency(L: SketchLattice, cfg: GraphConfig) -> SketchGraph:
    """Weighted adjacency per the proximity rule.

    nearby: link i != j iff norm(d_ij) < d_t (strict).
    nearest: each i links its nearest j != i (ties to the smaller row-major
    index), then the link set is symmetrized by union; d_t is ignored.
    Linked entries carry 1 - norm(d_ij); the diagonal is 1 with self loops
    (d_ii = 0 so the formula agrees). Entries are gathered from the
    canvas's offset tables, after every point is checked to lie on it.
    """
    if L.m == 0:
        raise EmptyLattice("cannot build a graph from an empty lattice")
    m, side = L.m, L.side
    # every point lies on the canvas, so the gathers below can skip take's
    # bounds check (mode="clip" never clips)
    if L.points.min() < 0 or L.points.max() >= side:
        raise OutOfRange("lattice point outside canvas")
    if cfg.proximity == "nearby":
        weights = _weight_table(side, cfg.d_t)
        a = np.empty((m, m))
        for rows, idx in _offset_blocks(L.points, side):
            weights.take(idx, out=a[rows], mode="clip")
    else:
        a = np.zeros((m, m))
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
