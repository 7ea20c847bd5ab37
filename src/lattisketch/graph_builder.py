"""Proximity graph over lattice points: coordinate tokens + weighted adjacency.

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
EMBED_MODES = ("joint", "factorized")


@dataclass
class GraphConfig:
    proximity: str = "nearby"
    d_t: float = 0.2
    embed_mode: str = "factorized"
    self_loops: bool = True

    def __post_init__(self):
        if self.proximity not in PROXIMITY_MODES:
            raise OutOfRange(f"unknown proximity mode {self.proximity!r}")
        if self.embed_mode not in EMBED_MODES:
            raise OutOfRange(f"unknown embed mode {self.embed_mode!r}")
        if not 0.0 < self.d_t < 1.0:
            raise OutOfRange(f"d_t={self.d_t} outside (0, 1)")


@dataclass(frozen=True)
class SketchGraph:
    """Node tokens plus a symmetric m x m adjacency with entries in [0, 1]."""

    tokens: np.ndarray
    adjacency: np.ndarray
    embed_mode: str = "factorized"
    side: int = 256

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "side": self.side,
            "embed_mode": self.embed_mode,
            "tokens": np.asarray(self.tokens).tolist(),
            "adjacency": [float(a) for a in np.asarray(self.adjacency).ravel()],
        }


def graph_from_json_obj(obj: dict) -> SketchGraph:
    m = int(obj["m"])
    adj = np.array(obj["adjacency"], dtype=np.float64).reshape(m, m)
    return SketchGraph(
        tokens=np.array(obj["tokens"], dtype=np.int64),
        adjacency=adj,
        embed_mode=obj.get("embed_mode", "factorized"),
        side=int(obj.get("side", 256)),
    )


def tokenize(p, side: int, mode: str = "factorized"):
    """Coordinate token(s) for a point: joint index y*side + x, or the (x, y) pair."""
    x, y = int(p[0]), int(p[1])
    if not (0 <= x < side and 0 <= y < side):
        raise OutOfRange(f"point ({x}, {y}) outside [0, {side})")
    if mode == "joint":
        return y * side + x
    if mode == "factorized":
        return (x, y)
    raise OutOfRange(f"unknown embed mode {mode!r}")


def tokenize_all(L: SketchLattice, mode: str = "factorized") -> np.ndarray:
    pts = L.points
    if pts.size and (pts.min() < 0 or pts.max() >= L.side):
        raise OutOfRange("lattice point outside canvas")
    if mode == "joint":
        return pts[:, 1] * L.side + pts[:, 0]
    if mode == "factorized":
        return pts.copy()
    raise OutOfRange(f"unknown embed mode {mode!r}")


def pairwise_distances(L: SketchLattice) -> np.ndarray:
    """Exact Euclidean pixel distances, symmetric with a zero diagonal."""
    if L.m < 1:
        raise EmptyLattice("no points to measure")
    pts = L.points.astype(np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


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
    # checks every point lies on the canvas, so the gathers below can skip
    # take's bounds check (mode="clip" never clips)
    tokens = tokenize_all(L, cfg.embed_mode)
    m, side = L.m, L.side
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
    return SketchGraph(tokens=tokens, adjacency=a, embed_mode=cfg.embed_mode, side=side)
