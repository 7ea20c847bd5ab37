"""Lattice point sampling: intersect a raster's dark pixels with a uniform grid.

The lattice graph is a fixed criss-cross of n horizontal and n vertical
lines. Sampling a raster keeps every dark pixel that lies on at least one
line; crossings are deduplicated. The resulting point set is the model's
only view of a sketch at inference time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedRecord, OutOfRange
from .sketch_data import CANVAS_SIDE, RasterSketch, check_canvas_side


@dataclass
class LatticeConfig:
    """Grid settings: n lines per direction on a side x side canvas."""

    n: int = 32
    side: int = CANVAS_SIDE

    def __post_init__(self):
        check_canvas_side(self.side)
        if not 1 <= self.n <= self.side:
            raise OutOfRange(f"n={self.n} outside [1, side={self.side}]")


@dataclass(frozen=True)
class SketchLattice:
    """Deduplicated absolute points (x, y), sorted row-major (by y, then x)."""

    points: np.ndarray
    side: int = LatticeConfig.side
    n: int = LatticeConfig.n

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def to_json_obj(self) -> dict:
        return {
            "side": self.side,
            "n": self.n,
            "points": [[int(x), int(y)] for x, y in self.points],
        }


def lattice_from_json_obj(obj: dict) -> SketchLattice:
    try:
        side = int(obj["side"])
        n = int(obj["n"])
        points = np.array(obj["points"], dtype=np.int64).reshape(-1, 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(f"bad lattice object: {exc}") from exc
    return SketchLattice(points, side=side, n=n)


def line_positions(cfg: LatticeConfig) -> np.ndarray:
    """Pixel coordinates of the n lines: pos_k = round((k + 0.5) * side / n).

    Computed in exact integer arithmetic with halves rounded down, which
    keeps all positions distinct and inside [0, side - 1] even at n = side
    (round-half-up would emit `side` at the last line, round-half-even
    would collide neighbors).
    """
    k = np.arange(cfg.n, dtype=np.int64)
    return ((2 * k + 1) * cfg.side + cfg.n - 1) // (2 * cfg.n)


def sample_lattice(r: RasterSketch, cfg: LatticeConfig) -> SketchLattice:
    """Collect dark pixels lying on any lattice line, each crossing once.

    Output order is row-major (y, then x), the canonical node order.
    """
    if r.height != cfg.side or r.width != cfg.side:
        raise OutOfRange(
            f"raster {r.width}x{r.height} is not canonical {cfg.side}x{cfg.side}"
        )
    pos = line_positions(cfg)
    side, n = cfg.side, cfg.n
    # flat indices into the n line rows, [i, x], and the n line columns, [y, j]
    rows = np.flatnonzero(r.pixels[pos] > 0)
    col_hits = r.pixels[:, pos] > 0
    col_hits[pos] = False  # a crossing is already a row hit
    cols = np.flatnonzero(col_hits)
    keys = np.sort(np.concatenate([pos[rows // side] * side + rows % side,
                                   cols // n * side + pos[cols % n]]))
    return SketchLattice(np.column_stack([keys % side, keys // side]), side=side, n=n)


def mask_lattice(L: SketchLattice, p_mask: float, rng: np.random.Generator) -> SketchLattice:
    """Drop each point independently with probability p_mask.

    Order is preserved; the draw consumes exactly m uniforms from rng, so
    a fixed seed reproduces the same surviving subset.
    """
    if not 0.0 <= p_mask <= 1.0:
        raise OutOfRange(f"p_mask={p_mask} outside [0, 1]")
    keep = rng.random(L.m) >= p_mask
    return SketchLattice(L.points[keep], side=L.side, n=L.n)
