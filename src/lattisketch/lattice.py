"""Lattice point sampling: intersect a raster's dark pixels with a uniform grid.

The lattice graph is a fixed criss-cross of n horizontal and n vertical
lines. Sampling a raster keeps every dark pixel that lies on at least one
line; crossings are deduplicated. The resulting point set is the model's
only view of a sketch at inference time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MalformedRecord, OutOfRange
from .sketch_data import CANVAS_SIDE, RasterSketch, check_canvas_side, drawn_pixels


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


@functools.lru_cache(maxsize=None)
def _lines(side: int, n: int):
    """Read-only line positions and flat side*side mask of the pixels on a line."""
    pos = line_positions(LatticeConfig(n=n, side=side))
    on_line = np.zeros((side, side), dtype=bool)
    on_line[pos] = True
    on_line[:, pos] = True
    pos.flags.writeable = on_line.flags.writeable = False
    return pos, on_line.reshape(-1)


def sample_lattice(r: RasterSketch, cfg: LatticeConfig) -> SketchLattice:
    """Collect dark pixels lying on any lattice line, each crossing once.

    Output order is row-major (y, then x), the canonical node order.
    """
    if r.height != cfg.side or r.width != cfg.side:
        raise OutOfRange(
            f"raster {r.width}x{r.height} is not canonical {cfg.side}x{cfg.side}"
        )
    pos, _ = _lines(cfg.side, cfg.n)
    side, n = cfg.side, cfg.n
    # flat indices into the n line rows, [i, x], and the n line columns, [y, j]
    rows = np.flatnonzero(r.pixels[pos] > 0)
    col_hits = r.pixels[:, pos] > 0
    col_hits[pos] = False  # a crossing is already a row hit
    cols = np.flatnonzero(col_hits)
    keys = np.sort(np.concatenate([pos[rows // side] * side + rows % side,
                                   cols // n * side + pos[cols % n]]))
    return SketchLattice(np.column_stack([keys % side, keys // side]), side=side, n=n)


def sketch_lattices(sketches, cfg: LatticeConfig) -> list:
    """``sample_lattice(rasterize(sk, cfg.side), cfg)`` for every sketch of
    a list, point for point, with no raster drawn.

    Of the drawing core's pixel keys ``b * side**2 + y * side + x`` (see
    ``drawn_pixels``), those on a lattice line are kept; once a run of
    sketches is drawn, its kept keys are sorted once, deduplicated and split
    into row-major lattices, so the scratch memory does not grow with the
    list. Raises MalformedRecord as rasterize does.
    """
    _, on_line = _lines(cfg.side, cfg.n)
    area = cfg.side * cfg.side
    lattices, kept = [], []
    for done, keys in drawn_pixels(sketches, cfg.side):
        kept.append(keys[on_line[keys % area]])
        del keys  # not held while the next pass is drawn
        if done > len(lattices):
            lattices += _split_keys(kept, len(lattices), done, cfg)
            kept = []
    return lattices + _split_keys(kept, len(lattices), len(sketches), cfg)


def _split_keys(kept: list, first: int, stop: int, cfg: LatticeConfig) -> list:
    """Lattices of sketches first..stop-1 from their kept pixel keys."""
    side = cfg.side
    keys = np.sort(np.concatenate(kept)) if kept else np.zeros(0, dtype=np.int64)
    keys = keys[np.diff(keys, prepend=-1) > 0]
    bounds = np.searchsorted(keys, np.arange(first, stop + 1) * (side * side))
    points = np.column_stack([keys % side, keys // side % side])
    return [SketchLattice(points[a:b], side=side, n=cfg.n)
            for a, b in zip(bounds[:-1], bounds[1:])]


def mask_lattice(L: SketchLattice, p_mask: float, rng: np.random.Generator) -> SketchLattice:
    """Drop each point independently with probability p_mask.

    Order is preserved; the draw consumes exactly m uniforms from rng, so
    a fixed seed reproduces the same surviving subset.
    """
    if not 0.0 <= p_mask <= 1.0:
        raise OutOfRange(f"p_mask={p_mask} outside [0, 1]")
    keep = rng.random(L.m) >= p_mask
    return SketchLattice(L.points[keep], side=L.side, n=L.n)
