"""Synthetic QuickDraw-format sketch generators for desk-scale experiments.

Two deliberately contrasting categories on the 0..255 canvas:
"ring" (one closed elliptical stroke) and "ladder" (several horizontal
rungs drawn as separate strokes). They differ strongly in both stroke
statistics and raster geometry, which is what the desk-scale retrieval
checks need. Each maker draws all its noise in one call and rounds and
clips all its points at once.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CATEGORIES = ("ring", "ladder")


#: a ring's angles before its phase: 24 segments round the full circle
_RING_ANGLES = np.linspace(0.0, 2 * np.pi, 25)


def _clip_int(a: np.ndarray) -> list:
    return a.round().clip(0, 255).astype(np.int64).tolist()


def make_ring(rng: np.random.Generator) -> dict:
    """One closed elliptical polyline, 24 segments."""
    cx = rng.uniform(110, 146)
    cy = rng.uniform(110, 146)
    rx = rng.uniform(60, 105)
    ry = rx * rng.uniform(0.75, 1.0)
    phase = rng.uniform(0, 2 * np.pi)
    theta = phase + _RING_ANGLES
    # row 0 is the xs' noise, row 1 the ys'
    ring = rng.normal(0, 1.0, (2, len(theta)))
    ring[0] += cx + rx * np.cos(theta)
    ring[1] += cy + ry * np.sin(theta)
    return {"word": "ring", "drawing": [_clip_int(ring)]}


def make_ladder(rng: np.random.Generator) -> dict:
    """3 to 5 horizontal rungs, each its own 4-point stroke."""
    n_rungs = int(rng.integers(3, 6))
    x0 = rng.uniform(15, 45)
    x1 = rng.uniform(205, 240)
    top = rng.uniform(20, 50)
    bottom = rng.uniform(200, 240)
    # rung r's noise is [r, 0] for its xs and [r, 1] for its ys: the order
    # of one draw per rung and axis
    rungs = rng.normal(0, 1.5, (n_rungs, 2, 4))
    rungs[:, 0] += np.linspace(x0, x1, 4)
    rungs[:, 1] += np.linspace(top, bottom, n_rungs)[:, None]
    return {"word": "ladder", "drawing": _clip_int(rungs)}


_MAKERS = {"ring": make_ring, "ladder": make_ladder}


def make_sketch_record(category: str, rng: np.random.Generator) -> dict:
    return _MAKERS[category](rng)


def generate_dataset(out_dir, n_per_category: int, seed: int = 0) -> list:
    """Write one JSON-lines file per category; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for c_i, cat in enumerate(CATEGORIES):
        rng = np.random.default_rng([seed, c_i])
        path = out_dir / f"{cat}.ndjson"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(n_per_category):
                fh.write(json.dumps(make_sketch_record(cat, rng)) + "\n")
        paths.append(path)
    return paths
