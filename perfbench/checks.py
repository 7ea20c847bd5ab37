"""Output checks, run after the timed region.

Each check returns a list of problems (empty when the outputs are right).
They compare against computations written here, apart from the program
(a pixel scan along the lattice lines, a dense numpy encoder over
cKDTree pairs), or against properties the method must have. None of them
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from lattisketch.errors import LattisketchError
from lattisketch.sketch_data import PEN_END

LOSS_WINDOW = 10     # iterations averaged at each end of the training run
LOSS_DROP = 0.5      # the last window's mean loss must fall below this share of the first's
PSI_ATOL = 1e-4      # float32 model against the float64 reference
MAX_PROBLEMS = 10


def line_positions(side: int, n: int) -> list:
    """Pixel index of each of the n lattice lines: (k + 0.5) * side / n, halves rounded down."""
    return [math.ceil((k + 0.5) * side / n - 0.5) for k in range(n)]


def scan_lattice(pixels: np.ndarray, n: int) -> np.ndarray:
    """Dark pixels on any lattice line, row-major, found by scanning the lines."""
    side = pixels.shape[0]
    lines = line_positions(side, n)
    on_line = set(lines)
    points = []
    for y in range(side):
        xs = range(side) if y in on_line else lines
        points.extend((x, y) for x in xs if pixels[y, x])
    return np.array(points, dtype=np.int64).reshape(-1, 2)


def _add(problems: list, text: str) -> None:
    if len(problems) < MAX_PROBLEMS:
        problems.append(text)


def train(losses: list, skipped: list, replay_loss: float) -> list:
    """Finite losses, no skipped items, a falling loss, and a bit-identical replay."""
    problems = []
    if not losses:
        return ["no training iteration completed"]
    for it, (loss, n_skipped) in enumerate(zip(losses, skipped)):
        if not math.isfinite(loss):
            _add(problems, f"iteration {it}: loss {loss} is not finite")
        if n_skipped:
            _add(problems, f"iteration {it}: {n_skipped} items skipped")
    window = max(1, min(LOSS_WINDOW, len(losses) // 4))
    first = float(np.mean(losses[:window]))
    last = float(np.mean(losses[-window:]))
    if not last < LOSS_DROP * first:
        _add(problems, f"mean loss fell only from {first:.4f} to {last:.4f}")
    if replay_loss != losses[0]:
        _add(problems, f"replayed iteration 0 gave loss {replay_loss!r}, "
                       f"the run gave {losses[0]!r}")
    return problems


def heal(pixels: list, seeds: list, p_mask: float, n: int, n_max: int,
         ops: list, outputs: list) -> list:
    """Surviving points match the pixel scan under the request's mask draw;
    each healed sketch is valid, runs to the n_max cap and ends with
    pen=end; equal requests give identical steps."""
    problems = []
    expected, first = {}, {}
    for k, (s, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        sketch, surviving = out
        if s not in expected:
            full = scan_lattice(pixels[s], n)
            keep = np.random.default_rng(seeds[s]).random(len(full)) >= p_mask
            expected[s] = full[keep]
        if not np.array_equal(np.asarray(surviving.points), expected[s]):
            _add(problems, f"op {k}: surviving points differ from the lattice scan")
        try:
            sketch.validate()
        except LattisketchError as exc:
            _add(problems, f"op {k}: healed sketch is invalid: {exc}")
        steps = np.asarray(sketch.steps)
        if steps.shape[0] != n_max or steps[-1, 2] != PEN_END:
            _add(problems, f"op {k}: {steps.shape[0]} steps ending in pen "
                           f"{steps[-1, 2] if len(steps) else None}, want {n_max} ending in end")
        if s in first and not np.array_equal(first[s], steps):
            _add(problems, f"op {k}: healing sketch {s} again gave other steps")
        first.setdefault(s, steps)
    return problems


def reference_psi(pixels: np.ndarray, store, pcfg) -> np.ndarray:
    """Eval-mode embedding psi recomputed densely in float64 from the model's arrays.

    Takes its edges from cKDTree pairs. Covers the configuration the
    benchmark model uses: "nearby" proximity with self loops, factorized
    embeddings, mean pooling, one affine map per MLP unit and no row
    normalization.
    """
    enc, graph = pcfg.encoder, pcfg.graph
    if (graph.proximity, graph.self_loops, enc.embed_mode, enc.pooling,
            enc.mlp_depth, enc.row_normalize) != ("nearby", True, "factorized", "mean", 1, False):
        raise ValueError("reference encoder does not cover this configuration")
    arr = {name: np.asarray(store[name], dtype=np.float64) for name in store.names()}
    points = scan_lattice(pixels, pcfg.lattice.n)
    diag = pcfg.lattice.side * math.sqrt(2.0)
    pairs = cKDTree(points).query_pairs(graph.d_t * diag, output_type="ndarray")
    dist = np.linalg.norm((points[pairs[:, 0]] - points[pairs[:, 1]]).astype(np.float64),
                          axis=1) / diag
    linked = dist < graph.d_t
    i, j, w = pairs[linked, 0], pairs[linked, 1], 1.0 - dist[linked]
    adj = np.eye(len(points))
    adj[i, j] = w
    adj[j, i] = w
    v = arr["enc.emb.x"][points[:, 0]] + arr["enc.emb.y"][points[:, 1]]
    for layer in range(enc.K):
        x = adj @ v
        for unit in range(2):
            x = np.maximum(x @ arr[f"enc.layer{layer}.u{unit}.W0"]
                           + arr[f"enc.layer{layer}.u{unit}.b0"], 0.0)
        v = v + x
    y = v.mean(axis=0) @ arr["enc.fc.W"] + arr["enc.fc.b"]
    xhat = (y - arr["enc.bn.running_mean"]) / np.sqrt(arr["enc.bn.running_var"] + enc.bn_eps)
    return np.tanh(arr["enc.bn.gamma"] * xhat + arr["enc.bn.beta"])


def embed(pixels: list, store, pcfg, ops: list, outputs: list) -> list:
    """Each psi is finite, inside (-1, 1), equal to the reference within
    float32 tolerance, and identical for the same edge map."""
    problems = []
    reference, first = {}, {}
    for k, (e, psi) in enumerate(zip(ops, outputs)):
        if psi is None:
            continue
        psi = np.asarray(psi)
        if not np.all(np.isfinite(psi)) or not np.all(np.abs(psi) < 1.0):
            _add(problems, f"op {k}: psi not finite or outside (-1, 1)")
            continue
        if e not in reference:
            reference[e] = reference_psi(pixels[e], store, pcfg)
        err = float(np.max(np.abs(psi.astype(np.float64) - reference[e])))
        if not err <= PSI_ATOL:
            _add(problems, f"op {k}: psi differs from the dense reference by {err:.2e}")
        if e in first and not np.array_equal(first[e], psi):
            _add(problems, f"op {k}: embedding edge map {e} again gave another psi")
        first.setdefault(e, psi)
    return problems
