"""Task harnesses on a trained checkpoint, all built on the lattice-level
``heal_lattice`` and ``encode_lattice``: sketch healing under point corruption,
embedding-based retrieval and the healing sweep. Edge-map-to-sketch synthesis
is ``heal`` at p_mask 0: an edge map is just another raster to latticize.

Everything here is read-only over the model; healing is a deterministic
function of (checkpoint, inputs, seed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import encoder as enc_mod
from .decoder import generate
from .errors import EmptyLattice, NodeBudgetExceeded, ShapeMismatch
from .graph_builder import build_adjacency
from .lattice import (LatticeConfig, SketchLattice, mask_lattice, sample_lattice,
                      sketch_lattices)
from .sketch_data import RasterSketch, canonicalize_raster
from .trainer import ModelBundle

#: similarities ranked per chunk of query rows: bounds retrieve's scratch
#: memory at a few times this many entries, however large Q x G grows
SIMILARITIES_PER_CHUNK = 1 << 20

HEAL_P_MASK = 0.1  #: the corruption heal applies when none is given


@dataclass
class HealRequest:
    raster: RasterSketch
    p_mask: float = HEAL_P_MASK
    n: int | None = None  # lattice grid; None = the model's training grid
    seed: int = 0


@dataclass
class RetrievalReport:
    ranked: np.ndarray            # (Q, min(max ks, G)) gallery indices, best first
    top_k: dict                   # k -> accuracy
    confusion: dict               # (query label, top-1 label) -> count


def _lattice_config(bundle: ModelBundle, n: int | None) -> LatticeConfig:
    """The model's lattice, or n lines on its canvas."""
    base = bundle.pcfg.lattice
    return base if n is None else LatticeConfig(n=n, side=base.side)


def _lattice_of(raster: RasterSketch, bundle: ModelBundle, n: int | None) -> SketchLattice:
    """The lattice of a raster on the model's canvas; n None = the training grid."""
    cfg = _lattice_config(bundle, n)
    return sample_lattice(canonicalize_raster(raster, cfg.side), cfg)


def encode_lattice(lat: SketchLattice, bundle: ModelBundle, empty_msg: str) -> np.ndarray:
    """Eval-mode psi of a lattice; EmptyLattice(empty_msg) when it has no points."""
    if lat.m == 0:
        raise EmptyLattice(empty_msg)
    graph = build_adjacency(lat, bundle.pcfg.graph, bundle.store["enc.fc.W"].dtype)
    return enc_mod.encode(graph, bundle.store, bundle.pcfg.encoder)


def heal_lattice(lat: SketchLattice, p_mask: float, seed, bundle: ModelBundle):
    """Bernoulli mask -> graph -> psi -> z (noise on) -> autoregressive
    generation, all from one ``default_rng(seed)`` stream. Returns (sketch,
    surviving lattice); raises EmptyLattice when nothing is there or survives."""
    if lat.m == 0:
        raise EmptyLattice("the input has no ink on the lattice lines")
    rng = np.random.default_rng(seed)
    masked = mask_lattice(lat, p_mask, rng)
    psi = encode_lattice(masked, bundle, f"no lattice points survive p_mask={p_mask}")
    sample = enc_mod.reparameterize(psi, bundle.store, rng=rng)
    return generate(sample.z, bundle.store, bundle.pcfg.decoder, rng), masked


def heal(req: HealRequest, bundle: ModelBundle):
    """Regenerate a sketch from a corrupted lattice view of a raster:
    ``heal_lattice`` on its lattice (req.n lines, or the model's grid).
    At p_mask 0 this synthesizes a sketch from an edge map. Returns (sketch,
    surviving lattice); raises EmptyLattice when nothing survives (blank
    raster or p_mask too high)."""
    return heal_lattice(_lattice_of(req.raster, bundle, req.n), req.p_mask, req.seed, bundle)


def encode_raster(raster: RasterSketch, bundle: ModelBundle,
                  n: int | None = None) -> np.ndarray:
    """Eval-mode psi of one raster: ``encode_lattice`` of its lattice (EmptyLattice if blank)."""
    return encode_lattice(_lattice_of(raster, bundle, n), bundle, "raster has no lattice points")


def embed_gallery(lattices, bundle: ModelBundle):
    """Stack L2-normalized eval-mode embeddings of lattices, one graph each.

    Returns (matrix (G, d) float64, kept indices, failed indices); a lattice
    that is empty or over the graph node budget is recorded and excluded.
    """
    rows, kept, failed = [], [], []
    for i, lat in enumerate(lattices):
        try:
            rows.append(encode_lattice(lat, bundle, "lattice has no points"))
            kept.append(i)
        except (EmptyLattice, NodeBudgetExceeded):
            failed.append(i)
    mat = np.asarray(rows, dtype=np.float64).reshape(len(rows), bundle.pcfg.encoder.d)
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12), kept, failed


def retrieve(query_psi: np.ndarray, gallery_psi: np.ndarray,
             query_labels, gallery_labels, ks=(1, 3), self_indices=None) -> RetrievalReport:
    """Cosine-similarity ranking; a top-k hit shares the query's category.

    Rows are assumed L2-normalized. Ties resolve to the smaller gallery
    index (stable sort). Query i's own gallery row self_indices[i], when
    self_indices is given, is pushed out of the ranking.
    Query rows are ranked in chunks of at most about SIMILARITIES_PER_CHUNK
    similarities, and only the first max(ks) gallery indices of each row
    are kept.
    """
    query_psi = np.atleast_2d(query_psi)
    gallery_psi = np.atleast_2d(gallery_psi)
    if query_psi.shape[1] != gallery_psi.shape[1]:
        raise ShapeMismatch("query/gallery widths differ")
    n_q, n_g = query_psi.shape[0], gallery_psi.shape[0]
    if len(query_labels) != n_q or len(gallery_labels) != n_g:
        raise ShapeMismatch("label counts do not match embeddings")
    own = None if self_indices is None else np.asarray(self_indices, dtype=np.int64)
    ranked = np.empty((n_q, min(max(ks), n_g)), dtype=np.int64)
    # rows split evenly into chunks of at most max(4, ...) rows: only a lone
    # query is a one-row product, which numpy sums in another order
    neg_gallery = -gallery_psi.T  # exact, so a chunk ranks -(q . g) bit for bit
    n_chunks = max(1, -(-n_q // max(4, SIMILARITIES_PER_CHUNK // max(n_g, 1))))
    bounds = [n_q * c // n_chunks for c in range(n_chunks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        neg_sims = query_psi[lo:hi] @ neg_gallery
        if own is not None:
            neg_sims[np.arange(hi - lo), own[lo:hi]] = np.inf
        # assigned into ranked, so no view keeps the chunk alive
        ranked[lo:hi] = np.argsort(neg_sims, axis=1, kind="stable")[:, :ranked.shape[1]]
    q_labels, g_labels = list(query_labels), list(gallery_labels)
    top_k = {int(k): sum(q in [g_labels[gi] for gi in row[:k]]
                         for q, row in zip(q_labels, ranked)) / max(n_q, 1) for k in ks}
    confusion = dict(Counter((q, g_labels[row[0]]) for q, row in zip(q_labels, ranked)))
    return RetrievalReport(ranked=ranked, top_k=top_k, confusion=confusion)


def healing_sweep(sketches, labels, bundle: ModelBundle, p_mask_list,
                  n: int | None = None, seed: int = 0):
    """Heal every sketch at each corruption level and score retrieval
    against the clean gallery.

    Sketches and healed sketches alike become lattices through
    ``sketch_lattices`` (no raster is drawn) on the model's lattice, or n
    lines on its canvas. A query is the healed sketch re-embedded by
    ``embed_gallery``; its own clean gallery row is excluded from the
    ranking. A query whose heal or re-embedding meets an empty or
    over-budget lattice counts as a failure. Returns (rows, csv_text) with
    columns p_mask,top1,top3,mean_points,failures.
    """
    cfg = _lattice_config(bundle, n)
    lattices = sketch_lattices(sketches, cfg)
    gallery, kept, _failed = embed_gallery(lattices, bundle)
    gallery_labels = [labels[i] for i in kept]
    rows = []
    for pm_i, p_mask in enumerate(p_mask_list):
        healed, healed_pos, points = [], [], []
        for pos, i in enumerate(kept):
            try:
                sketch, surviving = heal_lattice(lattices[i], float(p_mask),
                                                 [seed, pm_i, i], bundle)
            except (EmptyLattice, NodeBudgetExceeded):
                continue
            healed.append(sketch)
            healed_pos.append(pos)
            points.append(surviving.m)
        queries, q_kept, _ = embed_gallery(sketch_lattices(healed, cfg), bundle)
        q_self = [healed_pos[j] for j in q_kept]
        report = retrieve(queries, gallery, [gallery_labels[pos] for pos in q_self],
                          gallery_labels, self_indices=q_self)
        rows.append({
            "p_mask": float(p_mask),
            "top1": report.top_k[1],
            "top3": report.top_k[3],
            "mean_points": float(np.mean(points)) if points else 0.0,
            "failures": len(kept) - len(q_kept),
        })
    csv_rows = [f"{r['p_mask']:.4f},{r['top1']:.6f},{r['top3']:.6f},"
                f"{r['mean_points']:.4f},{r['failures']}\n" for r in rows]
    return rows, "".join(["p_mask,top1,top3,mean_points,failures\n", *csv_rows])
