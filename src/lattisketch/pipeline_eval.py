"""Task harnesses on top of a trained checkpoint: sketch healing under point
corruption, embedding-based retrieval, edge-map-to-sketch synthesis, and the
healing sweep that ties them together.

Everything here is read-only over the model; healing and synthesis are
deterministic functions of (checkpoint, inputs, seed).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc_mod
from .decoder import generate
from .errors import EmptyLattice, ShapeMismatch
from .graph_builder import build_adjacency
from .lattice import LatticeConfig, SketchLattice, mask_lattice, sample_lattice
from .sketch_data import RasterSketch, VectorSketch, canonicalize_raster, rasterize
from .trainer import ModelBundle


@dataclass
class HealRequest:
    raster: RasterSketch
    p_mask: float = 0.1
    n: int | None = None  # lattice grid; None = the model's training grid
    seed: int = 0


@dataclass
class RetrievalReport:
    ranked: np.ndarray            # (Q, G) gallery indices, best first
    top_k: dict                   # k -> accuracy
    confusion: dict               # (query label, top-1 label) -> count
    query_labels: list = field(default_factory=list)


def _lattice_cfg_for(bundle: ModelBundle, n: int | None) -> LatticeConfig:
    base = bundle.pcfg.lattice
    return base if n is None else LatticeConfig(n=n, side=base.side)


def heal(req: HealRequest, bundle: ModelBundle):
    """Regenerate a sketch from a corrupted lattice view of a raster.

    raster -> lattice -> Bernoulli mask -> graph -> psi -> z (noise on) ->
    autoregressive generation. Returns (sketch, surviving lattice); raises
    EmptyLattice when nothing survives (blank raster or p_mask too high).
    """
    lat_cfg = _lattice_cfg_for(bundle, req.n)
    raster = canonicalize_raster(req.raster, lat_cfg.side)
    lat = sample_lattice(raster, lat_cfg)
    rng = np.random.default_rng(req.seed)
    masked = mask_lattice(lat, req.p_mask, rng)
    if masked.m == 0:
        raise EmptyLattice(f"no lattice points survive p_mask={req.p_mask}")
    graph = build_adjacency(masked, bundle.pcfg.graph, bundle.store["enc.fc.W"].dtype)
    psi = enc_mod.encode(graph, bundle.store, bundle.pcfg.encoder)
    sample = enc_mod.reparameterize(psi, bundle.store, rng=rng)
    sketch = generate(sample.z, bundle.store, bundle.pcfg.decoder, rng)
    return sketch, masked


def encode_raster(raster: RasterSketch, bundle: ModelBundle,
                  n: int | None = None) -> np.ndarray:
    """Eval-mode sketch embedding psi of one raster (EmptyLattice if blank)."""
    lat_cfg = _lattice_cfg_for(bundle, n)
    raster = canonicalize_raster(raster, lat_cfg.side)
    lat = sample_lattice(raster, lat_cfg)
    if lat.m == 0:
        raise EmptyLattice("raster has no lattice points")
    graph = build_adjacency(lat, bundle.pcfg.graph, bundle.store["enc.fc.W"].dtype)
    return enc_mod.encode(graph, bundle.store, bundle.pcfg.encoder)


def embed_gallery(rasters, bundle: ModelBundle, n: int | None = None):
    """Stack L2-normalized eval-mode embeddings.

    Returns (matrix (G, d), kept indices, failed indices); items whose
    lattice is empty are recorded and excluded.
    """
    rows, kept, failed = [], [], []
    for i, raster in enumerate(rasters):
        try:
            psi = encode_raster(raster, bundle, n)
        except EmptyLattice:
            failed.append(i)
            continue
        rows.append(psi.astype(np.float64))
        kept.append(i)
    if rows:
        mat = np.vstack(rows)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.maximum(norms, 1e-12)
    else:
        mat = np.zeros((0, bundle.pcfg.encoder.d))
    return mat, kept, failed


def retrieve(query_psi: np.ndarray, gallery_psi: np.ndarray,
             query_labels, gallery_labels, ks=(1, 3),
             exclude_self: bool = False, self_indices=None) -> RetrievalReport:
    """Cosine-similarity ranking; a top-k hit shares the query's category.

    Rows are assumed L2-normalized. Ties resolve to the smaller gallery
    index (stable sort). With exclude_self, query i's own gallery row
    (self_indices[i], identity by default) is pushed out of the ranking.
    """
    query_psi = np.atleast_2d(query_psi)
    gallery_psi = np.atleast_2d(gallery_psi)
    if query_psi.shape[1] != gallery_psi.shape[1]:
        raise ShapeMismatch("query/gallery widths differ")
    if len(query_labels) != query_psi.shape[0] or len(gallery_labels) != gallery_psi.shape[0]:
        raise ShapeMismatch("label counts do not match embeddings")
    sims = query_psi @ gallery_psi.T
    if exclude_self:
        idx = np.arange(sims.shape[0]) if self_indices is None else np.asarray(self_indices)
        sims[np.arange(sims.shape[0]), idx] = -np.inf
    ranked = np.argsort(-sims, axis=1, kind="stable")
    g_labels = list(gallery_labels)
    q_labels = list(query_labels)
    top_k = {}
    for k in ks:
        hits = 0
        for qi in range(ranked.shape[0]):
            neighbors = [g_labels[gi] for gi in ranked[qi, :k]]
            hits += q_labels[qi] in neighbors
        top_k[int(k)] = hits / max(ranked.shape[0], 1)
    confusion: dict = {}
    for qi in range(ranked.shape[0]):
        pair = (q_labels[qi], g_labels[ranked[qi, 0]])
        confusion[pair] = confusion.get(pair, 0) + 1
    return RetrievalReport(ranked=ranked, top_k=top_k, confusion=confusion,
                           query_labels=q_labels)


def edge_to_sketch(edge_raster: RasterSketch, bundle: ModelBundle,
                   n: int | None = None, seed: int = 0):
    """Synthesize a vector sketch from a binary edge map.

    Identical pipeline to heal with p_mask = 0: the edge map is just
    another raster to latticize. Returns (sketch, lattice).
    """
    return heal(HealRequest(raster=edge_raster, p_mask=0.0, n=n, seed=seed), bundle)


def healing_sweep(rasters, labels, bundle: ModelBundle, p_mask_list,
                  n: int | None = None, seed: int = 0, ks=(1, 3)):
    """Heal every raster at each corruption level and score retrieval
    against the clean gallery.

    A query is the healed sketch re-entered through the model's own front
    end (render to raster, embed); its own clean gallery row is excluded
    from the ranking. Returns (rows, csv_text) with columns
    p_mask,top1,top3,mean_points,failures.
    """
    side = bundle.pcfg.lattice.side
    gallery, kept, _failed = embed_gallery(rasters, bundle, n)
    gallery_labels = [labels[i] for i in kept]
    rows = []
    for pm_i, p_mask in enumerate(p_mask_list):
        q_rows, q_labels, q_self = [], [], []
        points, failures = [], 0
        for pos, i in enumerate(kept):
            req = HealRequest(raster=rasters[i], p_mask=float(p_mask), n=n,
                              seed=[seed, pm_i, i])
            try:
                healed, surviving = heal(req, bundle)
                points.append(surviving.m)
                psi = encode_raster(rasterize(healed, side), bundle, n)
            except EmptyLattice:
                failures += 1
                continue
            q_rows.append(psi.astype(np.float64))
            q_labels.append(labels[i])
            q_self.append(pos)
        if q_rows:
            q_mat = np.vstack(q_rows)
            q_mat = q_mat / np.maximum(np.linalg.norm(q_mat, axis=1, keepdims=True), 1e-12)
            report = retrieve(q_mat, gallery, q_labels, gallery_labels, ks=ks,
                              exclude_self=True, self_indices=q_self)
            top1 = report.top_k.get(1, 0.0)
            top3 = report.top_k.get(3, 0.0)
        else:
            top1 = top3 = 0.0
        rows.append({
            "p_mask": float(p_mask),
            "top1": top1,
            "top3": top3,
            "mean_points": float(np.mean(points)) if points else 0.0,
            "failures": failures,
        })
    buf = io.StringIO()
    buf.write("p_mask,top1,top3,mean_points,failures\n")
    for r in rows:
        buf.write(f"{r['p_mask']:.4f},{r['top1']:.6f},{r['top3']:.6f},"
                  f"{r['mean_points']:.4f},{r['failures']}\n")
    return rows, buf.getvalue()
