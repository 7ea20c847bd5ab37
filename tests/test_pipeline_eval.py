"""Healing, retrieval and the evaluation sweep."""

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import lattisketch as ls
from conftest import random_raster, zigzag_scribble
from lattisketch import pipeline_eval
from lattisketch.encoder import embed_nodes
from lattisketch.graph_builder import MAX_NODES, build_adjacency
from lattisketch.lattice import sketch_lattices


# ---------------------------------------------------------------------------
# retrieve


def test_retrieve_self_retrieval_perfect():
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((10, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = [f"c{i % 2}" for i in range(10)]
    report = ls.retrieve(emb, emb, labels, labels, ks=(1,))
    assert report.top_k[1] == 1.0


def test_retrieve_orthogonal_onehots():
    emb = np.eye(6)
    labels = ["a", "a", "b", "b", "c", "c"]
    queries = np.eye(6)[[1, 0, 3, 2, 5, 4]]  # partner of each gallery item
    q_labels = ["a", "a", "b", "b", "c", "c"]
    report = ls.retrieve(queries, emb, q_labels, labels, ks=(1,))
    assert report.top_k[1] == 1.0


def test_retrieve_chance_level_random():
    accs = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        gallery = rng.standard_normal((100, 16))
        gallery /= np.linalg.norm(gallery, axis=1, keepdims=True)
        labels = [f"c{i % 10}" for i in range(100)]
        queries = rng.standard_normal((100, 16))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        report = ls.retrieve(queries, gallery, labels, labels, ks=(1,))
        accs.append(report.top_k[1])
    assert abs(np.mean(accs) - 0.1) < 0.06


def test_retrieve_rank_rows_are_permutations():
    rng = np.random.default_rng(1)
    gallery = rng.standard_normal((7, 4))
    queries = rng.standard_normal((3, 4))
    report = ls.retrieve(queries, gallery, ["x"] * 3, ["x"] * 7, ks=(1, 9))
    for row in report.ranked:  # max(ks) >= G keeps every gallery index
        assert sorted(row.tolist()) == list(range(7))
    report = ls.retrieve(queries, gallery, ["x"] * 3, ["x"] * 7, ks=(1, 3))
    assert report.ranked.shape == (3, 3)


def test_retrieve_tie_break_by_gallery_index():
    gallery = np.tile([[1.0, 0.0]], (4, 1))  # identical embeddings
    queries = np.array([[1.0, 0.0]])
    report = ls.retrieve(queries, gallery, ["q"], ["a", "b", "c", "d"], ks=(1, 4))
    assert report.ranked[0].tolist() == [0, 1, 2, 3]
    again = ls.retrieve(queries, gallery, ["q"], ["a", "b", "c", "d"], ks=(1, 4))
    assert np.array_equal(report.ranked, again.ranked)


def test_retrieve_exclude_self():
    emb = np.eye(4)
    labels = ["a", "a", "b", "b"]
    report = ls.retrieve(emb, emb, labels, labels, ks=(1,), self_indices=list(range(4)))
    for i, row in enumerate(report.ranked):
        assert row[0] != i


def test_retrieve_shape_mismatch():
    with pytest.raises(ls.ShapeMismatch):
        ls.retrieve(np.zeros((2, 3)), np.zeros((2, 4)), ["x"] * 2, ["x"] * 2)


def test_retrieve_confusion_counts():
    emb = np.eye(4)
    queries = np.eye(4)[[2, 3, 0, 1]]  # each query hits the other class
    report = ls.retrieve(queries, emb, ["a", "a", "b", "b"],
                         ["a", "a", "b", "b"], ks=(1,))
    assert report.confusion[("a", "b")] == 2
    assert report.confusion[("b", "a")] == 2
    assert report.top_k[1] == 0.0


def dense_retrieve(queries, gallery, q_labels, g_labels, ks, self_indices):
    """Oracle: one dense similarity matrix, self rows at -inf, a full stable argsort."""
    sims = queries @ gallery.T
    sims[np.arange(len(queries)), self_indices] = -np.inf
    ranked = np.argsort(-sims, axis=1, kind="stable")
    top_k = {k: sum(q in [g_labels[g] for g in row[:k]] for q, row in zip(q_labels, ranked))
             / len(q_labels) for k in ks}
    return ranked, top_k


@pytest.mark.parametrize("n_q,n_g,chunk", [(50, 40, 280), (31, 9, 20), (12, 5, 1)])
def test_retrieve_chunks_equal_the_dense_argsort(monkeypatch, n_q, n_g, chunk):
    # rows drawn from a few integer directions: many exact ties
    rng = np.random.default_rng(n_q)
    gallery = rng.integers(-1, 2, (n_g, 3)).astype(np.float64)
    queries = rng.integers(-1, 2, (n_q, 3)).astype(np.float64)
    labels = [f"c{i % 3}" for i in range(n_g)]
    q_labels = [f"c{i % 3}" for i in range(n_q)]
    own = rng.integers(0, n_g, n_q)
    ks = (1, 3, 7)
    monkeypatch.setattr(pipeline_eval, "SIMILARITIES_PER_CHUNK", chunk)
    assert n_q > 2 * max(4, chunk // n_g)  # at least three chunks
    report = ls.retrieve(queries, gallery, q_labels, labels, ks=ks, self_indices=own)
    ranked, top_k = dense_retrieve(queries, gallery, q_labels, labels, ks, own)
    assert report.ranked.dtype == np.int64
    assert np.array_equal(report.ranked, ranked[:, :min(max(ks), n_g)])
    assert report.top_k == top_k


# the dense ranking at Q = G = 5,000 holds three 200 MB (Q, G) arrays at once
RETRIEVE_PEAK_BYTES = 40_000_000


def test_retrieve_memory_stays_bounded_at_5000_squared():
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((5000, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    labels = [f"c{i % 10}" for i in range(5000)]
    tracemalloc.start()
    try:
        report = ls.retrieve(emb, emb, labels, labels, self_indices=np.arange(5000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ranked.shape == (5000, 3)
    assert peak < RETRIEVE_PEAK_BYTES


# ---------------------------------------------------------------------------
# embed_gallery / encode_raster


def lattice_of(raster, bundle):
    return ls.sample_lattice(raster, bundle.pcfg.lattice)


def test_embed_gallery_rows_unit_norm(tiny_model):
    rng = np.random.default_rng(2)
    lattices = [lattice_of(random_raster(rng, density=0.05), tiny_model) for _ in range(4)]
    emb, kept, failed = ls.embed_gallery(lattices, tiny_model)
    assert failed == [] and kept == [0, 1, 2, 3]
    assert emb.dtype == np.float64
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)


def test_embed_gallery_deterministic_rows(tiny_model):
    rng = np.random.default_rng(3)
    lat = lattice_of(random_raster(rng, density=0.05), tiny_model)
    emb, _, _ = ls.embed_gallery([lat, lat], tiny_model)
    assert np.array_equal(emb[0], emb[1])


def test_embed_gallery_excludes_blank(tiny_model):
    rng = np.random.default_rng(4)
    blank = ls.SketchLattice(np.zeros((0, 2)))
    good = lattice_of(random_raster(rng, density=0.05), tiny_model)
    emb, kept, failed = ls.embed_gallery([blank, good], tiny_model)
    assert failed == [0]
    assert kept == [1]
    assert emb.shape[0] == 1
    emb, kept, failed = ls.embed_gallery([blank], tiny_model)
    assert emb.shape == (0, tiny_model.pcfg.encoder.d) and (kept, failed) == ([], [0])


def test_embed_gallery_records_over_budget_lattices(tiny_model):
    full_ink = lattice_of(ls.RasterSketch(pixels=np.ones((256, 256), dtype=np.uint8)),
                          tiny_model)
    good = lattice_of(random_raster(np.random.default_rng(4), density=0.05), tiny_model)
    emb, kept, failed = ls.embed_gallery([full_ink, good, full_ink], tiny_model)
    assert failed == [0, 2]
    assert kept == [1]
    assert np.array_equal(emb, ls.embed_gallery([good], tiny_model)[0])


def test_embed_gallery_propagates_other_out_of_range(tiny_model, monkeypatch):
    def off_canvas(*args, **kwargs):
        raise ls.OutOfRange("lattice point outside canvas")

    monkeypatch.setattr(pipeline_eval, "build_adjacency", off_canvas)
    good = lattice_of(random_raster(np.random.default_rng(4), density=0.05), tiny_model)
    with pytest.raises(ls.OutOfRange, match="outside canvas"):
        ls.embed_gallery([good], tiny_model)


def test_encode_raster_blank_raises(tiny_model):
    blank = ls.RasterSketch(pixels=np.zeros((256, 256), dtype=np.uint8))
    with pytest.raises(ls.EmptyLattice):
        ls.encode_raster(blank, tiny_model)


def test_full_ink_exceeds_node_budget_quickly(tiny_model):
    full_ink = ls.RasterSketch(pixels=np.ones((256, 256), dtype=np.uint8))
    assert ls.sample_lattice(full_ink, tiny_model.pcfg.lattice).m == 15360 > MAX_NODES
    start = time.perf_counter()
    with pytest.raises(ls.OutOfRange, match="budget"):
        ls.encode_raster(full_ink, tiny_model)
    with pytest.raises(ls.OutOfRange, match="budget"):
        ls.heal(ls.HealRequest(raster=full_ink, p_mask=0.0), tiny_model)
    assert time.perf_counter() - start < 1.0


def test_half_ink_encode_peak_memory(tiny_model):
    # upper bands of m = 7,669 points hold about 60 MB of float32; the bands
    # that also kept the columns left of each block took 126 MB here
    pixels = (np.random.default_rng(0).random((256, 256)) < 0.5).astype(np.uint8)
    lat = ls.sample_lattice(ls.RasterSketch(pixels), tiny_model.pcfg.lattice)
    assert lat.m == 7669 and tiny_model.store["enc.fc.W"].dtype == np.float32
    pipeline_eval.encode_lattice(ls.SketchLattice(lat.points[:2], lat.side, lat.n),
                                 tiny_model, "")  # fill the offset table caches
    tracemalloc.start()
    try:
        pipeline_eval.encode_lattice(lat, tiny_model, "")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 90e6, peak


def dense_band_psi(lat, bundle):
    """Oracle: eval-mode psi of a one-band graph, computed as the encoder did when
    every band held its whole width: the graph's one slab (divided by its row
    sums if configured) in one product per layer, then the affine+ReLU units,
    mean pooling, FC, running-statistics batch norm and tanh."""
    store, cfg = bundle.store, bundle.pcfg.encoder
    dtype = store["enc.fc.W"].dtype
    (rows, cols, slab), = build_adjacency(lat, bundle.pcfg.graph, dtype).bands
    if cfg.row_normalize:
        slab = slab / np.maximum(slab.sum(axis=1, keepdims=True), np.finfo(dtype).tiny)
    V = embed_nodes(lat.points, lat.side, store, cfg)
    for layer in range(cfg.K):
        X = np.empty_like(V)
        np.matmul(slab, V[cols], out=X[rows])
        for unit in range(2):
            W, b = (store[f"enc.layer{layer}.u{unit}.{p}0"] for p in "Wb")
            X = np.maximum(X @ W + b, 0.0)
        V = V + X
    pooled = np.stack([V.sum(axis=0)])
    pooled /= np.array([[lat.m]]).astype(dtype)
    Y = pooled @ store["enc.fc.W"] + store["enc.fc.b"]
    ivar = 1.0 / np.sqrt(store["enc.bn.running_var"].astype(dtype) + cfg.bn_eps)
    xhat = (Y - store["enc.bn.running_mean"]) * ivar
    return np.tanh(store["enc.bn.gamma"] * xhat + store["enc.bn.beta"])[0]


@pytest.mark.parametrize("proximity", ["nearby", "nearest"])
@pytest.mark.parametrize("row_normalize", [False, True])
def test_one_band_psi_and_heal_bits_unchanged(tiny_model, square_sketch, proximity,
                                              row_normalize):
    pcfg = tiny_model.pcfg
    bundle = replace(tiny_model, pcfg=replace(
        pcfg, graph=replace(pcfg.graph, proximity=proximity),
        encoder=replace(pcfg.encoder, row_normalize=row_normalize)))
    rng = np.random.default_rng(4)
    lattices = [lattice_of(random_raster(rng, density=0.005), bundle) for _ in range(3)]
    lattices.append(lattice_of(ls.rasterize(square_sketch, 256), bundle))
    assert [1 < lat.m <= 128 for lat in lattices] == [True] * 4
    for lat in lattices:
        assert np.array_equal(pipeline_eval.encode_lattice(lat, bundle, ""),
                              dense_band_psi(lat, bundle))
    # heal draws its mask, latent noise and rollout from one stream
    sketch, masked = pipeline_eval.heal_lattice(lattices[0], 0.2, 9, bundle)
    rng = np.random.default_rng(9)
    assert np.array_equal(masked.points, ls.mask_lattice(lattices[0], 0.2, rng).points)
    z = ls.reparameterize(dense_band_psi(masked, bundle), bundle.store, rng=rng).z
    assert np.array_equal(sketch.steps, ls.generate(z, bundle.store, pcfg.decoder, rng).steps)


def test_graphs_built_in_store_dtype(tiny_model, square_sketch, monkeypatch):
    built = []

    def spy(*args, **kwargs):
        graph = build_adjacency(*args, **kwargs)
        built.append(graph.adjacency.dtype)
        return graph

    monkeypatch.setattr(pipeline_eval, "build_adjacency", spy)
    raster = ls.rasterize(square_sketch, 256)
    ls.encode_raster(raster, tiny_model)
    ls.heal(ls.HealRequest(raster=raster, p_mask=0.0), tiny_model)
    assert built == [tiny_model.store["enc.fc.W"].dtype] * 2 == [np.float32] * 2


# ---------------------------------------------------------------------------
# heal (at p_mask 0, image-to-sketch)


def test_heal_blank_raster_raises(tiny_model):
    blank = ls.RasterSketch(pixels=np.zeros((256, 256), dtype=np.uint8))
    with pytest.raises(ls.EmptyLattice, match="^the input has no ink on the lattice lines$"):
        ls.heal(ls.HealRequest(raster=blank, p_mask=0.0), tiny_model)


def test_heal_pmask_one_raises(tiny_model, square_sketch):
    raster = ls.rasterize(square_sketch, 256)
    with pytest.raises(ls.EmptyLattice, match="survive p_mask=1.0"):
        ls.heal(ls.HealRequest(raster=raster, p_mask=1.0), tiny_model)


def test_heal_deterministic(tiny_model, square_sketch):
    raster = ls.rasterize(square_sketch, 256)
    req = ls.HealRequest(raster=raster, p_mask=0.3, seed=5)
    a, lat_a = ls.heal(req, tiny_model)
    b, lat_b = ls.heal(req, tiny_model)
    assert np.array_equal(a.steps, b.steps)
    assert np.array_equal(lat_a.points, lat_b.points)


def test_heal_pmask_zero_keeps_every_lattice_point(tiny_model, square_sketch):
    raster = ls.rasterize(square_sketch, 256)
    _, lat = ls.heal(ls.HealRequest(raster=raster, p_mask=0.0, seed=9), tiny_model)
    assert np.array_equal(lat.points, ls.sample_lattice(raster, tiny_model.pcfg.lattice).points)


def test_heal_outputs_valid_sketches(tiny_model, square_sketch):
    raster = ls.rasterize(square_sketch, 256)
    ok = 0
    for seed in range(20):
        sk, _ = ls.heal(ls.HealRequest(raster=raster, p_mask=0.3, seed=seed),
                        tiny_model)
        sk.validate()
        if not sk.is_empty():
            ok += 1
    assert ok >= 19  # >= 95 percent nonempty valid outputs


def test_heal_with_saturated_correlations(tiny_model, square_sketch):
    # float32 tanh rounds to exactly +-1 here; sampling and training both
    # floor 1 - rho^2 instead of failing
    store = tiny_model.store.copy()
    M = tiny_model.pcfg.decoder.M
    store["dec.head.b"][5 * M : 6 * M] = 25.0
    bundle = replace(tiny_model, store=store)
    raster = ls.rasterize(square_sketch, 256)
    for seed in range(5):
        sk, _ = ls.heal(ls.HealRequest(raster=raster, p_mask=0.1, seed=seed), bundle)
        sk.validate()
        targets = ls.to_stroke5(sk, sk.n_steps)[None].astype(np.float32)
        z = np.zeros((1, tiny_model.pcfg.decoder.z_dim))
        loss, cache = ls.teacher_forced_nll(targets, z, store, tiny_model.pcfg.decoder)
        assert np.isfinite(loss)
    assert np.any(np.abs(cache["rho"]) == 1.0)


def test_heal_pmask_zero_lattice_on_outline(tiny_model):
    # hollow square outline: every lattice point must sit on the outline
    pixels = np.zeros((256, 256), dtype=np.uint8)
    pixels[60, 60:200] = 1
    pixels[200, 60:200] = 1
    pixels[60:201, 60] = 1
    pixels[60:201, 200] = 1
    raster = ls.RasterSketch(pixels=pixels)
    _, lat = ls.heal(ls.HealRequest(raster=raster, p_mask=0.0), tiny_model)
    assert lat.m > 0
    for x, y in lat.points:
        assert pixels[y, x] == 1


def test_heal_override_grid(tiny_model, square_sketch):
    raster = ls.rasterize(square_sketch, 256)
    _, lat8 = ls.heal(ls.HealRequest(raster=raster, p_mask=0.0, n=8), tiny_model)
    _, lat32 = ls.heal(ls.HealRequest(raster=raster, p_mask=0.0, n=32), tiny_model)
    assert lat8.n == 8 and lat32.n == 32
    assert lat8.m < lat32.m


# ---------------------------------------------------------------------------
# healing_sweep


def synth_sketches(n_per_class, seed=0):
    import json
    rng = np.random.default_rng(seed)
    sketches, labels = [], []
    for cat in ("ring", "ladder"):
        for _ in range(n_per_class):
            rec = ls.make_sketch_record(cat, rng)
            sketches.append(ls.parse_quickdraw_line(json.dumps(rec)))
            labels.append(cat)
    return sketches, labels


def test_sweep_csv_and_monotone_points(tiny_model):
    sketches, labels = synth_sketches(6)
    rows, csv_text = ls.healing_sweep(sketches, labels, tiny_model,
                                      [0.0, 0.3, 0.6], seed=1)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "p_mask,top1,top3,mean_points,failures"
    assert len(lines) == 4
    pts = [r["mean_points"] for r in rows]
    assert pts[0] >= pts[1] >= pts[2]
    for r in rows:
        assert 0.0 <= r["top1"] <= 1.0
        assert r["top1"] <= r["top3"]


def test_sweep_records_over_budget_sketches_and_queries(tiny_model, monkeypatch):
    sketches, labels = synth_sketches(1)
    sketches, labels = [zigzag_scribble()] * 2 + sketches, ["ink", "ink"] + labels
    rows, _ = ls.healing_sweep(sketches, labels, tiny_model, [0.1], seed=3)
    assert rows[0]["failures"] == 0  # the scribbles never enter the gallery
    # every healed sketch now re-embeds over the node budget
    scribble = zigzag_scribble()
    monkeypatch.setattr(pipeline_eval, "generate", lambda *args: scribble)
    rows, _ = ls.healing_sweep(sketches, labels, tiny_model, [0.1], seed=3)
    assert rows[0]["failures"] == 2
    assert rows[0]["top1"] == rows[0]["top3"] == 0.0


def test_sweep_surviving_fraction_binomial(tiny_model):
    sketches, labels = synth_sketches(8)
    full = [lat.m for lat in sketch_lattices(sketches, tiny_model.pcfg.lattice)]
    mean_m = np.mean(full)
    rows, _ = ls.healing_sweep(sketches, labels, tiny_model, [0.3], seed=2)
    kept = rows[0]["mean_points"]
    sigma = np.sqrt(mean_m * 0.3 * 0.7 / len(sketches))
    assert abs(kept - 0.7 * mean_m) < 3 * sigma + 1.0


def raster_sweep(sketches, labels, bundle, p_mask_list, n=None, seed=0):
    """Oracle: the sweep as it ran on rasters. Every sketch and every healed
    sketch is drawn to a raster and embedded on its own through
    encode_raster, and the queries are ranked by one dense argsort."""
    side = bundle.pcfg.lattice.side

    def embed(raster):
        try:
            return ls.encode_raster(raster, bundle, n)
        except (ls.EmptyLattice, ls.NodeBudgetExceeded):
            return None

    def unit_rows(rows):
        mat = np.asarray(rows, dtype=np.float64)
        return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)

    rasters = [ls.rasterize(sk, side) for sk in sketches]
    psis = [embed(r) for r in rasters]
    kept = [i for i, psi in enumerate(psis) if psi is not None]
    gallery = unit_rows([psis[i] for i in kept])
    rows = []
    for pm_i, p_mask in enumerate(p_mask_list):
        q_rows, q_labels, q_self, points = [], [], [], []
        for pos, i in enumerate(kept):
            req = ls.HealRequest(raster=rasters[i], p_mask=p_mask, n=n, seed=[seed, pm_i, i])
            try:
                healed, surviving = ls.heal(req, bundle)
            except ls.EmptyLattice:
                continue
            points.append(surviving.m)
            psi = embed(ls.rasterize(healed, side))
            if psi is not None:
                q_rows.append(psi)
                q_labels.append(labels[i])
                q_self.append(pos)
        top1 = top3 = 0.0
        if q_rows:
            g_labels = [labels[i] for i in kept]
            ranked, top_k = dense_retrieve(unit_rows(q_rows), gallery, q_labels, g_labels,
                                           (1, 3), q_self)
            top1, top3 = top_k[1], top_k[3]
        rows.append({"p_mask": p_mask, "top1": top1, "top3": top3,
                     "mean_points": float(np.mean(points)) if points else 0.0,
                     "failures": len(kept) - len(q_rows)})
    return rows


@pytest.mark.parametrize("n", [None, 12])
def test_sweep_equals_the_raster_sweep(tiny_model, n):
    sketches, labels = synth_sketches(4, seed=8)
    sketches, labels = sketches + [zigzag_scribble()], labels + ["ink"]
    rows, _ = ls.healing_sweep(sketches, labels, tiny_model, [0.1, 0.99], n=n, seed=4)
    assert rows[1]["failures"] > 0  # some heals find no surviving point
    assert rows == raster_sweep(sketches, labels, tiny_model, [0.1, 0.99], n=n, seed=4)


def sweep_peak_bytes(bundle, count):
    sketches, labels = synth_sketches(count // 2, seed=13)
    tracemalloc.start()
    try:
        ls.healing_sweep(sketches, labels, bundle, [0.3], n=8, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# what the sweep keeps per sketch (lattices, embedding rows, labels): about
# 0.7 KB at n = 8, so 4 KB leaves room; a dense ranking adds 24 KB per query
# at 1,000 sketches
SWEEP_BYTES_PER_SKETCH = 4_000


def test_sweep_scratch_memory_does_not_grow_with_the_dataset(tiny_model, monkeypatch):
    # one fixed healed ring and a small ranking chunk: from about 50 sketches
    # on, the drawing core's runs and the ranking chunk are full, so the peak
    # grows only by what the sweep keeps per sketch
    ring = synth_sketches(1)[0][0]
    monkeypatch.setattr(pipeline_eval, "generate", lambda *args: ring)
    monkeypatch.setattr(pipeline_eval, "SIMILARITIES_PER_CHUNK", 4096)
    small, large = sweep_peak_bytes(tiny_model, 300), sweep_peak_bytes(tiny_model, 900)
    assert large - small < (900 - 300) * SWEEP_BYTES_PER_SKETCH
