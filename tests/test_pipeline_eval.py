"""Healing, retrieval and the evaluation sweep."""

import time
from dataclasses import replace

import numpy as np
import pytest

import lattisketch as ls
from conftest import random_raster
from lattisketch import pipeline_eval
from lattisketch.graph_builder import MAX_NODES, build_adjacency


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
    report = ls.retrieve(queries, gallery, ["x"] * 3, ["x"] * 7, ks=(1, 3))
    for row in report.ranked:
        assert sorted(row.tolist()) == list(range(7))


def test_retrieve_tie_break_by_gallery_index():
    gallery = np.tile([[1.0, 0.0]], (4, 1))  # identical embeddings
    queries = np.array([[1.0, 0.0]])
    report = ls.retrieve(queries, gallery, ["q"], ["a", "b", "c", "d"], ks=(1,))
    assert report.ranked[0].tolist() == [0, 1, 2, 3]
    again = ls.retrieve(queries, gallery, ["q"], ["a", "b", "c", "d"], ks=(1,))
    assert np.array_equal(report.ranked, again.ranked)


def test_retrieve_exclude_self():
    emb = np.eye(4)
    labels = ["a", "a", "b", "b"]
    report = ls.retrieve(emb, emb, labels, labels, ks=(1,),
                         exclude_self=True, self_indices=list(range(4)))
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


# ---------------------------------------------------------------------------
# embed_gallery / encode_raster


def test_embed_gallery_rows_unit_norm(tiny_model):
    rng = np.random.default_rng(2)
    rasters = [random_raster(rng, density=0.05) for _ in range(4)]
    emb, kept, failed = ls.embed_gallery(rasters, tiny_model)
    assert failed == [] and kept == [0, 1, 2, 3]
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)


def test_embed_gallery_deterministic_rows(tiny_model):
    rng = np.random.default_rng(3)
    raster = random_raster(rng, density=0.05)
    emb, _, _ = ls.embed_gallery([raster, raster], tiny_model)
    assert np.array_equal(emb[0], emb[1])


def test_embed_gallery_excludes_blank(tiny_model):
    rng = np.random.default_rng(4)
    blank = ls.RasterSketch(pixels=np.zeros((256, 256), dtype=np.uint8))
    good = random_raster(rng, density=0.05)
    emb, kept, failed = ls.embed_gallery([blank, good], tiny_model)
    assert failed == [0]
    assert kept == [1]
    assert emb.shape[0] == 1


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
# heal / edge_to_sketch


def test_heal_blank_raster_raises(tiny_model):
    blank = ls.RasterSketch(pixels=np.zeros((256, 256), dtype=np.uint8))
    with pytest.raises(ls.EmptyLattice):
        ls.heal(ls.HealRequest(raster=blank, p_mask=0.0), tiny_model)


def test_heal_pmask_one_raises(tiny_model, square_sketch):
    raster = ls.rasterize(square_sketch, 256)
    with pytest.raises(ls.EmptyLattice):
        ls.heal(ls.HealRequest(raster=raster, p_mask=1.0), tiny_model)


def test_heal_deterministic(tiny_model, square_sketch):
    raster = ls.rasterize(square_sketch, 256)
    req = ls.HealRequest(raster=raster, p_mask=0.3, seed=5)
    a, lat_a = ls.heal(req, tiny_model)
    b, lat_b = ls.heal(req, tiny_model)
    assert np.array_equal(a.steps, b.steps)
    assert np.array_equal(lat_a.points, lat_b.points)


def test_heal_pmask_zero_equals_edge_to_sketch(tiny_model, square_sketch):
    raster = ls.rasterize(square_sketch, 256)
    healed, lat = ls.heal(ls.HealRequest(raster=raster, p_mask=0.0, seed=9),
                          tiny_model)
    direct, lat2 = ls.edge_to_sketch(raster, tiny_model, seed=9)
    assert np.array_equal(healed.steps, direct.steps)
    assert np.array_equal(lat.points, lat2.points)
    assert lat.m == ls.sample_lattice(raster, tiny_model.pcfg.lattice).m


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


def test_edge_to_sketch_lattice_on_outline(tiny_model):
    # hollow square outline: every lattice point must sit on the outline
    pixels = np.zeros((256, 256), dtype=np.uint8)
    pixels[60, 60:200] = 1
    pixels[200, 60:200] = 1
    pixels[60:201, 60] = 1
    pixels[60:201, 200] = 1
    raster = ls.RasterSketch(pixels=pixels)
    _, lat = ls.edge_to_sketch(raster, tiny_model, seed=0)
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


def synth_rasters(n_per_class, seed=0):
    import json
    rng = np.random.default_rng(seed)
    rasters, labels = [], []
    for cat in ("ring", "ladder"):
        for _ in range(n_per_class):
            rec = ls.make_sketch_record(cat, rng)
            sk = ls.parse_quickdraw_line(json.dumps(rec))
            rasters.append(ls.rasterize(sk, 256))
            labels.append(cat)
    return rasters, labels


def test_sweep_csv_and_monotone_points(tiny_model):
    rasters, labels = synth_rasters(6)
    rows, csv_text = ls.healing_sweep(rasters, labels, tiny_model,
                                      [0.0, 0.3, 0.6], seed=1)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "p_mask,top1,top3,mean_points,failures"
    assert len(lines) == 4
    pts = [r["mean_points"] for r in rows]
    assert pts[0] >= pts[1] >= pts[2]
    for r in rows:
        assert 0.0 <= r["top1"] <= 1.0
        assert r["top1"] <= r["top3"]


def test_sweep_surviving_fraction_binomial(tiny_model):
    rasters, labels = synth_rasters(8)
    full = [ls.sample_lattice(ls.canonicalize_raster(r), tiny_model.pcfg.lattice).m
            for r in rasters]
    mean_m = np.mean(full)
    rows, _ = ls.healing_sweep(rasters, labels, tiny_model, [0.3], seed=2)
    kept = rows[0]["mean_points"]
    sigma = np.sqrt(mean_m * 0.3 * 0.7 / len(rasters))
    assert abs(kept - 0.7 * mean_m) < 3 * sigma + 1.0
