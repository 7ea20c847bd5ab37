"""Graphical encoder: embedding, propagation, layers, pooling, latent bridge."""

from dataclasses import replace

import numpy as np
import pytest

import lattisketch as ls
from lattisketch.encoder import embed_nodes, embedding_rows, encode_layer


def make_graph(pts, cfg=None, dtype=np.float64):
    lat = ls.SketchLattice(points=np.asarray(pts, dtype=np.int64), side=256, n=32)
    return ls.build_adjacency(lat, cfg or ls.GraphConfig(), dtype)


def random_graph(rng, m=12, graph_cfg=None, dtype=np.float64):
    pts = np.unique(rng.integers(0, 256, size=(m + 4, 2)), axis=0)[:m]
    return make_graph(pts, graph_cfg, dtype)


def row_major_graph(rng, m, graph_cfg=None):
    """Distinct random points in row-major order, as lattices come: above 128
    points the bands are narrower than the graph."""
    pts = np.unique(rng.integers(0, 256, size=(m + 4, 2)), axis=0)[:m]
    return make_graph(pts[np.lexsort((pts[:, 0], pts[:, 1]))], graph_cfg)


@pytest.fixture
def enc_cfg():
    return ls.EncoderConfig(d=8, K=2)


@pytest.fixture
def enc_store(enc_cfg):
    return ls.init_encoder_params(enc_cfg, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# embedding


def test_embed_zero_tables_zero_features(enc_cfg):
    store = ls.init_encoder_params(enc_cfg, np.random.default_rng(0))
    store["enc.emb.x"] = np.zeros_like(store["enc.emb.x"])
    store["enc.emb.y"] = np.zeros_like(store["enc.emb.y"])
    g = make_graph([[1, 2], [3, 4]])
    assert np.all(embed_nodes(g.points, g.side, store, enc_cfg) == 0.0)


def test_embed_factorized_is_sum_of_tables(enc_cfg, enc_store):
    enc_store["enc.emb.y"] = np.zeros_like(enc_store["enc.emb.y"])
    g = make_graph([[5, 9], [200, 100]])
    V = embed_nodes(g.points, g.side, enc_store, enc_cfg)
    assert np.allclose(V[0], enc_store["enc.emb.x"][5])
    assert np.allclose(V[1], enc_store["enc.emb.x"][200])


def test_embed_identical_tokens_identical_rows(enc_cfg, enc_store):
    points = np.array([[7, 7], [7, 7]])
    V = embed_nodes(points, 256, enc_store, enc_cfg)
    assert np.array_equal(V[0], V[1])


def test_embed_joint_mode_row_lookup():
    cfg = ls.EncoderConfig(d=4, K=1, embed_mode="joint")
    store = ls.init_encoder_params(cfg, np.random.default_rng(1))
    V = embed_nodes(np.array([[3, 7]]), 256, store, cfg)
    assert np.array_equal(V[0], store["enc.emb.joint"][7 * 256 + 3])


def test_embed_token_out_of_vocabulary(enc_cfg, enc_store):
    with pytest.raises(ls.TokenOutOfVocabulary):
        embed_nodes(np.array([[256, 0]]), 256, enc_store, enc_cfg)


def test_embed_tables_sized_by_side():
    for mode, rows in (("factorized", 64), ("joint", 64 * 64)):
        cfg = ls.EncoderConfig(d=4, K=1, embed_mode=mode)
        store = ls.init_encoder_params(cfg, np.random.default_rng(0), side=64)
        assert all(store[n].shape == (rows, 4) for n in store.names() if ".emb." in n)
        with pytest.raises(ls.TokenOutOfVocabulary):
            embed_nodes(np.array([[0, 64]]), 64, store, cfg)


# ---------------------------------------------------------------------------
# layers


def test_layer_zero_weights_residual_passthrough(enc_cfg):
    store = ls.init_encoder_params(enc_cfg, np.random.default_rng(0))
    for name in store.names():
        if ".u" in name:
            store[name] = np.zeros_like(store[name])
    V = np.random.default_rng(1).standard_normal((3, enc_cfg.d)).astype(np.float32)
    A = np.eye(3, dtype=np.float32)
    out, _ = encode_layer(V, [(slice(0, 3), slice(0, 3), A)], store, 0)
    assert np.array_equal(out, V)


def test_layer_relu_kill_residual_passthrough(enc_cfg, enc_store):
    # giant negative bias on the first unit zeroes the branch; the second
    # unit still contributes relu(b) >= 0, so force its bias negative too
    enc_store["enc.layer0.u0.b0"] = np.full(enc_cfg.d, -1e6, dtype=np.float32)
    enc_store["enc.layer0.u1.b0"] = np.full(enc_cfg.d, -1.0, dtype=np.float32)
    V = np.abs(np.random.default_rng(1).standard_normal((5, enc_cfg.d))).astype(np.float32)
    bands = [(slice(0, 2), slice(0, 2), np.eye(2, dtype=np.float32)),
             (slice(2, 5), slice(2, 5), np.ones((3, 3), dtype=np.float32))]
    out, _ = encode_layer(V, bands, enc_store, 0)
    assert np.array_equal(out, V)


def test_layer_propagates_within_each_graph_only(enc_cfg):
    # identity units expose the propagated rows: an all-ones adjacency sums
    # a graph's rows and must not reach into the neighbouring graph
    store = ls.init_encoder_params(enc_cfg, np.random.default_rng(0), dtype=np.float64)
    for name in store.names():
        if ".u" in name:
            store[name] = (np.eye(enc_cfg.d) if name.endswith("W0")
                           else np.zeros(enc_cfg.d))
    V = np.abs(np.random.default_rng(1).standard_normal((5, enc_cfg.d)))
    bands = [(slice(0, 2), slice(0, 2), np.ones((2, 2))),
             (slice(2, 5), slice(2, 5), np.ones((3, 3)))]
    out, _ = encode_layer(V, bands, store, 0)
    want = np.vstack([np.tile(V[:2].sum(axis=0), (2, 1)), np.tile(V[2:].sum(axis=0), (3, 1))])
    assert np.allclose(out - V, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# encode


def test_encode_psi_in_tanh_range(enc_cfg, enc_store):
    g = random_graph(np.random.default_rng(0))
    psi = ls.encode(g, enc_store, enc_cfg)
    assert psi.shape == (enc_cfg.d,)
    assert np.all(np.abs(psi) < 1.0)


def test_encode_eval_deterministic(enc_cfg, enc_store):
    g = random_graph(np.random.default_rng(1))
    a = ls.encode(g, enc_store, enc_cfg)
    b = ls.encode(g, enc_store, enc_cfg)
    assert np.array_equal(a, b)


def permute_graph(g, perm):
    return ls.SketchGraph.from_dense(g.points[perm], g.adjacency[np.ix_(perm, perm)], g.side)


def test_encode_permutation_invariant(enc_cfg, enc_store):
    rng = np.random.default_rng(7)
    g = random_graph(rng, m=10)
    psi = ls.encode(g, enc_store, enc_cfg)
    for _ in range(5):
        perm = rng.permutation(g.m)
        psi_p = ls.encode(permute_graph(g, perm), enc_store, enc_cfg)
        assert np.allclose(psi_p, psi, atol=1e-6)


def test_encode_row_normalize_divides_every_layer_by_row_sums(enc_cfg, enc_store):
    g = random_graph(np.random.default_rng(5), m=10)
    a = g.adjacency.astype(np.float32)
    pre = ls.SketchGraph.from_dense(g.points, a / a.sum(axis=1, keepdims=True), g.side)
    norm_cfg = replace(enc_cfg, row_normalize=True)
    assert np.array_equal(ls.encode(g, enc_store, norm_cfg),
                          ls.encode(pre, enc_store, enc_cfg))
    assert not np.allclose(ls.encode(g, enc_store, enc_cfg),
                           ls.encode(pre, enc_store, enc_cfg))


def test_encode_graphs_uses_store_dtype_adjacency_without_copy(enc_cfg, enc_store):
    rng = np.random.default_rng(6)
    graphs = [random_graph(rng, m=m, dtype=enc_store["enc.fc.W"].dtype) for m in (10, 300)]
    assert [len(g.bands) for g in graphs] == [1, 3]
    _, cache = ls.encode_graphs(graphs, enc_store, enc_cfg)
    stored = [band for g in graphs for band in g.bands]
    assert all(slab.dtype == np.float32 for _, _, slab in stored)
    # every stored slab is propagated as it is, shifted to its graph's rows
    used = cache[3]
    assert [u is s for (_, _, u), (_, _, s) in zip(used, stored)] == [True] * 4
    assert [(r.start, c.start) for r, c, _ in used[1:]] == [
        (10 + rows.start, 10 + cols.start) for rows, cols, _ in graphs[1].bands]


@pytest.mark.parametrize("proximity", ["nearby", "nearest"])
@pytest.mark.parametrize("row_normalize", [False, True])
def test_encode_psi_same_from_float32_and_float64_graphs(enc_cfg, enc_store, proximity,
                                                         row_normalize):
    cfg = replace(enc_cfg, row_normalize=row_normalize)
    g64, g32 = (random_graph(np.random.default_rng(12), m=30,
                             graph_cfg=ls.GraphConfig(proximity), dtype=dtype)
                for dtype in (np.float64, np.float32))
    assert (g64.adjacency.dtype, g32.adjacency.dtype) == (np.float64, np.float32)
    assert np.array_equal(ls.encode(g32, enc_store, cfg), ls.encode(g64, enc_store, cfg))


def test_encode_single_node_graph(enc_cfg, enc_store):
    g = make_graph([[40, 40]])
    assert ls.encode(g, enc_store, enc_cfg).shape == (enc_cfg.d,)


def test_encode_batch_matches_loop_at_eval(enc_cfg, enc_store):
    rng = np.random.default_rng(9)
    graphs = [random_graph(rng, m=6) for _ in range(3)]
    batch, _ = ls.encode_graphs(graphs, enc_store, enc_cfg)
    for i, g in enumerate(graphs):
        assert np.allclose(batch[i], ls.encode(g, enc_store, enc_cfg), atol=1e-7)


def test_layer_eval_ignores_rng(enc_cfg, enc_store):
    cfg = replace(enc_cfg, dropout_rate=0.5)
    rng = np.random.default_rng(2)
    graphs = [random_graph(rng, m=m) for m in (4, 9)]
    a, _ = ls.encode_graphs(graphs, enc_store, cfg, rng=np.random.default_rng(1))
    b, _ = ls.encode_graphs(graphs, enc_store, cfg, rng=np.random.default_rng(999))
    assert np.array_equal(a, b)


def test_layer_train_dropout_varies_with_rng(enc_cfg, enc_store):
    cfg = replace(enc_cfg, dropout_rate=0.5)
    rng = np.random.default_rng(2)
    graphs = [random_graph(rng, m=m) for m in (4, 9)]
    a, _ = ls.encode_graphs(graphs, enc_store, cfg, train_mode=True,
                            rng=np.random.default_rng(1))
    b, _ = ls.encode_graphs(graphs, enc_store, cfg, train_mode=True,
                            rng=np.random.default_rng(2))
    assert not np.array_equal(a, b)
    with pytest.raises(ValueError):
        ls.encode_graphs(graphs, enc_store, cfg, train_mode=True, rng=None)


def test_pool_mean_duplication_invariant(enc_cfg, enc_store):
    # two disconnected copies of a graph repeat every node's features: mean
    # pooling is unchanged, sum pooling doubles (as does doubling enc.fc.W)
    g = random_graph(np.random.default_rng(4), m=5)
    doubled = ls.SketchGraph.from_dense(np.vstack([g.points, g.points]),
                                        np.kron(np.eye(2), g.adjacency), g.side)
    psi, _ = ls.encode_graphs([g, doubled], enc_store, enc_cfg)
    assert np.allclose(psi[0], psi[1], atol=1e-6)
    sum_cfg = replace(enc_cfg, pooling="sum")
    twice = enc_store.copy()
    twice["enc.fc.W"] = 2 * twice["enc.fc.W"]
    assert np.allclose(ls.encode(doubled, enc_store, sum_cfg), ls.encode(g, twice, sum_cfg),
                       atol=1e-6)


def test_encode_graphs_rejects_mixed_canvas_sides(enc_cfg, enc_store):
    g = make_graph([[1, 2], [3, 4]])
    small = ls.SketchGraph(points=g.points, bands=g.bands, side=64)
    with pytest.raises(ls.ShapeMismatch):
        ls.encode_graphs([g, small], enc_store, enc_cfg)


# ---------------------------------------------------------------------------
# the stacked encoder against a per-graph oracle


def oracle_encode_train(graphs, store, cfg, rng, dpsi):
    """Train-mode psi and encoder gradients for dpsi, computed one graph at a
    time: per-graph propagation, per-layer dropout draws in graph order,
    pooling by mean or sum, and np.add.at scatters into the tables."""
    dtype = store["enc.fc.W"].dtype
    keep = 1.0 - cfg.dropout_rate
    pooled = np.zeros((len(graphs), cfg.d), dtype=dtype)
    per_graph = []
    for b, g in enumerate(graphs):
        V = embed_nodes(g.points, g.side, store, cfg)
        A = np.asarray(g.adjacency, dtype=dtype)
        if cfg.row_normalize:
            A = A / np.maximum(A.sum(axis=1, keepdims=True), np.finfo(dtype).tiny)
        layers = []
        for layer in range(cfg.K):
            acts = [A @ V]
            for unit in range(2):
                W, bias = (store[f"enc.layer{layer}.u{unit}.{p}0"] for p in "Wb")
                acts.append(np.maximum(acts[-1] @ W + bias, 0.0))
            dmask = (rng.random(V.shape) >= cfg.dropout_rate).astype(dtype) / keep
            V = V + acts[-1] * dmask
            layers.append((acts, dmask))
        pooled[b] = V.mean(axis=0) if cfg.pooling == "mean" else V.sum(axis=0)
        per_graph.append((g, A, layers))
    Y = pooled @ store["enc.fc.W"] + store["enc.fc.b"]
    ivar = 1.0 / np.sqrt(Y.var(axis=0) + cfg.bn_eps)
    xhat = (Y - Y.mean(axis=0)) * ivar
    psi = np.tanh(store["enc.bn.gamma"] * xhat + store["enc.bn.beta"])

    grads = store.zero_grads()
    d_bn = dpsi * (1.0 - psi * psi)
    grads["enc.bn.gamma"] += (d_bn * xhat).sum(axis=0)
    grads["enc.bn.beta"] += d_bn.sum(axis=0)
    dxhat = d_bn * store["enc.bn.gamma"]
    B = len(graphs)
    dY = (ivar / B) * (B * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    grads["enc.fc.W"] += pooled.T @ dY
    grads["enc.fc.b"] += dY.sum(axis=0)
    d_pooled = dY @ store["enc.fc.W"].T
    for b, (g, A, layers) in enumerate(per_graph):
        dV = np.tile(d_pooled[b] / (g.m if cfg.pooling == "mean" else 1), (g.m, 1))
        for layer in range(cfg.K - 1, -1, -1):
            acts, dmask = layers[layer]
            d_branch = dV * dmask
            for unit in (1, 0):
                W_name, b_name = (f"enc.layer{layer}.u{unit}.{p}0" for p in "Wb")
                d_pre = d_branch * (acts[unit + 1] > 0)
                grads[W_name] += acts[unit].T @ d_pre
                grads[b_name] += d_pre.sum(axis=0)
                d_branch = d_pre @ store[W_name].T
            dV = dV + A.T @ d_branch
        for name, rows in embedding_rows(g.points, g.side, cfg).items():
            np.add.at(grads[name], rows, dV)
    return psi, grads


def assert_matches_oracle(graphs, store, cfg, rng):
    dpsi = rng.standard_normal((len(graphs), cfg.d))
    oracle_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
    want_psi, want = oracle_encode_train(graphs, store, cfg, oracle_rng, dpsi)

    psi, cache = ls.encode_graphs(graphs, store, cfg, train_mode=True, rng=rng)
    grads = store.zero_grads()
    ls.encode_graphs_backward(dpsi, cache, store, cfg, grads)

    # the dropout draws consume the stream exactly as the per-graph loop does
    assert rng.random() == oracle_rng.random()
    assert np.max(np.abs(psi - want_psi)) <= 1e-12
    largest = max(np.abs(g).max() for g in want.values())
    for name, g in want.items():
        # enc.fc.b's gradient is zero in exact arithmetic (batch norm removes
        # the batch mean), so its rounding noise is held to the largest gradient
        scale = largest if name == "enc.fc.b" else np.abs(g).max()
        assert np.max(np.abs(grads[name] - g)) <= 1e-12 * scale, name


@pytest.mark.parametrize("variant", [{}, {"pooling": "sum"}, {"embed_mode": "joint"},
                                     {"row_normalize": True}],
                         ids=["mean", "sum", "joint", "row_normalized"])
def test_stacked_encoder_matches_per_graph_oracle(variant):
    cfg = ls.EncoderConfig(d=8, K=2, dropout_rate=0.1, **variant)
    store = ls.init_encoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
    rng = np.random.default_rng(11)
    graphs = [random_graph(rng, m=m) for m in (1, 7, 40, 150)]
    assert [g.m for g in graphs] == [1, 7, 40, 150]
    assert_matches_oracle(graphs, store, cfg, rng)


@pytest.mark.parametrize("row_normalize", [False, True])
def test_banded_encoder_matches_per_graph_oracle(row_normalize):
    cfg = ls.EncoderConfig(d=8, K=2, dropout_rate=0.1, row_normalize=row_normalize)
    store = ls.init_encoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
    rng = np.random.default_rng(12)
    graphs = [row_major_graph(rng, m) for m in (5, 200, 450)]
    assert [len(g.bands) for g in graphs] == [1, 2, 4]
    # the bands skip columns, so propagation does not see the full rows
    assert any(c.stop - c.start < g.m for g in graphs[1:] for _, c, _ in g.bands)
    assert_matches_oracle(graphs, store, cfg, rng)


# ---------------------------------------------------------------------------
# latent bridge


def test_reparameterize_sigma_one_at_zero_weights(enc_cfg, enc_store):
    enc_store["enc.sigma.W"] = np.zeros_like(enc_store["enc.sigma.W"])
    enc_store["enc.sigma.b"] = np.zeros_like(enc_store["enc.sigma.b"])
    psi = np.random.default_rng(0).standard_normal((2, enc_cfg.d)).astype(np.float32)
    sample = ls.reparameterize(psi, enc_store, noise=np.zeros_like(psi))
    assert np.allclose(sample.sigma, 1.0)


def test_reparameterize_zero_noise_gives_mu(enc_cfg, enc_store):
    psi = np.random.default_rng(1).standard_normal((2, enc_cfg.d)).astype(np.float32)
    sample = ls.reparameterize(psi, enc_store, noise=np.zeros_like(psi))
    assert np.allclose(sample.z, sample.mu)


def test_reparameterize_seed_deterministic(enc_cfg, enc_store):
    psi = np.random.default_rng(2).standard_normal((1, enc_cfg.d)).astype(np.float32)
    a = ls.reparameterize(psi, enc_store, rng=np.random.default_rng(5))
    b = ls.reparameterize(psi, enc_store, rng=np.random.default_rng(5))
    assert np.array_equal(a.z, b.z)
    assert np.all(a.sigma > 0)


# ---------------------------------------------------------------------------
# parameter counting


def test_count_parameters_d1_k1():
    cfg = ls.EncoderConfig(d=1, K=1)
    store = ls.init_encoder_params(cfg, np.random.default_rng(0))
    _, total = ls.count_parameters(store)
    assert total == 524


def test_count_parameters_d64_k2():
    cfg = ls.EncoderConfig(d=64, K=2)
    store = ls.init_encoder_params(cfg, np.random.default_rng(0))
    per_array, total = ls.count_parameters(store)
    assert total == 62016
    # closed-form pieces
    assert per_array["enc.emb.x"] + per_array["enc.emb.y"] == 2 * 256 * 64
    assert per_array["enc.fc.W"] + per_array["enc.fc.b"] == 64 * 64 + 64
    assert per_array["enc.bn.gamma"] + per_array["enc.bn.beta"] == 128


def test_count_parameters_joint_adds_vocab_table():
    d = 8
    fac = ls.init_encoder_params(ls.EncoderConfig(d=d, K=2), np.random.default_rng(0))
    joint = ls.init_encoder_params(ls.EncoderConfig(d=d, K=2, embed_mode="joint"),
                                   np.random.default_rng(0))
    _, fac_total = ls.count_parameters(fac)
    _, joint_total = ls.count_parameters(joint)
    assert joint_total - fac_total == 256 * 256 * d - 2 * 256 * d


def test_count_excludes_running_stats(enc_store):
    per_array, _ = ls.count_parameters(enc_store)
    assert "enc.bn.running_mean" not in per_array
    assert "enc.bn.running_var" not in per_array


# ---------------------------------------------------------------------------
# encoder-only gradient spot check: loss = sum(Psi^2)


def test_encoder_backward_matches_finite_differences():
    cfg = ls.EncoderConfig(d=6, K=2, dropout_rate=0.0)
    store = ls.init_encoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
    rng = np.random.default_rng(1)
    graphs = [random_graph(rng, m=5) for _ in range(3)]

    def loss_of(s):
        psi, _ = ls.encode_graphs(graphs, s, cfg, train_mode=True, rng=None)
        return float(np.sum(psi ** 2))

    psi, cache = ls.encode_graphs(graphs, store, cfg, train_mode=True, rng=None)
    grads = store.zero_grads()
    ls.encode_graphs_backward(2.0 * psi, cache, store, cfg, grads)

    h = 1e-6
    checked = 0
    # enc.mu/enc.sigma are downstream of Psi and get no gradient here
    for name in ("enc.fc.W", "enc.layer1.u0.W0", "enc.bn.gamma", "enc.emb.x"):
        flat = store[name].reshape(-1)
        for k in (0, flat.size // 2, flat.size - 1):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_of(store)
            flat[k] = orig - h
            down = loss_of(store)
            flat[k] = orig
            fd = (up - down) / (2 * h)
            analytic = grads[name].reshape(-1)[k]
            scale = max(abs(fd), abs(analytic), 1e-8)
            assert abs(fd - analytic) / scale < 1e-3, (name, k)
            checked += 1
    assert checked >= 9
