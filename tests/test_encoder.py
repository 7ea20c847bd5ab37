"""Graphical encoder: embedding, propagation, layers, pooling, latent bridge."""

from dataclasses import replace

import numpy as np
import pytest

import lattisketch as ls
from lattisketch.encoder import embed_nodes, encode_layer, pool_nodes


def make_graph(pts, cfg=None):
    lat = ls.SketchLattice(points=np.asarray(pts, dtype=np.int64), side=256, n=32)
    return ls.build_adjacency(lat, cfg or ls.GraphConfig())


def random_graph(rng, m=12, graph_cfg=None):
    pts = np.unique(rng.integers(0, 256, size=(m + 4, 2)), axis=0)[:m]
    return make_graph(pts, graph_cfg)


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
# propagation


def test_propagate_identity():
    V = np.random.default_rng(0).standard_normal((4, 3))
    assert np.array_equal(ls.propagate(V, np.eye(4)), V)


def test_propagate_all_ones():
    V = np.arange(4.0).reshape(2, 2)
    out = ls.propagate(V, np.ones((2, 2)))
    want = np.tile(V[0] + V[1], (2, 1))
    assert np.array_equal(out, want)


def test_propagate_matches_naive_oracle():
    rng = np.random.default_rng(3)
    A = rng.random((5, 5))
    V = rng.standard_normal((5, 7))
    naive = np.zeros((5, 7))
    for i in range(5):
        for j in range(5):
            naive[i] += A[i, j] * V[j]
    assert np.allclose(ls.propagate(V, A), naive, atol=1e-12)


def test_propagate_shape_mismatch():
    with pytest.raises(ls.ShapeMismatch):
        ls.propagate(np.zeros((3, 2)), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# layers


def test_layer_zero_weights_residual_passthrough(enc_cfg):
    store = ls.init_encoder_params(enc_cfg, np.random.default_rng(0))
    for name in store.names():
        if ".u" in name:
            store[name] = np.zeros_like(store[name])
    V = np.random.default_rng(1).standard_normal((3, enc_cfg.d)).astype(np.float32)
    A = np.eye(3, dtype=np.float32)
    out, _ = encode_layer(V, A, store, enc_cfg, 0)
    assert np.array_equal(out, V)


def test_layer_relu_kill_residual_passthrough(enc_cfg, enc_store):
    # giant negative bias on the first unit zeroes the branch
    enc_store["enc.layer0.u0.b0"] = np.full(enc_cfg.d, -1e6, dtype=np.float32)
    V = np.abs(np.random.default_rng(1).standard_normal((3, enc_cfg.d))).astype(np.float32)
    out, _ = encode_layer(V, np.eye(3, dtype=np.float32), enc_store, enc_cfg, 0)
    # second unit still contributes relu(b2) which is >= 0; force it negative too
    enc_store["enc.layer0.u1.b0"] = np.full(enc_cfg.d, -1.0, dtype=np.float32)
    out, _ = encode_layer(V, np.eye(3, dtype=np.float32), enc_store, enc_cfg, 0)
    assert np.array_equal(out, V)


def test_layer_eval_ignores_rng(enc_cfg, enc_store):
    cfg = replace(enc_cfg, dropout_rate=0.5)
    V = np.random.default_rng(2).standard_normal((4, cfg.d)).astype(np.float32)
    A = np.eye(4, dtype=np.float32)
    a, _ = encode_layer(V, A, enc_store, cfg, 0, train_mode=False,
                        rng=np.random.default_rng(1))
    b, _ = encode_layer(V, A, enc_store, cfg, 0, train_mode=False,
                        rng=np.random.default_rng(999))
    assert np.array_equal(a, b)


def test_layer_train_dropout_varies_with_rng(enc_cfg, enc_store):
    cfg = replace(enc_cfg, dropout_rate=0.5)
    V = np.random.default_rng(2).standard_normal((6, cfg.d)).astype(np.float32)
    A = np.eye(6, dtype=np.float32)
    a, _ = encode_layer(V, A, enc_store, cfg, 0, train_mode=True,
                        rng=np.random.default_rng(1))
    b, _ = encode_layer(V, A, enc_store, cfg, 0, train_mode=True,
                        rng=np.random.default_rng(2))
    assert not np.array_equal(a, b)


def test_pool_mean_duplication_invariant(enc_cfg):
    V = np.random.default_rng(4).standard_normal((5, enc_cfg.d))
    doubled = np.vstack([V, V])
    assert np.allclose(pool_nodes(doubled, enc_cfg), pool_nodes(V, enc_cfg))
    sum_cfg = replace(enc_cfg, pooling="sum")
    assert np.allclose(pool_nodes(doubled, sum_cfg), 2 * pool_nodes(V, sum_cfg))


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
    return ls.SketchGraph(points=g.points[perm],
                          adjacency=g.adjacency[np.ix_(perm, perm)], side=g.side)


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
    pre = ls.SketchGraph(points=g.points, adjacency=a / a.sum(axis=1, keepdims=True),
                         side=g.side)
    norm_cfg = replace(enc_cfg, row_normalize=True)
    assert np.array_equal(ls.encode(g, enc_store, norm_cfg),
                          ls.encode(pre, enc_store, enc_cfg))
    assert not np.allclose(ls.encode(g, enc_store, enc_cfg),
                           ls.encode(pre, enc_store, enc_cfg))


def test_encode_single_node_graph(enc_cfg, enc_store):
    g = make_graph([[40, 40]])
    assert ls.encode(g, enc_store, enc_cfg).shape == (enc_cfg.d,)


def test_encode_batch_matches_loop_at_eval(enc_cfg, enc_store):
    rng = np.random.default_rng(9)
    graphs = [random_graph(rng, m=6) for _ in range(3)]
    batch, _ = ls.encode_graphs(graphs, enc_store, enc_cfg)
    for i, g in enumerate(graphs):
        assert np.allclose(batch[i], ls.encode(g, enc_store, enc_cfg), atol=1e-7)


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
