"""Graphical sketch encoder and latent bridge.

A batch is one disjoint union of graphs: all nodes stacked into one (N, d)
array, each graph owning a contiguous slice of rows. Forward path: cell
embedding -> K rounds of (propagate each graph's rows along its weighted
adjacency, two affine+ReLU units, dropout, residual add) -> pool each
graph's rows -> FC -> batch norm -> Tanh giving the sketch embedding psi,
and the reparameterized latent z = mu + sigma * eps on top.

Propagation runs over the graphs' upper row bands (see graph_builder) in
the batch's rows: X[rows] = slab @ V[cols], X[rows.stop:cols.stop] +=
slab[:, k:].T @ V[rows] (k = len(rows)); A is symmetric, so backward is
dV = A dX, or A (D^-1 dX) when row_normalize divides rows by their degrees
D. A graph of one band (at most 128 points) propagates as a dense product.

Everything is plain numpy with hand-written backward passes; caches
returned by the forward functions carry exactly the values the backward
formulas need. Arrays keep whatever dtype the parameter store uses, so
training can run float32 while gradient audits run float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import EmptyLattice, OutOfRange, ShapeMismatch, TokenOutOfVocabulary
from .graph_builder import SketchGraph
from .lattice import LatticeConfig
from .params import ParameterStore, draw_params

POOLING_MODES = ("mean", "sum")


@dataclass
class EncoderConfig:
    d: int = 128
    K: int = 2
    dropout_rate: float = 0.1
    pooling: str = "mean"
    embed_mode: str = "factorized"  # one table row per cell, or an x row plus a y row
    row_normalize: bool = False  # divide adjacency rows by their sums
    bn_momentum: float = 0.9
    bn_eps: float = 1e-5
    mlp_depth: ClassVar[int] = 1  # affine+ReLU maps per MLP unit (fixed)

    def __post_init__(self):
        if self.d < 1 or self.K < 1:
            raise OutOfRange("d and K must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise OutOfRange(f"dropout_rate={self.dropout_rate} outside [0, 1)")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise OutOfRange(f"bn_momentum={self.bn_momentum} outside [0, 1]")
        if self.pooling not in POOLING_MODES:
            raise OutOfRange(f"unknown pooling {self.pooling!r}")
        if self.embed_mode not in ("joint", "factorized"):
            raise OutOfRange(f"unknown embed mode {self.embed_mode!r}")


@dataclass
class LatentSample:
    psi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    z: np.ndarray
    eps: np.ndarray


def _unit_names(layer: int) -> list:
    """(weight, bias) names of the layer's two MLP units in application order."""
    return [(f"enc.layer{layer}.u{unit}.W0", f"enc.layer{layer}.u{unit}.b0")
            for unit in range(2)]


def encoder_layout(cfg: EncoderConfig, side: int):
    """Yield the encoder's rows (name, shape, trainable, draw) for a side x side canvas."""
    d = cfg.d
    if cfg.embed_mode == "joint":
        yield "enc.emb.joint", (side * side, d), True, "normal"
    else:
        yield from ((f"enc.emb.{axis}", (side, d), True, "normal") for axis in "xy")
    for layer in range(cfg.K):
        for w_name, b_name in _unit_names(layer):
            yield from [(w_name, (d, d), True, "glorot"), (b_name, (d,), True, "zeros")]
    yield from [
        ("enc.fc.W", (d, d), True, "glorot"), ("enc.fc.b", (d,), True, "zeros"),
        ("enc.bn.gamma", (d,), True, "ones"), ("enc.bn.beta", (d,), True, "zeros"),
        ("enc.bn.running_mean", (d,), False, "zeros"), ("enc.bn.running_var", (d,), False, "ones"),
        ("enc.mu.W", (d, d), True, "glorot"), ("enc.mu.b", (d,), True, "zeros"),
        ("enc.sigma.W", (d, d), True, "glorot"), ("enc.sigma.b", (d,), True, "zeros")]


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator,
                        dtype=np.float32, side: int = LatticeConfig.side) -> ParameterStore:
    """Fresh encoder parameters for a side x side canvas, in a new store; the layout's
    fixed draw order lets a seed pin every array."""
    return draw_params(encoder_layout(cfg, side), rng, dtype, ParameterStore())


def embedding_rows(points: np.ndarray, side: int, cfg: EncoderConfig) -> dict:
    """{table name: row per node} for points (x, y) on a side x side canvas:
    the joint row y * side + x, or the x row and the y row (factorized)."""
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ShapeMismatch(f"points must be (m, 2), got {points.shape}")
    if cfg.embed_mode == "joint":
        return {"enc.emb.joint": points[:, 1] * side + points[:, 0]}
    return {"enc.emb.x": points[:, 0], "enc.emb.y": points[:, 1]}


def embed_nodes(points: np.ndarray, side: int, store: ParameterStore,
                cfg: EncoderConfig) -> np.ndarray:
    """Node features V (m x d): the sum of each node's embedding rows."""
    V = None
    for name, rows in embedding_rows(points, side, cfg).items():
        table = store[name]
        if rows.size and (rows.min() < 0 or rows.max() >= table.shape[0]):
            raise TokenOutOfVocabulary(f"point outside the {name} table")
        V = table[rows] if V is None else V + table[rows]
    return V


def _onehot(rows: np.ndarray, n_rows: int, dtype):
    """(n_rows x len(rows)) one-hot csc_matrix with column j set at row rows[j];
    a product with it sums the rows that share a label, in row order."""
    from scipy import sparse  # imported here, so only training loads scipy

    n = len(rows)
    return sparse.csc_matrix((np.ones(n, dtype=dtype), rows, np.arange(n + 1)), shape=(n_rows, n))


def embed_nodes_backward(points: np.ndarray, side: int, dV: np.ndarray,
                         cfg: EncoderConfig, grads: dict) -> None:
    for name, rows in embedding_rows(points, side, cfg).items():
        grads[name] += _onehot(rows, len(grads[name]), dV.dtype) @ dV


def _propagate(bands: list, V: np.ndarray) -> np.ndarray:
    """A @ V for A as upper bands (rows, cols, slab, mirror = slab[:, k:]) in V's rows."""
    X = np.empty_like(V)
    for rows, cols, slab, mirror in reversed(bands):  # later rows are set before a mirror adds
        np.matmul(slab, V[cols], out=X[rows])
        if cols.stop > rows.stop:
            X[rows.stop:cols.stop] += mirror.T @ V[rows]
    return X


def encode_layer(V: np.ndarray, bands: list, store: ParameterStore,
                 layer: int, dropout: tuple | None = None):
    """V' = V + Dropout(ReLU-chained MLP units applied to A @ V); returns (V', cache).

    V stacks a batch's nodes; A is given as upper bands (rows, cols, slab,
    mirror) in V's rows and dtype (row-normalized if configured), whose row
    slices cover every row of V once. dropout is (scale, keep): the scalar
    1 / (1 - rate) in V's dtype and the (N, d) bool mask, or None for no
    dropout. The cache keeps the last unit's output only as its sign.
    """
    X = _propagate(bands, V)
    acts = [X]
    for w_name, b_name in _unit_names(layer):
        X = X @ store[w_name]
        np.maximum(np.add(X, store[b_name], out=X), 0, out=X)
        acts.append(X)
    acts[-1] = X > 0  # all that backward reads of it
    if dropout is None:
        return V + X, (acts, None)
    # (X * scale) * keep has the bits of X times the scaled mask; the sum commutes
    scale, keep = dropout
    X *= scale
    X *= keep
    return np.add(X, V, out=X), (acts, dropout)


def encode_layer_backward(dout: np.ndarray, cache, adjacency, store: ParameterStore,
                          layer: int, grads: dict) -> np.ndarray:
    bands, deg = adjacency  # A's unnormalized bands, and D or None
    acts, dropout = cache
    d_branch = dout if dropout is None else (dout * dropout[0]) * dropout[1]
    names = _unit_names(layer)
    for idx in (1, 0):
        w_name, b_name = names[idx]
        d_pre = d_branch * (acts[2] if idx else acts[1] > 0)  # acts[2] is its sign
        grads[w_name] += acts[idx].T @ d_pre
        grads[b_name] += d_pre.sum(axis=0)
        d_branch = d_pre @ store[w_name].T
    return dout + _propagate(bands, d_branch if deg is None else d_branch / deg)


def _batch_bands(graphs, starts: list, dtype, row_normalize: bool):
    """Bands (rows, cols, slab, mirror = slab[:, k:]) in the batch's rows, row-normalized
    if asked, and for backward (the bands unnormalized, the (N, 1) degrees or None)."""
    bands = []
    for g, s in zip(graphs, starts):
        for r, c, slab in g.bands:
            slab = np.asarray(slab, dtype=dtype)
            bands.append((slice(s + r.start, s + r.stop), slice(s + c.start, s + c.stop), slab,
                          slab[:, r.stop - r.start:]))
    if not row_normalize:
        return bands, (bands, None)
    deg = np.zeros((starts[-1] + graphs[-1].m, 1), dtype=dtype)
    for rows, cols, slab, mirror in bands:  # full row sums: slab rows plus mirrored columns
        deg[rows, 0] += slab.sum(axis=1)
        deg[rows.stop:cols.stop, 0] += mirror.sum(axis=0)
    np.maximum(deg, np.finfo(dtype).tiny, out=deg)
    return [(rows, cols, slab / deg[rows], mirror / deg[rows.stop:cols.stop, 0])
            for rows, cols, slab, mirror in bands], (bands, deg)


def encode_graphs(graphs, store: ParameterStore, cfg: EncoderConfig,
                  train_mode: bool = False, rng=None):
    """Batch encode over the stacked nodes: K residual layers, pooling per
    graph, then FC -> batch norm -> Tanh.

    Train mode draws each graph's dropout masks for all K layers, graph by
    graph, and normalizes with the batch statistics, leaving the store
    untouched: the cache carries the batch mean and variance for
    update_running_stats, which the caller applies once the step has
    succeeded. Eval mode reads the running statistics and is a
    deterministic function of (graphs, params).
    Returns (Psi (B x d), cache for the backward pass).
    """
    if len(graphs) == 0:
        raise EmptyLattice("empty graph batch")
    side = graphs[0].side
    if any(g.side != side for g in graphs):
        raise ShapeMismatch("graphs in one batch must share one canvas side")
    ms = np.array([g.m for g in graphs])
    if ms.min() == 0:
        raise EmptyLattice("graph has no nodes")
    dtype = store["enc.fc.W"].dtype
    points = np.concatenate([g.points for g in graphs])
    starts = (np.cumsum(ms) - ms).tolist()
    bands, adjacency = _batch_bands(graphs, starts, dtype, cfg.row_normalize)
    dropouts = [None] * cfg.K
    if train_mode and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        # each graph's (K, m, d) block in turn, drawn into one buffer, compared into one array
        K, d = cfg.K, cfg.d
        keep = np.empty((K, len(points), d), dtype=bool)
        draw = np.empty(K * ms.max() * d)
        for s, m in zip(starts, ms.tolist()):
            block = rng.random(out=draw[:K * m * d].reshape(K, m, d))
            np.greater_equal(block, cfg.dropout_rate, out=keep[:, s:s + m])
        scale = np.divide(1.0, 1.0 - cfg.dropout_rate, dtype=dtype)
        dropouts = [(scale, k) for k in keep]
    V = embed_nodes(points, side, store, cfg)
    layer_caches = []
    for layer in range(cfg.K):
        V, c = encode_layer(V, bands, store, layer, dropouts[layer])
        layer_caches.append(c)
    # each graph's rows summed one after another, in row order
    pooled = np.stack([V[s : s + m].sum(axis=0) for s, m in zip(starts, ms.tolist())])
    if cfg.pooling == "mean":
        pooled /= ms[:, None].astype(dtype)
    Y = pooled @ store["enc.fc.W"] + store["enc.fc.b"]
    gamma, beta = store["enc.bn.gamma"], store["enc.bn.beta"]
    if train_mode:
        mu_b = Y.mean(axis=0)
        var_b = Y.var(axis=0)
        ivar = 1.0 / np.sqrt(var_b + cfg.bn_eps)
        xhat = (Y - mu_b) * ivar
        batch_stats = (mu_b, var_b)
    else:
        ivar = 1.0 / np.sqrt(store["enc.bn.running_var"].astype(dtype) + cfg.bn_eps)
        xhat = (Y - store["enc.bn.running_mean"]) * ivar
        batch_stats = None
    psi = np.tanh(gamma * xhat + beta)
    cache = (points, side, ms, adjacency, layer_caches, pooled, xhat, ivar, psi, batch_stats)
    return psi, cache


def update_running_stats(cache, store: ParameterStore, cfg: EncoderConfig) -> None:
    """Move the batch-norm running statistics toward a train-mode cache's
    batch statistics: running = momentum * running + (1 - momentum) * batch."""
    batch_stats = cache[-1]
    if batch_stats is None:
        raise ValueError("running statistics need a train-mode cache")
    mom = cfg.bn_momentum
    for name, batch in zip(("enc.bn.running_mean", "enc.bn.running_var"), batch_stats):
        store[name] = (mom * store[name] + (1.0 - mom) * batch).astype(store[name].dtype)


def encode_graphs_backward(dpsi: np.ndarray, cache, store: ParameterStore,
                           cfg: EncoderConfig, grads: dict) -> None:
    points, side, ms, adjacency, layer_caches, pooled, xhat, ivar, psi, batch_stats = cache
    if batch_stats is None:
        raise ValueError("backward needs a train-mode cache")
    d_bn = dpsi * (1.0 - psi * psi)
    grads["enc.bn.gamma"] += (d_bn * xhat).sum(axis=0)
    grads["enc.bn.beta"] += d_bn.sum(axis=0)
    dxhat = d_bn * store["enc.bn.gamma"]
    B = dpsi.shape[0]
    dY = (ivar / B) * (
        B * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
    )
    grads["enc.fc.W"] += pooled.T @ dY
    grads["enc.fc.b"] += dY.sum(axis=0)
    d_pooled = dY @ store["enc.fc.W"].T
    if cfg.pooling == "mean":
        d_pooled /= ms[:, None].astype(d_pooled.dtype)
    dV = np.repeat(d_pooled, ms, axis=0)
    for layer in range(cfg.K - 1, -1, -1):
        dV = encode_layer_backward(dV, layer_caches[layer], adjacency, store, layer, grads)
    embed_nodes_backward(points, side, dV, cfg, grads)


def encode(G: SketchGraph, store: ParameterStore, cfg: EncoderConfig) -> np.ndarray:
    """Eval-mode sketch embedding psi for one graph, entries in [-1, 1].

    Propagation is unnormalized, so on inky inputs (hundreds of lattice
    points) the pooled features grow large; in eval mode the batch-norm
    running statistics need not scale them back, and float32 entries
    then saturate to exactly +-1.
    """
    psi, _ = encode_graphs([G], store, cfg)
    return psi[0]


def reparameterize(psi: np.ndarray, store: ParameterStore, rng=None,
                   noise: np.ndarray | None = None) -> LatentSample:
    """z = mu + sigma * eps with mu = psi W_mu + b, sigma = exp((psi W_sigma + b) / 2)."""
    psi = np.asarray(psi)
    mu = psi @ store["enc.mu.W"] + store["enc.mu.b"]
    u = psi @ store["enc.sigma.W"] + store["enc.sigma.b"]
    sigma = np.exp(0.5 * u)
    if noise is None:
        if rng is None:
            raise ValueError("need an rng when noise is not supplied")
        noise = rng.standard_normal(mu.shape).astype(mu.dtype)
    eps = np.asarray(noise, dtype=mu.dtype)
    if eps.shape != mu.shape:
        raise ShapeMismatch(f"noise {eps.shape} does not match mu {mu.shape}")
    return LatentSample(psi=psi, mu=mu, sigma=sigma, z=mu + sigma * eps, eps=eps)


def reparameterize_backward(dz: np.ndarray, sample: LatentSample,
                            store: ParameterStore, grads: dict) -> np.ndarray:
    """Gradient through z back to psi; fills the latent-bridge grads."""
    psi = np.atleast_2d(sample.psi)
    dz = np.atleast_2d(dz)
    du = dz * sample.eps * sample.sigma * 0.5  # dsigma/du = sigma/2
    du = np.atleast_2d(du)
    grads["enc.mu.W"] += psi.T @ dz
    grads["enc.mu.b"] += dz.sum(axis=0)
    grads["enc.sigma.W"] += psi.T @ du
    grads["enc.sigma.b"] += du.sum(axis=0)
    dpsi = dz @ store["enc.mu.W"].T + du @ store["enc.sigma.W"].T
    return dpsi.reshape(np.shape(sample.psi))


def count_parameters(store: ParameterStore) -> tuple:
    """Trainable element counts: ({name: count}, total)."""
    per_array = {n: int(store[n].size) for n in store.trainable_names()}
    return per_array, sum(per_array.values())
