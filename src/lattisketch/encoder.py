"""Graphical sketch encoder and latent bridge.

A batch is one disjoint union of graphs: all nodes stacked into one (N, d)
array, each graph owning a contiguous slice of rows. Forward path: cell
embedding -> K rounds of (propagate each graph's rows along its weighted
adjacency, two affine+ReLU units, dropout, residual add) -> pool each
graph's rows -> FC -> batch norm -> Tanh giving the sketch embedding psi,
and the reparameterized latent z = mu + sigma * eps on top.

Propagation runs over the graphs' row bands (see graph_builder), shifted
to the batch's rows: forward X[rows] = slab @ V[cols], backward
dV[cols] += slab.T @ dX[rows], so no work is spent on the zeros outside
the bands. A graph of one band (at most 128 points) propagates exactly as
a dense product would.

Everything is plain numpy with hand-written backward passes; caches
returned by the forward functions carry exactly the values the backward
formulas need. Arrays keep whatever dtype the parameter store uses, so
training can run float32 while gradient audits run float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse

from .errors import EmptyLattice, OutOfRange, ShapeMismatch, TokenOutOfVocabulary
from .graph_builder import SketchGraph
from .lattice import LatticeConfig
from .params import ParameterStore

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


def glorot(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _unit_names(layer: int) -> list:
    """(weight, bias) names of the layer's two MLP units in application order."""
    return [(f"enc.layer{layer}.u{unit}.W0", f"enc.layer{layer}.u{unit}.b0")
            for unit in range(2)]


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator,
                        dtype=np.float32, side: int = LatticeConfig.side) -> ParameterStore:
    """Fresh encoder parameters for a side x side canvas, in a new store.

    Draw order is fixed so a seed pins every array.
    """
    store = ParameterStore()
    d = cfg.d
    emb_scale = 1.0 / np.sqrt(d)
    if cfg.embed_mode == "joint":
        store.add("enc.emb.joint",
                  (rng.standard_normal((side * side, d)) * emb_scale).astype(dtype))
    else:
        store.add("enc.emb.x", (rng.standard_normal((side, d)) * emb_scale).astype(dtype))
        store.add("enc.emb.y", (rng.standard_normal((side, d)) * emb_scale).astype(dtype))
    for layer in range(cfg.K):
        for w_name, b_name in _unit_names(layer):
            store.add(w_name, glorot(rng, (d, d), dtype))
            store.add(b_name, np.zeros(d, dtype=dtype))
    store.add("enc.fc.W", glorot(rng, (d, d), dtype))
    store.add("enc.fc.b", np.zeros(d, dtype=dtype))
    store.add("enc.bn.gamma", np.ones(d, dtype=dtype))
    store.add("enc.bn.beta", np.zeros(d, dtype=dtype))
    store.add("enc.bn.running_mean", np.zeros(d, dtype=dtype), trainable=False)
    store.add("enc.bn.running_var", np.ones(d, dtype=dtype), trainable=False)
    store.add("enc.mu.W", glorot(rng, (d, d), dtype))
    store.add("enc.mu.b", np.zeros(d, dtype=dtype))
    store.add("enc.sigma.W", glorot(rng, (d, d), dtype))
    store.add("enc.sigma.b", np.zeros(d, dtype=dtype))
    return store


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


def _onehot(rows: np.ndarray, n_rows: int, dtype) -> sparse.csc_matrix:
    """(n_rows x len(rows)) one-hot matrix with column j set at row rows[j]; a
    product with it sums the rows that share a label, in row order."""
    n = len(rows)
    return sparse.csc_matrix((np.ones(n, dtype=dtype), rows, np.arange(n + 1)), shape=(n_rows, n))


def embed_nodes_backward(points: np.ndarray, side: int, dV: np.ndarray,
                         cfg: EncoderConfig, grads: dict) -> None:
    for name, rows in embedding_rows(points, side, cfg).items():
        grads[name] += _onehot(rows, len(grads[name]), dV.dtype) @ dV


def encode_layer(V: np.ndarray, bands: list, store: ParameterStore,
                 layer: int, dmask: np.ndarray | None = None):
    """V' = V + Dropout(ReLU-chained MLP units applied to A @ V); returns (V', cache).

    V stacks a batch's nodes; A is given as bands (rows, cols, slab) in V's
    rows and dtype (row-normalized if configured), whose row slices cover
    every row of V once. dmask is the scaled dropout mask, or None for no
    dropout.
    """
    X = np.empty_like(V)
    for rows, cols, slab in bands:
        np.matmul(slab, V[cols], out=X[rows])
    acts = [X]
    for w_name, b_name in _unit_names(layer):
        X = np.maximum(X @ store[w_name] + store[b_name], 0.0)
        acts.append(X)
    return V + (X if dmask is None else X * dmask), (acts, dmask)


def encode_layer_backward(dout: np.ndarray, cache, bands: list,
                          store: ParameterStore, layer: int, grads: dict) -> np.ndarray:
    acts, dmask = cache
    d_branch = dout if dmask is None else dout * dmask
    names = _unit_names(layer)
    for idx in (1, 0):
        w_name, b_name = names[idx]
        d_pre = d_branch * (acts[idx + 1] > 0)
        grads[w_name] += acts[idx].T @ d_pre
        grads[b_name] += d_pre.sum(axis=0)
        d_branch = d_pre @ store[w_name].T
    dV = dout.copy()
    for rows, cols, slab in bands:
        dV[cols] += slab.T @ d_branch[rows]
    return dV


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
    bands = []
    for g, s in zip(graphs, starts):
        for rows, cols, slab in g.bands:
            slab = np.asarray(slab, dtype=dtype)
            if cfg.row_normalize:  # a row's links all lie in its band
                slab = slab / np.maximum(slab.sum(axis=1, keepdims=True), np.finfo(dtype).tiny)
            bands.append((slice(s + rows.start, s + rows.stop),
                          slice(s + cols.start, s + cols.stop), slab))
    masks = [None] * cfg.K
    if train_mode and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        draws = np.concatenate([rng.random((cfg.K, g.m, cfg.d)) for g in graphs], axis=1)
        masks = (draws >= cfg.dropout_rate).astype(dtype) / (1.0 - cfg.dropout_rate)
    V = embed_nodes(points, side, store, cfg)
    layer_caches = []
    for layer in range(cfg.K):
        V, c = encode_layer(V, bands, store, layer, masks[layer])
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
    cache = (points, side, ms, bands, layer_caches, pooled, xhat, ivar, psi, batch_stats)
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
    points, side, ms, bands, layer_caches, pooled, xhat, ivar, psi, batch_stats = cache
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
        dV = encode_layer_backward(dV, layer_caches[layer], bands, store, layer, grads)
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
