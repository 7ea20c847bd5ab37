"""
Proximity graphs and the permutation-invariant embedding
========================================================

Lattice points become graph nodes. This script builds both edge rules
(a distance threshold and nearest-neighbor linking), inspects the
weighted adjacency, then pushes the graph through a freshly initialized
encoder to show the two properties the embedding must have: values in
(-1, 1) from the tanh head, and invariance to node order.
"""

import json

import numpy as np

import lattisketch as ls

rng = np.random.default_rng(0)
record = ls.make_sketch_record("ring", rng)
sketch = ls.parse_quickdraw_line(json.dumps(record))
raster = ls.rasterize(sketch, side=256)
lat = ls.sample_lattice(raster, ls.LatticeConfig(n=32, side=256))
print(f"ring sketch -> {lat.m} lattice nodes")

# Rule 1: "nearby" connects points whose normalized distance is below
# d_t. Distances are scaled by the canvas diagonal, so d_t=0.2 means
# one fifth of the diagonal.
g_near = ls.build_adjacency(lat, ls.GraphConfig(proximity="nearby", d_t=0.2))
# Rule 2: "nearest" links each point to its single closest neighbor and
# symmetrizes, so every node keeps at least one edge however sparse the ink.
g_nn = ls.build_adjacency(lat, ls.GraphConfig(proximity="nearest"))

for name, g in (("nearby", g_near), ("nearest", g_nn)):
    a = g.adjacency
    off = a - np.diag(np.diag(a))
    deg = (off > 0).sum(axis=1)
    print(f"{name:8s} edges={int((off > 0).sum()) // 2:5d} "
          f"mean degree={deg.mean():6.2f} weight range "
          f"[{off[off > 0].min():.3f}, {off.max():.3f}]")
    assert np.allclose(a, a.T)  # symmetric by construction
    assert np.allclose(np.diag(a), 1.0)  # self loops carry weight 1

# Edge weight decays linearly with distance: 1 - d / (side * sqrt(2)).
i, j = np.argwhere(g_near.adjacency - np.eye(lat.m) > 0)[0]
d = np.hypot(*(lat.points[i] - lat.points[j]).astype(float))
print(f"sample edge ({i},{j}): distance {d:.1f}px, "
      f"weight {g_near.adjacency[i, j]:.4f}")

# Each node keeps its (x, y) cell; the encoder looks up its embedding
# from it. Factorized mode sums an x-row and a y-row embedding.
print(f"points head: {g_near.points[:5].tolist()}")

# A small untrained encoder. Eval mode uses running batch-norm stats and
# skips dropout, so the embedding is a pure function of the graph.
ecfg = ls.EncoderConfig(d=32, K=2)
store = ls.init_encoder_params(ecfg, np.random.default_rng(42))

psi = ls.encode(g_near, store, ecfg)
print(f"psi shape {psi.shape}, range [{psi.min():+.3f}, {psi.max():+.3f}]")
# tanh head bounds psi to [-1, 1]; an untrained batch norm can push
# activations far enough out that float32 rounds the ends to exactly 1
assert np.all(np.abs(psi) <= 1.0)

# Permutation invariance: shuffle the nodes, embedding must not move.
perm = np.random.default_rng(3).permutation(lat.m)
g_perm = ls.SketchGraph.from_dense(
    g_near.points[perm], g_near.adjacency[np.ix_(perm, perm)], g_near.side)
psi_perm = ls.encode(g_perm, store, ecfg)
print(f"max |psi - psi_permuted| = {np.abs(psi - psi_perm).max():.2e}")
# float32 mean pooling sums in a different order after the shuffle, so
# equality is up to a few ulps, not exact
assert np.abs(psi - psi_perm).max() < 1e-5
print("permutation invariance holds")
