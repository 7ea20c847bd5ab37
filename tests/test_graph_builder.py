"""Graph construction: embedding tokens, distances, adjacency."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattisketch as ls
from conftest import pairwise_distances
from lattisketch import graph_builder
from lattisketch.encoder import embedding_rows
from lattisketch.graph_builder import _distance_table, _weight_table

ROOT = Path(__file__).resolve().parents[1]


def points_lattice(pts, side=256, n=32):
    return ls.SketchLattice(points=np.asarray(pts, dtype=np.int64), side=side, n=n)


def dense_adjacency(L, cfg):
    """Oracle: the adjacency computed densely from the m x m x 2 difference tensor."""
    m = L.m
    norm = pairwise_distances(L) / (L.side * np.sqrt(2.0))
    linked = np.zeros((m, m), dtype=bool)
    if m > 1:
        if cfg.proximity == "nearby":
            linked = norm < cfg.d_t
            np.fill_diagonal(linked, False)
        else:
            probe = norm.copy()
            np.fill_diagonal(probe, np.inf)
            nearest = np.argmin(probe, axis=1)
            linked[np.arange(m), nearest] = True
            linked |= linked.T
    a = np.where(linked, 1.0 - norm, 0.0)
    if cfg.self_loops:
        np.fill_diagonal(a, 1.0)
    return a


# ---------------------------------------------------------------------------
# tokens: the embedding rows the encoder reads for a graph's points


def tokenize(p, side, mode="factorized"):
    """Oracle: a point's token, the joint index y*side + x or the (x, y) pair."""
    x, y = int(p[0]), int(p[1])
    if not (0 <= x < side and 0 <= y < side):
        raise ls.OutOfRange(f"point ({x}, {y}) outside [0, {side})")
    return y * side + x if mode == "joint" else (x, y)


def graph_tokens(g, mode):
    """Per-node tokens of a built graph as the encoder's embedding rows give them."""
    rows = embedding_rows(g.points, g.side, ls.EncoderConfig(embed_mode=mode))
    if mode == "joint":
        return rows["enc.emb.joint"].tolist()
    return list(zip(rows["enc.emb.x"].tolist(), rows["enc.emb.y"].tolist()))


def point_token(p, side, mode):
    g = ls.build_adjacency(points_lattice([p], side=side), ls.GraphConfig())
    return graph_tokens(g, mode)[0]


def test_tokenize_joint_origin():
    assert point_token((0, 0), 256, "joint") == tokenize((0, 0), 256, "joint") == 0


def test_tokenize_joint_max():
    assert point_token((255, 255), 256, "joint") == tokenize((255, 255), 256, "joint") == 65535


def test_tokenize_joint_formula():
    assert point_token((3, 7), 256, "joint") == 7 * 256 + 3


def test_tokenize_factorized_pair():
    assert point_token((3, 7), 256, "factorized") == tokenize((3, 7), 256) == (3, 7)


def test_tokenize_out_of_range():
    for p in ((256, 0), (0, -1)):
        with pytest.raises(ls.OutOfRange):
            tokenize(p, 256)
        with pytest.raises(ls.OutOfRange):
            point_token(p, 256, "joint")


@pytest.mark.parametrize("side", [64, 256])
@pytest.mark.parametrize("mode", ["joint", "factorized"])
def test_tokens_match_scalar_oracle(side, mode):
    lat = random_lattice(np.random.default_rng(side), side, 200)
    g = ls.build_adjacency(lat, ls.GraphConfig())
    assert graph_tokens(g, mode) == [tokenize(p, side, mode) for p in lat.points]


# ---------------------------------------------------------------------------
# distances


def test_pairwise_single_point():
    assert pairwise_distances(points_lattice([[5, 5]])).tolist() == [[0.0]]


def test_pairwise_3_4_5():
    d = pairwise_distances(points_lattice([[0, 0], [3, 4]]))
    assert d[0, 1] == 5.0 and d[1, 0] == 5.0


def test_pairwise_matches_naive_oracle():
    rng = np.random.default_rng(2)
    pts = rng.integers(0, 256, size=(10, 2))
    lat = points_lattice(pts)
    d = pairwise_distances(lat)
    for i in range(10):
        for j in range(10):
            want = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
            assert d[i, j] == pytest.approx(want, abs=1e-9)


def test_pairwise_empty_raises():
    with pytest.raises(ls.EmptyLattice):
        pairwise_distances(points_lattice(np.zeros((0, 2))))


# ---------------------------------------------------------------------------
# adjacency


def test_adjacency_single_point_self_loop():
    g = ls.build_adjacency(points_lattice([[9, 9]]), ls.GraphConfig())
    assert g.adjacency.tolist() == [[1.0]]


def test_adjacency_linked_pair_weight():
    # pixel distance 36.2 -> norm approx 0.1 -> weight approx 0.9
    lat = points_lattice([[0, 0], [36, 4]])  # hypot = 36.22...
    d = np.hypot(36, 4)
    g = ls.build_adjacency(lat, ls.GraphConfig(proximity="nearby", d_t=0.2))
    want = 1.0 - d / (256 * np.sqrt(2))
    assert g.adjacency[0, 1] == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.9, abs=0.001)


def test_adjacency_nearby_strict_threshold():
    side = 256
    diag = side * np.sqrt(2)
    # place two points at a distance just over the threshold
    dist = int(np.ceil(0.2 * diag)) + 1
    lat = points_lattice([[0, 0], [dist, 0]])
    g = ls.build_adjacency(lat, ls.GraphConfig(proximity="nearby", d_t=0.2))
    assert g.adjacency[0, 1] == 0.0
    # nearest mode ignores the threshold
    g2 = ls.build_adjacency(lat, ls.GraphConfig(proximity="nearest"))
    assert g2.adjacency[0, 1] > 0.0


def test_adjacency_nearest_union_symmetric():
    # chain 0 - 1 - 2 with 1 closest to 0: nearest of 2 is 1, nearest of
    # 1 is 0, nearest of 0 is 1; union links (0,1) and (1,2)
    lat = points_lattice([[0, 0], [10, 0], [25, 0]])
    g = ls.build_adjacency(lat, ls.GraphConfig(proximity="nearest"))
    a = g.adjacency
    assert a[0, 1] > 0 and a[1, 0] > 0
    assert a[1, 2] > 0 and a[2, 1] > 0
    assert a[0, 2] == 0 and a[2, 0] == 0


def test_adjacency_matches_naive_nearby_oracle():
    rng = np.random.default_rng(8)
    pts = np.unique(rng.integers(0, 256, size=(40, 2)), axis=0)
    lat = points_lattice(pts)
    cfg = ls.GraphConfig(proximity="nearby", d_t=0.2)
    g = ls.build_adjacency(lat, cfg)
    m = lat.m
    diag = 256 * np.sqrt(2)
    for i in range(m):
        for j in range(m):
            if i == j:
                assert g.adjacency[i, j] == 1.0
                continue
            d = np.hypot(*(lat.points[i] - lat.points[j]).astype(float))
            want = 1.0 - d / diag if d / diag < 0.2 else 0.0
            assert g.adjacency[i, j] == pytest.approx(want, abs=1e-12)


def test_adjacency_symmetry_range_diagonal():
    rng = np.random.default_rng(13)
    for proximity in ("nearby", "nearest"):
        pts = np.unique(rng.integers(0, 256, size=(60, 2)), axis=0)
        g = ls.build_adjacency(points_lattice(pts),
                               ls.GraphConfig(proximity=proximity))
        a = g.adjacency
        assert np.array_equal(a, a.T)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert np.all(np.diag(a) == 1.0)


def test_adjacency_no_self_loops_flag():
    lat = points_lattice([[0, 0], [5, 0]])
    g = ls.build_adjacency(lat, ls.GraphConfig(self_loops=False))
    assert np.all(np.diag(g.adjacency) == 0.0)


def test_adjacency_support_monotone_in_threshold():
    rng = np.random.default_rng(4)
    pts = np.unique(rng.integers(0, 256, size=(50, 2)), axis=0)
    lat = points_lattice(pts)
    prev_support = None
    for d_t in (0.05, 0.1, 0.2, 0.4):
        a = ls.build_adjacency(lat, ls.GraphConfig(proximity="nearby", d_t=d_t)).adjacency
        support = a > 0
        if prev_support is not None:
            assert np.all(support[prev_support])  # superset of smaller d_t
        prev_support = support


def test_adjacency_translation_invariant_tokens_change():
    pts = np.array([[10, 10], [30, 14], [20, 60]])
    cfg = ls.GraphConfig(proximity="nearby", d_t=0.3)
    a_graph = ls.build_adjacency(points_lattice(pts), cfg)
    b_graph = ls.build_adjacency(points_lattice(pts + 100), cfg)
    assert np.allclose(a_graph.adjacency, b_graph.adjacency, atol=1e-12)
    assert graph_tokens(a_graph, "joint") != graph_tokens(b_graph, "joint")


def random_lattice(rng, side, m):
    """Row-major sorted distinct points, some pinned to the canvas border."""
    pts = rng.integers(0, side, size=(m, 2))
    border = rng.random((m, 2)) < 0.1
    pts[border] = rng.choice([0, side - 1], size=int(border.sum()))
    pts = np.unique(pts, axis=0)
    return points_lattice(pts[np.lexsort((pts[:, 0], pts[:, 1]))], side=side)


@pytest.mark.parametrize("side", [7, 64, 256])
@pytest.mark.parametrize("proximity", ["nearby", "nearest"])
@pytest.mark.parametrize("self_loops", [True, False])
def test_adjacency_bit_identical_to_dense_oracle(side, proximity, self_loops):
    rng = np.random.default_rng(side + 7 * self_loops + (proximity == "nearest"))
    diag = side * np.sqrt(2.0)
    # opposite corners sit at offsets +-(side - 1), the ends of the signed tables
    corners = points_lattice([[0, 0], [side - 1, side - 1], [side - 1, 0], [0, side - 1]],
                             side=side)
    # 0.125 * diag = side / 8 * sqrt(2), the length of offset (side/8, side/8):
    # pairs at exactly that offset sit on the threshold
    k = side // 8
    on_threshold = points_lattice([[0, 0], [k, k], [2 * k, 0], [side - 1, side - 1]],
                                  side=side)
    for d_t in (0.05, 0.125, 0.2, 0.5, 0.99):
        cfg = ls.GraphConfig(proximity=proximity, d_t=d_t, self_loops=self_loops)
        lattices = [random_lattice(rng, side, m) for m in (1, 2, 3, 17, 150, 300)]
        for lat in lattices + [corners, on_threshold]:
            a64, a32 = (ls.build_adjacency(lat, cfg, dtype).adjacency
                        for dtype in (np.float64, np.float32))
            assert (a64.dtype, a32.dtype) == (np.float64, np.float32)
            assert np.array_equal(a64, dense_adjacency(lat, cfg)), (d_t, lat.m)
            # casting after the gather equals gathering from a cast table
            assert np.array_equal(a32, a64.astype(np.float32)), (d_t, lat.m)
    if side % 8 == 0:
        assert pairwise_distances(on_threshold)[0, 1] / diag == 0.125


def test_offset_tables_read_only_and_keyed_by_dtype():
    side, width = 64, 2 * 64 - 1
    w64 = _weight_table(side, 0.2, np.dtype(np.float64))
    w32 = _weight_table(side, 0.2, np.dtype(np.float32))
    assert (w64.dtype, w32.dtype) == (np.float64, np.float32)
    assert np.array_equal(w32, w64.astype(np.float32))
    norm = _distance_table(side)
    for table in (w64, w32, norm):
        assert table.shape == (width * width,)
        assert not table.flags.writeable
    # every spelling of a dtype reaches one cached table
    lat = points_lattice([[0, 0], [3, 4]], side=side)
    misses = _weight_table.cache_info().misses
    for dtype in (np.float32, "float32", np.dtype(np.float32)):
        ls.build_adjacency(lat, ls.GraphConfig(d_t=0.3), dtype)
    assert _weight_table.cache_info().misses <= misses + 1
    # entry (dx, dy) sits at (dx + side - 1) * width + (dy + side - 1), and
    # the weights depend on |dx| and |dy| only
    assert norm[(3 + side - 1) * width + (-4 + side - 1)] == 5.0 / (side * np.sqrt(2.0))
    grid = w64.reshape(width, width)
    assert np.array_equal(grid, grid[::-1]) and np.array_equal(grid, grid[:, ::-1])


@pytest.mark.parametrize("proximity", ["nearby", "nearest"])
def test_adjacency_node_budget(monkeypatch, proximity):
    lat = random_lattice(np.random.default_rng(3), 64, 40)
    cfg = ls.GraphConfig(proximity=proximity)
    monkeypatch.setattr(graph_builder, "MAX_NODES", lat.m)
    assert ls.build_adjacency(lat, cfg).m == lat.m
    monkeypatch.setattr(graph_builder, "MAX_NODES", lat.m - 1)
    with pytest.raises(ls.OutOfRange, match="budget"):
        ls.build_adjacency(lat, cfg)


def test_adjacency_bit_identical_with_ties_corners_and_duplicates():
    # equidistant neighbours (nearest tie-break), all four canvas corners,
    # and a repeated point, which links to its copy at weight 1
    pts = [[0, 0], [255, 0], [128, 64], [120, 64], [136, 64], [0, 255], [255, 255]]
    for lat in (points_lattice(pts), points_lattice(pts + [[120, 64]])):
        for proximity in ("nearby", "nearest"):
            for self_loops in (True, False):
                cfg = ls.GraphConfig(proximity=proximity, d_t=0.2, self_loops=self_loops)
                assert np.array_equal(ls.build_adjacency(lat, cfg).adjacency,
                                      dense_adjacency(lat, cfg))


@pytest.mark.parametrize("proximity", ["nearby", "nearest"])
@pytest.mark.parametrize("bad", [[256, 5], [5, -1]])
def test_adjacency_point_off_canvas_raises(proximity, bad):
    lat = points_lattice([[0, 0], [3, 4], bad])
    with pytest.raises(ls.OutOfRange):
        ls.build_adjacency(lat, ls.GraphConfig(proximity=proximity))


def test_adjacency_empty_lattice_raises():
    with pytest.raises(ls.EmptyLattice):
        ls.build_adjacency(points_lattice(np.zeros((0, 2))), ls.GraphConfig())


def test_graph_config_validation():
    with pytest.raises(ls.OutOfRange):
        ls.GraphConfig(d_t=0.0)
    with pytest.raises(ls.OutOfRange):
        ls.GraphConfig(d_t=1.0)
    with pytest.raises(ls.OutOfRange):
        ls.GraphConfig(proximity="bogus")


@pytest.mark.parametrize("adjacency", [np.eye(4), np.ones((3, 4)), np.ones(3)],
                         ids=["too_big", "not_square", "one_dim"])
def test_graph_rejects_adjacency_not_m_by_m(adjacency):
    # three points need a 3 x 3 adjacency; stacked batches would misalign otherwise
    points = np.array([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ls.ShapeMismatch):
        ls.SketchGraph.from_dense(points, adjacency, 256)


def test_from_dense_rejects_an_adjacency_that_is_not_symmetric():
    # the encoder's backward pass applies the bands as A for A^T, so a
    # graph that is not symmetric would train on wrong gradients
    points = np.array([[1, 2], [3, 4], [5, 6]])
    a = np.eye(3)
    a[0, 2] = 0.5
    with pytest.raises(ls.ShapeMismatch, match="symmetric"):
        ls.SketchGraph.from_dense(points, a, 256)
    a[2, 0] = 0.5
    assert np.array_equal(ls.SketchGraph.from_dense(points, a, 256).adjacency, a)


# ---------------------------------------------------------------------------
# band storage


@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 5),
       n_rows=st.integers(1, 40), n_cols=st.integers(1, 64), side=st.sampled_from([64, 256]),
       row_major=st.booleans(), proximity=st.sampled_from(["nearby", "nearest"]),
       self_loops=st.booleans(), d_t=st.sampled_from([0.05, 0.2, 0.5]),
       dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=60, deadline=None)
def test_bands_equal_dense_oracle_and_hold_every_link(seed, blocks, n_rows, n_cols, side,
                                                      row_major, proximity, self_loops, d_t,
                                                      dtype):
    # crossings of a few rows and columns, as lattice points lie on lines,
    # topped up to about m points, so runs of equal y cross the block
    # boundaries; two of the rows lie the largest linked |dy| apart, where
    # a band one column too narrow would drop links
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 129)) + 128 * (blocks - 1)  # up to 640 points in 1-5 blocks
    reach = int(np.ceil(d_t * side * np.sqrt(2.0))) - 1
    y0 = int(rng.integers(0, max(side - reach, 1)))
    ys = np.concatenate([rng.choice(side, n_rows), [y0, min(y0 + reach, side - 1)]])
    grid = np.unique(np.stack(np.meshgrid(rng.choice(side, n_cols), ys), axis=-1).reshape(-1, 2),
                     axis=0)
    pts = grid[rng.choice(len(grid), min(m, len(grid)), replace=False)]
    pts = np.unique(np.vstack([pts, rng.integers(0, side, (m - len(pts), 2))]), axis=0)
    if row_major:
        pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]  # else x-sorted, as np.unique leaves it
    lat = points_lattice(pts, side=side)
    cfg = ls.GraphConfig(proximity=proximity, d_t=d_t, self_loops=self_loops)
    g = ls.build_adjacency(lat, cfg, dtype)
    want = dense_adjacency(lat, cfg)
    assert np.array_equal(g.adjacency, want.astype(dtype))
    # every band starts at its diagonal block, and every link (i, j) with
    # i <= j lies in i's band, so the stored bands and their mirrors hold all
    stored = np.zeros((lat.m, lat.m), dtype=bool)
    for rows, cols, slab in g.bands:
        assert slab.dtype == dtype and rows.stop - rows.start <= graph_builder._BLOCK_ROWS
        assert cols.start == rows.start < rows.stop <= cols.stop
        stored[rows, cols] = True
    assert not np.triu(want)[~stored].any()
    assert not want[~(stored | stored.T)].any()
    n = -(-lat.m // graph_builder._BLOCK_ROWS)  # the fewest blocks, of equal size
    assert [rows.start for rows, _, _ in g.bands] == [k * lat.m // n for k in range(n)]


def test_bands_tight_for_row_major_points():
    # rows of points 40 px apart: with the 72 px reach of d_t = 0.2 on a 256
    # canvas, a block's band starts at its own first row and ends one row of
    # points beyond its last
    pts = np.array([[x, y] for y in range(0, 256, 40) for x in range(0, 256, 4)])
    g = ls.build_adjacency(points_lattice(pts), ls.GraphConfig())
    assert graph_builder._reach(256, 0.2, np.dtype(np.float64)) == 72
    y = pts[:, 1]
    for rows, cols, _ in g.bands:
        near = np.flatnonzero((y >= y[rows].min() - 40) & (y <= y[rows].max() + 40))
        assert (cols.start, cols.stop) == (rows.start, near[-1] + 1)
    # the upper bands store 0.411 m^2 here
    assert sum(s.size for _, _, s in g.bands) < 0.42 * g.m ** 2


def test_band_holds_links_exactly_at_the_reach():
    # two rows of 200 points 72 px apart, the largest |dy| linked at d_t = 0.2
    # on a 256 canvas; each block lies within one row
    lat = points_lattice([[x, y] for y in (0, 72) for x in range(200)])
    g = ls.build_adjacency(lat, ls.GraphConfig())
    assert [rows.stop - rows.start for rows, _, _ in g.bands] == [100] * 4
    assert g.adjacency[150, 350] > 0.0
    assert np.array_equal(g.adjacency, dense_adjacency(lat, ls.GraphConfig()))


def edge_map_lattice(min_points, seed=0):
    """Lattice of a union of one-pixel circle outlines with at least min_points points."""
    rng = np.random.default_rng(seed)
    grid = np.zeros((256, 256), dtype=np.uint8)
    lat = None
    while lat is None or lat.m < min_points:
        cx, cy, r = rng.uniform(16, 240), rng.uniform(16, 240), rng.uniform(12, 56)
        t = np.linspace(0.0, 2.0 * np.pi, int(8 * r) + 8, endpoint=False)
        xs, ys = (np.round(c + r * f(t)).astype(int) for c, f in ((cx, np.cos), (cy, np.sin)))
        keep = (xs >= 0) & (xs < 256) & (ys >= 0) & (ys < 256)
        grid[ys[keep], xs[keep]] = 1
        lat = ls.sample_lattice(ls.RasterSketch(grid), ls.LatticeConfig())
    return lat


def test_build_allocates_nothing_m_by_m():
    lat = edge_map_lattice(1500)
    cfg = ls.GraphConfig()
    ls.build_adjacency(points_lattice([[0, 0], [1, 1]]), cfg)  # fill the table caches
    tracemalloc.start()
    try:
        g = ls.build_adjacency(lat, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = sum(slab.nbytes for _, _, slab in g.bands)
    assert stored < 0.8 * 8 * lat.m ** 2  # the bands skip the zeros far off in y
    # besides the slabs, no m x m array of any dtype (a bool one has m^2 bytes)
    assert peak - stored < lat.m ** 2, (peak, stored, lat.m)


# builds the graph of the points in argv[1] 20 times after a warm-up and
# prints the process's minor page faults per build
FAULTS_SCRIPT = ("import resource, sys\n"
                 "import numpy as np\n"
                 "import lattisketch as ls\n"
                 "lat = ls.SketchLattice(np.load(sys.argv[1]))\n"
                 "for _ in range(3):\n"
                 "    ls.build_adjacency(lat, ls.GraphConfig(), dtype=np.float32)\n"
                 "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                 "for _ in range(20):\n"
                 "    ls.build_adjacency(lat, ls.GraphConfig(), dtype=np.float32)\n"
                 "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)\n")


def test_build_touches_no_fresh_pages_once_warm(tmp_path):
    # the bands of a graph are views of one buffer, which the allocator hands
    # back build after build; a buffer per band took about 250 fresh pages
    # (minor faults) per build here, and touching them slowed the gather
    lat = edge_map_lattice(1500)
    np.save(tmp_path / "points.npy", lat.points)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT, str(tmp_path / "points.npy")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 25, proc.stdout
