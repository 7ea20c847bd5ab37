"""Lattice line placement, point sampling and masking."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lattisketch as ls
from conftest import random_raster
from lattisketch.lattice import _sites, sketch_lattices
from lattisketch.sketch_data import SEGMENTS_PER_PASS, drawn_pixels


def test_line_positions_n1():
    assert ls.line_positions(ls.LatticeConfig(n=1, side=256)).tolist() == [128]


def test_line_positions_n2():
    assert ls.line_positions(ls.LatticeConfig(n=2, side=256)).tolist() == [64, 192]


def test_line_positions_n32():
    pos = ls.line_positions(ls.LatticeConfig(n=32, side=256))
    assert pos[0] == 4
    assert np.all(np.diff(pos) == 8)
    assert len(pos) == 32


def test_line_positions_strictly_increasing_in_range():
    for n in (1, 2, 3, 5, 7, 64, 255, 256):
        pos = ls.line_positions(ls.LatticeConfig(n=n, side=256))
        assert len(pos) == n
        assert np.all(np.diff(pos) > 0)
        assert pos[0] >= 0 and pos[-1] <= 255


def test_lattice_config_rejects_bad_n():
    with pytest.raises(ls.OutOfRange):
        ls.LatticeConfig(n=0)
    with pytest.raises(ls.OutOfRange):
        ls.LatticeConfig(n=257, side=256)


def test_lattice_config_rejects_side_below_minimum():
    with pytest.raises(ls.OutOfRange, match="canvas side 5"):
        ls.LatticeConfig(n=1, side=5)
    assert ls.LatticeConfig(n=1, side=6).side == 6
    with pytest.raises(ls.OutOfRange, match="canvas side 1025 is above the maximum 1024"):
        ls.LatticeConfig(n=1, side=1025)
    assert ls.LatticeConfig(n=1, side=1024).side == 1024


def brute_force_lattice(raster, cfg):
    """Independent pixel scan: double loop over the full canvas."""
    pos = set(ls.line_positions(cfg).tolist())
    pts = []
    for y in range(cfg.side):
        for x in range(cfg.side):
            if raster.pixels[y, x] and (x in pos or y in pos):
                pts.append([x, y])
    return pts


def test_sample_lattice_blank_raster():
    r = ls.RasterSketch(pixels=np.zeros((256, 256), dtype=np.uint8))
    assert ls.sample_lattice(r, ls.LatticeConfig()).m == 0


def test_sample_lattice_all_ones_count():
    r = ls.RasterSketch(pixels=np.ones((256, 256), dtype=np.uint8))
    lat = ls.sample_lattice(r, ls.LatticeConfig(n=32))
    assert lat.m == 2 * 32 * 256 - 32 * 32  # inclusion-exclusion


def test_sample_lattice_crossing_dedup():
    pixels = np.zeros((256, 256), dtype=np.uint8)
    pixels[128, 128] = 1  # n=1 line crossing
    lat = ls.sample_lattice(ls.RasterSketch(pixels=pixels), ls.LatticeConfig(n=1))
    assert lat.m == 1
    assert lat.points.tolist() == [[128, 128]]


def test_sample_lattice_every_line_at_n_equals_side():
    # every row and column is a line, so every dark pixel is a point
    raster = random_raster(np.random.default_rng(13), density=0.1)
    lat = ls.sample_lattice(raster, ls.LatticeConfig(n=256, side=256))
    assert lat.m == raster.dark_count()
    assert lat.points.tolist() == brute_force_lattice(raster, ls.LatticeConfig(n=256))


def test_sample_lattice_single_line_pair():
    raster = random_raster(np.random.default_rng(14), density=0.3)
    cfg = ls.LatticeConfig(n=1)
    lat = ls.sample_lattice(raster, cfg)
    px = raster.pixels
    assert lat.m == px[128].sum() + px[:, 128].sum() - px[128, 128]
    assert lat.points.tolist() == brute_force_lattice(raster, cfg)


def test_sample_lattice_blank_raster_points_shape():
    r = ls.RasterSketch(pixels=np.zeros((256, 256), dtype=np.uint8))
    for n in (1, 32, 256):
        pts = ls.sample_lattice(r, ls.LatticeConfig(n=n)).points
        assert pts.shape == (0, 2) and pts.dtype == np.int64


def test_sample_lattice_ink_only_on_crossings():
    cfg = ls.LatticeConfig(n=8)
    pos = ls.line_positions(cfg)
    pixels = np.zeros((256, 256), dtype=np.uint8)
    pixels[np.ix_(pos, pos)] = 1
    lat = ls.sample_lattice(ls.RasterSketch(pixels=pixels), cfg)
    assert lat.points.tolist() == [[x, y] for y in pos.tolist() for x in pos.tolist()]


def test_sample_lattice_row_major_order():
    rng = np.random.default_rng(5)
    lat = ls.sample_lattice(random_raster(rng, density=0.1), ls.LatticeConfig(n=8))
    keys = lat.points[:, 1] * 256 + lat.points[:, 0]
    assert np.all(np.diff(keys) > 0)  # sorted and duplicate-free


def test_sample_lattice_matches_bruteforce():
    rng = np.random.default_rng(11)
    for density in (0.0, 0.01, 0.2):
        raster = random_raster(rng, density=density)
        for n in (1, 2, 8, 32):
            lat = ls.sample_lattice(raster, ls.LatticeConfig(n=n))
            assert lat.points.tolist() == brute_force_lattice(raster, ls.LatticeConfig(n=n))


def test_lattice_points_lie_on_lines_and_ink():
    rng = np.random.default_rng(3)
    raster = random_raster(rng, density=0.05)
    cfg = ls.LatticeConfig(n=16)
    lat = ls.sample_lattice(raster, cfg)
    pos = set(ls.line_positions(cfg).tolist())
    for x, y in lat.points:
        assert raster.pixels[y, x] == 1
        assert x in pos or y in pos


@pytest.mark.parametrize("shape", [(255, 256), (256, 255)])
def test_sample_lattice_rejects_a_raster_that_is_not_canonical(shape):
    # the sites are flat keys into a side x side raster, so any other shape
    # must be refused rather than read
    r = ls.RasterSketch(pixels=np.ones(shape, dtype=np.uint8))
    with pytest.raises(ls.OutOfRange, match="not canonical 256x256"):
        ls.sample_lattice(r, ls.LatticeConfig())


def test_lattice_sites_are_one_read_only_table():
    keys, on_line = _sites(256, 32)
    assert _sites(256, 32)[0] is keys  # cached
    assert len(keys) == 2 * 32 * 256 - 32 * 32
    assert np.array_equal(keys, np.flatnonzero(on_line))
    for table in (keys, on_line):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[1]


def test_lattice_json_round_trip():
    rng = np.random.default_rng(9)
    lat = ls.sample_lattice(random_raster(rng), ls.LatticeConfig(n=4))
    back = ls.lattice_from_json_obj(lat.to_json_obj())
    assert np.array_equal(back.points, lat.points)
    assert back.n == lat.n and back.side == lat.side


# ---------------------------------------------------------------------------
# masking


def make_lattice(m, seed=0):
    rng = np.random.default_rng(seed)
    raster = random_raster(rng, density=0.5)
    lat = ls.sample_lattice(raster, ls.LatticeConfig(n=32))
    assert lat.m >= m
    return ls.SketchLattice(points=lat.points[:m], side=256, n=32)


def test_mask_identity_at_zero():
    lat = make_lattice(500)
    out = ls.mask_lattice(lat, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.points, lat.points)


def test_mask_empty_at_one():
    lat = make_lattice(500)
    assert ls.mask_lattice(lat, 1.0, np.random.default_rng(0)).m == 0


def test_mask_subset_and_order():
    lat = make_lattice(800)
    out = ls.mask_lattice(lat, 0.4, np.random.default_rng(17))
    keys_in = set(map(tuple, lat.points.tolist()))
    assert all(tuple(p) in keys_in for p in out.points.tolist())
    idx = [lat.points.tolist().index(p) for p in out.points.tolist()]
    assert idx == sorted(idx)


def test_mask_deterministic_per_seed():
    lat = make_lattice(300)
    a = ls.mask_lattice(lat, 0.3, np.random.default_rng(21))
    b = ls.mask_lattice(lat, 0.3, np.random.default_rng(21))
    assert np.array_equal(a.points, b.points)


def test_mask_binomial_concentration():
    lat = make_lattice(1000)
    kept = [ls.mask_lattice(lat, 0.3, np.random.default_rng(s)).m for s in range(100)]
    sigma = np.sqrt(1000 * 0.3 * 0.7)
    assert abs(np.mean(kept) - 700) < 3 * sigma


# ---------------------------------------------------------------------------
# the batched front end against rasterize + sample_lattice, one sketch at a time


def _sketch(rows):
    return ls.VectorSketch(steps=np.array([list(r) for r in rows] + [[0.0, 0.0, ls.PEN_END]]))


def _random_walk(seed, n):
    """A sketch of n random moves, about one in five of them pen-up."""
    rng = np.random.default_rng(seed)
    steps = np.column_stack([rng.integers(-30, 31, size=(n, 2)),
                             (rng.random(n) < 0.2) * float(ls.PEN_LIFT)]).astype(float)
    steps[-1, 2] = ls.PEN_END
    return ls.VectorSketch(steps=steps)


_OFFSET = st.one_of(st.just(0.0), st.integers(-40, 40).map(float),
                    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False))
_SKETCH = st.one_of(
    st.just(ls.VectorSketch(steps=np.zeros((0, 3)))),                        # empty
    st.just(_sketch([(0.0, 0.0, ls.PEN_DOWN)])),                              # one dot
    st.floats(1e-310, 1.4e-306).map(lambda h: _sketch([(0.0, h, ls.PEN_DOWN),
                                                       (h, 0.0, ls.PEN_DOWN)])),  # tiny extent
    st.lists(st.tuples(_OFFSET, _OFFSET, st.sampled_from([ls.PEN_DOWN, ls.PEN_LIFT])),
             min_size=1, max_size=25).map(_sketch),
    # a few hundred moves: runs of these straddle pass boundaries
    st.tuples(st.integers(0, 2**32 - 1), st.integers(150, 700)).map(lambda a: _random_walk(*a)),
)


@given(st.lists(_SKETCH, max_size=12), st.sampled_from([(256, 32), (64, 7), (17, 17)]))
@example([_random_walk(3, 2 * SEGMENTS_PER_PASS + 37), _sketch([(0.0, 0.0, ls.PEN_DOWN)])],
         (256, 32))  # one sketch longer than two passes
@example([_random_walk(4, 600), ls.VectorSketch(steps=np.zeros((0, 3))), _random_walk(5, 600),
          _sketch([(3.0, 4.0, ls.PEN_DOWN)])], (64, 7))  # the second walk straddles a pass
@example([ls.VectorSketch(steps=np.zeros((0, 3)))] * 3, (256, 32))  # nothing drawn
@settings(max_examples=80, deadline=None)
def test_sketch_lattices_equal_rasterize_then_sample(sketches, side_n):
    cfg = ls.LatticeConfig(n=side_n[1], side=side_n[0])
    got = sketch_lattices(sketches, cfg)
    assert len(got) == len(sketches)
    for lat, sk in zip(got, sketches):
        want = ls.sample_lattice(ls.rasterize(sk, cfg.side), cfg)
        assert (lat.side, lat.n) == (cfg.side, cfg.n)
        assert lat.points.dtype == want.points.dtype
        assert np.array_equal(lat.points, want.points)


def _scratch_peak(sketches, cfg):
    tracemalloc.start()
    try:
        lattices = sketch_lattices(sketches, cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return lattices, peak - kept


def test_sketch_lattices_hold_one_pass_of_scratch(square_sketch):
    # a square fitted to the canvas draws about 1,000 pixels, so a pass
    # (about 205 copies) yields about 200,000 keys out of a (6, pixels)
    # block; holding that block, or the previous pass's keys, while the
    # next pass is drawn took the peak from 15 MB to 25 MB or 16.5 MB
    cfg = ls.LatticeConfig(n=8)
    _, one_pass = _scratch_peak([square_sketch] * (SEGMENTS_PER_PASS // 5), cfg)
    lattices, many = _scratch_peak([square_sketch] * (4 * SEGMENTS_PER_PASS // 5), cfg)
    assert many < 1.02 * one_pass  # 14.90 MB and 14.91 MB
    want = ls.sample_lattice(ls.rasterize(square_sketch, cfg.side), cfg).points
    assert all(np.array_equal(lat.points, want) for lat in lattices)
    for _, keys in drawn_pixels([square_sketch] * 300, cfg.side):
        assert keys.base is None  # owns its data, not a row of a larger block


_BAD_FIT = _sketch([(1e308, 0.0, ls.PEN_DOWN), (1e308, 0.0, ls.PEN_DOWN)])  # sum overflows


@given(st.lists(_SKETCH, max_size=6), st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_sketch_lattices_refuse_a_batch_with_one_bad_fit(sketches, at):
    with pytest.raises(ls.MalformedRecord, match="fitted coordinates"):
        ls.rasterize(_BAD_FIT, 256)
    batch = sketches[:at] + [_BAD_FIT] + sketches[at:]
    with pytest.raises(ls.MalformedRecord, match="fitted coordinates"):
        sketch_lattices(batch, ls.LatticeConfig())
