"""Sketch parsing, stroke formats, rasterization and SVG rendering."""

import contextlib
import itertools
import json
import math
import re
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_cli_inputs import _BROKEN, _LEGAL

import lattisketch as ls
from lattisketch import sketch_data
from lattisketch.sketch_data import (CANVAS_MARGIN, SEGMENTS_PER_PASS, STROKE5_PAD,
                                     _fit_points, read_sketches)


# ---------------------------------------------------------------------------
# parse_quickdraw_line


def test_parse_empty_drawing():
    sk = ls.parse_quickdraw_line('{"drawing": []}')
    assert sk.n_steps == 0
    assert sk.is_empty()


def test_parse_two_point_polyline():
    # first point anchors the origin, so one offset step plus the end marker
    sk = ls.parse_quickdraw_line('{"drawing": [[[0, 10], [0, 0]]]}')
    steps = [tuple(row) for row in sk.steps]
    assert steps == [(10.0, 0.0, ls.PEN_LIFT), (0.0, 0.0, ls.PEN_END)]
    assert sk.drawn_segments().shape[0] == 1


def test_parse_single_point_drawing():
    sk = ls.parse_quickdraw_line('{"drawing": [[[0], [0]]]}')
    steps = [tuple(row) for row in sk.steps]
    assert steps == [(0.0, 0.0, ls.PEN_DOWN), (0.0, 0.0, ls.PEN_END)]


def test_parse_offsets_and_pen_states(square_sketch):
    # closed square: 4 drawn moves, pen lifted on the last
    pens = square_sketch.steps[:, 2].tolist()
    assert pens == [ls.PEN_DOWN, ls.PEN_DOWN, ls.PEN_DOWN, ls.PEN_LIFT, ls.PEN_END]
    assert square_sketch.drawn_segments().shape[0] == 4


def test_parse_multistroke_lift_between_polylines():
    line = '{"drawing": [[[0, 5], [0, 0]], [[0, 0], [5, 9]]]}'
    sk = ls.parse_quickdraw_line(line)
    pens = sk.steps[:, 2].tolist()
    assert pens.count(ls.PEN_LIFT) == 2
    assert pens[-1] == ls.PEN_END


@pytest.mark.parametrize("line", [
    "not json at all",
    '{"no_drawing": 1}',
    '{"drawing": "nope"}',
    '{"drawing": [[[0, 1], [0]]]}',          # ragged polyline
    '{"drawing": [[[0, "x"], [0, 1]]]}',     # non-numeric
])
def test_parse_malformed(line):
    with pytest.raises(ls.MalformedRecord):
        ls.parse_quickdraw_line(line)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "true", "false",
                                   pytest.param("1" + "0" * 400, id="int_beyond_float")])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_parse_rejects_non_finite_and_boolean_coordinates(token, axis):
    xs, ys = ("[%s, 5]" % token, "[0, 2]") if axis == "x" else ("[0, 5]", "[%s, 2]" % token)
    with pytest.raises(ls.MalformedRecord, match="finite number"):
        ls.parse_quickdraw_line('{"drawing": [[%s, %s]]}' % (xs, ys))


def test_parse_rejects_overflowing_coordinate_difference():
    # both coordinates are finite, their difference is not
    with pytest.raises(ls.MalformedRecord, match="overflows"):
        ls.parse_quickdraw_line('{"drawing": [[[-1e308, 1e308], [0, 2]]]}')


def test_validate_rejects_overflowing_running_sum():
    # two finite steps whose running sum is inf
    obj = {"steps": [[1e308, 0.0, "down"], [1e308, 0.0, "end"]]}
    with pytest.raises(ls.MalformedRecord, match="running sum"):
        ls.sketch_from_json_obj(obj)


def test_rasterize_rejects_non_finite_fit():
    sk = ls.VectorSketch(steps=np.array([[1e308, 0.0, ls.PEN_DOWN], [1e308, 0.0, ls.PEN_END]]))
    with pytest.raises(ls.MalformedRecord, match="fitted coordinates"):
        ls.rasterize(sk, 256)


def test_rasterize_and_canonicalize_reject_side_below_minimum(square_sketch):
    with pytest.raises(ls.OutOfRange, match="canvas side 5"):
        ls.rasterize(square_sketch, 5)
    with pytest.raises(ls.OutOfRange, match="canvas side 5"):
        ls.canonicalize_raster(ls.rasterize(square_sketch, 64), 5)
    assert ls.rasterize(square_sketch, 6).dark_count() > 0
    with pytest.raises(ls.OutOfRange, match="canvas side 100000 is above the maximum"):
        ls.rasterize(square_sketch, 100000)
    with pytest.raises(ls.OutOfRange, match="canvas side 1025 is above the maximum"):
        ls.canonicalize_raster(ls.rasterize(square_sketch, 64), 1025)


def test_validate_rejects_midstream_end():
    steps = np.array([[1.0, 0.0, ls.PEN_END], [1.0, 0.0, ls.PEN_DOWN]])
    with pytest.raises(ls.MalformedRecord):
        ls.VectorSketch(steps=steps).validate()


# ---------------------------------------------------------------------------
# stroke-5


def from_stroke5(rows: np.ndarray) -> ls.VectorSketch:
    """Inverse of to_stroke5: keep rows up to and including the first p_end=1."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    pens = np.argmax(rows[:, 2:5], axis=1)
    ends = np.flatnonzero(pens == ls.PEN_END)
    if ends.size:
        cut = ends[0]
        # a leading p_end row is all padding: the sketch is empty
        if cut == 0 and not np.any(rows[0, :2]):
            return ls.VectorSketch(np.zeros((0, 3)))
        rows = rows[: cut + 1]
        pens = pens[: cut + 1]
    steps = np.column_stack([rows[:, 0], rows[:, 1], pens.astype(np.float64)])
    return ls.VectorSketch(steps)


def validate_stroke5(rows: np.ndarray) -> None:
    """Check the stroke-5 invariants (one-hot pens, all-padding tail)."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise ls.MalformedRecord("stroke-5 array must be (n, 5)")
    onehot = rows[:, 2:5]
    if not np.all(np.isin(onehot, (0.0, 1.0))) or not np.all(onehot.sum(axis=1) == 1.0):
        raise ls.MalformedRecord("pen columns are not one-hot")
    ends = np.flatnonzero(onehot[:, 2] == 1.0)
    if ends.size:
        tail = rows[ends[0] + 1:]
        if tail.size and not np.all(tail == STROKE5_PAD):
            raise ls.MalformedRecord("rows after the first p_end are not padding")


def test_to_stroke5_empty_is_all_padding():
    rows = ls.to_stroke5(ls.VectorSketch(steps=np.zeros((0, 3))), 4)
    assert rows.shape == (4, 5)
    assert np.array_equal(rows, np.tile([0, 0, 0, 0, 1], (4, 1)))


def test_to_stroke5_exact_fit():
    sk = ls.parse_quickdraw_line('{"drawing": [[[0, 10], [0, 0]]]}')
    rows = ls.to_stroke5(sk, 2)
    assert rows.shape == (2, 5)
    assert rows[0, 3] == 1 and rows[1, 4] == 1


def test_to_stroke5_padding_tail():
    sk = ls.parse_quickdraw_line('{"drawing": [[[0, 10, 20], [0, 0, 0]]]}')
    rows = ls.to_stroke5(sk, 200)
    assert np.array_equal(rows[3:], np.tile([0, 0, 0, 0, 1], (197, 1)))


def test_to_stroke5_too_long():
    sk = ls.parse_quickdraw_line('{"drawing": [[[0, 1, 2, 3], [0, 0, 0, 0]]]}')
    with pytest.raises(ls.SequenceTooLong):
        ls.to_stroke5(sk, 2)


def test_stroke5_round_trip(square_sketch):
    rows = ls.to_stroke5(square_sketch, 32)
    back = from_stroke5(rows)
    validate_stroke5(rows)
    assert np.allclose(back.steps, square_sketch.steps)


def test_validate_stroke5_rejects_bad_onehot():
    rows = np.zeros((3, 5))
    rows[:, 4] = 1
    rows[1, 3] = 1  # two hot bits
    with pytest.raises(ls.MalformedRecord):
        validate_stroke5(rows)


# ---------------------------------------------------------------------------
# rasterization against an independent segment-walk oracle


def oracle_segment(x0, y0, x1, y1):
    """All pixels of the discrete segment, walked one major-axis step at a
    time with exact rational midpoint rounding. Independent of the
    implementation's integer recurrence."""
    if (x1, y1) < (x0, y0):
        x0, y0, x1, y1 = x1, y1, x0, y0
    dx, dy = x1 - x0, y1 - y0
    pts = set()
    if max(abs(dx), abs(dy)) == 0:
        return {(x0, y0)}
    if abs(dx) >= abs(dy):
        for t in range(abs(dx) + 1):
            x = x0 + t * (1 if dx > 0 else -1)
            # y = y0 + dy * (x - x0)/dx, rounded half toward +inf on the
            # doubled grid (midpoint rule)
            frac = Fraction(dy * (x - x0), dx) if dx else Fraction(0)
            y = int((frac + Fraction(1, 2)).__floor__()) + y0
            pts.add((x, y))
    else:
        for t in range(abs(dy) + 1):
            y = y0 + t * (1 if dy > 0 else -1)
            frac = Fraction(dx * (y - y0), dy)
            x = int((frac + Fraction(1, 2)).__floor__()) + x0
            pts.add((x, y))
    return pts


def segment_pixels(x0, y0, x1, y1):
    """Scalar integer midpoint line: the (k, 2) pixel set of one segment,
    endpoints canonicalized, minor offset floor((2*t*minor + major) /
    (2*major)). The rasterizer draws all segments at once by this rule."""
    if (x1, y1) < (x0, y0):
        x0, y0, x1, y1 = x1, y1, x0, y0
    dx = x1 - x0  # >= 0 after the swap
    dy = y1 - y0
    if dx == 0 and dy == 0:
        return np.array([[x0, y0]], dtype=np.int64)
    if dx >= abs(dy):
        t = np.arange(dx + 1, dtype=np.int64)
        ys = y0 + (2 * t * dy + dx) // (2 * dx)
        return np.column_stack([x0 + t, ys])
    ady = abs(dy)
    sy = 1 if dy > 0 else -1
    t = np.arange(ady + 1, dtype=np.int64)
    xs = x0 + (2 * t * dx + ady) // (2 * ady)
    return np.column_stack([xs, y0 + sy * t])


@given(st.tuples(st.integers(0, 60), st.integers(0, 60),
                 st.integers(0, 60), st.integers(0, 60)))
@settings(max_examples=200, deadline=None)
def test_segment_pixels_matches_rational_oracle(coords):
    x0, y0, x1, y1 = coords
    got = {tuple(p) for p in segment_pixels(x0, y0, x1, y1)}
    assert got == oracle_segment(x0, y0, x1, y1)


def test_segment_pixels_endpoint_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x0, y0, x1, y1 = rng.integers(0, 100, size=4)
        a = {tuple(p) for p in segment_pixels(x0, y0, x1, y1)}
        b = {tuple(p) for p in segment_pixels(x1, y1, x0, y0)}
        assert a == b


def test_rasterize_empty_is_blank():
    r = ls.rasterize(ls.VectorSketch(steps=np.zeros((0, 3))), 256)
    assert r.pixels.shape == (256, 256)
    assert r.dark_count() == 0


def test_rasterize_horizontal_segment_pixel_count():
    # a sketch that is a single horizontal stroke scales to width
    # side - 2*margin, so the dark count is that length + 1
    sk = ls.parse_quickdraw_line('{"drawing": [[[0, 100], [0, 0]]]}')
    r = ls.rasterize(sk, 256)
    assert r.dark_count() == (256 - 4) + 1


def rasterize_oracle(sketch, side, segment=oracle_segment):
    """Brute-force rasterization: rasterize's fit of the drawn segments'
    endpoints, then the scalar walk `segment` (the rational one above by
    default) for each drawn segment, one at a time."""
    img = np.zeros((side, side), dtype=np.uint8)
    segs = sketch.drawn_segments()
    if not len(segs):
        return img
    ends = np.vstack([segs[:, 0:2], segs[:, 2:4]])
    mapped = _fit_points(ends, side, CANVAS_MARGIN).astype(np.int64)
    for (x0, y0), (x1, y1) in zip(mapped[:len(segs)], mapped[len(segs):]):
        for x, y in segment(int(x0), int(y0), int(x1), int(y1)):
            img[y, x] = 1
    return img


def test_rasterize_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n_pts = int(rng.integers(2, 9))
        xs = rng.integers(0, 200, size=n_pts).tolist()
        ys = rng.integers(0, 200, size=n_pts).tolist()
        sk = ls.parse_quickdraw_line(json.dumps({"drawing": [[xs, ys]]}))
        got = ls.rasterize(sk, 128).pixels
        want = rasterize_oracle(sk, 128)
        assert np.array_equal(got, want)


# offsets biased to 0 and to equal magnitudes, so that dots, repeated points,
# horizontal, vertical and 45-degree moves come up often in both directions
_OFFSET = st.one_of(st.just(0.0), st.sampled_from([-7.0, 7.0]),
                    st.integers(-40, 40).map(float),
                    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False))
_STEP = st.tuples(_OFFSET, _OFFSET, st.sampled_from([ls.PEN_DOWN, ls.PEN_DOWN, ls.PEN_LIFT]))


@given(st.lists(_STEP, min_size=1, max_size=30), st.sampled_from([256, 64, 17]))
@example([(0.0, 0.0, ls.PEN_DOWN)], 256)  # a lone dot
@example([(5.0, 0.0, ls.PEN_LIFT), (0.0, 0.0, ls.PEN_DOWN), (0.0, 0.0, ls.PEN_LIFT),
          (3.0, 1.0, ls.PEN_DOWN)], 256)  # a dot after a pen lift
@example([(9.0, 1.0, 0), (-9.0, 1.0, 0), (0.0, 9.0, 0), (0.0, -9.0, 0),
          (1.0, 9.0, 0), (-1.0, -9.0, 0), (-9.0, 0.0, 0), (9.0, 0.0, 0)],
         256)  # shallow, vertical, steep and horizontal moves, each both ways
@example([(0.0, 9.381569954179927e-309, 0)], 256)  # an extent whose reciprocal overflows
@settings(max_examples=300, deadline=None)
def test_rasterize_equals_union_of_segment_oracle(steps, side):
    rows = [list(s) for s in steps] + [[0.0, 0.0, ls.PEN_END]]
    sk = ls.VectorSketch(steps=np.array(rows))
    assert np.array_equal(ls.rasterize(sk, side).pixels, rasterize_oracle(sk, side, segment_pixels))


def fit_points_oracle(points, side, margin):
    """The fit of one sketch in scalar form: one frexp exponent, then the
    extent, scale and offset as Python floats."""
    _, exp = np.frexp(float((points.max(axis=0) - points.min(axis=0)).max()))
    points = np.ldexp(points, -exp)
    lo = points.min(axis=0)
    extent = points.max(axis=0) - lo
    usable = side - 2 * margin
    biggest = float(extent.max())
    scale = usable / biggest if biggest > 0 else 1.0
    offset = margin + (usable - extent * scale) / 2.0 - lo * scale
    return np.floor(points * scale + offset + 0.5)


_COORD = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300),
                   st.sampled_from([0.0, -0.0, 5e-324, 9.381569954179927e-309, 1e300]))
_RUN = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=6)


@given(st.lists(_RUN, min_size=1, max_size=5), st.sampled_from([256, 64, 17]))
@settings(max_examples=200, deadline=None)
def test_fit_points_fits_each_run_as_the_scalar_fit(runs, side):
    with np.errstate(over="ignore", invalid="ignore"):
        got = _fit_points(np.array([p for run in runs for p in run]), side, CANVAS_MARGIN,
                          np.array([len(run) for run in runs]))
        want = np.concatenate([fit_points_oracle(np.array(run), side, CANVAS_MARGIN)
                               for run in runs])
    assert np.array_equal(got, want, equal_nan=True)


def test_rasterize_long_sketch_matches_oracle():
    # more drawn segments than one vectorized pass takes
    rng = np.random.default_rng(8)
    n = 2 * SEGMENTS_PER_PASS + 37
    steps = np.column_stack([rng.integers(-30, 31, size=(n, 2)),
                             (rng.random(n) < 0.2) * float(ls.PEN_LIFT)]).astype(float)
    steps[-1, 2] = ls.PEN_END
    sk = ls.VectorSketch(steps=steps)
    assert np.array_equal(ls.rasterize(sk, 256).pixels, rasterize_oracle(sk, 256, segment_pixels))


def test_rasterize_fits_an_extent_whose_reciprocal_overflows():
    # 252 / 9.4e-309 is not a float; the segment must still fill the canvas
    sk = ls.VectorSketch(steps=np.array([[0.0, 9.381569954179927e-309, ls.PEN_DOWN],
                                         [0.0, 0.0, ls.PEN_END]]))
    ys, xs = np.nonzero(ls.rasterize(sk, 256).pixels)
    assert set(xs) == {128}
    assert (ys.min(), ys.max(), len(ys)) == (2, 254, 253)


def test_rasterize_aspect_ratio_preserved():
    # 100x50 box: long side fills side-2*margin, short side half of that
    sk = ls.parse_quickdraw_line(
        '{"drawing": [[[0, 100, 100, 0, 0], [0, 0, 50, 50, 0]]]}')
    r = ls.rasterize(sk, 256)
    ys, xs = np.nonzero(r.pixels)
    w = xs.max() - xs.min()
    h = ys.max() - ys.min()
    assert w == 256 - 4
    assert abs(w / h - 2.0) < 2.0 / h + 1e-9  # within one pixel


def test_rasterize_single_point_sketch():
    sk = ls.parse_quickdraw_line('{"drawing": [[[0], [0]]]}')
    r = ls.rasterize(sk, 256)
    assert r.dark_count() == 1


# ---------------------------------------------------------------------------
# SVG


def test_svg_empty_sketch_has_no_paths():
    svg = ls.render_svg(ls.VectorSketch(steps=np.zeros((0, 3))))
    assert svg.startswith("<?xml")
    assert "<path" not in svg
    assert "</svg>" in svg


def test_svg_one_segment_one_path():
    sk = ls.parse_quickdraw_line('{"drawing": [[[0, 10], [0, 0]]]}')
    assert ls.render_svg(sk).count("<path") == 1


def test_svg_path_per_pen_down_run():
    line = '{"drawing": [[[0, 5], [0, 0]], [[0, 9], [5, 9]]]}'
    assert ls.render_svg(ls.parse_quickdraw_line(line)).count("<path") == 2


def test_svg_round_trip_coordinates(square_sketch):
    svg = ls.render_svg(square_sketch)
    coord = r"(-?\d+\.\d+)[ ,](-?\d+\.\d+)"
    pts = []
    for d in re.findall(r'd="([^"]+)"', svg):
        pts += [(float(x), float(y)) for x, y in re.findall(coord, d)]
    # drop the zero-offset end row: it is not part of the drawn path
    want = square_sketch.absolute_points()[:-1]
    assert len(pts) == want.shape[0]
    got = np.array(pts)
    assert np.max(np.abs(np.sort(got, axis=0) - np.sort(want, axis=0))) < 1e-3


def test_svg_refuses_a_drawing_it_cannot_frame():
    # the raw record {"drawing": [[[0.9e308, 0, -0.9e308], [0, 0, 0]]]}, built directly
    sk = ls.VectorSketch(np.array([[-0.9e308, 0.0, ls.PEN_DOWN], [-0.9e308, 0.0, ls.PEN_LIFT],
                                   [0.0, 0.0, ls.PEN_END]]))
    with pytest.raises(ls.MalformedRecord, match="span more than the float range"):
        ls.render_svg(sk)


def test_svg_deterministic(square_sketch):
    assert ls.render_svg(square_sketch) == ls.render_svg(square_sketch)


# ---------------------------------------------------------------------------
# JSON and PGM round trips


def test_sketch_json_round_trip(square_sketch):
    obj = ls.sketch_to_json_obj(square_sketch, label="square")
    back = ls.sketch_from_json_obj(json.loads(json.dumps(obj)))
    assert np.allclose(back.steps, square_sketch.steps)


def test_read_sketches_mixed_records(tmp_path, square_sketch):
    raw = ['{"drawing": [[[0, 10, 10, 0, 0], [0, 0, 10, 10, 0]]]}',
           '{"word": "dot", "drawing": [[[3], [4]]]}', '{"drawing": []}']
    canonical = [json.dumps(ls.sketch_to_json_obj(square_sketch, label="square")),
                 json.dumps({"steps": [[1.5, -2.0, "down"], [0.0, 3.0, "end"]]})]
    lines = [raw[0], "", canonical[0], "   ", raw[1], canonical[1], "\t", raw[2]]
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n\n")
    want = [ls.parse_quickdraw_line(raw[0]),
            ls.sketch_from_json_obj(json.loads(canonical[0])),
            ls.parse_quickdraw_line(raw[1]),
            ls.sketch_from_json_obj(json.loads(canonical[1])),
            ls.parse_quickdraw_line(raw[2])]
    got = list(read_sketches(path))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.steps, w.steps)

    bad = [("not json", "invalid JSON"),
           (json.dumps({"steps": [[1, 0, "end"], [1, 0, "down"]]}), "pen=end")]
    for record, reason in bad:
        path = tmp_path / "bad.jsonl"
        path.write_text(raw[0] + "\n\n" + record + "\n" + canonical[0] + "\n")
        with pytest.raises(ls.MalformedRecord, match=f"bad.jsonl:3: {reason}"):
            list(read_sketches(path))


# ---------------------------------------------------------------------------
# the chunked reader against record-at-a-time oracles


def oracle_validate(steps: np.ndarray) -> None:
    """One sketch's format invariants, checked one after the other."""
    pens = steps[:, 2]
    if not np.all(np.isin(pens, (ls.PEN_DOWN, ls.PEN_LIFT, ls.PEN_END))):
        raise ls.MalformedRecord("unknown pen state")
    ends = np.flatnonzero(pens == ls.PEN_END)
    if ends.size > 1:
        raise ls.MalformedRecord("more than one pen=end step")
    if ends.size == 1 and ends[0] != len(steps) - 1:
        raise ls.MalformedRecord("pen=end is not the final step")
    if not np.all(np.isfinite(steps)):
        raise ls.MalformedRecord("non-finite offset")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.cumsum(steps[:, :2], axis=0))):
            raise ls.MalformedRecord("running sum of offsets overflows a float")
    # the endpoints of every drawn move, pen by pen from the origin, pen down
    x, y, pen, drawn = 0.0, 0.0, ls.PEN_DOWN, []
    for dx, dy, next_pen in steps.tolist():
        if pen == ls.PEN_DOWN:
            drawn += [(x, y), (x + dx, y + dy)]
        x, y, pen = x + dx, y + dy, next_pen
    for axis in (0, 1):
        values = [point[axis] for point in drawn]
        if values and not math.isfinite(max(values) - min(values)):
            raise ls.MalformedRecord("drawn points span more than the float range")


def oracle_quickdraw(record) -> np.ndarray:
    """A raw record's steps, coordinate by coordinate."""
    if not isinstance(record, dict) or "drawing" not in record:
        raise ls.MalformedRecord('missing "drawing" key')
    drawing = record["drawing"]
    if not isinstance(drawing, list):
        raise ls.MalformedRecord('"drawing" is not a list')
    xs_all, ys_all, pens_all = [], [], []
    for poly in drawing:
        if not isinstance(poly, (list, tuple)) or len(poly) < 2:
            raise ls.MalformedRecord("polyline is not an [xs, ys] pair")
        xs, ys = poly[0], poly[1]
        if not isinstance(xs, (list, tuple)) or not isinstance(ys, (list, tuple)):
            raise ls.MalformedRecord("polyline coordinates are not lists")
        if len(xs) != len(ys):
            raise ls.MalformedRecord("polyline x/y length mismatch")
        for i, (x, y) in enumerate(zip(xs, ys)):
            if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                       for v in (x, y)):
                raise ls.MalformedRecord("coordinate is not a finite number")
            xs_all.append(float(x))
            ys_all.append(float(y))
            pens_all.append(ls.PEN_LIFT if i == len(xs) - 1 else ls.PEN_DOWN)
    if not xs_all:
        return np.zeros((0, 3))
    if len(xs_all) == 1:
        return np.array([(0.0, 0.0, ls.PEN_DOWN), (0.0, 0.0, ls.PEN_END)])
    steps = np.zeros((len(xs_all), 3))
    with np.errstate(over="ignore"):
        steps[1:, 0] = np.diff(np.array(xs_all))
        steps[1:, 1] = np.diff(np.array(ys_all))
    if not np.all(np.isfinite(steps)):
        raise ls.MalformedRecord("coordinate difference overflows a float")
    steps[:, 2] = pens_all
    steps = np.vstack([steps[1:], [[0.0, 0.0, ls.PEN_END]]])
    oracle_validate(steps)
    return steps


def oracle_canonical(obj) -> np.ndarray:
    """A canonical record's steps, row by row, then validated."""
    if not isinstance(obj, dict) or "steps" not in obj:
        raise ls.MalformedRecord('missing "steps" key')
    if not isinstance(obj["steps"], list):
        raise ls.MalformedRecord('"steps" is not a list')
    codes = {"down": ls.PEN_DOWN, "lift": ls.PEN_LIFT, "end": ls.PEN_END}
    steps = []
    for row in obj["steps"]:
        try:
            dx, dy, pen = row
            steps.append((float(dx), float(dy), codes[pen]))
        except (TypeError, ValueError, KeyError, OverflowError):
            raise ls.MalformedRecord(f"bad step row: {row!r}") from None
    steps = np.array(steps).reshape(-1, 3)
    oracle_validate(steps)
    return steps


def oracle_read(path):
    """Yield each line's steps as it is read; raise at the first bad line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ls.MalformedRecord(f"invalid JSON: {exc}") from exc
                if isinstance(record, dict) and "steps" in record:
                    steps = oracle_canonical(record)
                else:
                    steps = oracle_quickdraw(record)
            except UnicodeDecodeError:
                raise ls.MalformedRecord(f"{path}:{lineno}: not UTF-8 text") from None
            except ls.MalformedRecord as exc:
                raise ls.MalformedRecord(f"{path}:{lineno}: {exc}") from exc
            yield steps


def _outcome(sketches):
    """Each yielded steps array as (shape, dtype, bytes), then the error
    text, or None when the reading ends without one."""
    got = []
    try:
        for sk in sketches:
            steps = sk if isinstance(sk, np.ndarray) else sk.steps
            got.append((steps.shape, steps.dtype, steps.tobytes()))
    except ls.MalformedRecord as exc:
        return got, str(exc)
    return got, None


def _assert_reads_as_oracle(path):
    want, want_error = _outcome(oracle_read(path))
    with mock.patch.object(sketch_data, "LINES_PER_CHUNK", 3):
        assert _outcome(read_sketches(path)) == (want, want_error)
        # a consumer that stops before a bad line never sees it
        for k in range(len(want) + 1):
            reader = read_sketches(path)
            assert len(list(itertools.islice(reader, k))) == k
            reader.close()


_READER_LINE = st.one_of(_LEGAL, _LEGAL, _LEGAL, _BROKEN, st.sampled_from(
    [b"", b"  \t", b"\xff\xfe[]", b'{"drawing": [[[1, 2], [3, 4]]], "x": "\xe9"}']))


@given(st.lists(_READER_LINE, max_size=10))
@example([b'{"drawing": [[[0, 1], [0, 1]]]}'] * 3 + [b"not json"])  # bad just past a chunk
@example([b'{"drawing": [[[0, 1], [0, 1]]]}'] * 2 + [b'{"steps": [[1e308, 0, "down"], '
                                                    b'[1e308, 0, "end"]]}'])
@example([b'{"drawing": [[[0, 1], [0, 1]]]}',  # a bad coordinate before a bad polyline
          b'{"drawing": [[[NaN, 1], [0, 1]], 5]}'])
@example([b'{"drawing": [[[0, %d], [0, 1]]]}' % (int(sys.float_info.max) + 1)])  # rounds to max
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_read_sketches_matches_record_at_a_time_oracle(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sketches.ndjson"
        path.write_bytes(b"\n".join(lines) + b"\n")
        _assert_reads_as_oracle(path)


@given(_READER_LINE)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_batch_of_one_parsers_match_their_oracles(raw):
    try:
        line = raw.decode("utf-8")
        record = json.loads(line)
    except ValueError:  # UnicodeDecodeError too
        return
    for parse, arg, oracle in [(ls.parse_quickdraw_line, line, oracle_quickdraw),
                               (ls.sketch_from_json_obj, record, oracle_canonical)]:
        outcomes = []
        for read in (lambda: oracle(record), lambda: parse(arg).steps):
            try:
                outcomes.append(read().tobytes())
            except ls.MalformedRecord as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


_PEN = st.sampled_from([0.0, 1.0, 2.0, 0.0, 1.0, 0.5, 3.0, -1.0])
_OFFSET = st.one_of(st.floats(-10, 10), st.sampled_from([1e308, -1e308, 8e307, np.inf,
                                                         np.nan, 0.0]))


@given(st.lists(st.tuples(_OFFSET, _OFFSET, _PEN), max_size=6))
@settings(max_examples=300, deadline=None)
def test_validate_matches_its_oracle(rows):
    steps = np.array(rows, dtype=np.float64).reshape(-1, 3)
    try:
        oracle_validate(steps)
        want = None
    except ls.MalformedRecord as exc:
        want = str(exc)
    try:
        ls.VectorSketch(steps).validate()
        got = None
    except ls.MalformedRecord as exc:
        got = str(exc)
    assert got == want


@given(st.lists(st.tuples(_OFFSET, _OFFSET, _PEN), max_size=6), st.booleans())
@example([(1e308, 0.0, 0.0), (-1e308, 0.0, 0.0), (-1e308, 0.0, 2.0)], False)  # spans 2e308
@example([(1e308, 0.0, 1.0), (-1e308, 0.0, 1.0), (-1e308, 0.0, 2.0)], False)  # -1e308 not drawn
@example([(1e308, 0.0, 1.0), (1e308, 0.0, 2.0)], False)  # only an undrawn point overflows
@settings(max_examples=300, deadline=None)
def test_validate_passes_exactly_when_rasterize_succeeds(rows, legal_pens):
    # on the sketches the earlier rules admit; those rules also refuse a
    # non-finite offset or running sum that only an undrawn point meets
    steps = np.array(rows, dtype=np.float64).reshape(-1, 3)
    if legal_pens:  # most drawn pen lists break a pen rule
        steps[:, 2] = np.where(steps[:, 2] == ls.PEN_DOWN, ls.PEN_DOWN, ls.PEN_LIFT)
        steps[-1:, 2] = ls.PEN_END
    sketch = ls.VectorSketch(steps)
    try:
        sketch.validate()
        reason = None
    except ls.MalformedRecord as exc:
        reason = str(exc)
    try:
        ls.rasterize(sketch)
        drawn = True
    except ls.MalformedRecord:
        drawn = False
    if reason is None or reason == "drawn points span more than the float range":
        assert drawn == (reason is None), reason
    assert drawn or reason is not None


_EXTREME_LINE = st.one_of(
    st.lists(st.tuples(_OFFSET, _OFFSET, st.sampled_from(["down", "lift", "end"])).map(list),
             max_size=6).map(lambda rows: {"steps": rows}),
    st.lists(st.lists(_OFFSET, min_size=1, max_size=4).flatmap(
        lambda xs: st.lists(_OFFSET, min_size=len(xs), max_size=len(xs)).map(
            lambda ys: [xs, ys])), max_size=3).map(lambda d: {"drawing": d}),
).map(lambda r: json.dumps(r).encode())


@given(st.lists(st.one_of(_READER_LINE, _EXTREME_LINE), max_size=6))
@example([b'{"drawing": [[[0, 1e308, 0, -1e308], [0, 0, 0, 0]]]}'])  # spans 2e308
@example([b'{"drawing": [[[0.9e308, 0, -0.9e308], [0, 0, 0]]]}'])  # sums to -1.8e308
@example([b'{"steps": [[1e308, 0, "down"], [-1e308, 0, "down"], [-1e308, 0, "end"]]}'])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_sketch_a_reader_yields_passes_validate(lines):
    yielded = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sketches.ndjson"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with contextlib.suppress(ls.MalformedRecord):
            yielded += read_sketches(path)
    for raw in lines:
        try:
            line = raw.decode("utf-8")
            record = json.loads(line)
        except ValueError:  # UnicodeDecodeError too
            continue
        for parse, arg in [(ls.parse_quickdraw_line, line), (ls.sketch_from_json_obj, record)]:
            with contextlib.suppress(ls.MalformedRecord):
                yielded.append(parse(arg))
    for sketch in yielded:
        sketch.validate()


def _line_record(i: int) -> bytes:
    cat = ("ring", "ladder")[i % 2]
    return json.dumps(ls.make_sketch_record(cat, np.random.default_rng(i))).encode()


@pytest.mark.parametrize("bad_at", [0, 2, 3, 5, 6])
def test_a_bad_line_at_a_chunk_edge_comes_after_every_sketch_before_it(tmp_path, bad_at):
    lines = [_line_record(i) for i in range(8)]
    lines[bad_at] = b'{"steps": [[1, 0, "end"], [1, 0, "down"]]}'
    path = tmp_path / "edge.ndjson"
    path.write_bytes(b"\n".join(lines) + b"\n")
    _assert_reads_as_oracle(path)
    with mock.patch.object(sketch_data, "LINES_PER_CHUNK", 3):
        reader = read_sketches(path)
        assert len(list(itertools.islice(reader, bad_at))) == bad_at
        with pytest.raises(ls.MalformedRecord, match=f"edge.ndjson:{bad_at + 1}: pen=end"):
            next(reader)


def test_each_sketch_owns_its_rows(tmp_path):
    lines = [_line_record(i) for i in range(7)]
    lines += [json.dumps(ls.sketch_to_json_obj(ls.parse_quickdraw_line(line))).encode()
              for line in lines]
    path = tmp_path / "mixed.ndjson"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with mock.patch.object(sketch_data, "LINES_PER_CHUNK", 5):
        sketches = list(read_sketches(path))
    assert len(sketches) == 14
    for sk in sketches:
        owner = sk.steps if sk.steps.base is None else sk.steps.base
        assert owner.base is None and owner.nbytes == sk.steps.nbytes


def _read_peak(path) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for _ in read_sketches(path):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_holds_one_chunk_of_scratch(tmp_path):
    lines = [_line_record(i) for i in range(3 * sketch_data.LINES_PER_CHUNK)]
    one, three = tmp_path / "one.ndjson", tmp_path / "three.ndjson"
    one.write_bytes(b"\n".join(lines[:sketch_data.LINES_PER_CHUNK]) + b"\n")
    three.write_bytes(b"\n".join(lines) + b"\n")
    _read_peak(one)  # first calls allocate caches that stay
    assert _read_peak(three) < 2 * _read_peak(one)


def test_sketch_to_json_obj_text_matches_row_by_row_conversion():
    rng = np.random.default_rng(3)
    steps = np.column_stack([rng.normal(0, 1e3, (50, 2)), rng.integers(0, 2, 50)])
    steps[:5, :2] = [[-0.0, -0.0], [1e308, -5e-324], [0.1, 1 / 3], [2.0**60, -7.0], [3.0, 1e-7]]
    steps[-1] = (0.0, 0.0, ls.PEN_END)
    sketch = ls.VectorSketch(steps)
    names = {0: "down", 1: "lift", 2: "end"}
    want = {"steps": [[float(dx), float(dy), names[int(pen)]] for dx, dy, pen in sketch.steps],
            "label": "x"}
    assert json.dumps(ls.sketch_to_json_obj(sketch, label="x")) == json.dumps(want)


def test_pgm_round_trip(tmp_path, square_sketch):
    r = ls.rasterize(square_sketch, 64)
    path = tmp_path / "square.pgm"
    ls.write_pgm(r, path)
    back = ls.read_pgm(path)
    assert np.array_equal(back.pixels, r.pixels)


def test_read_pgm_ascii(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_text("P2\n# comment\n2 2\n255\n0 255\n255 0\n")
    r = ls.read_pgm(path)
    assert np.array_equal(r.pixels, [[1, 0], [0, 1]])


def test_read_pgm_truncated_p5_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(ls.MalformedRecord, match="truncated PGM payload"):
        ls.read_pgm(path)


def test_read_pgm_16bit_samples(tmp_path):
    pixels = np.full((4, 4), 65535, dtype=">u2")
    pixels[1] = 0  # one dark row
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n4 4\n65535\n" + pixels.tobytes())
    r = ls.read_pgm(path)
    assert np.array_equal(r.pixels, (pixels == 0).astype(np.uint8))
    path.write_bytes(b"P5\n4 4\n65535\n" + pixels.tobytes()[:-1])
    with pytest.raises(ls.MalformedRecord, match="truncated PGM payload"):
        ls.read_pgm(path)
    path.write_bytes(b"P5\n4 4\n65536\n" + pixels.tobytes())  # beyond 16 bits
    with pytest.raises(ls.MalformedRecord, match="bad PGM dimensions"):
        ls.read_pgm(path)


# ---------------------------------------------------------------------------
# properties


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_property_stroke5_round_trip(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    sk = ls.parse_quickdraw_line(json.dumps({"drawing": [[xs, ys]]}))
    rows = ls.to_stroke5(sk, 64)
    back = from_stroke5(rows)
    validate_stroke5(rows)
    assert np.allclose(back.steps, sk.steps)


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                min_size=2, max_size=6, unique=True))
@settings(max_examples=30, deadline=None)
def test_property_rasterize_oracle_equality(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    sk = ls.parse_quickdraw_line(json.dumps({"drawing": [[xs, ys]]}))
    assert np.array_equal(ls.rasterize(sk, 96).pixels, rasterize_oracle(sk, 96))
