"""Vector sketch ingestion, stroke-format conversion, rasterization and SVG export.

A vector sketch is an ordered list of steps ``(dx, dy, pen)``. Execution
starts at the origin with the pen down; each step moves the cursor by the
offset and then sets the pen state. A move draws a segment when the pen
was down *before* the move, so the first move of any non-empty sketch is
drawn. Pen states: 0 = down, 1 = lift, 2 = end (at most one, final).

Sketch files are JSON lines; ``read_sketches`` is their one reader.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedRecord, OutOfRange, SequenceTooLong

PEN_DOWN = 0
PEN_LIFT = 1
PEN_END = 2

_PEN_NAMES = {PEN_DOWN: "down", PEN_LIFT: "lift", PEN_END: "end"}
_PEN_CODES = {v: k for k, v in _PEN_NAMES.items()}

#: canonical canvas side in pixels
CANVAS_SIDE = 256
#: blank border kept inside the canvas when scaling a sketch to fit
CANVAS_MARGIN = 2
#: smallest canvas side that leaves the fit at least two pixels per axis
MIN_CANVAS_SIDE = 2 * CANVAS_MARGIN + 2
#: the stroke-5 row (dx, dy, p_down, p_lift, p_end) that pads a sequence
STROKE5_PAD = np.array([0.0, 0.0, 0.0, 0.0, 1.0])


def check_canvas_side(side: int) -> None:
    """Raise OutOfRange for a canvas side below MIN_CANVAS_SIDE."""
    if side < MIN_CANVAS_SIDE:
        raise OutOfRange(f"canvas side {side} is below the minimum {MIN_CANVAS_SIDE}")


@dataclass(frozen=True)
class VectorSketch:
    """Ordered stroke steps as an (n, 3) float array of (dx, dy, pen)."""

    steps: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        arr = np.asarray(self.steps, dtype=np.float64).reshape(-1, 3)
        object.__setattr__(self, "steps", arr)

    @property
    def n_steps(self) -> int:
        return self.steps.shape[0]

    def is_empty(self) -> bool:
        return self.n_steps == 0

    def validate(self) -> None:
        """Raise MalformedRecord if the step list breaks the format invariants."""
        pens = self.steps[:, 2]
        if not np.all(np.isin(pens, (PEN_DOWN, PEN_LIFT, PEN_END))):
            raise MalformedRecord("unknown pen state")
        ends = np.flatnonzero(pens == PEN_END)
        if ends.size > 1:
            raise MalformedRecord("more than one pen=end step")
        if ends.size == 1 and ends[0] != self.n_steps - 1:
            raise MalformedRecord("pen=end is not the final step")
        if not np.all(np.isfinite(self.steps)):
            raise MalformedRecord("non-finite offset")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.absolute_points())):
                raise MalformedRecord("running sum of offsets overflows a float")

    def absolute_points(self) -> np.ndarray:
        """Cursor positions, shape (n_steps + 1, 2); row 0 is the origin."""
        pts = np.zeros((self.n_steps + 1, 2))
        if self.n_steps:
            pts[1:] = np.cumsum(self.steps[:, :2], axis=0)
        return pts

    def drawn_segments(self) -> np.ndarray:
        """Segments actually inked, shape (k, 4) rows (x0, y0, x1, y1).

        A move draws when the pen state before it is down; the initial
        state is down. Zero-length segments (dots) are kept.
        """
        return _drawn_segments([self])[0]


#: the row each sketch starts with in _drawn_segments: the origin, pen down
_ORIGIN = np.array([[0.0, 0.0, PEN_DOWN]])


def _drawn_segments(sketches) -> tuple[np.ndarray, np.ndarray]:
    """The drawn segments of a list of sketches, one after the other, as
    (k, 4) rows (x0, y0, x1, y1), and how many of them each sketch has."""
    # per sketch its origin row, then one row per step holding the cursor
    # position after it and the step's pen; one more origin row closes the list
    rows = np.concatenate([r for sk in sketches for r in (_ORIGIN, sk.steps)] + [_ORIGIN])
    origins, lasts = [], []
    for sk in sketches:
        origins.append(lasts[-1] + 1 if lasts else 0)
        lasts.append(origins[-1] + sk.n_steps)
        np.cumsum(sk.steps[:, :2], axis=0, out=rows[origins[-1] + 1:lasts[-1] + 1, :2])
    # a move draws when the pen before it is down, but none goes from a
    # sketch's last row to the next origin
    drawn = rows[:-1, 2] == PEN_DOWN
    drawn[lasts] = False
    moves = np.concatenate([rows[:-1, :2], rows[1:, :2]], axis=1)
    return moves[drawn], np.add.reduceat(drawn, origins)


@dataclass(frozen=True)
class RasterSketch:
    """Binary pixel grid; ``pixels[y, x] == 1`` marks stroke ink."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=np.uint8))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def dark_count(self) -> int:
        return int(self.pixels.sum())


def _json_record(line: str):
    try:
        return json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an int of more than 4,300 digits
        raise MalformedRecord(f"invalid JSON: {exc}") from exc


def parse_quickdraw_line(line: str) -> VectorSketch:
    """Parse one QuickDraw-format JSON line into a VectorSketch.

    The record must carry a "drawing" array of polylines ``[[x...], [y...]]``
    (extra per-polyline arrays such as raw-format timestamps are ignored).
    An empty drawing maps to an empty sketch; a drawing whose only content
    is a single point maps to a pen-down dot.
    """
    return _quickdraw_sketch(_json_record(line))


def read_sketches(path):
    """Yield the sketches of a JSON-lines file, one per non-blank line.

    A record with a "steps" key is canonical (as ``sketch_to_json_obj``
    writes it) and is validated; any other record is raw QuickDraw (see
    ``parse_quickdraw_line``). A malformed line, or one that is not UTF-8
    text, raises MalformedRecord naming ``path:lineno``.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = _json_record(line)
                if isinstance(record, dict) and "steps" in record:
                    sketch = sketch_from_json_obj(record)
                else:
                    sketch = _quickdraw_sketch(record)
            except UnicodeDecodeError:
                raise MalformedRecord(f"{path}:{lineno}: not UTF-8 text") from None
            except MalformedRecord as exc:
                raise MalformedRecord(f"{path}:{lineno}: {exc}") from exc
            yield sketch


def _quickdraw_sketch(record) -> VectorSketch:
    if not isinstance(record, dict) or "drawing" not in record:
        raise MalformedRecord('missing "drawing" key')
    drawing = record["drawing"]
    if not isinstance(drawing, list):
        raise MalformedRecord('"drawing" is not a list')

    # absolute points annotated with the pen state after arrival:
    # down inside a polyline, lift on its last point
    xs_all: list[float] = []
    ys_all: list[float] = []
    pens_all: list[int] = []
    for poly in drawing:
        if not isinstance(poly, (list, tuple)) or len(poly) < 2:
            raise MalformedRecord("polyline is not an [xs, ys] pair")
        xs, ys = poly[0], poly[1]
        if not isinstance(xs, (list, tuple)) or not isinstance(ys, (list, tuple)):
            raise MalformedRecord("polyline coordinates are not lists")
        if len(xs) != len(ys):
            raise MalformedRecord("polyline x/y length mismatch")
        for i, (x, y) in enumerate(zip(xs, ys)):
            # json gives bools for true/false, floats for NaN/Infinity, ints of any size
            if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                       for v in (x, y)):
                raise MalformedRecord("coordinate is not a finite number")
            xs_all.append(float(x))
            ys_all.append(float(y))
            pens_all.append(PEN_LIFT if i == len(xs) - 1 else PEN_DOWN)

    if not xs_all:
        return VectorSketch(np.zeros((0, 3)))
    if len(xs_all) == 1:
        # lone dot: touch the pen down at the anchor, then end
        steps = [(0.0, 0.0, PEN_DOWN), (0.0, 0.0, PEN_END)]
        return VectorSketch(np.array(steps))

    xs_arr = np.array(xs_all)
    ys_arr = np.array(ys_all)
    steps = np.zeros((len(xs_all), 3))
    with np.errstate(over="ignore"):
        steps[1:, 0] = np.diff(xs_arr)
        steps[1:, 1] = np.diff(ys_arr)
    if not np.all(np.isfinite(steps)):
        raise MalformedRecord("coordinate difference overflows a float")
    steps[:, 2] = pens_all
    steps = steps[1:]  # the first point is the origin anchor
    end_row = np.array([[0.0, 0.0, PEN_END]])
    return VectorSketch(np.vstack([steps, end_row]))


def to_stroke5(sketch: VectorSketch, n_max: int) -> np.ndarray:
    """Expand a sketch to a fixed-length (n_max, 5) stroke-5 array.

    Rows mirror the steps as (dx, dy, p_down, p_lift, p_end); the remainder
    is STROKE5_PAD padding. Raises SequenceTooLong for > n_max steps.
    """
    n = sketch.n_steps
    if n > n_max:
        raise SequenceTooLong(f"{n} steps exceed n_max={n_max}")
    rows = np.tile(STROKE5_PAD, (n_max, 1))
    rows[:n] = 0.0
    rows[:n, :2] = sketch.steps[:, :2]
    rows[np.arange(n), 2 + sketch.steps[:, 2].astype(int)] = 1.0
    return rows


def from_stroke5(rows: np.ndarray) -> VectorSketch:
    """Inverse of to_stroke5: keep rows up to and including the first p_end=1."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    pens = np.argmax(rows[:, 2:5], axis=1)
    ends = np.flatnonzero(pens == PEN_END)
    if ends.size:
        cut = ends[0]
        # a leading p_end row is all padding: the sketch is empty
        if cut == 0 and not np.any(rows[0, :2]):
            return VectorSketch(np.zeros((0, 3)))
        rows = rows[: cut + 1]
        pens = pens[: cut + 1]
    steps = np.column_stack([rows[:, 0], rows[:, 1], pens.astype(np.float64)])
    return VectorSketch(steps)


def validate_stroke5(rows: np.ndarray) -> None:
    """Check the stroke-5 invariants (one-hot pens, all-padding tail)."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise MalformedRecord("stroke-5 array must be (n, 5)")
    onehot = rows[:, 2:5]
    if not np.all(np.isin(onehot, (0.0, 1.0))) or not np.all(onehot.sum(axis=1) == 1.0):
        raise MalformedRecord("pen columns are not one-hot")
    ends = np.flatnonzero(onehot[:, 2] == 1.0)
    if ends.size:
        tail = rows[ends[0] + 1:]
        if tail.size and not np.all(tail == STROKE5_PAD):
            raise MalformedRecord("rows after the first p_end are not padding")


def _fit_points(points: np.ndarray, side: int, margin: int, sizes=None) -> np.ndarray:
    """Uniform scale + centering into the canvas of each run of ``sizes``
    consecutive points (all points are one run by default): the points'
    pixel positions, rounded half up (as floats, for the caller to check)."""
    sizes = np.array([len(points)]) if sizes is None else sizes
    starts = sizes.cumsum() - sizes
    # first divided by the power of two that brings the run's largest extent
    # into [0.5, 1): exact, so no rounding below changes, and usable / biggest
    # stays finite for an extent too small for its reciprocal to be a float
    _, exp = np.frexp(np.maximum.reduce(np.maximum.reduceat(points, starts)
                                        - np.minimum.reduceat(points, starts), axis=1))
    points = np.ldexp(points, (-exp).repeat(sizes)[:, None])
    lo = np.minimum.reduceat(points, starts)
    extent = np.maximum.reduceat(points, starts) - lo
    usable = side - 2 * margin
    biggest = np.maximum.reduce(extent, axis=1, keepdims=True)
    scale = np.divide(usable, biggest, out=np.ones(biggest.shape), where=biggest > 0)
    offset = margin + (usable - extent * scale) / 2.0 - lo * scale
    return np.floor(points * scale.repeat(sizes, axis=0) + offset.repeat(sizes, axis=0) + 0.5)


#: drawn segments expanded per pass of the drawing core: bounds its per-pixel
#: scratch arrays at about this many times side entries, however long a
#: sketch and however many sketches a batch holds
SEGMENTS_PER_PASS = 1024


def rasterize(sketch: VectorSketch, side: int = CANVAS_SIDE) -> RasterSketch:
    """Render a sketch onto a binary side x side grid with 1-px lines.

    This is the drawing core ``drawn_pixels`` on a batch of one: the drawing
    is uniformly scaled to fit (aspect ratio preserved), centered and rounded
    to pixels, and its drawn segments are then drawn by the midpoint rule.
    Raises OutOfRange for a side below MIN_CANVAS_SIDE, and MalformedRecord
    when a fitted coordinate is not finite or is off the canvas.
    """
    check_canvas_side(side)
    grid = np.zeros(side * side, dtype=np.uint8)
    for _, keys in drawn_pixels([sketch], side):
        grid[keys] = 1
        del keys  # not held while the next pass is drawn
    return RasterSketch(grid.reshape(side, side))


def drawn_pixels(sketches, side: int):
    """Yield ``(done, keys)`` for the drawn segments of a batch of sketches,
    one pass of at most SEGMENTS_PER_PASS segments at a time.

    ``keys`` holds ``b * side**2 + y * side + x`` for every pixel (x, y) that
    a drawn segment of batch sketch b covers, in sketch order, with
    repeats; every sketch before index ``done`` has had all its pixels
    yielded. Each sketch is fitted on its own segments' endpoints by
    ``_fit_points``. The batch is fitted in runs of whole sketches holding
    at least SEGMENTS_PER_PASS steps, so the scratch memory does not grow
    with the batch; a long sketch is split across passes. Raises
    MalformedRecord when a fitted coordinate is not finite or is off the
    canvas (side is not checked here).
    """
    run, n = [], 0
    for b, sk in enumerate(sketches, 1):
        run.append(sk)
        n += sk.n_steps
        if n >= SEGMENTS_PER_PASS:
            yield from _draw_run(run, b, side)
            run, n = [], 0
    if run:
        yield from _draw_run(run, b, side)


def _draw_run(run: list, done: int, side: int):
    """Fit and draw the sketches run[i] = batch[done - len(run) + i], pass by
    pass (see drawn_pixels)."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        segs, counts = _drawn_segments(run)
        if not len(segs):
            return
        fitted = _fit_points(segs.reshape(-1, 2), side, CANVAS_MARGIN, 2 * counts[counts > 0])
    # checked before any array is sized from it; NaN fails both comparisons,
    # and an x off the canvas would wrap into the next row of the flat grid
    if not (fitted.min() >= 0 and fitted.max() < side):
        raise MalformedRecord("fitted coordinates are not finite or leave the canvas")
    mapped = fitted.astype(np.int64).reshape(-1, 4)
    base = (np.arange(done - len(run), done) * (side * side)).repeat(counts)
    for lo in range(0, len(mapped), SEGMENTS_PER_PASS):
        hi = lo + SEGMENTS_PER_PASS
        yield (done if hi >= len(mapped) else done - len(run),
               _segment_keys(mapped[lo:hi], base[lo:hi], side))


@functools.lru_cache(maxsize=None)
def _endpoint_terms(side: int) -> np.ndarray:
    """Read-only (4, 5) matrix taking segment rows (x0, y0, x1, y1) to the
    flat indices of both endpoints, the difference of their lexicographic
    keys 2 * side * x + y, and (dx, dy)."""
    terms = np.array([[1, 0, 2 * side, -1, 0], [side, 0, 1, 0, -1],
                      [0, 1, -2 * side, 1, 0], [0, side, -1, 0, 1]])
    terms.flags.writeable = False
    return terms


def _segment_keys(segs: np.ndarray, base: np.ndarray, side: int) -> np.ndarray:
    """Flat pixel indices, plus each segment's ``base``, of integer segments
    with rows (x0, y0, x1, y1), in one pass.

    Each segment is ordered so that (x0, y0) <= (x1, y1), which makes the
    pixel set independent of endpoint order. It then takes one pixel per
    step t = 0..major along its major axis, offset on the minor axis by
    the exact integer midpoint rule floor((2*t*minor + major) / (2*major)),
    i.e. round-half-up of the ideal crossing ordinate. A dot is a segment
    of one pixel.
    """
    flat0, flat1, key, dx, dy = (segs @ _endpoint_terms(side)).T
    swap = key > 0  # (x1, y1) < (x0, y0)
    start = np.where(swap, flat1, flat0)
    sign = np.where(swap, -1, 1)
    dx = dx * sign  # >= 0 after the swap
    dy = dy * sign
    ady = np.abs(dy)
    x_major = dx >= ady
    major = np.maximum(dx, ady)
    minor = np.where(x_major, dy, dx)
    # flat-index moves of one pixel along the major and the minor axis
    major_step = np.where(x_major, 1, np.sign(dy) * side)
    minor_step = np.where(x_major, side, 1)
    counts = major + 1
    # written in the pass-wide pixel index j = first + t, where first is
    # the index of the segment's first pixel
    first = counts.cumsum() - counts
    two_minor = 2 * minor
    # from here on one entry per pixel
    two_minor, lead, den, flat, major_step, minor_step = np.array(
        [two_minor, major - first * two_minor, 2 * np.maximum(major, 1),
         base + start - first * major_step, major_step, minor_step]).repeat(counts, axis=1)
    j = np.arange(len(flat))
    off = j * two_minor
    off += lead
    off //= den
    off *= minor_step
    off += flat  # a fresh array: the (6, pixels) block goes when this returns
    off += j * major_step
    return off


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def render_svg(sketch: VectorSketch) -> str:
    """Render to an SVG 1.1 document, one path per pen-down run."""
    segs = sketch.drawn_segments()
    if len(segs):
        pts = np.vstack([segs[:, 0:2], segs[:, 2:4]])
        lo = pts.min(axis=0) - 2
        hi = pts.max(axis=0) + 2
        view = (lo[0], lo[1], max(hi[0] - lo[0], 1e-3), max(hi[1] - lo[1], 1e-3))
    else:
        view = (0.0, 0.0, 1.0, 1.0)

    # group consecutive drawn segments into polyline runs
    paths = []
    run: list[tuple[float, float]] = []
    for x0, y0, x1, y1 in segs:
        if run and (run[-1][0] != x0 or run[-1][1] != y0):
            paths.append(run)
            run = []
        if not run:
            run = [(x0, y0)]
        run.append((x1, y1))
    if run:
        paths.append(run)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(view[0])} {_fmt(view[1])} {_fmt(view[2])} {_fmt(view[3])}">',
    ]
    for run in paths:
        d = f"M {_fmt(run[0][0])} {_fmt(run[0][1])}"
        for x, y in run[1:]:
            d += f" L {_fmt(x)} {_fmt(y)}"
        lines.append(
            f'<path d="{d}" fill="none" stroke="black" '
            'stroke-width="1" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def sketch_to_json_obj(sketch: VectorSketch, label: str | None = None) -> dict:
    obj = {
        "steps": [
            [float(dx), float(dy), _PEN_NAMES[int(pen)]]
            for dx, dy, pen in sketch.steps
        ]
    }
    if label is not None:
        obj["label"] = label
    return obj


def sketch_from_json_obj(obj: dict) -> VectorSketch:
    if not isinstance(obj, dict) or "steps" not in obj:
        raise MalformedRecord('missing "steps" key')
    if not isinstance(obj["steps"], list):
        raise MalformedRecord('"steps" is not a list')
    steps = []
    for row in obj["steps"]:
        try:
            dx, dy, pen = row
            steps.append((float(dx), float(dy), _PEN_CODES[pen]))
        except (TypeError, ValueError, KeyError, OverflowError):  # an int beyond float
            raise MalformedRecord(f"bad step row: {row!r}") from None
    sketch = VectorSketch(np.array(steps).reshape(-1, 3))
    sketch.validate()
    return sketch


def write_pgm(raster: RasterSketch, path) -> None:
    """Dump as binary PGM (P5, maxval 255): stroke pixels 0, background 255."""
    data = np.where(raster.pixels > 0, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{raster.width} {raster.height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> RasterSketch:
    """Read a P5 (or P2) PGM; values below 128 count as stroke ink.

    A bad header, a short payload, or a sample that is not a decimal in
    [0, maxval] raises MalformedRecord."""
    with open(path, "rb") as fh:
        blob = fh.read()

    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(blob):
        # skip whitespace and '#' comments between header tokens
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if pos > start:
            tokens.append(blob[start:pos])
    if len(tokens) < 4:
        raise MalformedRecord("truncated PGM header")
    magic = tokens[0]
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise MalformedRecord("non-numeric PGM header field") from exc
    if not 0 < maxval < 65536 or width <= 0 or height <= 0:
        raise MalformedRecord("bad PGM dimensions")

    if magic == b"P5":
        pos += 1  # exactly one whitespace byte after maxval
        sample = np.dtype(">u2" if maxval > 255 else np.uint8)  # 16-bit is big-endian
        if len(blob) - pos < width * height * sample.itemsize:
            raise MalformedRecord("truncated PGM payload")
        data = np.frombuffer(blob, dtype=sample, count=width * height, offset=pos)
    elif magic == b"P2":
        values = blob[pos:].split()[: width * height]
        if len(values) < width * height:
            raise MalformedRecord("truncated PGM payload")
        # -1 marks a token that is not a plain decimal, or one with more
        # significant digits than any maxval (< 65536) has
        data = np.array([int(v) if v.isdigit() and len(v.lstrip(b"0")) <= 5 else -1
                         for v in values], dtype=np.int64)
    else:
        raise MalformedRecord(f"unsupported PGM magic {magic!r}")
    if data.min() < 0 or data.max() > maxval:
        raise MalformedRecord(f"PGM sample not a decimal in [0, maxval={maxval}]")
    threshold = (maxval + 1) // 2
    pixels = (data.reshape(height, width) < threshold).astype(np.uint8)
    return RasterSketch(pixels)


def canonicalize_raster(raster: RasterSketch, side: int = CANVAS_SIDE) -> RasterSketch:
    """Map any binary raster onto the canonical side x side canvas.

    Dark pixel coordinates are uniformly scaled (aspect ratio preserved)
    and centered with the same margin rule rasterize uses. A raster that
    is already canonical passes through unchanged (OutOfRange below MIN_CANVAS_SIDE).
    """
    check_canvas_side(side)
    if raster.width == side and raster.height == side:
        return raster
    ys, xs = np.nonzero(raster.pixels)
    grid = np.zeros((side, side), dtype=np.uint8)
    if xs.size == 0:
        return RasterSketch(grid)
    pts = np.column_stack([xs, ys]).astype(np.float64)
    mapped = _fit_points(pts, side, CANVAS_MARGIN).astype(np.int64)
    mapped = np.clip(mapped, 0, side - 1)
    grid[mapped[:, 1], mapped[:, 0]] = 1
    return RasterSketch(grid)
