"""Vector sketch ingestion, stroke-format conversion, rasterization and SVG export.

A vector sketch is an ordered list of steps ``(dx, dy, pen)``. Execution
starts at the origin with the pen down; each step moves the cursor by the
offset and then sets the pen state. A move draws a segment when the pen
was down *before* the move, so the first move of any non-empty sketch is
drawn. Pen states: 0 = down, 1 = lift, 2 = end (at most one, final).

Sketch files are JSON lines; ``read_sketches`` is their one reader. It
checks each line's structure on its own and the numbers of LINES_PER_CHUNK
lines at once; the one-record parsers and ``VectorSketch.validate`` are the
same code on a batch of one, and every sketch they yield can be drawn.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import re
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
#: largest canvas side: graph_builder's signed-offset tables hold (2 side - 1)^2
#: float64 entries each, 33.5 MB at this side, and a raster side^2 bytes
MAX_CANVAS_SIDE = 1024
#: the stroke-5 row (dx, dy, p_down, p_lift, p_end) that pads a sequence
STROKE5_PAD = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
#: sketch-file lines read per chunk: bounds the reader's scratch memory
LINES_PER_CHUNK = 256

_FLOAT_MAX = sys.float_info.max


def check_canvas_side(side: int) -> None:
    """Raise OutOfRange for a canvas side outside [MIN_CANVAS_SIDE, MAX_CANVAS_SIDE]."""
    if side < MIN_CANVAS_SIDE:
        raise OutOfRange(f"canvas side {side} is below the minimum {MIN_CANVAS_SIDE}")
    if side > MAX_CANVAS_SIDE:
        raise OutOfRange(f"canvas side {side} is above the maximum {MAX_CANVAS_SIDE}")


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
        """Raise MalformedRecord unless the steps keep the format invariants (see _FAULTS)."""
        reason = _faults(self.steps, np.array([0, self.n_steps]))[0]
        if reason:
            raise MalformedRecord(reason)

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
    return _one_sketch(_json_record(line), canonical=False)


def sketch_from_json_obj(obj: dict) -> VectorSketch:
    """The validated sketch of a canonical record (see ``sketch_to_json_obj``)."""
    return _one_sketch(obj, canonical=True)


def _one_sketch(record, canonical: bool) -> VectorSketch:
    sketches, fault = _sketches([record], [canonical])
    if fault:
        raise fault
    return sketches[0]


def read_sketches(path):
    """Yield the sketches of a JSON-lines file, one per non-blank line.

    A record with a "steps" key is canonical (as ``sketch_to_json_obj``
    writes it), any other is raw QuickDraw (see ``parse_quickdraw_line``);
    both are validated. A malformed line, or one that is not UTF-8 text,
    raises MalformedRecord naming ``path:lineno`` once every sketch
    before it has been yielded, so a consumer that stops earlier sees none.
    """
    with open(path, "rb") as fh:
        for first in itertools.count(1, LINES_PER_CHUNK):
            lineno, linenos, records, fault = first - 1, [], [], None
            for lineno, raw in enumerate(itertools.islice(fh, LINES_PER_CHUNK), first):
                try:
                    line = raw.decode("utf-8")
                    if line.strip():
                        records.append(_json_record(line))
                        linenos.append(lineno)
                except (UnicodeDecodeError, MalformedRecord) as exc:
                    fault = lineno, exc if isinstance(exc, MalformedRecord) else "not UTF-8 text"
                    break
            if lineno < first:  # no line was left
                return
            good, bad = _sketches(records, [isinstance(r, dict) and "steps" in r for r in records])
            yield from good
            fault = (linenos[len(good)], bad) if bad else fault
            if fault:
                raise MalformedRecord(f"{path}:{fault[0]}: {fault[1]}")


def _sketches(records: list, canonical: list):
    """The sketches of decoded records, canonical where ``canonical[i]``, up
    to the first malformed one, and its MalformedRecord (else None). A raw
    record's first point anchors the origin; each later point is a step,
    pen lift at a polyline's end and down elsewhere; pen=end closes it."""
    xs, ys, lens, canon = [], [], [], []  # raw points and polyline lengths; canonical steps
    bounds, fault = [], None  # (raw points, canonical steps) before each record, and at the end
    for record, is_canon in zip(records, canonical):
        bounds.append((len(xs), len(canon) // 3))
        try:
            _unpack(record, is_canon, xs, ys, lens, canon)
        except MalformedRecord as exc:
            fault = exc
            break
    bounds = np.array(bounds + [(len(xs), len(canon) // 3)])
    points = _finite_floats(xs + ys).reshape(2, -1).T
    raw = np.zeros((len(points), 3))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        raw[:-1, :2] = points[1:] - points[:-1]
    raw[np.cumsum(lens, dtype=np.int64)[np.array(lens, dtype=bool)] - 2, 2] = PEN_LIFT
    # each record's last row closes it, replacing the move to the next record
    raw[bounds[1:, 0][bounds[1:, 0] > bounds[:-1, 0]] - 1] = (0.0, 0.0, PEN_END)
    bad_points = _run_counts(~np.isfinite(points).all(axis=1), bounds[:, 0]).tolist()
    bad_steps = _run_counts(~np.isfinite(raw[:, :2]).all(axis=1), bounds[:, 0]).tolist()
    canon = np.array(canon).reshape(-1, 3)
    faults = _faults(canon, bounds[:, 1])
    # raw points within an eighth of the float range keep every sum and span finite
    if not np.abs(points).max(initial=0.0) < _FLOAT_MAX / 8:  # a record has steps of one kind
        faults = [c or r for c, r in zip(faults, _faults(raw, bounds[:, 0]))]
    sketches, rows = [], bounds.tolist()
    for i in range(len(rows) - 1 - bool(fault)):  # the records unpacked whole
        reason = ("coordinate is not a finite number" if bad_points[i] else
                  "coordinate difference overflows a float" if bad_steps[i] else faults[i])
        if reason:
            return sketches, MalformedRecord(reason)
        (a, c), (b, d) = rows[i:i + 2]
        steps = (canon[c:d] if canonical[i] else raw[a:b] if b - a != 1  # a lone point: a dot
                 else np.array([[0.0, 0.0, PEN_DOWN], [0.0, 0.0, PEN_END]]))
        sketches.append(VectorSketch(steps.copy()))  # owns its rows, not the chunk's
    if fault and bad_points[-1]:  # a record's coordinates are checked as it is unpacked
        fault = MalformedRecord("coordinate is not a finite number")
    return sketches, fault


def _unpack(record, canonical: bool, xs: list, ys: list, lens: list, canon: list) -> None:
    """Check a record's structure; append a canonical one's steps to ``canon``, a raw
    one's coordinates to ``xs`` and ``ys`` and its polyline lengths to ``lens``."""
    key = "steps" if canonical else "drawing"
    if not isinstance(record, dict) or key not in record:
        raise MalformedRecord(f'missing "{key}" key')
    if not isinstance(record[key], list):
        raise MalformedRecord(f'"{key}" is not a list')
    for item in record[key]:
        if canonical:
            try:
                dx, dy, pen = item
                canon += float(dx), float(dy), _PEN_CODES[pen]
            except (TypeError, ValueError, KeyError, OverflowError):  # an int beyond float
                raise MalformedRecord(f"bad step row: {item!r}") from None
            continue
        if not isinstance(item, (list, tuple)) or len(item) < 2:
            raise MalformedRecord("polyline is not an [xs, ys] pair")
        px, py = item[0], item[1]
        if not isinstance(px, (list, tuple)) or not isinstance(py, (list, tuple)):
            raise MalformedRecord("polyline coordinates are not lists")
        if len(px) != len(py):
            raise MalformedRecord("polyline x/y length mismatch")
        xs += px
        ys += py
        lens.append(len(px))


def _finite_floats(values: list) -> np.ndarray:
    """``values`` as float64; NaN for each that is not an int or float within the float range."""
    with contextlib.suppress(OverflowError):  # an int beyond float
        if set(map(type, values)) <= {int, float}:
            out = np.array(values, dtype=np.float64)  # as float() converts
            if not (np.abs(out) == _FLOAT_MAX).any():  # an int just beyond it rounds to it
                return out
    return np.array([float(v) if type(v) in (int, float) and abs(v) <= _FLOAT_MAX else np.nan
                     for v in values], dtype=np.float64)


def _run_counts(flags: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """How many flags each run flags[bounds[i]:bounds[i + 1]] has set."""
    total = np.zeros(len(flags) + 1, dtype=np.int64)
    flags.cumsum(out=total[1:])
    return total[bounds[1:]] - total[bounds[:-1]]


#: the format invariants in the order they are checked, then None: all kept; with
#: the origin drawn, the last is what lets _fit_points land inside the canvas
_FAULTS = ("unknown pen state", "more than one pen=end step", "pen=end is not the final step",
           "non-finite offset", "running sum of offsets overflows a float",
           "drawn points span more than the float range", None)


def _faults(steps: np.ndarray, bounds: np.ndarray) -> list:
    """For each sketch steps[bounds[i]:bounds[i + 1]], the first of _FAULTS it breaks."""
    if not len(steps):
        return [None] * (len(bounds) - 1)
    pens, offsets = steps[:, 2], steps[:, :2]
    ends = _run_counts(pens == PEN_END, bounds)
    overflows, wide = np.zeros((2, len(bounds) - 1), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        # a running sum of n offsets is at most about n times the largest one,
        # so below a quarter of the float range both sums and spans are finite
        small = np.abs(offsets).max() * (bounds[1:] - bounds[:-1]).max() < _FLOAT_MAX / 4
        for i, (a, b) in enumerate([] if small else zip(bounds[:-1], bounds[1:])):
            overflows[i] = not np.isfinite(np.cumsum(offsets[a:b], axis=0)).all()
            drawn = VectorSketch(steps[a:b]).drawn_segments().reshape(-1, 2)
            wide[i] = a < b and not np.isfinite(np.ptp(drawn, axis=0)).all()  # b == a: no ink
    unknown = (pens != PEN_DOWN) & (pens != PEN_LIFT) & (pens != PEN_END)
    broken = np.array([_run_counts(unknown, bounds),
                       ends > 1, (ends == 1) & (pens[bounds[1:] - 1] != PEN_END),
                       _run_counts(~np.isfinite(steps).all(axis=1), bounds), overflows, wide,
                       np.ones(len(bounds) - 1)], dtype=bool)
    return [_FAULTS[k] for k in broken.argmax(axis=0)]


def stroke5_rows(steps: np.ndarray) -> np.ndarray:
    """The unpadded (n, 5) stroke-5 rows of (n, 3) steps, of one sketch or several."""
    rows = np.zeros((len(steps), 5))
    rows[:, :2] = steps[:, :2]
    rows[np.arange(len(steps)), 2 + steps[:, 2].astype(int)] = 1.0
    return rows


def to_stroke5(sketch: VectorSketch, n_max: int) -> np.ndarray:
    """Expand a sketch to a fixed-length (n_max, 5) stroke-5 array.

    Rows mirror the steps as (dx, dy, p_down, p_lift, p_end); the remainder
    is STROKE5_PAD padding. Raises SequenceTooLong for > n_max steps.
    """
    n = sketch.n_steps
    if n > n_max:
        raise SequenceTooLong(f"{n} steps exceed n_max={n_max}")
    rows = np.tile(STROKE5_PAD, (n_max, 1))
    rows[:n] = stroke5_rows(sketch.steps)
    return rows


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
    Raises OutOfRange for a side outside the canvas bounds, and MalformedRecord
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
    pass (see drawn_pixels); only a sketch built in code, never a read one, fails the fit."""
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


def render_svg(sketch: VectorSketch) -> str:
    """Render to an SVG 1.1 document, one path per pen-down run. Raises
    MalformedRecord for a drawing whose frame is not finite."""
    view = (0.0, 0.0, 1.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        segs = sketch.drawn_segments()
        if len(segs):
            lo, hi = segs.reshape(-1, 2).min(axis=0) - 2, segs.reshape(-1, 2).max(axis=0) + 2
            view = (lo[0], lo[1], max(hi[0] - lo[0], 1e-3), max(hi[1] - lo[1], 1e-3))
    if not np.isfinite(view).all():  # NaN as well: max keeps a NaN first argument
        raise MalformedRecord("drawn points are not finite or span more than the float range")
    # consecutive drawn segments make one path, until one starts away from
    # where the one before ended
    paths = []
    starts = np.concatenate([[True], (segs[1:, :2] != segs[:-1, 2:]).any(axis=1)])
    for (x0, y0, x1, y1), start in zip(segs.tolist(), starts.tolist()):
        if start:
            paths.append(f"M {x0:.4f} {y0:.4f}")
        paths[-1] += f" L {x1:.4f} {y1:.4f}"
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{" ".join(f"{v:.4f}" for v in view)}">',
        *(f'<path d="{d}" fill="none" stroke="black" stroke-width="1" stroke-linecap="round"/>'
          for d in paths),
        "</svg>", ""])


def sketch_to_json_obj(sketch: VectorSketch, label: str | None = None) -> dict:
    obj = {"steps": [[dx, dy, _PEN_NAMES[int(pen)]] for dx, dy, pen in sketch.steps.tolist()]}
    if label is not None:
        obj["label"] = label
    return obj


def write_pgm(raster: RasterSketch, path) -> None:
    """Dump as binary PGM (P5, maxval 255): stroke pixels 0, background 255."""
    data = np.where(raster.pixels > 0, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{raster.width} {raster.height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


#: one PGM header token, after the whitespace and whole '#' comments before it
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)")


def read_pgm(path) -> RasterSketch:
    """Read a P5 (or P2) PGM; values below 128 count as stroke ink.

    A bad header, a short payload, or a sample that is not a decimal in
    [0, maxval] raises MalformedRecord."""
    with open(path, "rb") as fh:
        blob = fh.read()

    tokens, pos = [], 0
    for _ in range(4):
        token = _PGM_TOKEN.match(blob, pos)
        if token is None:
            raise MalformedRecord("truncated PGM header")
        tokens.append(token[1])
        pos = token.end()
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
    is already canonical passes through unchanged (OutOfRange for a side
    outside the canvas bounds).
    """
    check_canvas_side(side)
    if raster.width == side and raster.height == side:
        return raster
    ys, xs = np.nonzero(raster.pixels)
    grid = np.zeros((side, side), dtype=np.uint8)
    if xs.size == 0:
        return RasterSketch(grid)
    pts = np.column_stack([xs, ys]).astype(np.float64)
    mapped = np.clip(_fit_points(pts, side, CANVAS_MARGIN).astype(np.int64), 0, side - 1)
    grid[mapped[:, 1], mapped[:, 0]] = 1
    return RasterSketch(grid)
