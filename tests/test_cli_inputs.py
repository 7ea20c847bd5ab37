"""`lattisketch ingest` and `train` over generated bad sketch files,
`img2sketch` over generated bad PGM files and `params` over config files
with invalid values: every run ends with a documented exit code (README
"Errors and exit codes") and an `error: CODE: ...` line, never a traceback."""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import lattisketch as ls
from conftest import listing_unchanged
from lattisketch import cli

SMALL_CONFIG = ("d = 8\nk = 2\nhidden_size = 16\nmixtures = 2\nn_max = 64\n"
                "batch_size = 4\niterations = 1\nseed = 0\n")

# JSON-able junk for any place a value goes
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
_COORD = st.one_of(st.integers(0, 255), st.integers(-10**400, 10**400),
                   st.floats(), st.sampled_from([1e308, -1e308, 1.7976931348623157e308]),
                   _JUNK)


@st.composite
def _quickdraw_record(draw):
    n = draw(st.integers(0, 4))
    xs = draw(st.lists(_COORD, min_size=n, max_size=n))
    ys = draw(st.lists(_COORD, min_size=draw(st.sampled_from([n, n, n, n + 1])),
                       max_size=n + 1))
    poly = draw(st.sampled_from([[xs, ys], [xs, ys, [0] * n], [xs], xs]))
    drawing = draw(st.one_of(st.just([poly]), st.just([poly, [[1, 9], [4, 4]]]), _JUNK))
    return draw(st.one_of(st.just({"drawing": drawing}), st.just({"word": "x"}), _JUNK))


@st.composite
def _canonical_record(draw):
    pen = st.one_of(st.sampled_from(["down", "lift", "end"]), _JUNK)
    row = st.one_of(st.tuples(_COORD, _COORD, pen).map(list),
                    st.lists(_COORD, max_size=4), _JUNK)
    steps = draw(st.one_of(st.lists(row, max_size=4), _JUNK))
    return {"steps": steps, "label": "x"}


# legal records with extreme values: these reach training
_FINITE = st.one_of(st.integers(0, 255), st.floats(-8e307, 8e307, allow_nan=False),
                    st.sampled_from([0.0, 5e-324, 1e-300, 8e307]))
_LEGAL = st.one_of(
    st.lists(st.lists(_FINITE, min_size=1, max_size=4).flatmap(
        lambda xs: st.lists(_FINITE, min_size=len(xs), max_size=len(xs)).map(
            lambda ys: [xs, ys])), max_size=2).map(lambda d: {"drawing": d}),
    st.lists(st.tuples(_FINITE, _FINITE, st.sampled_from(["down", "lift"])).map(list),
             max_size=4).map(lambda rows: {"steps": rows + [[0.0, 0.0, "end"]]}),
).map(lambda r: json.dumps(r).encode())
_BROKEN = st.one_of(
    _quickdraw_record().map(lambda r: json.dumps(r).encode()),
    _canonical_record().map(lambda r: json.dumps(r).encode()),
    st.just(b'{"drawing": [[[0, 60, 120], [0, 80'),          # truncated JSON
    st.just(b'{"drawing": [[[' + b"9" * 5000 + b'], [0]]]}'),  # an int json.loads refuses
    st.binary(max_size=6),                                   # not JSON, maybe not UTF-8
)
_LINE = st.one_of(_LEGAL, _LEGAL, _LEGAL, st.just(b""), _BROKEN)


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with mock.patch.object(sys, "argv", ["lattisketch", *argv]), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main()
        except SystemExit as exc:
            return exc.code, err.getvalue()
    raise AssertionError("cli.main returned without exiting")


def _check(code, err):
    assert code in (0, 3, 4), err
    assert "Traceback" not in err
    if code:  # numpy warnings may come first
        assert err.splitlines()[-1].startswith("error: "), err


@given(st.lists(_LINE, min_size=1, max_size=5))
@example([b'{"steps": [[1e+308, 1e+308, "down"]], "label": "x"}'])  # offsets with std 0
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_ingest_and_train_end_with_a_documented_exit_code(lines):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "sketches.ndjson"
        data.write_bytes(b"\n".join(lines) + b"\n")
        config = tmp / "small.cfg"
        config.write_text(SMALL_CONFIG)
        code, err = _run(["ingest", str(data), "--out", str(tmp / "ingest")])
        _check(code, err)
        assert code == 0 or sorted(os.listdir(tmp)) == ["sketches.ndjson", "small.cfg"]
        _check(*_run(["train", "--config", str(config), "--data", str(data),
                      "--out", str(tmp / "train")]))


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """An untrained model of SMALL_CONFIG's size with fresh Adam moments, saved as a
    checkpoint."""
    pcfg = ls.PipelineConfig(encoder=ls.EncoderConfig(d=8, K=2),
                             decoder=ls.DecoderConfig(hidden_size=16, M=2, n_max=64, z_dim=8))
    path = tmp_path_factory.mktemp("pgm") / "small.ckpt"
    store = ls.init_params(pcfg, seed=0)
    ls.save_model(path, store, ls.OptimizerState.fresh(store), pcfg)
    return str(path)


# header iterations that are not a JSON integer >= 0
_BAD_ITERATIONS = ["abc", [1], 1.5, True, -3]
# config keys that set an array's shape or the array list: any other value breaks the file
_LAYOUT_KEYS = {("encoder", "d"), ("encoder", "K"), ("encoder", "embed_mode"),
                ("decoder", "hidden_size"), ("decoder", "M"), ("decoder", "z_dim"),
                ("lattice", "side")}
_DEFAULTS = ls.PipelineConfig().configs_dict()
_SECTION_KEYS = [(section, key) for section, fields in _DEFAULTS.items() for key in fields]
_HEADER_EDIT = st.one_of(
    st.tuples(st.sampled_from(["offset", "shape", "name", "trainable"]), st.integers(0, 99),
              st.one_of(_JUNK, st.integers(-9, 99), st.lists(st.integers(-2, 300), max_size=3),
                        st.sampled_from(["enc.emb.x", "enc.fc.W", "adam_m.enc.fc.W"]))),
    st.tuples(st.just("swap names"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("dtype"), st.none(), _JUNK | st.sampled_from(["<f8", "<f4", ">f4", "f4"])),
    st.tuples(st.just("config"), st.sampled_from(_SECTION_KEYS),
              st.one_of(_JUNK, st.integers(-3, 40), st.sampled_from(["joint", "factorized"]))),
    st.tuples(st.just("iteration"), st.none(), _JUNK | st.sampled_from(_BAD_ITERATIONS)))


def _edit_header(header, kind, at, value):
    """Apply one edit; False when it leaves a valid file (a config value that sets no
    array and has an accepted type, say), which then must load."""
    arrays = header["arrays"]
    if kind == "swap names":
        i, j = at % len(arrays), value % len(arrays)
        arrays[i]["name"], arrays[j]["name"] = arrays[j]["name"], arrays[i]["name"]
    elif kind == "dtype":
        header["dtype"] = value
    elif kind == "iteration":
        if type(value) is int and value >= 0:
            return False
        header["iteration"] = value
    elif kind == "config":
        section, key = at
        want = type(_DEFAULTS[section][key])
        if at not in _LAYOUT_KEYS and (type(value) is want or want is float and
                                       type(value) is int):
            return False
        header["configs"][section][key] = value
    else:
        arrays[at % len(arrays)][kind] = value
    return True


@given(st.lists(_HEADER_EDIT, min_size=1, max_size=3))
@example([("config", ("encoder", "K"), 10**18)])  # a layout far longer than the file
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_heal_and_resume_refuse_every_header_edit(small_checkpoint, edits):
    with open(small_checkpoint, "rb") as fh:
        original, payload = json.loads(fh.readline()), fh.read()
    header = json.loads(json.dumps(original))
    assume(all([_edit_header(header, *edit) for edit in edits]) and header != original)
    for code, err in _heal_and_resume(header, payload):
        assert code in (3, 4), (header, err)


@pytest.mark.parametrize("iteration", _BAD_ITERATIONS, ids=repr)
def test_heal_and_resume_refuse_a_bad_iteration(small_checkpoint, iteration):
    with open(small_checkpoint, "rb") as fh:
        header, payload = json.loads(fh.readline()), fh.read()
    header["iteration"] = iteration
    for code, err in _heal_and_resume(header, payload):
        assert code == 3 and "CHECKPOINT_FORMAT_ERROR: iteration" in err, err


def _heal_and_resume(header, payload) -> list:
    """(code, stderr) of `heal` and of `train --resume` on a checkpoint with this header;
    each must end with an error line, no traceback, and leave no --out behind."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ckpt = tmp / "edited.ckpt"
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        (tmp / "small.cfg").write_text(SMALL_CONFIG)
        (tmp / "data.ndjson").write_text('{"drawing": [[[0, 60, 120], [0, 80, 0]]]}\n')
        for argv in (["heal", "--checkpoint", str(ckpt), "--input", str(tmp / "data.ndjson")],
                     ["train", "--config", str(tmp / "small.cfg"), "--data",
                      str(tmp / "data.ndjson"), "--resume", str(ckpt)]):
            results.append(_run([*argv, "--out", str(tmp / "out")]))
            _check(*results[-1])
            assert sorted(os.listdir(tmp)) == ["data.ndjson", "edited.ckpt", "small.cfg"]
    return results


_HEADER_FIELD = st.sampled_from(["0", "-1", "abc", "99999999999999999999", "1_0", "65536"])
_P2_SAMPLE = st.one_of(
    st.integers(0, 255), st.integers(0, 255), st.integers(-3, 70000),
    st.sampled_from(["abc", "99999999999999999999", "+5", "0x1f", "1_0", "000000000000255",
                     "9" * 5000]),
    st.text("0123456789-+.e", min_size=1, max_size=6)).map(lambda v: str(v).encode())


@st.composite
def _pgm_file(draw):
    """A PGM header, mostly legal, and a payload about the size it asks for."""
    magic = draw(st.sampled_from([b"P2", b"P2", b"P5", b"P5", b"P3"]))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    maxval = draw(st.sampled_from([1, 255, 255, 1000, 65535]))
    fields = [str(v).encode() for v in (width, height, maxval)]
    if draw(st.integers(0, 3)) == 0:
        fields[draw(st.integers(0, 2))] = draw(_HEADER_FIELD).encode()
    header = magic + b"\n# edge map\n" + b" ".join(fields[:2]) + b"\n" + fields[2] + b"\n"
    size = width * height
    if magic == b"P2":
        payload = b" ".join(draw(st.lists(_P2_SAMPLE, min_size=size - 1, max_size=size + 1)))
    else:
        size *= 2 if maxval > 255 else 1
        payload = draw(st.binary(min_size=size - 1, max_size=size + 1))
    return draw(st.sampled_from([header + payload] * 4 + [header, payload]))


@given(_pgm_file())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_img2sketch_ends_with_a_documented_exit_code(small_checkpoint, blob):
    with tempfile.TemporaryDirectory() as tmp:
        pgm = Path(tmp) / "edge.pgm"
        pgm.write_bytes(blob)
        code, err = _run(["img2sketch", "--checkpoint", small_checkpoint, "--input", str(pgm),
                          "--out", str(Path(tmp) / "out")])
        _check(code, err)
        assert code == 0 or os.listdir(tmp) == ["edge.pgm"]


@pytest.mark.parametrize("blob", [
    b"P2\n2 1\n255\n0 abc\n",                       # not a decimal
    b"P2\n2 1\n255\n0 99999999999999999999\n",      # beyond any int64
    b"P2\n2 1\n255\n0 256\n",                       # above maxval
    b"P2\n2 1\n255\n0 -1\n",                        # below 0
    b"P5\n2 1\n100\n\x00\xc8",                       # 8-bit sample above maxval
    b"P5\n2 1\n1000\n\x00\x00\xff\xff",               # 16-bit sample above maxval
])
def test_img2sketch_bad_pgm_sample_is_a_malformed_record(small_checkpoint, tmp_path, blob):
    pgm = tmp_path / "edge.pgm"
    pgm.write_bytes(blob)
    with listing_unchanged(tmp_path):
        code, err = _run(["img2sketch", "--checkpoint", small_checkpoint, "--input", str(pgm),
                          "--out", str(tmp_path / "out")])
    assert code == 3 and err.startswith("error: MALFORMED_RECORD"), err


def _positive(v):
    return v > 0


# each config key's accepted values; every value drawn below lies outside them
_FLOAT_OK = {"dropout_rate": lambda v: 0 <= v < 1, "bn_momentum": lambda v: 0 <= v <= 1,
             "temperature": _positive, "d_t": lambda v: 0 < v < 1, "lr0": _positive,
             "eps": _positive, "clip": _positive, "decay": lambda v: 0 < v <= 1,
             "beta1": lambda v: 0 < v < 1, "beta2": lambda v: 0 < v < 1,
             "p_mask_train": lambda v: 0 <= v <= 1}
_INT_MIN = {"d": 1, "k": 1, "hidden_size": 1, "mixtures": 1, "n_max": 1, "n": 1, "side": 6,
            "batch_size": 1, "iterations": 0, "checkpoint_every": 1, "seed": 0}
_WORDS = {"pooling": ("mean", "sum"), "embed_mode": ("joint", "factorized"),
          "proximity": ("nearest", "nearby"), "dtype": ("float32", "float64"),
          "row_normalize": tuple(cli._BOOL), "self_loops": tuple(cli._BOOL)}
_WORD = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", max_size=8) | st.sampled_from(
    ["int32", "float16", "banana", "MEAN", "on", "2"])
_BAD_VALUE = st.one_of(
    st.sampled_from(sorted(_FLOAT_OK)).flatmap(lambda key: st.tuples(st.just(key), st.one_of(
        st.floats() | st.sampled_from([0.0, -0.0, 1.0, -1.0, 5.0, float("inf")]),
        st.sampled_from(["abc", "", "1,5", "0x1p-2"])).filter(
            lambda v: isinstance(v, str) or not _FLOAT_OK[key](v)))),
    st.sampled_from(sorted(_INT_MIN)).flatmap(lambda key: st.tuples(st.just(key), st.one_of(
        st.integers(max_value=_INT_MIN[key] - 1),
        st.sampled_from(["1.5", "abc", "", "1e3", "0x10", "nan", "--1"])))),
    st.tuples(st.just("n"), st.integers(257, 10**6)),  # more lines than the 256 side has
    st.tuples(st.just("side"), st.integers(1025, 10**9)),  # above MAX_CANVAS_SIDE
    st.sampled_from(sorted(_WORDS)).flatmap(lambda key: st.tuples(
        st.just(key), _WORD.filter(lambda v: v.lower() not in _WORDS[key]))),
).map(lambda kv: "%s = %r" % kv if isinstance(kv[1], float) else "%s = %s" % kv)


@given(st.one_of(_BAD_VALUE, st.sampled_from(["unknown_key = 1", "no equals sign"])))
@example("dtype = banana")
@example("dtype = int32")
@example("dtype = float16")
@example("lr0 = nan")
@example("bn_momentum = 5.0")
@settings(max_examples=300, deadline=10_000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_params_refuses_every_invalid_config_value(line):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "bad.cfg"
        config.write_text(SMALL_CONFIG + line + "\n")
        code, err = _run(["params", "--config", str(config)])
    assert code in (2, 3, 4), (line, err)
    assert "Traceback" not in err and err.splitlines()[-1].startswith("error: "), err
