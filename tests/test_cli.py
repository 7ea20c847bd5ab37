"""End-to-end CLI behavior through dispatch()."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lattisketch as ls
from conftest import rewrite_checkpoint_header
from lattisketch import cli, sketch_data
from lattisketch.cli import CONFIG_KEYS, build_parser, dispatch

ROOT = Path(__file__).resolve().parents[1]

# runs dispatch on its arguments, then prints the process's peak RSS in KiB
PEAK_RSS_SCRIPT = ("import resource, sys\n"
                   "from lattisketch.cli import dispatch\n"
                   "code = dispatch(sys.argv[1:])\n"
                   "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
                   "sys.exit(code)\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset, config file, and a briefly trained checkpoint."""
    tmp = tmp_path_factory.mktemp("cli")
    data_paths = ls.generate_dataset(tmp / "data", 10, seed=2)
    cfg = tmp / "small.cfg"
    cfg.write_text(
        "d = 8\nk = 2\nhidden_size = 16\nmixtures = 2\nn_max = 64\n"
        "batch_size = 4\niterations = 6\nseed = 0\n")
    run = tmp / "run"
    code = dispatch(["train", "--config", str(cfg), "--out", str(run),
                     "--data"] + [str(p) for p in data_paths])
    assert code == 0
    return {"tmp": tmp, "cfg": cfg, "data": data_paths,
            "ckpt": run / "ckpt_final.ckpt", "run": run}


def test_train_wrote_outputs_and_manifest(workdir):
    assert workdir["ckpt"].exists()
    manifest = json.loads((workdir["run"] / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    assert manifest["checkpoint_hash"] == ls.checkpoint_hash(workdir["ckpt"])
    assert manifest["config"]["encoder"]["d"] == 8
    # the resolved config, with the offset scale fit derived from the data
    scale = ls.load_model(workdir["ckpt"]).pcfg.decoder.offset_scale
    assert manifest["config"]["decoder"]["offset_scale"] == scale != 1.0


def test_train_non_finite_loss_exit_4_keeps_checkpoint(workdir, tmp_path, monkeypatch,
                                                      capsys):
    from lattisketch import decoder

    run = tmp_path / "diverged"
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(workdir["cfg"].read_text() + "checkpoint_every = 2\n")
    real = decoder.teacher_forced_nll
    calls, before = [], {}

    def nan_at_iteration_3(*args):
        loss, cache = real(*args)
        calls.append(loss)
        if len(calls) == 4:  # after ckpt_000002 was written
            before["ckpt"] = (run / "ckpt_000002.ckpt").read_bytes()
            loss = float("nan")
        return loss, cache

    monkeypatch.setattr(decoder, "teacher_forced_nll", nan_at_iteration_3)
    code = dispatch(["train", "--config", str(cfg), "--out", str(run),
                     "--data"] + [str(p) for p in workdir["data"]])
    assert code == 4
    assert "NUMERICAL_UNDERFLOW" in capsys.readouterr().err
    assert len(calls) == 4
    assert (run / "ckpt_000002.ckpt").read_bytes() == before["ckpt"]
    assert sorted(p.name for p in run.glob("*.ckpt")) == ["ckpt_000002.ckpt"]
    assert len((run / "loss.csv").read_text().splitlines()) == 1 + 3


def test_train_non_finite_gradient_exit_4_keeps_checkpoint(workdir, tmp_path, monkeypatch,
                                                          capsys):
    from lattisketch import trainer

    run = tmp_path / "diverged"
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(workdir["cfg"].read_text() + "checkpoint_every = 2\n")
    real = trainer._backward
    calls, before = [], {}

    def nan_at_iteration_3(*args):
        grads = real(*args)
        calls.append(1)
        if len(calls) == 4:  # after ckpt_000002 was written
            before["ckpt"] = (run / "ckpt_000002.ckpt").read_bytes()
            grads["enc.fc.W"][0, 0] = np.inf
        return grads

    monkeypatch.setattr(trainer, "_backward", nan_at_iteration_3)
    code = dispatch(["train", "--config", str(cfg), "--out", str(run),
                     "--data"] + [str(p) for p in workdir["data"]])
    assert code == 4
    assert "NUMERICAL_UNDERFLOW" in capsys.readouterr().err
    assert len(calls) == 4
    assert (run / "ckpt_000002.ckpt").read_bytes() == before["ckpt"]
    assert sorted(p.name for p in run.glob("*.ckpt")) == ["ckpt_000002.ckpt"]
    assert len((run / "loss.csv").read_text().splitlines()) == 1 + 3


def test_params_reports_expected_total(tmp_path, capsys):
    cfg = tmp_path / "d64.cfg"
    cfg.write_text("d = 64\nk = 2\nembed_mode = factorized\n")
    assert dispatch(["params", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "total 62016"


def test_params_all_includes_decoder(capsys):
    assert dispatch(["params", "--all"]) == 0
    out = capsys.readouterr().out
    assert "model total" in out
    assert "dec.lstm.Wx" in out


def test_heal_pmask_one_exit_code(workdir, capsys):
    code = dispatch(["heal", "--checkpoint", str(workdir["ckpt"]),
                     "--input", str(workdir["data"][0]),
                     "--out", str(workdir["tmp"] / "heal_fail"),
                     "--pmask", "1.0"])
    assert code == 4
    assert "EMPTY_LATTICE" in capsys.readouterr().err


def test_heal_writes_svg_json_and_manifest(workdir):
    out = workdir["tmp"] / "healed"
    code = dispatch(["heal", "--checkpoint", str(workdir["ckpt"]),
                     "--input", str(workdir["data"][0]),
                     "--out", str(out), "--pmask", "0.1", "--seed", "3"])
    assert code == 0
    svgs = sorted(out.glob("heal_*.svg"))
    assert len(svgs) == 10
    assert (out / "heal_0000.json").exists()
    assert (out / "heal_0000.lattice.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "heal"


def test_heal_deterministic_bytes(workdir):
    a = workdir["tmp"] / "det_a"
    b = workdir["tmp"] / "det_b"
    for out in (a, b):
        code = dispatch(["heal", "--checkpoint", str(workdir["ckpt"]),
                         "--input", str(workdir["data"][0]),
                         "--out", str(out), "--pmask", "0.2", "--seed", "11"])
        assert code == 0
    assert (a / "heal_0003.svg").read_bytes() == (b / "heal_0003.svg").read_bytes()


def test_render_heal_output_round_trip(workdir):
    healed = workdir["tmp"] / "healed"
    rendered = workdir["tmp"] / "rendered"
    # jsonl input for render: one canonical sketch per line
    jsonl = workdir["tmp"] / "healed.jsonl"
    jsonl.write_text((healed / "heal_0000.json").read_text())
    code = dispatch(["render", "--input", str(jsonl), "--out", str(rendered),
                     "--format", "both"])
    assert code == 0
    svg = (rendered / "render_0000.svg").read_text()
    assert svg.startswith("<?xml") and "</svg>" in svg
    assert svg == (healed / "heal_0000.svg").read_text()
    assert (rendered / "render_0000.pgm").exists()


@pytest.mark.parametrize("command", ["heal", "generate"])
@pytest.mark.parametrize("content", ["", "\n  \n"])
def test_input_with_no_sketch_exit_3_writes_nothing(workdir, tmp_path, capsys, command,
                                                    content):
    data = tmp_path / "none.ndjson"
    data.write_text(content)
    out = tmp_path / "out"
    assert dispatch([command, "--checkpoint", str(workdir["ckpt"]), "--input", str(data),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: DATASET_EMPTY") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("second_line,pmask,code,item", [
    ('{"drawing": []}', "0.1", "EMPTY_LATTICE", "heal_0001"),
    (None, "1.5", "OUT_OF_RANGE", "heal_0000"),
])
def test_heal_failing_item_exit_4_writes_nothing(workdir, tmp_path, capsys, second_line,
                                                pmask, code, item):
    lines = workdir["data"][0].read_text().splitlines()[:3]
    if second_line is not None:
        lines[1] = second_line
    data = tmp_path / "three.ndjson"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert dispatch(["heal", "--checkpoint", str(workdir["ckpt"]), "--input", str(data),
                     "--out", str(out), "--pmask", pmask]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}: {item}: ") and "Traceback" not in err
    assert not out.exists()


def test_heal_inkless_item_says_it_has_no_ink(workdir, tmp_path, capsys):
    lines = workdir["data"][0].read_text().splitlines()[:3]
    lines[1] = '{"drawing": []}'
    data = tmp_path / "three.ndjson"
    data.write_text("\n".join(lines) + "\n")
    assert dispatch(["heal", "--checkpoint", str(workdir["ckpt"]), "--input", str(data),
                     "--out", str(tmp_path / "out"), "--pmask", "0.1"]) == 4
    assert capsys.readouterr().err.strip() == \
        "error: EMPTY_LATTICE: heal_0001: the input has no ink on the lattice lines"


def _mixed_sketch_file(workdir, tmp_path):
    """Three rings then three ladders in one file; returns (path, sketches)."""
    lines = [line for path in workdir["data"] for line in path.read_text().splitlines()[:3]]
    data = tmp_path / "mixed.ndjson"
    data.write_text("\n".join(lines) + "\n")
    return data, list(sketch_data.read_sketches(data))


def _forbid_rasters(monkeypatch):
    def no_raster(*args, **kwargs):
        raise AssertionError("a raster was drawn for a sketch-file input")

    monkeypatch.setattr(sketch_data, "rasterize", no_raster)
    monkeypatch.setattr(cli, "rasterize", no_raster)


def _json_text(obj) -> str:
    return json.dumps(obj) + "\n"


@pytest.mark.parametrize("n", [None, 20])
def test_heal_sketch_file_matches_the_raster_route(workdir, tmp_path, monkeypatch, n):
    """heal on a sketch file gives, bit for bit, what healing each sketch's
    raster gives, and draws no raster."""
    data, sketches = _mixed_sketch_file(workdir, tmp_path)
    bundle = ls.load_model(workdir["ckpt"])
    side = bundle.pcfg.lattice.side
    expected = [ls.heal(ls.HealRequest(raster=ls.rasterize(sk, side), p_mask=0.3, n=n,
                                       seed=[5, i]), bundle)
                for i, sk in enumerate(sketches)]
    _forbid_rasters(monkeypatch)
    out = tmp_path / "healed"
    n_flag = [] if n is None else ["--n", str(n)]
    assert dispatch(["heal", "--checkpoint", str(workdir["ckpt"]), "--input", str(data),
                     "--out", str(out), "--pmask", "0.3", "--seed", "5", *n_flag]) == 0
    assert len(list(out.glob("heal_*.json"))) == 2 * len(sketches)
    for i, (sketch, surviving) in enumerate(expected):
        assert surviving.n == (n or bundle.pcfg.lattice.n)
        assert (out / f"heal_{i:04d}.json").read_text() == \
            _json_text(ls.sketch_to_json_obj(sketch))
        assert (out / f"heal_{i:04d}.lattice.json").read_text() == \
            _json_text(surviving.to_json_obj())


@pytest.mark.parametrize("n", [None, 20])
def test_generate_input_sketch_file_matches_the_raster_route(workdir, tmp_path, monkeypatch,
                                                             n):
    """generate --input encodes the file's first sketch as encode_raster of its
    raster would, and draws no raster."""
    data, sketches = _mixed_sketch_file(workdir, tmp_path)
    bundle = ls.load_model(workdir["ckpt"])
    psi = ls.encode_raster(ls.rasterize(sketches[0], bundle.pcfg.lattice.side), bundle, n)
    expected = []
    for i in range(2):
        rng = np.random.default_rng([5, i])
        z = ls.reparameterize(psi, bundle.store, rng=rng).z
        expected.append(ls.generate(z, bundle.store, bundle.pcfg.decoder, rng))
    _forbid_rasters(monkeypatch)
    out = tmp_path / "gen"
    n_flag = [] if n is None else ["--n", str(n)]
    assert dispatch(["generate", "--checkpoint", str(workdir["ckpt"]), "--input", str(data),
                     "--out", str(out), "--count", "2", "--seed", "5", *n_flag]) == 0
    for i, sketch in enumerate(expected):
        assert (out / f"gen_{i:04d}.json").read_text() == \
            _json_text(ls.sketch_to_json_obj(sketch))


def test_generate_input_makes_one_lattice_and_checks_every_line(workdir, tmp_path,
                                                                monkeypatch):
    data, sketches = _mixed_sketch_file(workdir, tmp_path)
    batches, original = [], cli.sketch_lattices

    def recording(batch, cfg):
        batches.append(len(batch))
        return original(batch, cfg)

    monkeypatch.setattr(cli, "sketch_lattices", recording)
    args = ["generate", "--checkpoint", str(workdir["ckpt"]), "--count", "1", "--seed", "5"]
    assert dispatch([*args, "--input", str(data), "--out", str(tmp_path / "gen")]) == 0
    assert batches == [1] and len(sketches) == 6
    # a bad last line still fails the command, before --out is made
    bad = tmp_path / "bad.ndjson"
    bad.write_text(data.read_text() + '{"drawing": [[[0, 1], [2]]]}\n')
    assert dispatch([*args, "--input", str(bad), "--out", str(tmp_path / "bad_out")]) == 3
    assert not (tmp_path / "bad_out").exists()


def test_generate_input_memory_does_not_grow_with_the_file(workdir, tmp_path):
    # a raster per sketch of a 2,000-line file would hold 2,000 x 64 KiB = 125 MiB
    big = ls.generate_dataset(tmp_path / "big", 2000, seed=3)[0]
    one = tmp_path / "one.ndjson"
    with open(big, encoding="utf-8") as fh:
        one.write_text(fh.readline())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    peak_kib = {}
    for name, data in (("big", big), ("one", one)):
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, "generate",
                               "--checkpoint", str(workdir["ckpt"]), "--input", str(data),
                               "--count", "1", "--out", str(tmp_path / name)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peak_kib[name] = int(proc.stdout.split()[-1])  # ru_maxrss is in KiB
    assert peak_kib["big"] - peak_kib["one"] < 30 * 1024, peak_kib


@pytest.mark.parametrize("command", ["heal", "generate"])
def test_overflowing_deviation_exit_4_writes_nothing(workdir, tmp_path, capsys, command):
    bundle = ls.load_model(workdir["ckpt"])
    M = bundle.pcfg.decoder.M
    bundle.store["dec.head.b"][3 * M : 5 * M] = 800.0  # log sigma: exp overflows
    ckpt = tmp_path / "wide.ckpt"
    ls.save_model(ckpt, bundle.store, None, bundle.pcfg)
    out = tmp_path / "out"
    extra = ["--input", str(workdir["data"][0])] if command == "heal" else ["--count", "3"]
    assert dispatch([command, "--checkpoint", str(ckpt), *extra, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: NUMERICAL_UNDERFLOW") and "Traceback" not in err
    assert not out.exists()


def test_generate_samples_every_sketch_before_writing(workdir, tmp_path, monkeypatch, capsys):
    from lattisketch import cli
    calls = []

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ls.NumericalUnderflow("non-finite mixture or pen logits")
        return ls.generate(*args)
    monkeypatch.setattr(cli, "generate", second_fails)
    out = tmp_path / "out"
    assert dispatch(["generate", "--checkpoint", str(workdir["ckpt"]), "--count", "3",
                     "--out", str(out)]) == 4
    assert "NUMERICAL_UNDERFLOW" in capsys.readouterr().err
    assert not out.exists()


def test_generate_from_prior(workdir):
    out = workdir["tmp"] / "gen"
    code = dispatch(["generate", "--checkpoint", str(workdir["ckpt"]),
                     "--out", str(out), "--count", "3", "--seed", "1"])
    assert code == 0
    assert len(sorted(out.glob("gen_*.svg"))) == 3
    obj = json.loads((out / "gen_0002.json").read_text())
    sk = ls.sketch_from_json_obj(obj)
    sk.validate()


def test_img2sketch_from_pgm(workdir, square_sketch):
    pgm = workdir["tmp"] / "edge.pgm"
    ls.write_pgm(ls.rasterize(square_sketch, 256), pgm)
    out = workdir["tmp"] / "i2s"
    code = dispatch(["img2sketch", "--checkpoint", str(workdir["ckpt"]),
                     "--input", str(pgm), "--out", str(out), "--seed", "4"])
    assert code == 0
    assert (out / "img2sketch.svg").exists()


def test_img2sketch_truncated_pgm_exit_3(workdir, capsys):
    pgm = workdir["tmp"] / "short.pgm"
    pgm.write_bytes(b"P5\n256 256\n255\n" + bytes(100))
    code = dispatch(["img2sketch", "--checkpoint", str(workdir["ckpt"]),
                     "--input", str(pgm), "--out", str(workdir["tmp"] / "i2s_short")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


def test_img2sketch_blank_edge_map_exit_4_says_it_has_no_ink(workdir, tmp_path, capsys):
    pgm = tmp_path / "blank.pgm"
    ls.write_pgm(ls.RasterSketch(pixels=np.zeros((256, 256), dtype=np.uint8)), pgm)
    out = tmp_path / "out"
    assert dispatch(["img2sketch", "--checkpoint", str(workdir["ckpt"]),
                     "--input", str(pgm), "--out", str(out)]) == 4
    assert capsys.readouterr().err.strip() == \
        "error: EMPTY_LATTICE: the input has no ink on the lattice lines"
    assert not out.exists()


def test_img2sketch_full_ink_exit_4_within_memory(workdir, tmp_path):
    # m = 15,360 is over the node budget: the dense graph would need about
    # 1.9 GB, so the process must refuse it before allocating
    pgm = tmp_path / "full_ink.pgm"
    ls.write_pgm(ls.RasterSketch(pixels=np.ones((256, 256), dtype=np.uint8)), pgm)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, "img2sketch",
                           "--checkpoint", str(workdir["ckpt"]), "--input", str(pgm),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "OUT_OF_RANGE" in proc.stderr and "budget" in proc.stderr
    assert int(proc.stdout.split()[-1]) < 300 * 1024  # ru_maxrss is in KiB
    assert not (tmp_path / "out").exists()


def test_eval_writes_metrics(workdir, capsys):
    out = workdir["tmp"] / "eval"
    code = dispatch(["eval", "--checkpoint", str(workdir["ckpt"]),
                     "--data"] + [str(p) for p in workdir["data"]] +
                    ["--out", str(out), "--pmask-list", "0.0,0.5",
                     "--limit", "4", "--seed", "0"])
    assert code == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "p_mask,top1,top3,mean_points,failures"
    assert len(lines) == 3
    assert "p_mask" in capsys.readouterr().out


def test_ingest_and_retrain_from_canonical(workdir):
    out = workdir["tmp"] / "ingested"
    code = dispatch(["ingest", str(workdir["data"][0]), "--out", str(out),
                     "--limit", "5"])
    assert code == 0
    jsonl = out / f"{workdir['data'][0].stem}.jsonl"
    lines = jsonl.read_text().strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        ls.sketch_from_json_obj(json.loads(line)).validate()
    pgms = sorted((out / "rasters").glob("*.pgm"))
    assert len(pgms) == 5
    assert ls.read_pgm(pgms[0]).dark_count() > 0
    # the canonical records ingest writes are trainable and evaluable
    run = workdir["tmp"] / "ingested_run"
    code = dispatch(["train", "--config", str(workdir["cfg"]), "--out", str(run),
                     "--data", str(jsonl)])
    assert code == 0
    code = dispatch(["eval", "--checkpoint", str(run / "ckpt_final.ckpt"),
                     "--data", str(jsonl), "--out", str(workdir["tmp"] / "ingested_eval"),
                     "--limit", "4"])
    assert code == 0


def test_ingest_non_finite_coordinate_exit_3(tmp_path, capsys):
    data = tmp_path / "bad.ndjson"
    data.write_text('{"drawing": [[[0, 10, 20], [0, 5, 9]]]}\n'
                    '{"drawing": [[[0, NaN], [0, 2]]]}\n')
    assert dispatch(["ingest", str(data), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "MALFORMED_RECORD" in err and f"{data}:2:" in err


def test_ingest_overflowing_coordinate_exit_3(tmp_path, capsys):
    # finite coordinates whose difference overflows a float
    data = tmp_path / "bad.ndjson"
    data.write_text('{"drawing": [[[0, 10, 20], [0, 5, 9]]]}\n'
                    '{"drawing": [[[-1e308, 1e308], [0, 2]]]}\n')
    assert dispatch(["ingest", str(data), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "MALFORMED_RECORD" in err and f"{data}:2:" in err
    assert "Traceback" not in err


def test_ingest_side_below_minimum_exit_4_writes_nothing(workdir, tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("side = 4\nn = 1\n")
    out = tmp_path / "out"
    assert dispatch(["ingest", str(workdir["data"][0]), "--config", str(cfg),
                     "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "OUT_OF_RANGE" in err and "Traceback" not in err
    assert list(out.glob("*.jsonl")) == []


_OVERFLOWING_FIT = '{"steps": [[1e308, 0, "down"], [-1e308, 0, "down"], [-1e308, 0, "end"]]}'


@pytest.mark.parametrize("command,second_line,reason", [
    ("ingest", _OVERFLOWING_FIT, ":2: drawn points span more than the float range"),
    ("render", _OVERFLOWING_FIT, ":2: drawn points span more than the float range"),
    ("render", '{"drawing": 5}', ':2: "drawing" is not a list'),
    ("train", '{"drawing": 5}', ':2: "drawing" is not a list'),
    ("train", _OVERFLOWING_FIT, ":2: drawn points span more than the float range"),
    ("heal", _OVERFLOWING_FIT, ":2: drawn points span more than the float range"),
    ("generate", _OVERFLOWING_FIT, ":2: drawn points span more than the float range"),
    ("eval", _OVERFLOWING_FIT, ":2: drawn points span more than the float range"),
], ids=["ingest", "render-fit", "render", "train", "train-fit", "heal-fit", "generate-fit",
        "eval-fit"])
def test_data_error_exit_3_writes_nothing(workdir, tmp_path, capsys, command, second_line,
                                          reason):
    data = tmp_path / "d.jsonl"
    data.write_text('{"steps": [[1, 2, "down"], [3, 1, "end"]]}\n' + second_line + "\n")
    out = tmp_path / "out"
    ckpt = ["--checkpoint", str(workdir["ckpt"])]
    source = {"ingest": [str(data)], "render": ["--input", str(data)],
              "train": ["--data", str(data)], "heal": [*ckpt, "--input", str(data)],
              "generate": [*ckpt, "--input", str(data)], "eval": [*ckpt, "--data", str(data)]
              }[command]
    assert dispatch([command, *source, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: MALFORMED_RECORD: {data}{reason}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("pmask_list", ["0.1,abc", "0.1,,0.3", "0.0,1.5", "-0.1", "0.1,nan",
                                        "inf"])
def test_eval_bad_pmask_list_exit_2(workdir, tmp_path, capsys, pmask_list):
    out = tmp_path / "eval"
    # the checkpoint does not exist: the list is rejected before it would be read
    assert dispatch(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--data", str(workdir["data"][0]), "--out", str(out),
                     "--pmask-list", pmask_list]) == 2
    assert "--pmask-list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("ingest", "--limit"), ("eval", "--limit"),
                                          ("generate", "--count"), ("heal", "--seed"),
                                          ("generate", "--seed"), ("img2sketch", "--seed"),
                                          ("eval", "--seed")])
def test_negative_limit_or_count_exit_2(workdir, tmp_path, capsys, command, flag):
    # a seed reaches np.random.default_rng, which refuses negative entries
    data, ckpt = str(workdir["data"][0]), str(workdir["ckpt"])
    args = {"ingest": [data], "eval": ["--checkpoint", ckpt, "--data", data],
            "generate": ["--checkpoint", ckpt], "heal": ["--checkpoint", ckpt, "--input", data],
            "img2sketch": ["--checkpoint", ckpt, "--input", data]}[command]
    out = tmp_path / "out"
    assert dispatch([command, *args, flag, "-1", "--out", str(out)]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_defaults_match_code():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config files", 1)[1].split("```")[1]
    documented = dict(re.findall(r"(\w+)=(\S+)", block))
    assert set(documented) == set(CONFIG_KEYS)
    pcfg = ls.PipelineConfig()
    for key, value in documented.items():
        section, field_name, caster = CONFIG_KEYS[key]
        assert caster(value) == getattr(getattr(pcfg, section), field_name), key


def test_readme_typical_session_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    session = readme.split("Typical session:", 1)[1].split("```")[1]
    lines = [ln for ln in session.splitlines() if ln.startswith("lattisketch ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_audit_grad_cli_passes(capsys):
    assert dispatch(["audit-grad", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out


def test_audit_grad_rejects_big_config(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("d = 64\nhidden_size = 256\n")
    code = dispatch(["audit-grad", "--config", str(cfg)])
    assert code == 4
    assert "OUT_OF_RANGE" in capsys.readouterr().err


def test_usage_errors_exit_2(workdir, capsys):
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["train", "--data", "x.ndjson"]) == 2  # missing --out
    assert dispatch(["heal", "--input", "x.pgm", "--out", "/tmp/x"]) == 2
    capsys.readouterr()


def test_missing_file_exit_3(tmp_path, capsys):
    code = dispatch(["render", "--input", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    capsys.readouterr()


def test_malformed_dataset_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.ndjson"
    bad.write_text("this is not json\n")
    code = dispatch(["render", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert code in (3,)
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_help_lists_documented_flags(capsys):
    assert dispatch(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("ingest", "train", "heal", "generate", "img2sketch",
                "eval", "audit-grad", "render", "params"):
        assert sub in out
    assert dispatch(["heal", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--seed", "--n", "--pmask", "--checkpoint", "--out"):
        assert flag in out


def test_unknown_flag_rejected(capsys):
    assert dispatch(["params", "--bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("edit", [
    pytest.param(lambda h: h["configs"]["encoder"].update(bogus=1), id="unknown_key"),
    pytest.param(lambda h: h.pop("configs"), id="no_configs"),
])
def test_heal_malformed_configs_header_exit_3(workdir, tmp_path, capsys, edit):
    ckpt = tmp_path / "bad.ckpt"
    rewrite_checkpoint_header(workdir["ckpt"], ckpt, edit)
    code = dispatch(["heal", "--checkpoint", str(ckpt), "--input", str(workdir["data"][0]),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert "CHECKPOINT_FORMAT_ERROR" in capsys.readouterr().err


def test_config_keys_name_real_fields():
    pcfg = ls.PipelineConfig()
    fields = {(section.name, f.name) for section in dataclasses.fields(pcfg)
              for f in dataclasses.fields(getattr(pcfg, section.name))}
    table = {(section, name) for section, name, _ in CONFIG_KEYS.values()}
    assert table <= fields
    # derived from other settings (z_dim = d, offset_scale from the data) or internal
    assert fields - table == {("decoder", "z_dim"), ("decoder", "offset_scale"),
                              ("encoder", "bn_eps")}
