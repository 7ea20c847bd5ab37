"""End-to-end CLI behavior through dispatch()."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lattisketch as ls
from conftest import rewrite_checkpoint_header
from lattisketch.cli import CONFIG_KEYS, dispatch

ROOT = Path(__file__).resolve().parents[1]


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


def test_img2sketch_full_ink_exit_4_within_memory(workdir, tmp_path):
    # m = 15,360 is over the node budget: the dense graph would need about
    # 1.9 GB, so the process must refuse it before allocating
    pgm = tmp_path / "full_ink.pgm"
    ls.write_pgm(ls.RasterSketch(pixels=np.ones((256, 256), dtype=np.uint8)), pgm)
    script = ("import resource, sys\n"
              "from lattisketch.cli import dispatch\n"
              "code = dispatch(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "sys.exit(code)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, "img2sketch",
                           "--checkpoint", str(workdir["ckpt"]), "--input", str(pgm),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "OUT_OF_RANGE" in proc.stderr and "budget" in proc.stderr
    assert int(proc.stdout.split()[-1]) < 300 * 1024  # ru_maxrss is in KiB


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
