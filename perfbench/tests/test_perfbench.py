"""Tests of the benchmark itself: smoke runs, output checks and the tracer.

    python3 -m pytest perfbench/tests

Smoke runs use the tiny model for a few operations; no test sets a timing
bound.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import lattisketch as ls  # noqa: E402
import lattisketch.trainer  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, root=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text(encoding="utf-8"))
    proc = run_bench("--workload", "heal", "--seed", "0", "--seconds", "1", "--trace", "0",
                     root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def first_ops(wl, n):
    wl.setup()
    ops = wl.op_list(n)
    return ops, [wl.run(op) for op in ops]


# ---------------------------------------------------------------------------
# train


def falling_losses(n=40):
    return list(np.linspace(2.0, 0.5, n))


def test_train_check_accepts_a_falling_finite_run():
    losses = falling_losses()
    assert checks.train(losses, [0] * len(losses), losses[0]) == []


@pytest.mark.parametrize("corrupt, words", [
    (lambda l, s: l.__setitem__(5, float("nan")), "not finite"),
    (lambda l, s: s.__setitem__(3, 1), "skipped"),
    (lambda l, s: l.__setitem__(slice(None), [1.0] * len(l)), "fell only"),
])
def test_train_check_rejects_a_corrupted_run(corrupt, words):
    losses = falling_losses()
    skipped = [0] * len(losses)
    replay = losses[0]
    corrupt(losses, skipped)
    assert any(words in p for p in checks.train(losses, skipped, replay))


def test_train_replay_reproduces_iteration_zero(tmp_path):
    wl = workloads.Train(3, True, tmp_path)
    ops, outputs = first_ops(wl, 4)
    assert not any("replayed" in p for p in wl.check(ops, outputs))
    loss, skipped = outputs[0]
    outputs[0] = (float(np.nextafter(loss, np.inf)), skipped)
    assert any("replayed" in p for p in wl.check(ops, outputs))


# ---------------------------------------------------------------------------
# heal


@pytest.fixture(scope="module")
def healed(tmp_path_factory):
    wl = workloads.Heal(3, True, tmp_path_factory.mktemp("heal"))
    ops, outputs = first_ops(wl, workloads.HEAL_SKETCHES + 1)  # two rounds
    return wl, ops, outputs


def test_heal_check_accepts_the_program_output(healed):
    wl, ops, outputs = healed
    assert wl.check(ops, outputs) == []


@pytest.mark.parametrize("corrupt, words", [
    (lambda sk, lat: (sk, ls.SketchLattice(lat.points[1:])), "surviving points"),
    (lambda sk, lat: (ls.VectorSketch(sk.steps[1:]), lat), "steps ending"),
    (lambda sk, lat: (ls.VectorSketch(np.vstack([sk.steps[-1:], sk.steps[1:]])), lat),
     "invalid"),
])
def test_heal_check_rejects_a_corrupted_output(healed, corrupt, words):
    wl, ops, outputs = healed
    outputs = list(outputs)
    outputs[0] = corrupt(*outputs[0])
    assert any(words in p for p in wl.check(ops, outputs))


def test_heal_check_rejects_a_heal_that_does_not_repeat(healed):
    wl, ops, outputs = healed
    outputs = list(outputs)
    sketch, lattice = outputs[workloads.HEAL_SKETCHES]
    steps = sketch.steps.copy()
    steps[0, 0] += 1e-9
    outputs[workloads.HEAL_SKETCHES] = (ls.VectorSketch(steps), lattice)
    assert any("again" in p for p in wl.check(ops, outputs))


# ---------------------------------------------------------------------------
# embed-edges


@pytest.fixture(scope="module")
def embedded(tmp_path_factory):
    wl = workloads.EmbedEdges(3, True, tmp_path_factory.mktemp("embed"))
    ops, outputs = first_ops(wl, workloads.EDGE_MAPS + 1)  # two rounds
    return wl, ops, outputs


def test_embed_check_accepts_the_program_output(embedded):
    wl, ops, outputs = embedded
    assert wl.check(ops, outputs) == []


@pytest.mark.parametrize("k, corrupt, words", [
    (0, lambda psi: np.where(np.arange(psi.size) == 0, 1.0, psi), "outside"),
    (0, lambda psi: np.where(np.arange(psi.size) == 0, np.nan, psi), "not finite"),
    (0, lambda psi: psi + 1e-3, "dense reference"),
    (workloads.EDGE_MAPS, lambda psi: psi + 1e-6, "again"),
])
def test_embed_check_rejects_a_corrupted_output(embedded, k, corrupt, words):
    wl, ops, outputs = embedded
    outputs = list(outputs)
    outputs[k] = corrupt(outputs[k]).astype(outputs[k].dtype)
    assert any(words in p for p in wl.check(ops, outputs))


# ---------------------------------------------------------------------------
# tracer


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    tr.op = 0
    tr.spans = [["op", 0.0, 10.0, -1, 0], ["trainer.step", 1.0, 9.0, 0, 0],
                ["graph_builder.build", 2.0, 5.0, 1, 0], ["encoder.forward", 5.0, 8.0, 1, 0]]
    got = tr.summarize([0], [])
    assert got["bench.op_self_ms"] == pytest.approx(2000.0)
    assert got["trainer.step_self_ms"] == pytest.approx(2000.0)
    assert got["graph_builder.build_ms"] == pytest.approx(3000.0)
    assert got["encoder.forward_ms"] == pytest.approx(3000.0)


def test_uninstall_restores_the_program_functions():
    original = lattisketch.trainer.build_adjacency
    tr = tracing.Tracer()
    tr.install()
    assert lattisketch.trainer.build_adjacency is not original
    tr.uninstall()
    assert lattisketch.trainer.build_adjacency is original
