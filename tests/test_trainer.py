"""Optimizer, schedule, clipping, train loop and the gradient audit."""

import csv
import hashlib
import importlib.util
import json
import statistics
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import lattisketch as ls
from conftest import zigzag_scribble


def small_pcfg(**train_kwargs):
    enc = ls.EncoderConfig(d=8, K=2)
    dec = ls.DecoderConfig(hidden_size=16, M=2, n_max=32, z_dim=8)
    defaults = dict(batch_size=4, iterations=3, seed=0)
    defaults.update(train_kwargs)
    return ls.PipelineConfig(encoder=enc, decoder=dec,
                             train=ls.TrainConfig(**defaults))


# ---------------------------------------------------------------------------
# schedule and clipping


def test_lr_schedule_values():
    assert ls.lr_schedule(0) == pytest.approx(1e-3)
    assert ls.lr_schedule(1) == pytest.approx(9.99e-4)
    assert ls.lr_schedule(1000) == pytest.approx(1e-3 * 0.999 ** 1000, rel=1e-12)
    assert ls.lr_schedule(1000) == pytest.approx(3.677e-4, rel=1e-3)


def test_clip_elementwise():
    grads = {"w": np.array([0.5, 3.0, -3.0, -0.2])}
    out = ls.clip_gradients(grads, 1.0)
    assert out["w"].tolist() == [0.5, 1.0, -1.0, -0.2]


def test_clip_bound_exact():
    rng = np.random.default_rng(0)
    grads = {"w": rng.standard_normal(100) * 5}
    out = ls.clip_gradients(grads, 1.0)
    assert np.max(np.abs(out["w"])) <= 1.0


# ---------------------------------------------------------------------------
# adam oracle: three hand-computed iterations on a scalar


def test_adam_matches_hand_recurrence():
    store = ls.ParameterStore()
    store.add("w", np.array([1.0], dtype=np.float64))
    opt = ls.OptimizerState.fresh(store)
    cfg = ls.TrainConfig(iterations=3, seed=0)

    g = 0.1
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.eps, 1e-3
    m = v = 0.0
    w = 1.0
    for t in range(1, 4):
        ls.adam_update(store, {"w": np.array([g])}, opt, lr, cfg)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert store["w"][0] == pytest.approx(w, abs=1e-12)
    assert opt.iteration == 3


def test_adam_moment_shapes_mirror_store():
    pcfg = small_pcfg()
    store = ls.init_params(pcfg)
    opt = ls.OptimizerState.fresh(store)
    for name in store.trainable_names():
        assert opt.m[name].shape == store[name].shape
        assert opt.v[name].shape == store[name].shape


def oracle_adam(params: dict, grads: dict, m: dict, v: dict, t: int, lr: float, cfg):
    """One Adam step written out of place; returns new (params, m, v) dicts."""
    b1, b2 = cfg.beta1, cfg.beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    new_p, new_m, new_v = {}, {}, {}
    for name, g in grads.items():
        new_m[name] = b1 * m[name] + (1.0 - b1) * g
        new_v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        m_hat, v_hat = new_m[name] / c1, new_v[name] / c2
        new_p[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return new_p, new_m, new_v


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_matches_the_out_of_place_formula_bit_for_bit(dtype):
    pcfg = small_pcfg(dtype=dtype)
    store = ls.init_params(pcfg)
    opt = ls.OptimizerState.fresh(store)
    m_arrays, v_arrays = dict(opt.m), dict(opt.v)
    names = store.trainable_names()
    want_p = {n: store[n].copy() for n in names}
    want_m, want_v = store.zero_grads(), store.zero_grads()
    rng = np.random.default_rng(8)
    for step in range(1, 6):
        grads = {n: (rng.standard_normal(store[n].shape) * 3).astype(dtype) for n in names}
        before = {n: g.copy() for n, g in grads.items()}
        lr = ls.lr_schedule(step - 1)
        want_p, want_m, want_v = oracle_adam(want_p, grads, want_m, want_v, step, lr,
                                             pcfg.train)
        ls.adam_update(store, grads, opt, lr, pcfg.train)
        for n in names:
            assert store[n].tobytes() == want_p[n].tobytes(), n
            assert opt.m[n].tobytes() == want_m[n].tobytes(), n
            assert opt.v[n].tobytes() == want_v[n].tobytes(), n
            assert opt.m[n] is m_arrays[n] and opt.v[n] is v_arrays[n], n
            assert np.array_equal(grads[n], before[n]), n
    assert opt.iteration == 5


def test_clip_returns_its_input_clamped_in_place():
    arrays = {"w": np.array([0.5, 3.0, -3.0]), "b": np.array([[-7.0, 0.25]])}
    grads = dict(arrays)
    out = ls.clip_gradients(grads, 1.0)
    assert out is grads
    assert all(out[n] is arrays[n] for n in arrays)
    assert arrays["w"].tolist() == [0.5, 1.0, -1.0]
    assert arrays["b"].tolist() == [[-1.0, 0.25]]


# ---------------------------------------------------------------------------
# memory of the train step's parts, at a batch of 32 graphs (N about 5,700)


@pytest.fixture(scope="module")
def acceptance_batch():
    pcfg = ls.PipelineConfig(encoder=ls.EncoderConfig(d=64, K=2),
                             decoder=ls.DecoderConfig(hidden_size=256, M=20, n_max=64, z_dim=64),
                             train=ls.TrainConfig(batch_size=32))
    items = make_items(pcfg, n_items=32)
    graphs = [ls.build_adjacency(item.lattice, pcfg.graph, np.float32) for item in items]
    assert sum(g.m for g in graphs) >= 5000
    return pcfg, graphs, ls.init_params(pcfg)


def traced(fn, warmups=0):
    """(fn's tracemalloc peak above its inputs, bytes it holds with its result).

    Warm-up calls run traced first, so arrays fn replaces are ones whose
    allocation tracemalloc saw (it does not count frees of older blocks)."""
    tracemalloc.start()
    try:
        for _ in range(warmups):
            fn()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()  # held while its memory is measured
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, held - base


def test_train_mode_encode_scratch_is_within_its_masks(acceptance_batch):
    # per layer and (N, d) entry the returned cache holds the propagated and
    # first unit's float32 activations and one byte each for the second unit's
    # sign and the dropout keep mask: 2.5x the size of float32 masks, plus
    # points, pooling and psi (float masks and the second unit's float output
    # made it 4x). The scratch above it was 3x when each graph's float64 draws
    # were kept and concatenated, and is one (N, d) array now
    pcfg, graphs, store = acceptance_batch
    cfg = pcfg.encoder
    mask_bytes = cfg.K * sum(g.m for g in graphs) * cfg.d * 4
    peak, held = traced(lambda: ls.encode_graphs(graphs, store, cfg, train_mode=True,
                                                    rng=np.random.default_rng(1)))
    assert 2.5 * mask_bytes <= held < 2.625 * mask_bytes, held / mask_bytes
    assert peak - held <= 2.5 * mask_bytes, (peak - held) / mask_bytes


def test_decoder_backward_writes_gate_derivatives_over_the_gates():
    # BPTT once kept tanh(c) beside the gates and a second (B, T, 4h) block
    # for their derivatives; now dY, dH and one step's temporaries remain
    B, T, hs = 8, 64, 128
    cfg = ls.DecoderConfig(hidden_size=hs, M=5, n_max=T, z_dim=16)
    store = ls.init_decoder_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    targets = np.zeros((B, T, 5), dtype=np.float32)
    targets[:, :, :2] = rng.standard_normal((B, T, 2))
    targets[:, :, 2] = 1.0
    z = rng.standard_normal((B, cfg.z_dim)).astype(np.float32)
    block = B * T * 4 * hs * 4
    grads = store.zero_grads()
    tracemalloc.start()
    try:
        _, cache = ls.teacher_forced_nll(targets, z, store, cfg)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ls.teacher_forced_backward(cache, store, cfg, grads)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < block, peak / block


def test_clip_and_adam_scratch_is_two_arrays(acceptance_batch):
    # clipping in place, and per parameter one scratch array and the array
    # that replaces it; a clipped copy of every gradient and Adam's formula
    # written out of place took about 7x
    _, _, store = acceptance_batch
    store = store.copy()
    names = store.trainable_names()
    rng = np.random.default_rng(2)
    grads = {n: rng.standard_normal(store[n].shape).astype(np.float32) for n in names}
    opt = ls.OptimizerState.fresh(store)
    largest = max(store[n].nbytes for n in names)

    def update():
        ls.adam_update(store, ls.clip_gradients(grads, 1.0), opt, 1e-3, ls.TrainConfig())

    peak, held = traced(update, warmups=1)
    assert peak <= 2.01 * largest, peak / largest  # the 1 % is array headers
    assert held < 0.01 * largest


# ---------------------------------------------------------------------------
# train_step


def make_items(pcfg, n_items=6, seed=0):
    sketches, labels = [], []
    rng = np.random.default_rng(seed)
    for i in range(n_items):
        rec = ls.make_sketch_record("ring" if i % 2 else "ladder", rng)
        import json
        sk = ls.parse_quickdraw_line(json.dumps(rec))
        sketches.append(sk)
        labels.append("ring" if i % 2 else "ladder")
    scale = max(float(np.std(np.concatenate(
        [s.steps[:, :2].ravel() for s in sketches]))), 1e-6)
    items, skipped = ls.prepare_items(sketches, labels, pcfg, scale)
    assert skipped == 0
    return items


def test_train_step_updates_params():
    pcfg = small_pcfg()
    items = make_items(pcfg)
    store = ls.init_params(pcfg)
    opt = ls.OptimizerState.fresh(store)
    before = store["dec.head.W"].copy()
    loss1, skipped = ls.train_step(items[:4], store, opt, pcfg,
                                   np.random.default_rng(0))
    assert skipped == 0
    assert np.isfinite(loss1)
    assert not np.array_equal(store["dec.head.W"], before)
    loss2, _ = ls.train_step(items[:4], store, opt, pcfg, np.random.default_rng(0))
    assert loss2 != loss1  # parameters moved between the two calls


def test_train_step_non_finite_loss_leaves_state():
    pcfg = small_pcfg()
    items = make_items(pcfg)
    store = ls.init_params(pcfg)
    store["dec.head.b"][0] = np.nan
    opt = ls.OptimizerState.fresh(store)
    snapshot = {n: store[n].copy() for n in store.names()}
    with pytest.raises(ls.NumericalUnderflow):
        ls.train_step(items[:4], store, opt, pcfg, np.random.default_rng(0))
    for name, arr in snapshot.items():
        assert np.array_equal(store[name], arr, equal_nan=True), name
    assert opt.iteration == 0
    assert all(not m.any() for m in opt.m.values())
    assert all(not v.any() for v in opt.v.values())


def test_train_step_non_finite_gradient_leaves_state(monkeypatch):
    pcfg = small_pcfg()
    items = make_items(pcfg)
    store = ls.init_params(pcfg)
    opt = ls.OptimizerState.fresh(store)
    ls.train_step(items[:4], store, opt, pcfg, np.random.default_rng(1))
    snapshot = {n: store[n].copy() for n in store.names()}
    moments = [{n: a.copy() for n, a in d.items()} for d in (opt.m, opt.v)]
    backward = ls.trainer._backward

    def nan_gradient(*args):
        grads = backward(*args)
        grads["dec.lstm.Wh"][3, 5] = np.nan
        return grads

    monkeypatch.setattr(ls.trainer, "_backward", nan_gradient)
    with pytest.raises(ls.NumericalUnderflow, match="dec.lstm.Wh"):
        ls.train_step(items[:4], store, opt, pcfg, np.random.default_rng(0))
    for name, arr in snapshot.items():
        assert np.array_equal(store[name], arr), name
    assert opt.iteration == 1
    for kept, now in zip(moments, (opt.m, opt.v)):
        assert all(np.array_equal(now[n], a) for n, a in kept.items())


def _state(store, opt) -> list:
    return [(n, store[n].tobytes()) for n in store.names()] + [
        (n, a.tobytes()) for d in (opt.m, opt.v) for n, a in d.items()] + [opt.iteration]


@pytest.mark.parametrize("batch", ["empty", "all masked"])
def test_train_step_with_nothing_left_raises_and_leaves_state(batch):
    pcfg = small_pcfg(p_mask_train=1.0)
    items = [] if batch == "empty" else make_items(pcfg)[:4]
    store = ls.init_params(pcfg)
    opt = ls.OptimizerState.fresh(store)
    ls.train_step(make_items(pcfg)[:4], store, opt, replace(pcfg, train=small_pcfg().train),
                  np.random.default_rng(1))  # moments that are not all zero
    before = _state(store, opt)
    with pytest.raises(ls.AllItemsSkipped):
        ls.train_step(items, store, opt, pcfg, np.random.default_rng(0))
    assert _state(store, opt) == before


def test_train_step_skips_an_item_whose_one_point_is_masked_away():
    pcfg = small_pcfg(p_mask_train=0.5)
    items = make_items(pcfg)[:3]
    lone = replace(items[0], lattice=ls.SketchLattice(items[0].lattice.points[:1]))
    # a seed whose first draw, the lone point's, masks it
    seed = next(s for s in range(100) if np.random.default_rng(s).random() < 0.5)
    store = ls.init_params(pcfg)
    opt = ls.OptimizerState.fresh(store)
    loss, skipped = ls.train_step([lone, *items[1:]], store, opt, pcfg,
                                  np.random.default_rng(seed))
    assert skipped == 1 and np.isfinite(loss) and opt.iteration == 1


def test_prepare_items_drops_over_budget_lattices():
    pcfg = small_pcfg()
    scribble = zigzag_scribble()
    square = ls.parse_quickdraw_line('{"drawing": [[[0, 10, 10, 0, 0], [0, 0, 10, 10, 0]]]}')
    lat = ls.sample_lattice(ls.rasterize(scribble, 256), pcfg.lattice)
    assert lat.m > ls.graph_builder.MAX_NODES
    items, skipped = ls.prepare_items([scribble, square, scribble], ["a", "b", "a"], pcfg, 1.0)
    assert skipped == 2
    assert [item.label for item in items] == ["b"]
    with pytest.raises(ls.DatasetEmpty):
        ls.prepare_items([scribble], ["a"], pcfg, 1.0)


def test_prepare_items_lattices_equal_per_sketch_sampling():
    pcfg = small_pcfg()
    sketches = synthetic_sketches(40, seed=5) + [zigzag_scribble()]
    items, skipped = ls.prepare_items(sketches, ["s"] * len(sketches), pcfg, 1.0)
    assert (len(items), skipped) == (40, 1)
    for item, sk in zip(items, sketches):
        want = ls.sample_lattice(ls.rasterize(sk, 256), pcfg.lattice)
        assert np.array_equal(item.lattice.points, want.points)


def test_prepare_items_stroke5_rows_equal_per_item_packing():
    sketches = synthetic_sketches(30, seed=6) + [zigzag_scribble()] + synthetic_sketches(5, seed=8)
    kept = sketches[:30] + sketches[31:]
    items, skipped = ls.prepare_items(sketches, ["s"] * len(sketches), small_pcfg(), 7.25)
    assert (len(items), skipped) == (35, 1)
    for item, sk in zip(items, kept):
        want = ls.to_stroke5(sk, sk.n_steps)
        want[:, :2] /= 7.25
        assert (item.stroke5.shape, item.stroke5.dtype) == (want.shape, want.dtype)
        assert item.stroke5.tobytes() == want.tobytes()


# sha256 of generate_dataset(tmp, 50, seed=0)'s files as the generator wrote
# them when it drew and rounded one rung or axis at a time
DATASET_SHA256 = {
    "ring.ndjson": "523d126f85490c132f558e648b83d205b5aab01376b82a98a79500c3af36e198",
    "ladder.ndjson": "774ab1508ced3bf69aa221b1c57ae2e6dda39e81c9afb059f06cb02a726c8208",
}


def test_generate_dataset_files_are_pinned(tmp_path):
    paths = ls.generate_dataset(tmp_path, 50, seed=0)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == DATASET_SHA256


def synthetic_sketches(count, seed):
    rng = np.random.default_rng(seed)
    return [ls.parse_quickdraw_line(json.dumps(ls.make_sketch_record(("ring", "ladder")[i % 2], rng)))
            for i in range(count)]


# prepare_items' transient memory: about 4.5 MB at 500 synthetic sketches
# (most of it one pass of SEGMENTS_PER_PASS segments), so 8 MB leaves room
PREPARE_SCRATCH_BYTES = 8_000_000


@pytest.mark.parametrize("count", [500, 5000])
def test_prepare_items_scratch_memory_does_not_grow_with_the_dataset(count):
    sketches = synthetic_sketches(count, seed=11)
    tracemalloc.start()
    try:
        items, _ = ls.prepare_items(sketches, ["s"] * count, small_pcfg(), 1.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(items) > count // 2
    assert peak - kept < PREPARE_SCRATCH_BYTES


def test_train_step_moves_running_stats_by_momentum(monkeypatch):
    pcfg = small_pcfg()
    items = make_items(pcfg)
    store = ls.init_params(pcfg)
    names = ("enc.bn.running_mean", "enc.bn.running_var")
    # a first step moves the statistics away from their initial 0 and 1
    ls.train_step(items[:4], store, ls.OptimizerState.fresh(store), pcfg,
                  np.random.default_rng(1))
    old = [store[n].copy() for n in names]
    seen = []
    encode_graphs = ls.encoder.encode_graphs

    def spy(*args, **kwargs):
        psi, cache = encode_graphs(*args, **kwargs)
        # the forward pass itself writes nothing to the store
        assert all(np.array_equal(store[n], o) for n, o in zip(names, old))
        seen.append(cache[-1])
        return psi, cache

    monkeypatch.setattr(ls.encoder, "encode_graphs", spy)
    ls.train_step(items[:4], store, ls.OptimizerState.fresh(store), pcfg,
                  np.random.default_rng(0))
    (batch_stats,) = seen
    mom = pcfg.encoder.bn_momentum
    for name, o, batch in zip(names, old, batch_stats):
        want = (mom * o + (1.0 - mom) * batch).astype(np.float32)
        assert np.array_equal(store[name], want), name
        assert not np.array_equal(store[name], o), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_step_builds_graphs_in_store_dtype(monkeypatch, dtype):
    pcfg = small_pcfg(dtype=dtype)
    items = make_items(pcfg)
    store = ls.init_params(pcfg)
    built = []
    build_adjacency = ls.trainer.build_adjacency

    def spy(*args, **kwargs):
        graph = build_adjacency(*args, **kwargs)
        built.append(graph.adjacency.dtype)
        return graph

    monkeypatch.setattr(ls.trainer, "build_adjacency", spy)
    ls.train_step(items[:4], store, ls.OptimizerState.fresh(store), pcfg,
                  np.random.default_rng(0))
    assert built == [np.dtype(dtype)] * 4


def test_zero_lr_update_is_noop():
    # TrainConfig rejects lr0=0 (all constants positive), so drive the
    # update directly with a zero step size
    pcfg = small_pcfg()
    store = ls.init_params(pcfg)
    snapshot = {n: store[n].copy() for n in store.trainable_names()}
    opt = ls.OptimizerState.fresh(store)
    grads = {n: np.ones_like(store[n]) for n in store.trainable_names()}
    ls.adam_update(store, grads, opt, 0.0, pcfg.train)
    for name, arr in snapshot.items():
        assert np.array_equal(store[name], arr), name


def test_train_step_loss_decreases_on_toy_set():
    pcfg = small_pcfg(iterations=120, batch_size=4, p_mask_train=0.0)
    items = make_items(pcfg, n_items=4)
    store = ls.init_params(pcfg)
    opt = ls.OptimizerState.fresh(store)
    losses = []
    for it in range(120):
        rng = np.random.default_rng([0, it])
        loss, _ = ls.train_step(items, store, opt, pcfg, rng)
        losses.append(loss)
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


# ---------------------------------------------------------------------------
# fit / resume / checkpoints


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toy_data")
    return [str(p) for p in ls.generate_dataset(tmp, 10, seed=3)]


def test_fit_writes_checkpoint_and_csv(tmp_path, toy_dataset):
    pcfg = small_pcfg(iterations=4, batch_size=2)
    summary = ls.fit(toy_dataset, pcfg, tmp_path / "run")
    assert (tmp_path / "run" / "ckpt_final.ckpt").exists()
    with open(summary["loss_csv"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "lr", "loss"]
    assert len(rows) == 1 + 4
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]


def test_fit_zero_iterations_initial_checkpoint_only(tmp_path, toy_dataset):
    pcfg = small_pcfg(iterations=0)
    summary = ls.fit(toy_dataset, pcfg, tmp_path / "run0")
    bundle = ls.load_model(summary["checkpoint"])
    assert bundle.iteration == 0
    with open(summary["loss_csv"]) as fh:
        assert len(fh.read().strip().splitlines()) == 1  # header only


def test_fit_interim_checkpoints(tmp_path, toy_dataset):
    pcfg = small_pcfg(iterations=5, checkpoint_every=2)
    ls.fit(toy_dataset, pcfg, tmp_path / "runi")
    names = sorted(p.name for p in (tmp_path / "runi").glob("*.ckpt"))
    assert "ckpt_000002.ckpt" in names and "ckpt_000004.ckpt" in names
    assert "ckpt_final.ckpt" in names


def test_fit_resume_reproduces_loss_sequence(tmp_path, toy_dataset):
    for dtype in ("float32", "float64"):  # checkpoints keep the store's dtype
        run = tmp_path / dtype
        full_cfg = small_pcfg(iterations=8, batch_size=2, checkpoint_every=4, dtype=dtype)
        s_full = ls.fit(toy_dataset, full_cfg, run / "full")
        with open(s_full["loss_csv"]) as fh:
            want = fh.read().splitlines()

        half_cfg = small_pcfg(iterations=4, batch_size=2, dtype=dtype)
        ls.fit(toy_dataset, half_cfg, run / "half")
        resume_cfg = small_pcfg(iterations=8, batch_size=2, dtype=dtype)
        s_res = ls.fit(toy_dataset, resume_cfg, run / "half",
                       resume=str(run / "half" / "ckpt_final.ckpt"))
        with open(s_res["loss_csv"]) as fh:
            got = fh.read().splitlines()
        assert got == want, dtype


def test_fit_resume_in_place_from_an_earlier_checkpoint_keeps_one_row_per_iteration(
        tmp_path, toy_dataset):
    pcfg = small_pcfg(iterations=30, batch_size=2, checkpoint_every=10)
    run = tmp_path / "run"
    summary = ls.fit(toy_dataset, pcfg, run)
    want = {name: (run / name).read_bytes() for name in ("loss.csv", "ckpt_final.ckpt")}
    ls.fit(toy_dataset, pcfg, run, resume=str(run / "ckpt_000020.ckpt"))
    assert {name: (run / name).read_bytes() for name in want} == want
    with open(summary["loss_csv"]) as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == [str(it) for it in range(30)]


def test_fit_resume_keeps_checkpoint_model_settings(tmp_path, toy_dataset):
    # a float64 run whose n_max drops the longest toy sketches, resumed with
    # the built-in defaults (float32, n_max 200) plus the schedule, as
    # `train --resume` without --config does
    def model(**train_kwargs):
        pcfg = small_pcfg(batch_size=2, dtype="float64", **train_kwargs)
        return replace(pcfg, decoder=replace(pcfg.decoder, n_max=20))

    full = ls.fit(toy_dataset, model(iterations=8), tmp_path / "full")
    ls.fit(toy_dataset, model(iterations=4), tmp_path / "half")
    defaults = ls.PipelineConfig(train=ls.TrainConfig(iterations=8, batch_size=2, seed=0))
    summary = ls.fit(toy_dataset, defaults, tmp_path / "half",
                     resume=str(tmp_path / "half" / "ckpt_final.ckpt"))
    assert summary["skipped_parse"] == full["skipped_parse"] > 0
    with open(full["loss_csv"], "rb") as a, open(summary["loss_csv"], "rb") as b:
        assert a.read() == b.read()
    resumed = ls.load_model(summary["checkpoint"])
    assert resumed.header["configs"]["train"]["dtype"] == "float64"
    assert resumed.header["dtype"] == "<f8"
    assert summary["pcfg"].train.dtype == "float64"
    assert summary["pcfg"].decoder.n_max == 20


def test_fit_resume_takes_callers_schedule(tmp_path, toy_dataset):
    ckpt = tmp_path / "r" / "ckpt_final.ckpt"
    ls.fit(toy_dataset, small_pcfg(iterations=2, batch_size=2), tmp_path / "r")
    before = ls.load_model(ckpt).store
    summary = ls.fit(toy_dataset, small_pcfg(iterations=4, batch_size=2, lr0=0.5),
                     tmp_path / "r", resume=str(ckpt))
    with open(summary["loss_csv"]) as fh:
        logged = [float(r[1]) for r in list(csv.reader(fh))[3:]]
    assert logged == pytest.approx([ls.lr_schedule(it, 0.5) for it in (2, 3)], rel=1e-9)
    # Adam moves a value by at most about lr per step, so on the
    # checkpoint's 1e-3 schedule nothing could move by 0.1 in two steps
    after = ls.load_model(summary["checkpoint"])
    moved = max(float(np.abs(after.store[n] - before[n]).max())
                for n in before.trainable_names())
    assert moved > 0.1
    assert after.header["configs"]["train"]["iterations"] == 4
    assert after.header["configs"]["train"]["lr0"] == 0.5
    assert summary["pcfg"].train.lr0 == 0.5
    assert summary["pcfg"].decoder.offset_scale == after.pcfg.decoder.offset_scale


def test_fit_empty_dataset_raises(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    with pytest.raises(ls.DatasetEmpty):
        ls.fit([str(empty)], small_pcfg(), tmp_path / "run")


def test_offset_scale_of_ordinary_data_is_numpy_std(toy_dataset):
    sketches, _, _ = ls.load_dataset(toy_dataset, n_max=64)
    offs = np.concatenate([s.steps[:, :2].ravel() for s in sketches])
    assert ls.trainer.offset_scale_of(sketches) == float(offs.std())


def test_fit_offset_scale_finite_for_offsets_whose_squares_overflow(tmp_path):
    path = tmp_path / "huge.ndjson"
    rows = [[1e154, 0.0, "down"], [0.0, 1.5e154, "down"], [-1e154, 0.0, "end"]]
    path.write_text(json.dumps({"steps": rows, "label": "huge"}) + "\n")
    summary = ls.fit([str(path)], small_pcfg(iterations=1), tmp_path / "run")
    bundle = ls.load_model(summary["checkpoint"])
    # statistics sums the squares exactly, as rationals
    want = statistics.pstdev([1e154, 0.0, 0.0, 1.5e154, -1e154, 0.0])
    assert bundle.pcfg.decoder.offset_scale == pytest.approx(want, rel=1e-15)
    assert bundle.header["configs"]["decoder"]["offset_scale"] == pytest.approx(want, rel=1e-15)


def test_load_dataset_skips_too_long(tmp_path):
    import json
    path = tmp_path / "mix.ndjson"
    xs = list(range(100))
    with open(path, "w") as fh:
        fh.write(json.dumps({"drawing": [[[0, 10], [0, 0]]]}) + "\n")
        fh.write(json.dumps({"drawing": [[xs, xs]]}) + "\n")  # 100 steps
    sketches, labels, skipped = ls.load_dataset([str(path)], n_max=32)
    assert len(sketches) == 1
    assert skipped == 1
    assert labels == ["mix"]


def test_model_round_trip_preserves_configs(tmp_path, toy_dataset):
    pcfg = small_pcfg(iterations=2)
    summary = ls.fit(toy_dataset, pcfg, tmp_path / "rt")
    bundle = ls.load_model(summary["checkpoint"])
    assert bundle.pcfg.encoder.d == pcfg.encoder.d
    assert bundle.pcfg.decoder.hidden_size == pcfg.decoder.hidden_size
    assert bundle.pcfg.decoder.offset_scale > 0
    assert bundle.opt.iteration == 2
    for name in ("dec.head.W", "enc.fc.W"):
        assert bundle.store[name].dtype == np.float32


# ---------------------------------------------------------------------------
# gradient audit


def small_audit_pcfg(**encoder_kwargs):
    pcfg = small_pcfg()
    return ls.PipelineConfig(
        encoder=replace(pcfg.encoder, d=8, **encoder_kwargs),
        decoder=ls.DecoderConfig(hidden_size=8, M=2, n_max=16, z_dim=8),
        train=pcfg.train)


def assert_audit_passes(audit_pcfg, probe):
    store = ls.init_params(audit_pcfg, seed=0, dtype=np.float64)
    report = ls.finite_diff_audit(store, probe, audit_pcfg)
    trainable = set(store.trainable_names())
    assert set(report) == trainable
    for name, entry in report.items():
        assert entry["max_rel_err"] < 1e-3, name
        assert entry["checked"] > 0


def test_audit_all_arrays_small():
    audit_pcfg = small_audit_pcfg()
    assert_audit_passes(audit_pcfg, ls.audit_probe(audit_pcfg, seed=0))


@pytest.mark.parametrize("variant", [{"pooling": "sum"}, {"embed_mode": "joint"}],
                         ids=["sum_pooling", "joint_embedding"])
def test_audit_all_arrays_small_variants(variant):
    audit_pcfg = small_audit_pcfg(**variant)
    assert_audit_passes(audit_pcfg, ls.audit_probe(audit_pcfg, seed=0))


@pytest.mark.parametrize("row_normalize", [False, True])
def test_audit_all_arrays_multi_band(monkeypatch, row_normalize):
    # two-row blocks split every probe graph into bands, most narrower than
    # the graph, so the audit covers propagation over several bands
    monkeypatch.setattr(ls.graph_builder, "_BLOCK_ROWS", 2)
    audit_pcfg = small_audit_pcfg(row_normalize=row_normalize)
    probe = ls.audit_probe(audit_pcfg, seed=0)
    assert all(len(g.bands) >= 2 for g in probe["graphs"])
    assert any(c.stop - c.start < g.m for g in probe["graphs"] for _, c, _ in g.bands)
    assert_audit_passes(audit_pcfg, probe)


def test_audit_all_arrays_small_row_normalized():
    audit_pcfg = small_audit_pcfg(row_normalize=True)
    probe = ls.audit_probe(audit_pcfg, seed=0)
    # the normalization must change some row, or this audits nothing new
    assert any(not np.allclose(g.adjacency.sum(axis=1), 1.0) for g in probe["graphs"])
    assert_audit_passes(audit_pcfg, probe)


def test_audit_deterministic():
    pcfg = ls.PipelineConfig(
        encoder=ls.EncoderConfig(d=8, K=1),
        decoder=ls.DecoderConfig(hidden_size=8, M=2, n_max=16, z_dim=8),
        train=ls.TrainConfig(seed=0))
    store = ls.init_params(pcfg, seed=0, dtype=np.float64)
    probe = ls.audit_probe(pcfg, seed=0)
    a = ls.finite_diff_audit(store, probe, pcfg)
    b = ls.finite_diff_audit(store, probe, pcfg)
    assert a == b


# one planted bug per backward pass term: (module, source text, its mutant)
MUTANTS = {
    "dropout scale": ("encoder", "(dout * dropout[0]) * dropout[1]", "dout * dropout[1]"),
    "batch-norm xhat term": ("encoder", " - xhat * (dxhat * xhat).sum(axis=0)", ""),
    "row-normalize degree": ("encoder", "d_branch if deg is None else d_branch / deg",
                             "d_branch"),
    "reparameterize half": ("encoder", "sample.sigma * 0.5", "sample.sigma"),
    "mean-pool divide": ("encoder", "d_pooled /= ms", "d_pooled += 0 * ms"),
    "ReLU at zero": ("encoder", "acts[1] > 0", "acts[1] >= 0"),
    "forget gate in dc": ("decoder", "dc_next = dc * f", "dc_next = dc"),
    "g derivative": ("decoder", "dc * i * (1.0 - g * g)", "dc * i"),
    "tanh(c) derivative": ("decoder", "dh * o * (1.0 - tc * tc)", "dh * o"),
    "rho term": ("decoder", "(rho + zx * zy - rho * q / s)", "(zx * zy - rho * q / s)"),
    "Wx[5:] gradient": ("decoder", 'grads["dec.lstm.Wx"][5:] += ', "_ = "),
    "initial state tanh'": ("decoder", "* (1.0 - s_init ** 2)", ""),
    "pen loss n_max": ("decoder", "pen_onehot) / (B * cfg.n_max)", "pen_onehot) / B"),
}


def _load_mutant(module, old, new, directory):
    """A copy of lattisketch.<module> with old replaced by new, loaded with importlib."""
    source = getattr(ls, module).__file__
    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1, old
    path = directory / f"{module}.py"
    path.write_text(text.replace(old, new), encoding="utf-8")
    spec = importlib.util.spec_from_file_location(f"lattisketch.mutant_{module}", path)
    mutant = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mutant  # dataclasses look their module up there
    try:
        spec.loader.exec_module(mutant)
    finally:
        del sys.modules[spec.name]
    return mutant


@pytest.mark.parametrize("mutant", [None, *MUTANTS])
def test_audit_fails_each_planted_backward_bug(tmp_path, monkeypatch, mutant):
    # dropout and row normalization are on, so each listed term is in the audited
    # function; a joint table on a small canvas and a narrow decoder keep the audit's
    # probe count, and so its time, low. At d = 4 whole rows of the first unit's output
    # are 0, which puts the second unit's ReLU at its kink, so d is 8.
    pcfg = ls.PipelineConfig(
        lattice=ls.LatticeConfig(side=64),
        encoder=ls.EncoderConfig(d=8, K=1, dropout_rate=0.3, embed_mode="joint",
                                 row_normalize=True),
        decoder=ls.DecoderConfig(hidden_size=2, M=1, n_max=8, z_dim=8),
        train=ls.TrainConfig(seed=0))
    if mutant is not None:
        module, old, new = MUTANTS[mutant]
        monkeypatch.setattr(ls.trainer, f"{module[:3]}_mod",  # trainer's enc_mod or dec_mod
                            _load_mutant(module, old, new, tmp_path))
    report = ls.finite_diff_audit(ls.init_params(pcfg, seed=0, dtype=np.float64),
                                  ls.audit_probe(pcfg, seed=0), pcfg)
    worst = max(entry["max_rel_err"] for entry in report.values())
    assert (worst >= 1e-3) == (mutant is not None), worst


@pytest.mark.parametrize("pcfg", [
    ls.PipelineConfig(),
    ls.PipelineConfig(lattice=ls.LatticeConfig(n=16, side=128),
                      graph=ls.GraphConfig(proximity="nearest", self_loops=False),
                      encoder=ls.EncoderConfig(d=16, embed_mode="joint", pooling="sum"),
                      decoder=ls.DecoderConfig(hidden_size=8, M=3, z_dim=16, offset_scale=2.5),
                      train=ls.TrainConfig(seed=7, lr0=0.01, dtype="float64")),
], ids=["default", "non_default"])
def test_from_sections_inverts_configs_dict(pcfg):
    assert ls.PipelineConfig.from_sections(pcfg.configs_dict()) == pcfg


def test_from_sections_takes_z_dim_from_encoder():
    sections = ls.PipelineConfig().configs_dict()
    sections["encoder"]["d"] = 24
    del sections["decoder"]["z_dim"]
    assert ls.PipelineConfig.from_sections(sections).decoder.z_dim == 24
    sections["decoder"]["z_dim"] = 8  # named explicitly, it must agree with d
    with pytest.raises(ls.OutOfRange):
        ls.PipelineConfig.from_sections(sections)
