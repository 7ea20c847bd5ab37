"""Acceptance suite: nine go/no-go checks for the whole pipeline.

Each criterion prints one PASS/FAIL line and then asserts. The line goes
through pytest's terminal reporter with output capture suspended, so it
shows in a plain `pytest -q` log as well as under `-s`. Criteria 7-9
share one desk-scale trained model built by the session fixture below;
expect the first run to spend a few minutes training it.
"""

import json
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import lattisketch as ls
from conftest import pairwise_distances

_terminal = None
_capture = None


@pytest.fixture(scope="session", autouse=True)
def _grab_terminal_reporter(request):
    global _terminal, _capture
    _terminal = request.config.pluginmanager.getplugin("terminalreporter")
    _capture = request.config.pluginmanager.getplugin("capturemanager")


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    if _terminal is not None and _capture is not None:
        # the reporter writes to the process's stdout, which capture redirects
        with _capture.global_and_fixture_disabled():
            _terminal.write_line("")
            _terminal.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    if _capture is not None and _capture.is_globally_capturing():
        print(line)  # also lands in the captured block shown on failure
    return ok


# ---------------------------------------------------------------------------
# 1. lattice geometry against a brute-force pixel scan


def test_criterion_01_lattice_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    grids = (1, 2, 4, 8, 16, 32, 64)
    pos_cache = {n: set(ls.line_positions(ls.LatticeConfig(n=n)).tolist())
                 for n in grids}

    def brute(pixels, n):
        pos = pos_cache[n]
        out = []
        ys, xs = np.nonzero(pixels)
        for x, y in sorted(zip(xs.tolist(), ys.tolist()), key=lambda p: (p[1], p[0])):
            if x in pos or y in pos:
                out.append([x, y])
        return out

    rasters = [np.zeros((256, 256), np.uint8), np.ones((256, 256), np.uint8)]
    single = np.zeros((256, 256), np.uint8)
    single[37, 101] = 1
    rasters.append(single)
    while len(rasters) < 200:
        density = float(rng.uniform(0.001, 0.05))
        rasters.append((rng.random((256, 256)) < density).astype(np.uint8))

    mismatches = 0
    for pixels in rasters:
        raster = ls.RasterSketch(pixels=pixels)
        for n in grids:
            got = ls.sample_lattice(raster, ls.LatticeConfig(n=n)).points.tolist()
            if got != brute(pixels, n):
                mismatches += 1

    all_ones = ls.sample_lattice(ls.RasterSketch(pixels=rasters[1]),
                                 ls.LatticeConfig(n=32))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and all_ones.m == 15360 and elapsed < 60
    assert report(1, ok,
                  f"200 rasters x 7 grids exact match ({mismatches} mismatches), "
                  f"all-ones m={all_ones.m} (want 15360), {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. adjacency properties on random lattices


def test_criterion_02_adjacency_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    diag = 256 * np.sqrt(2)
    worst_weight_err = 0.0
    violations = 0
    for _ in range(100):
        m = int(rng.integers(2, 40))
        pts = np.unique(rng.integers(0, 256, size=(m + 5, 2)), axis=0)[: max(m, 2)]
        lat = ls.SketchLattice(points=pts, side=256, n=32)
        g = ls.build_adjacency(lat, ls.GraphConfig(proximity="nearby", d_t=0.2))
        a = g.adjacency
        if not np.array_equal(a, a.T):
            violations += 1
        if a.min() < 0 or a.max() > 1:
            violations += 1
        if not np.all(np.diag(a) == 1.0):
            violations += 1
        # nonzero off-diagonal entries equal 1 - d/(256 sqrt 2)
        d = pairwise_distances(lat)
        off = ~np.eye(lat.m, dtype=bool)
        linked = off & (a > 0)
        if linked.any():
            err = np.max(np.abs(a[linked] - (1.0 - d[linked] / diag)))
            worst_weight_err = max(worst_weight_err, float(err))
        # support monotone in d_t
        support = a > 0
        for d_t in (0.3, 0.5):
            a2 = ls.build_adjacency(lat, ls.GraphConfig(proximity="nearby",
                                                        d_t=d_t)).adjacency
            if not np.all((a2 > 0)[support]):
                violations += 1
            support = a2 > 0
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and worst_weight_err < 1e-9 and elapsed < 60
    assert report(2, ok,
                  f"100 lattices, {violations} violations, worst weight error "
                  f"{worst_weight_err:.2e} < 1e-9, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 3. finite-difference gradient audit


def test_criterion_03_gradient_audit():
    t0 = time.perf_counter()
    pcfg = ls.PipelineConfig(
        encoder=ls.EncoderConfig(d=8, K=2, dropout_rate=0.1),
        decoder=ls.DecoderConfig(hidden_size=8, M=2, n_max=16, z_dim=8),
        train=ls.TrainConfig(seed=0, dtype="float64"))
    store = ls.init_params(pcfg, seed=0, dtype=np.float64)
    probe = ls.audit_probe(pcfg, seed=0)
    rep = ls.finite_diff_audit(store, probe, pcfg)
    missing = set(store.trainable_names()) - set(rep)
    worst = max(e["max_rel_err"] for e in rep.values())
    worst_name = max(rep, key=lambda k: rep[k]["max_rel_err"])
    elapsed = time.perf_counter() - t0
    ok = not missing and worst < 1e-3 and elapsed < 300
    assert report(3, ok,
                  f"all {len(rep)} trainable arrays audited, max rel err "
                  f"{worst:.2e} ({worst_name}) < 1e-3, {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# 4. analytic NLL reference values


def test_criterion_04_analytic_nll():
    # M=1 and a zero head output give one standard bivariate normal and a
    # uniform pen; one step with n_max=1 minus the pen term log 3 leaves
    # the offset NLL
    cfg = ls.DecoderConfig(hidden_size=4, M=1, n_max=1, z_dim=2)
    store = ls.init_decoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
    store["dec.head.W"] = np.zeros_like(store["dec.head.W"])
    store["dec.head.b"] = np.zeros_like(store["dec.head.b"])

    def offset_nll(dx):
        target = np.array([[[dx, 0.0, 1.0, 0.0, 0.0]]])
        loss, _ = ls.teacher_forced_nll(target, np.zeros((1, 2)), store, cfg)
        return loss - float(np.log(3.0))

    at_mean = offset_nll(0.0)
    at_unit = offset_nll(1.0)
    want_mean = float(np.log(2 * np.pi))
    err_mean = abs(at_mean - want_mean)
    err_unit = abs(at_unit - (want_mean + 0.5))
    ok = err_mean < 1e-6 and err_unit < 1e-6
    assert report(4, ok,
                  f"NLL(mean)={at_mean:.8f} err {err_mean:.1e} < 1e-6, "
                  f"NLL(1,0)={at_unit:.8f} err {err_unit:.1e} < 1e-6")


# ---------------------------------------------------------------------------
# 5. permutation invariance of the encoder


def test_criterion_05_permutation_invariance():
    cfg = ls.EncoderConfig(d=16, K=2)
    store = ls.init_encoder_params(cfg, np.random.default_rng(55))
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(3, 25))
        pts = np.unique(rng.integers(0, 256, size=(m + 5, 2)), axis=0)[: max(m, 3)]
        lat = ls.SketchLattice(points=pts, side=256, n=32)
        g = ls.build_adjacency(lat, ls.GraphConfig())
        psi = ls.encode(g, store, cfg)
        for _ in range(20):
            perm = rng.permutation(g.m)
            gp = ls.SketchGraph.from_dense(g.points[perm], g.adjacency[np.ix_(perm, perm)],
                                           g.side)
            worst = max(worst, float(np.max(np.abs(ls.encode(gp, store, cfg) - psi))))
    ok = worst < 1e-6
    assert report(5, ok,
                  f"20 graphs x 20 permutations, max |dPsi| = {worst:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# 6. parameter-count consistency


def test_criterion_06_parameter_count():
    cfg = ls.EncoderConfig(d=64, K=2, embed_mode="factorized")
    store = ls.init_encoder_params(cfg, np.random.default_rng(0))
    _, total = ls.count_parameters(store)
    joint = ls.init_encoder_params(replace(cfg, embed_mode="joint"),
                                   np.random.default_rng(0))
    _, joint_total = ls.count_parameters(joint)
    in_band = 40_000 <= total <= 100_000
    joint_out_of_band = joint_total > 100_000  # documented inconsistency
    ok = total == 62016 and in_band and joint_out_of_band
    assert report(6, ok,
                  f"factorized d=64 K=2 total {total} == 62016, inside "
                  f"[0.04M, 0.10M]; joint mode {joint_total} stays outside the "
                  f"band as documented")


# ---------------------------------------------------------------------------
# desk-scale model shared by criteria 7-9


ACC_TRAIN = dict(batch_size=32, iterations=5000, seed=0)


def acceptance_pcfg(iterations=5000):
    return ls.PipelineConfig(
        encoder=ls.EncoderConfig(d=64, K=2),
        decoder=ls.DecoderConfig(hidden_size=256, M=20, n_max=64, z_dim=64),
        train=ls.TrainConfig(batch_size=32, iterations=iterations, seed=0))


@pytest.fixture(scope="session")
def desk_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    data = [str(p) for p in ls.generate_dataset(tmp / "data", 300, seed=0)]
    t0 = time.perf_counter()
    summary = ls.fit(data, acceptance_pcfg(), tmp / "run")
    train_minutes = (time.perf_counter() - t0) / 60.0
    bundle = ls.load_model(summary["checkpoint"])
    return {"bundle": bundle, "summary": summary, "data": data,
            "dir": tmp, "train_minutes": train_minutes}


def smoothed_window(losses, end, width=100):
    return float(np.mean(losses[end - width : end]))


def test_criterion_07_training_trend(desk_model):
    with open(desk_model["summary"]["loss_csv"]) as fh:
        rows = fh.read().strip().splitlines()[1:]
    losses = np.array([float(r.split(",")[2]) for r in rows])
    w100 = smoothed_window(losses, 100)
    w5000 = smoothed_window(losses, 5000)
    drop = 1.0 - w5000 / w100
    minutes = desk_model["train_minutes"]
    ok = len(losses) == 5000 and drop >= 0.30 and minutes < 120
    assert report(7, ok,
                  f"2x300 sketches, d=64 hidden=256 batch=32: window@100 "
                  f"{w100:.4f} -> window@5000 {w5000:.4f} ({drop:.1%} drop >= 30%), "
                  f"trained in {minutes:.1f} min < 120 min")


def test_criterion_08_healing_trend(desk_model):
    bundle = desk_model["bundle"]
    rng_seed = 12345
    sketches, labels = [], []
    rng = np.random.default_rng(rng_seed)
    for cat in ("ring", "ladder"):
        for _ in range(40):  # held-out test split, fresh draws
            rec = ls.make_sketch_record(cat, rng)
            sketches.append(ls.parse_quickdraw_line(json.dumps(rec)))
            labels.append(cat)
    rows, _ = ls.healing_sweep(sketches, labels, bundle, [0.1, 0.3], seed=7)
    top1_01 = rows[0]["top1"]
    top1_03 = rows[1]["top1"]
    drop = top1_01 - top1_03
    ok = top1_01 >= 0.65 and drop <= 0.15
    assert report(8, ok,
                  f"healed retrieval Top-1 @ p_mask 0.1 = {top1_01:.3f} "
                  f">= 0.65 (chance 0.5 + 0.15); @0.3 = {top1_03:.3f}, "
                  f"drop {drop:+.3f} <= 0.15")


def test_criterion_09_determinism(desk_model, tmp_path):
    data = desk_model["data"]
    a = ls.fit(data, acceptance_pcfg(iterations=200), tmp_path / "a")
    b = ls.fit(data, acceptance_pcfg(iterations=200), tmp_path / "b")
    with open(a["loss_csv"], "rb") as fh:
        csv_a = fh.read()
    with open(b["loss_csv"], "rb") as fh:
        csv_b = fh.read()
    csv_same = csv_a == csv_b
    # prefix property: the 5000-iteration run shares the first 200 rows
    with open(desk_model["summary"]["loss_csv"], "rb") as fh:
        full_prefix = fh.read().splitlines()[:201]
    prefix_same = full_prefix == csv_a.splitlines()[:201]

    bundle = desk_model["bundle"]
    sk = ls.parse_quickdraw_line(
        open(data[0]).readline())
    raster = ls.rasterize(sk, 256)
    req = ls.HealRequest(raster=raster, p_mask=0.1, seed=99)
    svg1 = ls.render_svg(ls.heal(req, bundle)[0])
    svg2 = ls.render_svg(ls.heal(req, bundle)[0])
    svg_same = svg1.encode() == svg2.encode()
    ok = csv_same and prefix_same and svg_same
    assert report(9, ok,
                  f"two fresh 200-iter runs: loss CSV bit-identical={csv_same}, "
                  f"match 5000-iter prefix={prefix_same}; fixed-seed heal SVG "
                  f"byte-identical={svg_same}")
