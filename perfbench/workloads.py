"""The benchmark's workloads: inputs made from the seed, set-up, one operation, checks.

Every workload is a closed loop over a fixed list of operations that
depends only on the seed and the run length; nothing is cut off by a
timer. The program is reached through module attributes
(``trainer.train_step``, ``pipeline_eval.heal``, ...) so the traced run
can wrap them.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

import lattisketch as ls
from lattisketch import pipeline_eval, sketch_data, synth, trainer

import checks

SIDE = 256
LATTICE_N = 32
HEAL_P_MASK = 0.3
HEAL_SKETCHES = 20
EDGE_MAPS = 14
CALIBRATION_MAPS = 3
# Pen-end logit bias of the healing model: low enough that pen=end is never
# sampled, so every rollout runs to the n_max cap and each heal does the
# same amount of work.
PEN_END_BIAS = -50.0
PROBE_VARIANCE = 1e8


def pipeline_config(smoke: bool) -> ls.PipelineConfig:
    """Acceptance config of the test suite, or the tiny test config for smoke runs."""
    if smoke:
        enc = ls.EncoderConfig(d=8, K=2)
        dec = ls.DecoderConfig(hidden_size=16, M=2, n_max=64, z_dim=8)
        batch = 8
    else:
        enc = ls.EncoderConfig(d=64, K=2)
        dec = ls.DecoderConfig(hidden_size=256, M=20, n_max=64, z_dim=64)
        batch = 32
    return ls.PipelineConfig(encoder=enc, decoder=dec,
                             train=ls.TrainConfig(batch_size=batch, p_mask_train=0.1,
                                                  dtype="float32"))


def biased_model(pcfg: ls.PipelineConfig, seed: int, path, calibration=()) -> ls.ModelBundle:
    """Untrained model whose rollouts never stop early, round-tripped through a checkpoint.

    With calibration rasters, the batch-norm running variance is set to the
    mean square of the encoder's pre-norm output over them, one value for
    every feature. With the initial statistics (mean 0, variance 1) an inky
    edge map drives the pre-norm output to several hundred and psi to
    exactly +-1 in float32, which would leave the embedding check nothing
    to compare. The pre-norm output is read back through encode_raster
    under a huge variance: the untrained batch norm is then the identity
    up to that scale, and tanh stays far from saturation, so arctanh
    inverts it.
    """
    store = trainer.init_params(pcfg, seed=seed)
    bias = store["dec.head.b"].copy()
    bias[6 * pcfg.decoder.M + sketch_data.PEN_END] = PEN_END_BIAS
    store["dec.head.b"] = bias
    if len(calibration):
        d = pcfg.encoder.d
        store["enc.bn.running_var"] = np.full(d, PROBE_VARIANCE, dtype=bias.dtype)
        probe = ls.ModelBundle(store=store, opt=None, pcfg=pcfg, iteration=0, header={})
        psi = np.array([pipeline_eval.encode_raster(r, probe) for r in calibration],
                       dtype=np.float64)
        pre = np.arctanh(psi) * np.sqrt(PROBE_VARIANCE + pcfg.encoder.bn_eps)
        store["enc.bn.running_var"] = np.full(d, np.mean(pre * pre), dtype=bias.dtype)
    trainer.save_model(path, store, None, pcfg)
    return trainer.load_model(path)


def synthetic_sketches(seed: int, count: int) -> list:
    """Alternating ring and ladder sketches from the synthetic generator."""
    rng = np.random.default_rng([seed, 1])
    cats = synth.CATEGORIES
    return [ls.parse_quickdraw_line(json.dumps(synth.make_sketch_record(cats[i % len(cats)], rng)))
            for i in range(count)]


def _draw_circle(grid: np.ndarray, cx: float, cy: float, r: float) -> None:
    t = np.linspace(0.0, 2.0 * np.pi, int(8 * r) + 8, endpoint=False)
    xs = np.round(cx + r * np.cos(t)).astype(np.int64)
    ys = np.round(cy + r * np.sin(t)).astype(np.int64)
    inside = (xs >= 0) & (xs < SIDE) & (ys >= 0) & (ys < SIDE)
    grid[ys[inside], xs[inside]] = 1


def edge_maps(seed: int, count: int, band: tuple) -> list:
    """Unions of one-pixel circle outlines whose lattice size m lies in band.

    Circles are added until m reaches the band's floor; a map that then
    overshoots its ceiling is drawn again, so every map is of one size class.
    """
    rng = np.random.default_rng([seed, 2])
    lines = checks.line_positions(SIDE, LATTICE_N)
    on_line = np.zeros((SIDE, SIDE), dtype=bool)
    on_line[lines, :] = True
    on_line[:, lines] = True
    maps = []
    while len(maps) < count:
        grid = np.zeros((SIDE, SIDE), dtype=np.uint8)
        m = 0
        while m < band[0]:
            _draw_circle(grid, rng.uniform(16, SIDE - 16), rng.uniform(16, SIDE - 16),
                         rng.uniform(12, 56))
            m = int(np.count_nonzero(grid.astype(bool) & on_line))
        if m <= band[1]:
            maps.append(grid)
    return maps


class Train:
    """Training iterations as fit runs them, at the acceptance config."""

    name = "train"
    warmup = 2
    ops_per_s = 5.5          # nominal rate: sets how many operations fill a run
    setups = 7               # set-ups per run; setup_s is their median

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed, self.workdir = seed, workdir
        self.base = pipeline_config(smoke)
        self.per_category = 20 if smoke else 300
        self.items_per_op = self.base.train.batch_size

    def setup(self) -> None:
        paths = synth.generate_dataset(self.workdir / "data", self.per_category, seed=self.seed)
        sketches, labels, _ = trainer.load_dataset(paths, self.base.decoder.n_max)
        scale = trainer.offset_scale_of(sketches)
        self.pcfg = replace(self.base, decoder=replace(self.base.decoder, offset_scale=scale))
        self.items, _ = trainer.prepare_items(sketches, labels, self.pcfg, scale)
        self.store = trainer.init_params(self.pcfg, seed=self.seed)
        self.initial = self.store.copy()
        self.opt = ls.OptimizerState.fresh(self.store)

    def op_list(self, n: int) -> list:
        return list(range(n))

    def _step(self, it: int, store, opt):
        rng = np.random.default_rng([self.seed, it])
        idx = rng.integers(0, len(self.items), size=self.pcfg.train.batch_size)
        return trainer.train_step([self.items[int(i)] for i in idx], store, opt, self.pcfg, rng)

    def run(self, it: int):
        return self._step(it, self.store, self.opt)

    def check(self, ops: list, outputs: list) -> list:
        done = [out for out in outputs if out is not None]
        replay, _ = self._step(0, self.initial.copy(), ls.OptimizerState.fresh(self.initial))
        return checks.train([loss for loss, _ in done], [skip for _, skip in done], replay)


class _ModelWorkload:
    """Shared set-up of the two workloads that run the saved biased-pen model."""

    items_per_op = 1

    def __init__(self, seed: int, smoke: bool, workdir):
        self.seed, self.workdir, self.smoke = seed, workdir, smoke
        self.pcfg = pipeline_config(smoke)

    def op_list(self, n: int) -> list:
        """Whole rounds over the inputs, at least n operations."""
        rounds = -(-n // len(self.pixels))
        return [i for _ in range(rounds) for i in range(len(self.pixels))]


class Heal(_ModelWorkload):
    """pipeline_eval.heal on one synthetic sketch at a time, rollouts at the n_max cap."""

    name = "heal"
    warmup = 3
    ops_per_s = 22.0
    setups = 21              # a set-up takes about 25 ms, so more of them are cheap

    def setup(self) -> None:
        sketches = synthetic_sketches(self.seed, HEAL_SKETCHES)
        self.bundle = biased_model(self.pcfg, self.seed, self.workdir / "model.ckpt")
        self.rasters = [sketch_data.rasterize(sk, SIDE) for sk in sketches]
        self.pixels = [r.pixels for r in self.rasters]
        self.seeds = [[self.seed, s] for s in range(len(sketches))]

    def run(self, s: int):
        req = ls.HealRequest(raster=self.rasters[s], p_mask=HEAL_P_MASK, seed=self.seeds[s])
        return pipeline_eval.heal(req, self.bundle)

    def check(self, ops: list, outputs: list) -> list:
        return checks.heal(self.pixels, self.seeds, HEAL_P_MASK, LATTICE_N,
                           self.bundle.pcfg.decoder.n_max, ops, outputs)


class EmbedEdges(_ModelWorkload):
    """Eval-mode pipeline_eval.encode_raster on inky edge maps of one size class."""

    name = "embed-edges"
    warmup = 2
    ops_per_s = 6.0
    setups = 7

    def setup(self) -> None:
        band = (200, 260) if self.smoke else (1500, 1700)
        self.pixels = edge_maps(self.seed, EDGE_MAPS, band)
        self.rasters = [sketch_data.RasterSketch(p) for p in self.pixels]
        self.bundle = biased_model(self.pcfg, self.seed, self.workdir / "model.ckpt",
                                   self.rasters[:CALIBRATION_MAPS])

    def run(self, e: int):
        return pipeline_eval.encode_raster(self.rasters[e], self.bundle)

    def check(self, ops: list, outputs: list) -> list:
        return checks.embed(self.pixels, self.bundle.store, self.bundle.pcfg, ops, outputs)


WORKLOADS = {w.name: w for w in (Train, Heal, EmbedEdges)}
