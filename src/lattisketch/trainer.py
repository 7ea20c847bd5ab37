"""End-to-end training: Adam with per-value gradient clipping, lr decay,
checkpointing, deterministic batching, and a finite-difference gradient audit.

Reproducibility contract: iteration i draws every random quantity (batch
indices, lattice masking, dropout, latent noise) from
np.random.default_rng([seed, i]) in a fixed order, so runs and resumed
runs produce identical loss sequences.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace, asdict
from pathlib import Path

import numpy as np

from . import decoder as dec_mod
from . import encoder as enc_mod
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .errors import (AllItemsSkipped, CheckpointFormatError, DatasetEmpty, NumericalUnderflow,
                     OutOfRange)
from .graph_builder import GraphConfig, build_adjacency
from .lattice import LatticeConfig, SketchLattice, mask_lattice, sample_lattice
from .params import ParameterStore, load_checkpoint, save_checkpoint
from .sketch_data import VectorSketch, parse_quickdraw_line, rasterize, to_stroke5

PAD_ROW = np.array([0.0, 0.0, 0.0, 0.0, 1.0])


@dataclass
class TrainConfig:
    lr0: float = 1e-3
    decay: float = 0.999
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    clip: float = 1.0  # per-value gradient bound
    batch_size: int = 64
    iterations: int = 1000
    p_mask_train: float = 0.1
    seed: int = 0
    checkpoint_every: int = 1000
    dtype: str = "float32"

    def __post_init__(self):
        if min(self.lr0, self.beta1, self.beta2, self.eps, self.clip) <= 0:
            raise OutOfRange("optimizer constants must be positive")
        if not 0.0 < self.decay <= 1.0:
            raise OutOfRange(f"decay={self.decay} outside (0, 1]")
        if not 0.0 <= self.p_mask_train <= 1.0:
            raise OutOfRange("p_mask_train outside [0, 1]")
        if self.batch_size < 1 or self.iterations < 0 or self.checkpoint_every < 1:
            raise OutOfRange("bad batch_size/iterations/checkpoint_every")


@dataclass
class PipelineConfig:
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.decoder.z_dim != self.encoder.d:
            raise OutOfRange(
                f"decoder z_dim={self.decoder.z_dim} must equal encoder d={self.encoder.d}"
            )

    def configs_dict(self) -> dict:
        return asdict(self)


@dataclass
class OptimizerState:
    m: dict
    v: dict
    iteration: int = 0

    @classmethod
    def fresh(cls, store: ParameterStore) -> "OptimizerState":
        return cls(m=store.zero_grads(), v=store.zero_grads(), iteration=0)


@dataclass
class TrainItem:
    lattice: SketchLattice
    stroke5: np.ndarray  # (n_steps, 5), offsets already divided by offset_scale
    n_steps: int
    label: str


def lr_schedule(iteration: int, lr0: float = 1e-3, decay: float = 0.999) -> float:
    """lr = lr0 * decay^iteration."""
    if iteration < 0:
        raise OutOfRange("iteration must be >= 0")
    return lr0 * decay ** iteration


def clip_gradients(grads: dict, clip: float) -> dict:
    """Clamp every gradient value to [-clip, clip]."""
    if clip <= 0:
        raise OutOfRange("clip must be positive")
    return {n: np.clip(g, -clip, clip) for n, g in grads.items()}


def adam_update(store: ParameterStore, grads: dict, opt: OptimizerState,
                lr: float, cfg: TrainConfig) -> None:
    """In-place Adam step over the trainable arrays; advances opt.iteration."""
    opt.iteration += 1
    t = opt.iteration  # bias-correction step count
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name in store.trainable_names():
        g = grads[name]
        opt.m[name] = b1 * opt.m[name] + (1.0 - b1) * g
        opt.v[name] = b2 * opt.v[name] + (1.0 - b2) * (g * g)
        m_hat = opt.m[name] / c1
        v_hat = opt.v[name] / c2
        store[name] = store[name] - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


def _batch_targets(items: list, n_max: int, dtype) -> np.ndarray:
    """Pad stroke-5 sequences to the batch max length (capped at n_max)."""
    T = min(max(item.n_steps for item in items), n_max)
    out = np.tile(PAD_ROW.astype(dtype), (len(items), T, 1))
    for b, item in enumerate(items):
        k = min(item.n_steps, T)
        out[b, :k] = item.stroke5[:k]
    return out


def _forward(graphs, targets, store: ParameterStore, pcfg: PipelineConfig,
             rng=None, noise=None):
    """Train-mode loss of one batch: encode, reparameterize, teacher-forced
    NLL. The dropout masks and then the latent noise (unless noise is given)
    come from rng. Returns (loss, caches for _backward)."""
    psi, enc_cache = enc_mod.encode_graphs(graphs, store, pcfg.encoder,
                                           train_mode=True, rng=rng)
    sample = enc_mod.reparameterize(psi, store, rng=rng, noise=noise)
    loss, dec_cache = dec_mod.teacher_forced_nll(targets, sample.z, store, pcfg.decoder)
    return loss, (enc_cache, sample, dec_cache)


def _backward(caches, store: ParameterStore, pcfg: PipelineConfig) -> dict:
    """Gradients of _forward's loss for every trainable array."""
    enc_cache, sample, dec_cache = caches
    grads = store.zero_grads()
    dz = dec_mod.teacher_forced_backward(dec_cache, store, pcfg.decoder, grads)
    dpsi = enc_mod.reparameterize_backward(dz, sample, store, grads)
    enc_mod.encode_graphs_backward(dpsi, enc_cache, store, pcfg.encoder, grads)
    return grads


def train_step(items: list, store: ParameterStore, opt: OptimizerState,
               pcfg: PipelineConfig, rng: np.random.Generator):
    """One optimization step; returns (loss, n_skipped).

    Per item: mask the cached lattice, build the proximity graph, encode
    the batch, reparameterize, teacher-forced decoder NLL; then backprop,
    clip, Adam and the batch-norm running statistics. Items whose lattice
    empties out are skipped; a batch with nothing left aborts. A non-finite
    loss raises NumericalUnderflow before backprop, leaving every stored
    array and the optimizer state as they were.
    """
    if not items:
        raise AllItemsSkipped("empty batch")
    tcfg = pcfg.train
    kept, graphs = [], []
    dtype = store["enc.fc.W"].dtype
    for item in items:
        masked = mask_lattice(item.lattice, tcfg.p_mask_train, rng)
        if masked.m == 0:
            continue
        graphs.append(build_adjacency(masked, pcfg.graph, dtype))
        kept.append(item)
    if not kept:
        raise AllItemsSkipped("every item in the batch lost all lattice points")

    targets = _batch_targets(kept, pcfg.decoder.n_max, store["dec.head.W"].dtype)
    loss, caches = _forward(graphs, targets, store, pcfg, rng=rng)
    if not np.isfinite(loss):
        raise NumericalUnderflow(f"non-finite training loss {loss}")
    grads = clip_gradients(_backward(caches, store, pcfg), tcfg.clip)
    enc_mod.update_running_stats(caches[0], store, pcfg.encoder)
    adam_update(store, grads, opt, lr_schedule(opt.iteration, tcfg.lr0, tcfg.decay), tcfg)
    return loss, len(items) - len(kept)


def init_params(pcfg: PipelineConfig, seed: int | None = None,
                dtype=None) -> ParameterStore:
    """Fresh encoder+decoder parameters in a single store, fixed draw order."""
    tcfg = pcfg.train
    rng = np.random.default_rng(tcfg.seed if seed is None else seed)
    dt = np.dtype(tcfg.dtype if dtype is None else dtype)
    store = enc_mod.init_encoder_params(pcfg.encoder, rng, dtype=dt, side=pcfg.lattice.side)
    dec_mod.init_decoder_params(pcfg.decoder, rng, dtype=dt, store=store)
    return store


# ---------------------------------------------------------------------------
# dataset loading


def load_dataset(paths, n_max: int):
    """Read QuickDraw JSON-lines files; the label is each file's stem.

    Returns (sketches, labels, n_skipped) where skipped counts empty
    drawings and sequences longer than n_max.
    """
    sketches, labels = [], []
    skipped = 0
    for path in paths:
        label = Path(path).stem
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                sk = parse_quickdraw_line(line)
                if sk.is_empty() or sk.n_steps > n_max:
                    skipped += 1
                    continue
                sketches.append(sk)
                labels.append(label)
    if not sketches:
        raise DatasetEmpty(f"no usable sketches in {list(map(str, paths))}")
    return sketches, labels, skipped


def offset_scale_of(sketches) -> float:
    """Std of all offset components over a dataset (the model's offset unit)."""
    offs = np.concatenate([s.steps[:, :2].ravel() for s in sketches])
    return float(max(offs.std(), 1e-6))


def prepare_items(sketches, labels, pcfg: PipelineConfig, offset_scale: float):
    """Rasterize, sample lattices once (masking happens per step), normalize
    offsets and pack stroke-5 rows. Items with empty lattices are dropped."""
    dt = np.dtype(pcfg.train.dtype)
    items = []
    skipped = 0
    for sk, label in zip(sketches, labels):
        raster = rasterize(sk, pcfg.lattice.side)
        lat = sample_lattice(raster, pcfg.lattice)
        if lat.m == 0:
            skipped += 1
            continue
        steps = sk.steps.copy()
        steps[:, :2] /= offset_scale
        rows = to_stroke5(VectorSketch(steps), sk.n_steps).astype(dt)
        items.append(TrainItem(lattice=lat, stroke5=rows, n_steps=sk.n_steps, label=label))
    if not items:
        raise DatasetEmpty("every sketch produced an empty lattice")
    return items, skipped


# ---------------------------------------------------------------------------
# checkpoint round trip (model + optimizer in one container)


def save_model(path, store: ParameterStore, opt: OptimizerState | None,
               pcfg: PipelineConfig, extra: dict | None = None) -> None:
    full = store.copy()
    iteration = 0
    if opt is not None:
        iteration = opt.iteration
        for name, arr in opt.m.items():
            full.add(f"adam_m.{name}", arr, trainable=False)
        for name, arr in opt.v.items():
            full.add(f"adam_v.{name}", arr, trainable=False)
    save_checkpoint(path, full, iteration, configs=pcfg.configs_dict(), extra=extra)


@dataclass
class ModelBundle:
    store: ParameterStore
    opt: OptimizerState | None
    pcfg: PipelineConfig
    iteration: int
    header: dict


def _drop_retired(section: dict, key: str, supported) -> None:
    """Drop a key older checkpoints carry if it holds the only value supported now."""
    if key in section and section.pop(key) != supported:
        raise CheckpointFormatError(f"checkpoint needs {key}={supported!r}, "
                                    "which this version no longer supports")


def _header_pipeline_config(header: dict) -> PipelineConfig:
    try:
        cfgs = {name: dict(section) for name, section in header["configs"].items()}
        lattice = LatticeConfig(**cfgs["lattice"])
        _drop_retired(cfgs["encoder"], "mlp_depth", 1)
        _drop_retired(cfgs["encoder"], "side", lattice.side)
        encoder = EncoderConfig(**cfgs["encoder"])
        _drop_retired(cfgs["graph"], "embed_mode", encoder.embed_mode)
        train = cfgs.get("train", {})
        _drop_retired(train, "clip_mode", "element")
        return PipelineConfig(lattice=lattice, graph=GraphConfig(**cfgs["graph"]),
                              encoder=encoder, decoder=DecoderConfig(**cfgs["decoder"]),
                              train=TrainConfig(**train))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointFormatError(f"bad configs in checkpoint header: {exc!r}") from exc


def load_model(path) -> ModelBundle:
    full, header = load_checkpoint(path)
    pcfg = _header_pipeline_config(header)
    store = ParameterStore()
    m, v = {}, {}
    for name, arr in full.items():
        if name.startswith("adam_m."):
            m[name[len("adam_m."):]] = arr
        elif name.startswith("adam_v."):
            v[name[len("adam_v."):]] = arr
        else:
            store.add(name, arr, full.is_trainable(name))
    opt = None
    if m:
        opt = OptimizerState(m=m, v=v, iteration=int(header.get("iteration", 0)))
    return ModelBundle(store=store, opt=opt, pcfg=pcfg,
                       iteration=int(header.get("iteration", 0)), header=header)


# ---------------------------------------------------------------------------
# fit


def fit(dataset_paths, pcfg: PipelineConfig, out_dir, resume=None,
        log_cb=None) -> dict:
    """Run the training loop; writes checkpoints and a per-iteration loss CSV.

    A resumed run keeps the checkpoint's lattice, graph, encoder and decoder
    configs and takes the train config from pcfg. The summary's "pcfg" is
    the resolved config every step and checkpoint used.

    The loss CSV (out_dir/loss.csv) carries one row per iteration executed
    in this call: iteration,lr,loss with fixed float formatting, so two
    identical runs produce byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tcfg = pcfg.train

    sketches, labels, skipped_parse = load_dataset(dataset_paths, pcfg.decoder.n_max)
    if resume is not None:
        bundle = load_model(resume)
        store = bundle.store
        opt = bundle.opt or OptimizerState.fresh(store)
        start = bundle.iteration
        # architecture from the checkpoint, schedule from the caller
        pcfg = replace(bundle.pcfg, train=tcfg)
        scale = pcfg.decoder.offset_scale
    else:
        scale = offset_scale_of(sketches)
        pcfg = replace(pcfg, decoder=replace(pcfg.decoder, offset_scale=scale))
        store = init_params(pcfg)
        opt = OptimizerState.fresh(store)
        start = 0
    items, skipped_lattice = prepare_items(sketches, labels, pcfg, scale)

    n = len(items)
    loss_path = out_dir / "loss.csv"
    final_path = out_dir / "ckpt_final.ckpt"
    mode = "a" if (resume is not None and loss_path.exists()) else "w"
    with open(loss_path, mode, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(["iteration", "lr", "loss"])
        for it in range(start, tcfg.iterations):
            rng = np.random.default_rng([tcfg.seed, it])
            idx = rng.integers(0, n, size=tcfg.batch_size)
            batch = [items[int(i)] for i in idx]
            lr = lr_schedule(it, tcfg.lr0, tcfg.decay)
            loss, _ = train_step(batch, store, opt, pcfg, rng)
            writer.writerow([it, f"{lr:.10e}", f"{loss:.10e}"])
            if log_cb is not None:
                log_cb(it, lr, loss)
            done = it + 1
            if done % tcfg.checkpoint_every == 0 and done < tcfg.iterations:
                save_model(out_dir / f"ckpt_{done:06d}.ckpt", store, opt, pcfg)
    save_model(final_path, store, opt, pcfg)
    return {
        "checkpoint": str(final_path),
        "loss_csv": str(loss_path),
        "iterations": tcfg.iterations,
        "items": n,
        "skipped_parse": skipped_parse,
        "skipped_lattice": skipped_lattice,
        "offset_scale": scale,
        "pcfg": pcfg,
    }


# ---------------------------------------------------------------------------
# finite-difference gradient audit


def _touched_embedding_rows(probe: dict, name: str, cfg: EncoderConfig) -> set:
    rows = set()
    for g in probe["graphs"]:
        rows.update(enc_mod.embedding_rows(g.points, g.side, cfg)[name].tolist())
    return rows


def finite_diff_audit(store: ParameterStore, probe: dict, pcfg: PipelineConfig,
                      step_size: float = 1e-4) -> dict:
    """Central-difference check of every trainable array against backprop.

    probe: {"graphs": [SketchGraph...], "targets": (B, T, 5), "noise": (B, d)}.
    Dropout is forced off (finite differences cannot share a mask with the
    closed form) and the latent noise is fixed, so both sides evaluate the
    same deterministic function. Embedding tables are checked on the rows
    the probe actually touches, plus a few untouched rows that must come
    out exactly zero on both sides. Work in float64.

    Returns {array name: {"max_rel_err", "checked"}}.
    """
    pcfg = replace(pcfg, encoder=replace(pcfg.encoder, dropout_rate=0.0))
    work = store.astype(np.float64)

    def forward():
        return _forward(probe["graphs"], probe["targets"], work, pcfg, noise=probe["noise"])

    analytic = _backward(forward()[1], work, pcfg)
    report = {}
    for name in work.trainable_names():
        arr = work[name]
        if name.startswith("enc.emb."):
            rows = sorted(_touched_embedding_rows(probe, name, pcfg.encoder))
            untouched = [r for r in range(arr.shape[0]) if r not in set(rows)][:3]
            flat_idx = [r * arr.shape[1] + c for r in rows for c in range(arr.shape[1])]
            flat_idx += [r * arr.shape[1] + c for r in untouched for c in range(arr.shape[1])]
        else:
            flat_idx = list(range(arr.size))
        max_err = 0.0
        flat = arr.reshape(-1)
        ag = analytic[name].reshape(-1)
        for j in flat_idx:
            orig = flat[j]
            flat[j] = orig + step_size
            up = forward()[0]
            flat[j] = orig - step_size
            down = forward()[0]
            flat[j] = orig
            fd = (up - down) / (2.0 * step_size)
            a = float(ag[j])
            scale = max(abs(a), abs(fd))
            err = 0.0 if scale < 1e-10 else abs(a - fd) / scale
            max_err = max(max_err, err)
        report[name] = {"max_rel_err": max_err, "checked": len(flat_idx)}
    return report


def audit_probe(pcfg: PipelineConfig, seed: int = 0, n_graphs: int = 4,
                nodes_per_graph: int = 5, T: int = 5) -> dict:
    """Build a small deterministic probe batch for the audit."""
    rng = np.random.default_rng(seed)
    graphs = []
    side = pcfg.lattice.side
    for _ in range(n_graphs):
        pts = rng.integers(0, side, size=(nodes_per_graph, 2))
        pts = np.unique(pts, axis=0)
        order = np.lexsort((pts[:, 0], pts[:, 1]))
        lat = SketchLattice(pts[order], side=side, n=pcfg.lattice.n)
        graphs.append(build_adjacency(lat, pcfg.graph))
    targets = np.zeros((n_graphs, T, 5))
    targets[:, :, 0:2] = rng.normal(0.0, 1.0, size=(n_graphs, T, 2))
    pens = rng.integers(0, 2, size=(n_graphs, T))
    pens[:, -1] = 2  # close each sequence
    for b in range(n_graphs):
        for t in range(T):
            targets[b, t, 2 + pens[b, t]] = 1.0
            if pens[b, t] == 2:
                targets[b, t, 0:2] = 0.0
    noise = rng.standard_normal((n_graphs, pcfg.encoder.d))
    return {"graphs": graphs, "targets": targets, "noise": noise}
