"""End-to-end training: Adam with per-value gradient clipping, lr decay,
checkpointing, deterministic batching, and a finite-difference gradient audit.

Reproducibility contract: iteration i draws every random quantity (batch
indices, lattice masking, dropout, latent noise) from
np.random.default_rng([seed, i]) in a fixed order, so runs and resumed
runs produce identical loss sequences.
"""

from __future__ import annotations

import csv
import itertools
import os
from dataclasses import dataclass, field, fields, replace, asdict
from pathlib import Path

import numpy as np

from . import decoder as dec_mod
from . import encoder as enc_mod
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .errors import (AllItemsSkipped, CheckpointFormatError, DatasetEmpty, NumericalUnderflow,
                     OutOfRange)
from .graph_builder import MAX_NODES, GraphConfig, build_adjacency
from .lattice import LatticeConfig, SketchLattice, mask_lattice, sketch_lattices
from .params import ParameterStore, draw_params, load_checkpoint, save_checkpoint
from .sketch_data import (PEN_END, STROKE5_PAD, VectorSketch, read_sketches, stroke5_rows,
                          to_stroke5)


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
        if not all(v > 0 for v in (self.lr0, self.eps, self.clip)):  # NaN fails too
            raise OutOfRange("lr0, eps and clip must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise OutOfRange("beta1 and beta2 must lie in (0, 1)")
        if not 0.0 < self.decay <= 1.0:
            raise OutOfRange(f"decay={self.decay} outside (0, 1]")
        if not 0.0 <= self.p_mask_train <= 1.0:
            raise OutOfRange("p_mask_train outside [0, 1]")
        if self.batch_size < 1 or self.iterations < 0 or self.checkpoint_every < 1:
            raise OutOfRange("bad batch_size/iterations/checkpoint_every")
        if self.seed < 0:
            raise OutOfRange(f"seed={self.seed} is negative")
        if self.dtype not in ("float32", "float64"):
            raise OutOfRange(f"dtype {self.dtype!r} is not float32 or float64")


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

    @classmethod
    def from_sections(cls, sections: dict) -> "PipelineConfig":
        """Inverse of configs_dict(): one dict of field values per section. A decoder
        section without z_dim (config files cannot name it) takes the encoder's d."""
        encoder = EncoderConfig(**sections["encoder"])
        return cls(lattice=LatticeConfig(**sections["lattice"]),
                   graph=GraphConfig(**sections["graph"]), encoder=encoder,
                   decoder=DecoderConfig(**{"z_dim": encoder.d, **sections["decoder"]}),
                   train=TrainConfig(**sections["train"]))


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
    stroke5: np.ndarray  # (steps, 5) float64, offsets already divided by offset_scale
    label: str


def lr_schedule(iteration: int, lr0: float = TrainConfig.lr0,
                decay: float = TrainConfig.decay) -> float:
    """lr = lr0 * decay^iteration."""
    if iteration < 0:
        raise OutOfRange("iteration must be >= 0")
    return lr0 * decay ** iteration


def clip_gradients(grads: dict, clip: float) -> dict:
    """Clamp every gradient value to [-clip, clip] in place; returns grads itself."""
    if clip <= 0:
        raise OutOfRange("clip must be positive")
    for g in grads.values():
        np.clip(g, -clip, clip, out=g)
    return grads


def adam_update(store: ParameterStore, grads: dict, opt: OptimizerState,
                lr: float, cfg: TrainConfig) -> None:
    """Adam step; advances opt.iteration. The moments update in place, grads are
    only read, and each trainable array is replaced by a fresh one (README,
    "Determinism")."""
    opt.iteration += 1
    b1, b2, t = cfg.beta1, cfg.beta2, opt.iteration
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t  # bias corrections
    for name in store.trainable_names():
        g, m, v = grads[name], opt.m[name], opt.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        den = np.sqrt(v / c2)
        den += cfg.eps
        new = np.divide(m, c1)
        new *= lr
        new /= den
        store[name] = np.subtract(store[name], new, out=new)
        del den  # before the next array's temporaries


def _batch_targets(items: list, n_max: int, dtype) -> np.ndarray:
    """Pad stroke-5 sequences to the batch max length (capped at n_max)."""
    T = min(max(len(item.stroke5) for item in items), n_max)
    out = np.tile(STROKE5_PAD.astype(dtype), (len(items), T, 1))
    for b, item in enumerate(items):
        out[b, :min(len(item.stroke5), T)] = item.stroke5[:T]
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
    the batch-norm running statistics, clip (in place) and Adam. Items whose lattice
    empties out are skipped; a batch with nothing left aborts. A non-finite
    loss (before backprop) or gradient (before clipping) raises
    NumericalUnderflow, leaving every stored array and the optimizer state
    as they were.
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
    grads = _backward(caches, store, pcfg)
    bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
    if bad:
        raise NumericalUnderflow(f"non-finite gradient in {', '.join(bad)}")
    enc_mod.update_running_stats(caches[0], store, pcfg.encoder)
    grads = clip_gradients(grads, tcfg.clip)
    adam_update(store, grads, opt, lr_schedule(opt.iteration, tcfg.lr0, tcfg.decay), tcfg)
    return loss, len(items) - len(kept)


def model_layout(pcfg: PipelineConfig):
    """The model's rows (name, shape, trainable, draw), the encoder's then the decoder's."""
    return itertools.chain(enc_mod.encoder_layout(pcfg.encoder, pcfg.lattice.side),
                           dec_mod.decoder_layout(pcfg.decoder))


def init_params(pcfg: PipelineConfig, seed: int | None = None,
                dtype=None) -> ParameterStore:
    """Fresh encoder+decoder parameters in a single store, fixed draw order."""
    tcfg = pcfg.train
    rng = np.random.default_rng(tcfg.seed if seed is None else seed)
    return draw_params(model_layout(pcfg), rng, np.dtype(tcfg.dtype if dtype is None else dtype),
                       ParameterStore())


# ---------------------------------------------------------------------------
# dataset loading


def load_dataset(paths, n_max: int):
    """Read JSON-lines sketch files (raw QuickDraw or canonical records, see
    ``read_sketches``); the label is each file's stem.

    Returns (sketches, labels, n_skipped) where skipped counts empty
    drawings and sequences longer than n_max.
    """
    sketches, labels = [], []
    skipped = 0
    for path in paths:
        label = Path(path).stem
        for sk in read_sketches(path):
            if sk.is_empty() or sk.n_steps > n_max:
                skipped += 1
                continue
            sketches.append(sk)
            labels.append(label)
    if not sketches:
        raise DatasetEmpty(f"no usable sketches in {list(map(str, paths))}")
    return sketches, labels, skipped


def offset_scale_of(sketches) -> float:
    """Std of all offset components over a dataset (the model's offset unit).

    Offsets so large that their squared deviations could overflow (beyond
    about 1e154) are divided by the largest magnitude first and the std
    scaled back, so the scale stays finite; other data takes numpy's std
    directly. The scale is at least a millionth of the largest magnitude
    (and 1e-6), so offsets that barely vary still scale to at most 1e6.
    """
    offs = np.concatenate([s.steps[:, :2].ravel() for s in sketches])
    big = float(np.abs(offs).max())
    # each of the offs.size squared deviations is at most (2 big)^2
    if big < 0.5 * np.sqrt(np.finfo(np.float64).max / offs.size):
        std = offs.std()
    else:
        std = (offs / big).std() * big
    return float(max(std, 1e-6 * max(big, 1.0)))


def prepare_items(sketches, labels, pcfg: PipelineConfig, offset_scale: float):
    """Sample each sketch's lattice once (masking happens per step), normalize
    offsets and pack stroke-5 rows.

    The lattices come from ``sketch_lattices`` in a few array passes over
    the whole list, with no raster drawn; each equals
    ``sample_lattice(rasterize(sk))``. The kept items' stroke-5 rows are
    packed and scaled in one pass, each item's equal to ``to_stroke5(sk,
    sk.n_steps)`` with its offsets divided by offset_scale. Items whose
    lattice is empty or has more than MAX_NODES points (no graph could be
    built) are dropped and counted. A sketch whose fit leaves the canvas
    raises MalformedRecord.
    """
    kept = [(sk, label, lat) for sk, label, lat
            in zip(sketches, labels, sketch_lattices(sketches, pcfg.lattice))
            if 0 < lat.m <= MAX_NODES]
    if not kept:
        raise DatasetEmpty("every sketch produced an empty or over-budget lattice")
    rows = stroke5_rows(np.concatenate([sk.steps for sk, _, _ in kept]))
    rows[:, :2] /= offset_scale
    ends = np.cumsum([sk.n_steps for sk, _, _ in kept])
    items = [TrainItem(lattice=lat, stroke5=rows[end - sk.n_steps:end], label=label)
             for (sk, label, lat), end in zip(kept, ends)]
    return items, len(sketches) - len(kept)


# ---------------------------------------------------------------------------
# checkpoint round trip (model + optimizer in one container)


def save_model(path, store: ParameterStore, opt: OptimizerState | None,
               pcfg: PipelineConfig) -> None:
    full = store.copy()
    for k, moments in () if opt is None else (("m", opt.m), ("v", opt.v)):
        for name, arr in moments.items():
            full.add(f"adam_{k}.{name}", arr, trainable=False)
    save_checkpoint(path, full, 0 if opt is None else opt.iteration, configs=pcfg.configs_dict())


@dataclass
class ModelBundle:
    store: ParameterStore
    opt: OptimizerState | None
    pcfg: PipelineConfig
    iteration: int
    header: dict


def _header_pipeline_config(header: dict) -> PipelineConfig:
    """The header's configs, each value of its default's type (or an int for a float)."""
    try:
        pcfg = PipelineConfig.from_sections(header["configs"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointFormatError(f"bad configs in checkpoint header: {exc!r}") from exc
    for section in fields(pcfg):
        cfg = getattr(pcfg, section.name)
        for f in fields(cfg):
            want, value = type(f.default), getattr(cfg, f.name)
            if type(value) not in ((want, int) if want is float else (want,)):
                raise CheckpointFormatError(f"config {section.name}.{f.name}={value!r}: wrong type")
    return pcfg


def load_model(path) -> ModelBundle:
    """Read a file save_model wrote: the layout of its configs (names in order, shapes and
    trainable flags), then either no Adam moments or all of them, or CheckpointFormatError
    names the first array out of place."""
    full, header = load_checkpoint(path)
    pcfg = _header_pipeline_config(header)
    got = [(name, arr.shape, full.is_trainable(name)) for name, arr in full.items()]
    rows = list(itertools.islice(model_layout(pcfg), len(got) + 1))  # bounded, whatever K is
    want = [(name, shape, trainable) for name, shape, trainable, _ in rows]
    if len(got) > len(rows):
        want += [(f"adam_{k}.{name}", shape, False) for k in "mv"
                 for name, shape, trainable, _ in rows if trainable]
    for w, g in itertools.zip_longest(want, got):
        if w != g:
            raise CheckpointFormatError(f"array {(g or w)[0]!r} is out of place: the file "
                                        f"has {g} where the layout of its configs has {w}")
    store = ParameterStore()
    for name, _, trainable, _ in rows:
        store.add(name, full[name], trainable)
    iteration, opt = header["iteration"], None
    if len(want) > len(rows):
        names = store.trainable_names()
        opt = OptimizerState(m={n: full[f"adam_m.{n}"] for n in names},
                             v={n: full[f"adam_v.{n}"] for n in names}, iteration=iteration)
    return ModelBundle(store=store, opt=opt, pcfg=pcfg, iteration=iteration, header=header)


# ---------------------------------------------------------------------------
# fit


def fit(dataset_paths, pcfg: PipelineConfig, out_dir, resume=None) -> dict:
    """Run the training loop; writes checkpoints and a per-iteration loss CSV.

    A resumed run keeps the checkpoint's model settings (lattice, graph,
    encoder, decoder, offset scale, dtype) and takes the schedule from pcfg;
    a seed other than the checkpoint's raises OutOfRange.
    The summary's "pcfg" is the resolved config every step and checkpoint used.

    The loss CSV (out_dir/loss.csv) carries one row per iteration:
    iteration,lr,loss with fixed float formatting, so two identical runs
    produce byte-identical files. A resumed run keeps the rows already in
    out_dir's file for the iterations before its checkpoint's, drops the
    rest and appends its own.
    """
    tcfg = pcfg.train

    if resume is not None:
        bundle = load_model(resume)
        if bundle.pcfg.train.seed != tcfg.seed:  # its iterations drew from the old seed
            raise OutOfRange(f"seed {tcfg.seed} differs from seed {bundle.pcfg.train.seed} "
                             f"of the checkpoint {resume}")
        store = bundle.store
        opt = bundle.opt or OptimizerState.fresh(store)
        start = bundle.iteration
        pcfg = replace(bundle.pcfg, train=replace(tcfg, dtype=store["enc.fc.W"].dtype.name))
    sketches, labels, skipped_parse = load_dataset(dataset_paths, pcfg.decoder.n_max)
    if resume is None:
        pcfg = replace(pcfg, decoder=replace(pcfg.decoder, offset_scale=offset_scale_of(sketches)))
        store = init_params(pcfg)
        opt = OptimizerState.fresh(store)
        start = 0
    items, _ = prepare_items(sketches, labels, pcfg, pcfg.decoder.offset_scale)
    out_dir = Path(out_dir)  # made only once the data is ready
    out_dir.mkdir(parents=True, exist_ok=True)

    n = len(items)
    loss_path = out_dir / "loss.csv"
    final_path = out_dir / "ckpt_final.ckpt"
    kept = []
    if resume is not None and loss_path.exists():
        with open(loss_path, encoding="utf-8", newline="") as fh:
            kept = [row for row in csv.reader(fh)
                    if row and not (row[0].isdigit() and int(row[0]) >= start)]
    with open(loss_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(kept or [["iteration", "lr", "loss"]])
        for it in range(start, tcfg.iterations):
            rng = np.random.default_rng([tcfg.seed, it])
            idx = rng.integers(0, n, size=tcfg.batch_size)
            batch = [items[int(i)] for i in idx]
            lr = lr_schedule(it, tcfg.lr0, tcfg.decay)
            loss, _ = train_step(batch, store, opt, pcfg, rng)
            writer.writerow([it, f"{lr:.10e}", f"{loss:.10e}"])
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
        "pcfg": pcfg,
    }


# ---------------------------------------------------------------------------
# finite-difference gradient audit


def _touched_embedding_rows(probe: dict, name: str, cfg: EncoderConfig) -> set:
    rows = set()
    for g in probe["graphs"]:
        rows.update(enc_mod.embedding_rows(g.points, g.side, cfg)[name].tolist())
    return rows


def finite_diff_audit(store: ParameterStore, probe: dict, pcfg: PipelineConfig) -> dict:
    """Central-difference check (step 1e-4) of every trainable array against backprop.

    probe: {"graphs": [SketchGraph...], "targets": (B, T, 5), "noise": (B, d),
    "mask_seed": int}. Every forward pass draws its dropout masks afresh from
    np.random.default_rng(mask_seed) and the latent noise is fixed, so both sides
    evaluate the same deterministic function. Embedding tables are checked on the
    rows the probe actually touches, plus a few untouched rows that must come out
    exactly zero on both sides. Work in float64.

    Returns {array name: {"max_rel_err", "checked"}}.
    """
    step = 1e-4
    work = store.astype(np.float64)

    def forward():
        return _forward(probe["graphs"], probe["targets"], work, pcfg,
                        rng=np.random.default_rng(probe["mask_seed"]), noise=probe["noise"])

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
            flat[j] = orig + step
            up = forward()[0]
            flat[j] = orig - step
            down = forward()[0]
            flat[j] = orig
            fd = (up - down) / (2.0 * step)
            a = float(ag[j])
            scale = max(abs(a), abs(fd))
            err = 0.0 if scale < 1e-10 else abs(a - fd) / scale
            max_err = max(max_err, err)
        report[name] = {"max_rel_err": max_err, "checked": len(flat_idx)}
    return report


def audit_probe(pcfg: PipelineConfig, seed: int = 0) -> dict:
    """Small deterministic audit batch: 4 graphs of at most 5 nodes, 5-step targets."""
    n_graphs, nodes_per_graph, T = 4, 5, 5
    rng = np.random.default_rng(seed)
    graphs = []
    side = pcfg.lattice.side
    for _ in range(n_graphs):
        pts = rng.integers(0, side, size=(nodes_per_graph, 2))
        pts = np.unique(pts, axis=0)
        order = np.lexsort((pts[:, 0], pts[:, 1]))
        lat = SketchLattice(pts[order], side=side, n=pcfg.lattice.n)
        graphs.append(build_adjacency(lat, pcfg.graph))
    offsets = rng.normal(0.0, 1.0, size=(n_graphs, T, 2))
    pens = rng.integers(0, 2, size=(n_graphs, T, 1))
    pens[:, -1] = PEN_END  # close each sequence; the end step does not move
    offsets[:, -1] = 0.0
    steps = np.concatenate([offsets, pens], axis=2)
    targets = np.stack([to_stroke5(VectorSketch(s), T) for s in steps])
    noise = rng.standard_normal((n_graphs, pcfg.encoder.d))
    return {"graphs": graphs, "targets": targets, "noise": noise,
            "mask_seed": int(rng.integers(2**63))}
