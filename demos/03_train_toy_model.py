"""
Training a small model end to end
=================================

Generate a synthetic two-category dataset (rings and ladders), fit a
deliberately small model for a couple hundred iterations, and inspect
the artifacts a run leaves behind: the loss log, interim checkpoints,
and the final checkpoint that later scripts reload.

Runs on a laptop CPU in about a minute.
"""

import pathlib
import tempfile

import numpy as np

import lattisketch as ls

work = pathlib.Path(tempfile.mkdtemp(prefix="lattisketch_demo_"))
print(f"working under {work}")

# 60 sketches per category, drawn from a seeded generator so the run
# is reproducible end to end.
data_paths = ls.generate_dataset(work / "data", n_per_category=60, seed=0)
print(f"dataset files: {[p.name for p in data_paths]}")

# Small everything: 16-dim embeddings, 32 hidden units, 5 mixture
# components, short sequences. Big enough to learn the two shapes.
pcfg = ls.PipelineConfig(
    lattice=ls.LatticeConfig(n=32, side=256),
    encoder=ls.EncoderConfig(d=16, K=2),
    decoder=ls.DecoderConfig(hidden_size=32, M=5, n_max=64, z_dim=16),
    train=ls.TrainConfig(batch_size=8, iterations=200, seed=1,
                         checkpoint_every=100),
)

summary = ls.fit(data_paths, pcfg, work / "run")
print(f"trained {summary['iterations']} iterations on {summary['items']} items")

# The loss CSV has one row per iteration: iteration, lr, loss.
rows = np.loadtxt(summary["loss_csv"], delimiter=",", skiprows=1)
first, last = rows[:20, 2].mean(), rows[-20:, 2].mean()
print(f"mean loss, first 20 iters: {first:.4f}")
print(f"mean loss, last 20 iters:  {last:.4f}")
assert last < first  # the toy run should already be learning

# checkpoint_every=100 leaves interim snapshots next to the final one.
ckpts = sorted(p.name for p in (work / "run").glob("*.ckpt"))
print(f"checkpoints: {ckpts}")

# Reload and verify the round trip preserves the configuration.
bundle = ls.load_model(summary["checkpoint"])
assert bundle.pcfg.encoder.d == 16
assert bundle.pcfg.decoder.hidden_size == 32
print(f"reloaded checkpoint, optimizer at iteration {bundle.opt.iteration}")

# The learning rate decays geometrically from lr0.
t = pcfg.train
print(f"lr schedule: iter 0 -> {ls.lr_schedule(0, t.lr0, t.decay):.2e}, "
      f"iter 199 -> {ls.lr_schedule(199, t.lr0, t.decay):.2e}")
