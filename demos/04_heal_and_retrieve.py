"""
Healing corrupted sketches and retrieving by embedding
======================================================

The model's two downstream jobs in one script. First train a compact
model on rings and ladders, then:

  1. corrupt a sketch by deleting lattice points and let the decoder
     redraw it from the surviving geometry, and
  2. embed clean gallery sketches and healed queries, rank gallery rows
     by cosine similarity, and score Top-1 accuracy per corruption level.

Takes a few minutes of CPU time; all seeds are fixed.
"""

import json
import pathlib
import tempfile

import numpy as np

import lattisketch as ls

work = pathlib.Path(tempfile.mkdtemp(prefix="lattisketch_demo_"))

data_paths = ls.generate_dataset(work / "data", n_per_category=80, seed=0)
pcfg = ls.PipelineConfig(
    encoder=ls.EncoderConfig(d=32, K=2),
    decoder=ls.DecoderConfig(hidden_size=64, M=5, n_max=64, z_dim=32),
    train=ls.TrainConfig(batch_size=16, iterations=600, seed=3,
                         checkpoint_every=600),
)
print("training a compact model (about a minute)...")
summary = ls.fit(data_paths, pcfg, work / "run")
bundle = ls.load_model(summary["checkpoint"])
print(f"done, checkpoint {pathlib.Path(summary['checkpoint']).name}")

# --- healing one sketch -------------------------------------------------
rng = np.random.default_rng(11)
record = ls.make_sketch_record("ladder", rng)
sketch = ls.parse_quickdraw_line(json.dumps(record))
raster = ls.rasterize(sketch, side=256)

# p_mask is the deletion probability per lattice point. The healed
# sketch comes back with the lattice that survived, so you can see how
# much geometry the decoder actually had to work with.
for p_mask in (0.1, 0.3, 0.5):
    req = ls.HealRequest(raster=raster, p_mask=p_mask, seed=5)
    healed, surviving = ls.heal(req, bundle)
    healed.validate()
    print(f"p_mask={p_mask:.1f}: {surviving.m:3d} surviving points -> "
          f"{healed.n_steps:3d} decoded steps")

svg = ls.render_svg(healed)
(work / "healed.svg").write_text(svg)
print(f"wrote {work / 'healed.svg'}")

# --- retrieval ----------------------------------------------------------
# Fresh held-out sketches, never seen in training.
rng = np.random.default_rng(99)
sketches, labels = [], []
for cat in ("ring", "ladder"):
    for _ in range(20):
        rec = ls.make_sketch_record(cat, rng)
        sketches.append(ls.parse_quickdraw_line(json.dumps(rec)))
        labels.append(cat)

# healing_sweep turns the sketches into lattices (no raster drawn),
# embeds the clean gallery once, then heals every sketch at each
# corruption level and ranks the healed query against the gallery (its
# own clean row excluded).
rows, csv_text = ls.healing_sweep(sketches, labels, bundle,
                                  p_mask_list=[0.1, 0.3, 0.5], seed=7)
print()
print("p_mask  top1   top3   mean_points")
for r in rows:
    print(f"{r['p_mask']:.2f}    {r['top1']:.3f}  {r['top3']:.3f}  "
          f"{r['mean_points']:.1f}")

# The same table in CSV form, as written by the command-line eval.
(work / "metrics.csv").write_text(csv_text)
print(f"\nwrote {work / 'metrics.csv'}")
