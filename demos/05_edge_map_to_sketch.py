"""
Turning a plain edge map into a vector sketch
=============================================

Nothing upstream of the lattice cares whether the ink came from pen
strokes. Any binary image works: here we synthesize an edge map with
raw numpy (a circle outline next to a square), inspect the lattice it
induces, then let a quickly trained model redraw it as strokes. The
vectorization is the healing path at zero corruption: the model sees
the full lattice and generates its best sketch of that geometry.
"""

import pathlib
import tempfile

import numpy as np

import lattisketch as ls

work = pathlib.Path(tempfile.mkdtemp(prefix="lattisketch_demo_"))

# --- build an edge map from scratch --------------------------------------
side = 256
yy, xx = np.mgrid[0:side, 0:side]

# circle outline: one pixel wide ring around (80, 128)
r = np.hypot(xx - 80, yy - 128)
circle = (np.abs(r - 50) < 1.0)

# square outline: border of a filled box
box = (xx >= 150) & (xx <= 230) & (yy >= 88) & (yy <= 168)
inner = (xx >= 152) & (xx <= 228) & (yy >= 90) & (yy <= 166)
square = box & ~inner

pixels = (circle | square).astype(np.uint8)
edge_map = ls.RasterSketch(pixels=pixels)
print(f"edge map: {edge_map.dark_count()} edge pixels")

# PGM is the interchange format for rasters; write and read it back.
ls.write_pgm(edge_map, work / "edges.pgm")
assert ls.read_pgm(work / "edges.pgm").dark_count() == edge_map.dark_count()

# The lattice front end is pure geometry, no model involved. Note that
# more lines do not guarantee more points: kept points are ink pixels
# lying exactly on grid lines, so one-pixel-wide ink can alias against
# the line positions (here some n=16 lines land on the square's thin
# border while the n=32 set misses parts of it).
for n in (8, 16, 32):
    lat = ls.sample_lattice(edge_map, ls.LatticeConfig(n=n, side=side))
    print(f"n={n:2d}: {lat.m:4d} lattice points")

# --- vectorize through a model -------------------------------------------
data_paths = ls.generate_dataset(work / "data", n_per_category=60, seed=0)
pcfg = ls.PipelineConfig(
    lattice=ls.LatticeConfig(side=side),
    encoder=ls.EncoderConfig(d=32, K=2),
    decoder=ls.DecoderConfig(hidden_size=64, M=5, n_max=64, z_dim=32),
    train=ls.TrainConfig(batch_size=16, iterations=300, seed=3,
                         checkpoint_every=300),
)
print("training a compact model (about 20 seconds)...")
summary = ls.fit(data_paths, pcfg, work / "run")
bundle = ls.load_model(summary["checkpoint"])

# Image-to-sketch is heal with nothing masked.
sketch, lat = ls.heal(ls.HealRequest(raster=edge_map, p_mask=0.0), bundle)
sketch.validate()
print(f"default grid: {lat.m} lattice points -> "
      f"{sketch.n_steps} steps, {len(sketch.drawn_segments())} drawn segments")

# The n override trades fidelity for abstraction at inference time.
sketch8, lat8 = ls.heal(ls.HealRequest(raster=edge_map, p_mask=0.0, n=8), bundle)
assert lat8.m < lat.m
print(f"n=8 grid:     {lat8.m} lattice points -> {sketch8.n_steps} steps")

(work / "vectorized.svg").write_text(ls.render_svg(sketch))
(work / "vectorized_n8.svg").write_text(ls.render_svg(sketch8))
print(f"wrote SVGs under {work}")
