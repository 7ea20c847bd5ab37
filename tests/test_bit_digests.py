"""Pinned sha256 digests of the front end (lattice sampling, the batched
sketch-to-lattice route, masking and proximity graphs) and of training.

The front-end stages gather, compare and sort integers and table entries;
none makes a BLAS call, so PINNED does not depend on the BLAS build or its
thread count. Training steps do call BLAS, so TRAIN_PINNED holds one set of
digests per build (numpy version, BLAS name and version), computed in a
subprocess at one BLAS thread. A change that moves any of these bits says
so and re-pins:

    PYTHONPATH=src python tests/test_bit_digests.py

prints the current digests in the layouts of PINNED and TRAIN_PINNED.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lattisketch as ls
from lattisketch import trainer
from lattisketch.lattice import sketch_lattices

REPIN = "PYTHONPATH=src python tests/test_bit_digests.py"

PINNED = {
    "sample_lattice 256/32": "5e49267a7d8f5fd1547d1ea5c38a09d753c5cbb6166f9b4359fc3e13ed8cc11d",
    "sample_lattice 256/17": "54773393fe91c74905a7c022162766934d3d62e7d62fee2f89adcd156fde0241",
    "sample_lattice 64/64": "8784bbc31722e49fa07bf616d0c3739ebd5a5a5fc3b13e5eb36f5d8b048b85ba",
    "sketch_lattices 40 synth": "11ab69b7e514a8c87f7785887a7af31b8d393ab5c9def0e0ec5a8366672256e9",
    "mask_lattice 0.3": "9ccdaf0cc4a7232f50e7b06bc4d484056d5a289df664ec4d68368f3b465dca4a",
    "graph nearby float32 one band": "fe02cc4360e6e16b130341da50525981ad8b0bd40259e8144067390fa031e0ab",
    "graph nearby float32 bands": "f01787b71259da8f40d002b892a8956c95c132e73b7c75643f53ec8023c866c6",
    "graph nearby float64 one band": "4af861c8f19721a5bfa4683287bca18500bd46a32d6a43f12f21d4a8fcc2eb73",
    "graph nearby float64 bands": "db5ce05478a52dd5db735b718f0fb62e877e1093e595234c0dcdaa448b041c24",
    "graph nearest float32 one band": "18b6b1d214b8ea5e6aa8b28533de745b20d1815bd8b099b48574e7223b876e44",
    "graph nearest float32 bands": "8b95c0a25558487b347d4467616bf4a6547e6f8689a62ef938d69d416c741191",
    "graph nearest float64 one band": "e99f4789b11b5e9499362e00d2151d60bd8db683992921992e338145c652a496",
    "graph nearest float64 bands": "75d169ab4a4e202b2e1db520b3c231c6f2e1a8d850b72a02fe4bd516ed01d8e0",
}


def _sha(arrays) -> str:
    """Digest of each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _rasters(side: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [ls.RasterSketch(rng.random((side, side)) < density)
            for density in (0.0, 0.002, 0.03, 0.5, 1.0)]


def _synth_sketches() -> list:
    rng = np.random.default_rng(28)
    return [ls.parse_quickdraw_line(json.dumps(ls.make_sketch_record(cat, rng)))
            for _ in range(20) for cat in ("ring", "ladder")]


def _graph_lattices() -> list:
    """A lattice of one band (m <= 128) and one of several."""
    raster_small, raster_large = _rasters(256, 7)[1:3]
    cfg = ls.LatticeConfig()
    return [ls.sample_lattice(raster_small, cfg), ls.sample_lattice(raster_large, cfg)]


def _bands(graph) -> list:
    return [a for rows, cols, slab in graph.bands
            for a in (np.array([rows.start, rows.stop, cols.start, cols.stop]), slab)]


def digests() -> dict:
    out = {}
    for side, n in ((256, 32), (256, 17), (64, 64)):
        cfg = ls.LatticeConfig(n=n, side=side)
        out[f"sample_lattice {side}/{n}"] = _sha(
            ls.sample_lattice(r, cfg).points for r in _rasters(side, side + n))
    lattices = sketch_lattices(_synth_sketches(), ls.LatticeConfig())
    out["sketch_lattices 40 synth"] = _sha(lat.points for lat in lattices)
    masked = ls.mask_lattice(lattices[0], 0.3, np.random.default_rng(3))
    out["mask_lattice 0.3"] = _sha([masked.points])
    for proximity in ("nearby", "nearest"):
        for dtype in ("float32", "float64"):
            for size, lat in zip(("one band", "bands"), _graph_lattices()):
                graph = ls.build_adjacency(lat, ls.GraphConfig(proximity), dtype=dtype)
                out[f"graph {proximity} {dtype} {size}"] = _sha(_bands(graph))
    return out


@pytest.fixture(scope="module")
def fresh():
    return digests()


def test_every_case_is_pinned(fresh):
    assert list(fresh) == list(PINNED)


@pytest.mark.parametrize("name", list(PINNED))
def test_digest_matches_the_pin(fresh, name):
    assert fresh[name] == PINNED[name], (
        f"{name} moved; if the change is meant, say so and re-pin with "
        f"`{REPIN}`")


def test_graph_cases_span_one_band_and_several():
    bands = [len(ls.build_adjacency(lat, ls.GraphConfig()).bands) for lat in _graph_lattices()]
    assert bands[0] == 1 and bands[1] >= 3


# ---------------------------------------------------------------------------
# training: 12 train_steps per dtype over a small model, keyed by BLAS build

TRAIN_PINNED = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0": {
        "train_step float32": "d86db603784b58f018145d63dbb28e643a8799a0f532fe4fc5516b15e44eedc8",
        "train_step float64": "7c1113a8b3bc0a0c0d2811ed1348e4ee1f2e4da00df3f6260a06fd6c46e3726f",
    },
}
TRAIN_STEPS = 12


def blas_key() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def _train_digests() -> dict:
    """Losses, final store and Adam moments of TRAIN_STEPS fit-style steps in
    each dtype, plus the largest graph built (it must span several bands)."""
    sizes = []

    def build(lattice, *args, **kwargs):
        sizes.append(lattice.m)
        return ls.build_adjacency(lattice, *args, **kwargs)

    trainer.build_adjacency = build
    rng = np.random.default_rng(30)
    sketches = [ls.parse_quickdraw_line(json.dumps(ls.make_sketch_record(cat, rng)))
                for _ in range(6) for cat in ("ring", "ladder")]
    out = {}
    for dtype in ("float32", "float64"):
        pcfg = ls.PipelineConfig(encoder=ls.EncoderConfig(d=8, K=2),
                                 decoder=ls.DecoderConfig(hidden_size=16, M=2, n_max=32, z_dim=8),
                                 train=ls.TrainConfig(batch_size=4, seed=5, dtype=dtype))
        items, _ = ls.prepare_items(sketches, ["s"] * len(sketches), pcfg,
                                    trainer.offset_scale_of(sketches))
        store = ls.init_params(pcfg)
        opt = ls.OptimizerState.fresh(store)
        losses = []
        for it in range(TRAIN_STEPS):
            step_rng = np.random.default_rng([pcfg.train.seed, it])
            idx = step_rng.integers(0, len(items), size=pcfg.train.batch_size)
            losses.append(ls.train_step([items[int(i)] for i in idx], store, opt, pcfg,
                                        step_rng)[0])
        out[f"train_step {dtype}"] = _sha(
            [np.array(losses, dtype=np.float64), *(a for _, a in store.items()),
             *opt.m.values(), *opt.v.values()])
    return {"digests": out, "max_m": max(sizes)}


def train_digests() -> dict:
    """_train_digests in a fresh process at one BLAS thread."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, __file__, "--train-json"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def fresh_train():
    return train_digests()


def test_train_batches_span_several_bands(fresh_train):
    assert fresh_train["max_m"] > 128


def test_train_digests_match_the_pin(fresh_train):
    key = blas_key()
    if key not in TRAIN_PINNED:
        pytest.fail(f"no train_step digests pinned for {key}; check training on this "
                    f"build and pin them with `{REPIN}`")
    assert fresh_train["digests"] == TRAIN_PINNED[key], (
        f"train_step digests moved on {key}; if the change is meant, say so and re-pin "
        f"with `{REPIN}`")


if __name__ == "__main__":
    if sys.argv[1:] == ["--train-json"]:
        print(json.dumps(_train_digests()))
        sys.exit()
    print("PINNED = {")
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
    print("}")
    print("TRAIN_PINNED = {")
    print(f'    "{blas_key()}": {{')
    for name, digest in train_digests()["digests"].items():
        print(f'        "{name}": "{digest}",')
    print("    },")
    print("}")
