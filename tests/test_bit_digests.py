"""Pinned sha256 digests of the front end (lattice sampling, the batched
sketch-to-lattice route, masking and proximity graphs), of training and of
every command's output directory.

The front-end stages gather, compare and sort integers and table entries;
none makes a BLAS call, so PINNED does not depend on the BLAS build or its
thread count, and neither do `ingest` and `render`, whose outputs it also
pins. Training steps and the model commands (`train`, `heal`, `generate`)
do call BLAS, so TRAIN_PINNED holds one set of digests per build (numpy
version, BLAS name and version), computed in a subprocess at one BLAS
thread. Commands run from a fresh working directory with relative paths,
so their manifests are pinned too. A change that moves any of these bits
says so and re-pins:

    PYTHONPATH=src python tests/test_bit_digests.py

prints the current digests in the layouts of PINNED and TRAIN_PINNED.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import lattisketch as ls
from lattisketch import trainer
from lattisketch.cli import dispatch
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
    "ingest --limit 4": "1d27e17708ce11f2ca1a741270014df167a5d7561fe8e2440ac48f2486c40724",
    "render --format both": "afcd4f6d251b6cb5d9292a010191e742ceb6ecf0a17158210dc07357a44c97a3",
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


def _tree_sha(root: Path) -> str:
    """Digest of the relative path and bytes of every file under root, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


SMALL_CONFIG = ("d = 8\nk = 2\nhidden_size = 16\nmixtures = 2\nn_max = 64\nbatch_size = 4\n"
                "iterations = 8\ncheckpoint_every = 4\nseed = 0\n")


def _command_digests(commands: dict) -> dict:
    """Run each named command line, in order, in a fresh working directory
    holding a 10-sketch file per category under data/ and SMALL_CONFIG as
    small.cfg; the digest of each --out tree."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            ls.generate_dataset("data", 10, seed=31)
            Path("small.cfg").write_text(SMALL_CONFIG)
            out = {}
            for name, argv in commands.items():
                with contextlib.redirect_stdout(io.StringIO()):
                    assert dispatch(argv) == 0, name
                out[name] = _tree_sha(Path(argv[argv.index("--out") + 1]))
            return out
        finally:
            os.chdir(home)


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
    out.update(_command_digests({
        "ingest --limit 4": ["ingest", "data/ring.ndjson", "data/ladder.ndjson", "--limit", "4",
                             "--out", "ingested"],
        "render --format both": ["render", "--input", "data/ladder.ndjson", "--format", "both",
                                 "--out", "rendered"]}))
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
# training and the model commands: 12 train_steps per dtype over a small
# model and the --out trees of train, heal and generate, keyed by BLAS build

TRAIN_PINNED = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0": {
        "train": "1a248855ca46d5c7b3df915213ebc4a1c25496d7574a4a5ed65219c9d6cf3f78",
        "heal": "1359c176ff339dcd31d3200363cd1d6c9ed0f3137f72938f42708abf3315dfeb",
        "generate --input": "8a854a7f0ffd41418e026b68dfcb56d6a159997ddef170d6ae0e6740d7c1b4d2",
        "generate --count 3": "615fb2dfd960ea167fc4a20960c517bc35717be545eaecd5fa13c04261c15811",
        "train_step float32": "d86db603784b58f018145d63dbb28e643a8799a0f532fe4fc5516b15e44eedc8",
        "train_step float64": "7c1113a8b3bc0a0c0d2811ed1348e4ee1f2e4da00df3f6260a06fd6c46e3726f",
    },
}
TRAIN_STEPS = 12


def blas_key() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def _train_digests() -> dict:
    """The output trees of a small `train` run and of `heal` and `generate`
    with its checkpoint; losses, final store and Adam moments of TRAIN_STEPS
    fit-style steps in each dtype, plus the largest graph those steps built
    (it must span several bands)."""
    sizes = []

    def build(lattice, *args, **kwargs):
        sizes.append(lattice.m)
        return ls.build_adjacency(lattice, *args, **kwargs)

    ckpt = ["--checkpoint", "run/ckpt_final.ckpt"]
    out = _command_digests({
        "train": ["train", "--config", "small.cfg", "--data", "data/ring.ndjson",
                  "data/ladder.ndjson", "--out", "run"],
        "heal": ["heal", *ckpt, "--input", "data/ring.ndjson", "--seed", "3", "--out", "healed"],
        "generate --input": ["generate", *ckpt, "--input", "data/ladder.ndjson", "--count", "2",
                             "--seed", "4", "--out", "encoded"],
        "generate --count 3": ["generate", *ckpt, "--count", "3", "--seed", "5",
                               "--out", "sampled"]})
    trainer.build_adjacency = build
    rng = np.random.default_rng(30)
    sketches = [ls.parse_quickdraw_line(json.dumps(ls.make_sketch_record(cat, rng)))
                for _ in range(6) for cat in ("ring", "ladder")]
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
        pytest.fail(f"no BLAS-keyed digests pinned for {key}; check training on this "
                    f"build and pin them with `{REPIN}`")
    assert fresh_train["digests"] == TRAIN_PINNED[key], (
        f"BLAS-keyed digests moved on {key}; if the change is meant, say so and re-pin "
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
