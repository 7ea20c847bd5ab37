import contextlib
import json
import os

import numpy as np
import pytest

import lattisketch as ls


@pytest.fixture
def square_sketch():
    """10x10 axis-aligned square, drawn as one closed polyline."""
    line = '{"drawing": [[[0, 10, 10, 0, 0], [0, 0, 10, 10, 0]]]}'
    return ls.parse_quickdraw_line(line)


@pytest.fixture
def tiny_pcfg():
    enc = ls.EncoderConfig(d=8, K=2)
    dec = ls.DecoderConfig(hidden_size=16, M=2, n_max=32, z_dim=8)
    return ls.PipelineConfig(encoder=enc, decoder=dec,
                             train=ls.TrainConfig(batch_size=4, iterations=3, seed=0))


@pytest.fixture
def tiny_store(tiny_pcfg):
    return ls.init_params(tiny_pcfg, seed=0)


@pytest.fixture(scope="session")
def tiny_model(tmp_path_factory):
    """A briefly trained small model shared by pipeline tests.

    40 iterations is enough to give non-degenerate weights and a loadable
    checkpoint; tests that need learned behavior use the acceptance model.
    """
    tmp = tmp_path_factory.mktemp("tiny_model")
    paths = ls.generate_dataset(tmp / "data", 12, seed=7)
    enc = ls.EncoderConfig(d=8, K=2)
    dec = ls.DecoderConfig(hidden_size=16, M=2, n_max=64, z_dim=8)
    pcfg = ls.PipelineConfig(encoder=enc, decoder=dec,
                             train=ls.TrainConfig(batch_size=4, iterations=40, seed=1))
    summary = ls.fit([str(p) for p in paths], pcfg, tmp / "run")
    return ls.load_model(summary["checkpoint"])


def zigzag_scribble():
    """One stroke zig-zagging across every second row of the canvas: a
    legal sketch whose 256^2 lattice (m = 8,968) is over graph_builder.MAX_NODES."""
    xs, ys = [], []
    for r in range(128):
        xs += [0, 255] if r % 2 == 0 else [255, 0]
        ys += [2 * r, 2 * r]
    return ls.parse_quickdraw_line(json.dumps({"drawing": [[xs, ys]]}))


def random_raster(rng, side=256, density=0.02):
    pixels = (rng.random((side, side)) < density).astype(np.uint8)
    return ls.RasterSketch(pixels=pixels)


def pairwise_distances(L):
    """Oracle: exact Euclidean pixel distances, symmetric with a zero diagonal."""
    if L.m < 1:
        raise ls.EmptyLattice("no points to measure")
    pts = L.points.astype(np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def rewrite_checkpoint_header(src, dst, edit):
    """Copy checkpoint src to dst with edit(header) applied to its JSON header."""
    with open(src, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    edit(header)
    with open(dst, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)


@contextlib.contextmanager
def listing_unchanged(directory):
    """Assert that the block adds, removes and renames no entry of directory:
    a command that fails leaves no --out, staging directory or parent of --out."""
    before = sorted(os.listdir(directory))
    yield
    assert sorted(os.listdir(directory)) == before
