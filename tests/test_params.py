"""ParameterStore and the checkpoint container format."""

import json
import re

import numpy as np
import pytest

import lattisketch as ls
from lattisketch.params import CHECKPOINT_MAGIC


def small_store():
    store = ls.ParameterStore()
    rng = np.random.default_rng(0)
    store.add("a.W", rng.standard_normal((3, 4)).astype(np.float32))
    store.add("a.b", np.zeros(4, dtype=np.float32))
    store.add("bn.running_mean", np.ones(4, dtype=np.float32), trainable=False)
    return store


def test_store_duplicate_name_rejected():
    store = small_store()
    with pytest.raises(ValueError):
        store.add("a.W", np.zeros((1,)))


def test_store_setitem_requires_existing():
    store = small_store()
    with pytest.raises(KeyError):
        store["missing"] = np.zeros(1)
    store["a.b"] = np.ones(4, dtype=np.float32)
    assert np.all(store["a.b"] == 1)


def test_store_trainable_bookkeeping():
    store = small_store()
    assert store.trainable_names() == ["a.W", "a.b"]
    assert not store.is_trainable("bn.running_mean")
    grads = store.zero_grads()
    assert set(grads) == {"a.W", "a.b"}
    assert ls.count_parameters(store)[1] == 12 + 4


def test_checkpoint_round_trip(tmp_path):
    store = small_store()
    path = tmp_path / "model.ckpt"
    ls.save_checkpoint(path, store, iteration=7,
                       configs={"d": 3}, extra={"note": "x"})
    loaded, header = ls.load_checkpoint(path)
    assert header["iteration"] == 7
    assert header["configs"] == {"d": 3}
    assert header["extra"] == {"note": "x"}
    for name, arr in store.items():
        assert np.array_equal(loaded[name], arr)
        assert loaded.is_trainable(name) == store.is_trainable(name)


def test_checkpoint_header_is_first_line_json(tmp_path):
    store = small_store()
    path = tmp_path / "model.ckpt"
    ls.save_checkpoint(path, store, iteration=0)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["format"] == CHECKPOINT_MAGIC
    assert header["version"] == 2
    assert header["dtype"] == "<f4"
    names = [a["name"] for a in header["arrays"]]
    assert names == store.names()
    # offsets are element offsets into a contiguous little-endian f4 payload
    sizes = [int(np.prod(a["shape"])) for a in header["arrays"]]
    offsets = [a["offset"] for a in header["arrays"]]
    assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]


def test_checkpoint_payload_is_float32_le(tmp_path):
    store = small_store()
    path = tmp_path / "model.ckpt"
    ls.save_checkpoint(path, store, iteration=0)
    with open(path, "rb") as fh:
        fh.readline()
        payload = np.frombuffer(fh.read(), dtype="<f4")
    assert payload.size == sum(arr.size for _, arr in store.items())
    assert np.array_equal(payload[:12], store["a.W"].astype("<f4").ravel())


def test_checkpoint_float64_round_trip_is_exact(tmp_path):
    store = small_store().astype(np.float64)
    store["a.W"] = store["a.W"] / 3.0  # values float32 cannot hold
    path = tmp_path / "model.ckpt"
    ls.save_checkpoint(path, store, iteration=0)
    loaded, header = ls.load_checkpoint(path)
    assert header["dtype"] == "<f8"
    for name, arr in store.items():
        assert loaded[name].dtype == np.float64
        assert np.array_equal(loaded[name], arr), name


def test_load_version_1_file(tmp_path):
    store = small_store()
    arrays, offset = [], 0
    for name, arr in store.items():
        arrays.append({"name": name, "shape": list(arr.shape), "offset": offset,
                       "trainable": store.is_trainable(name)})
        offset += arr.size
    header = {"format": CHECKPOINT_MAGIC, "version": 1, "iteration": 4,
              "configs": {}, "extra": {}, "arrays": arrays}
    path = tmp_path / "v1.ckpt"
    path.write_bytes(json.dumps(header).encode() + b"\n"
                     + b"".join(arr.astype("<f4").tobytes() for _, arr in store.items()))
    loaded, got = ls.load_checkpoint(path)
    assert got["iteration"] == 4
    for name, arr in store.items():
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], arr), name


def test_load_rejects_unknown_payload_dtype(tmp_path):
    path = tmp_path / "model.ckpt"
    ls.save_checkpoint(path, small_store(), iteration=0)
    data = path.read_bytes().replace(b'"dtype": "<f4"', b'"dtype": "<i4"')
    path.write_bytes(data)
    with pytest.raises(ls.CheckpointFormatError):
        ls.load_checkpoint(path)


def test_checkpoint_deterministic_bytes(tmp_path):
    store = small_store()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ls.save_checkpoint(p1, store, iteration=3)
    ls.save_checkpoint(p2, store, iteration=3)
    assert p1.read_bytes() == p2.read_bytes()
    assert ls.checkpoint_hash(p1) == ls.checkpoint_hash(p2)


def test_checkpoint_hash_changes_with_content(tmp_path):
    store = small_store()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ls.save_checkpoint(p1, store, iteration=3)
    store["a.b"] = np.full(4, 9.0, dtype=np.float32)
    ls.save_checkpoint(p2, store, iteration=3)
    assert ls.checkpoint_hash(p1) != ls.checkpoint_hash(p2)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    for first_line in (b"not a checkpoint", b"[1, 2]",
                       json.dumps({"format": CHECKPOINT_MAGIC, "version": 2,
                                   "dtype": "<f4"}).encode(),
                       json.dumps({"format": CHECKPOINT_MAGIC, "version": 2, "dtype": "<f4",
                                   "arrays": [{"name": "w"}]}).encode()):
        path.write_bytes(first_line + b"\n")
        with pytest.raises(ls.CheckpointFormatError):
            ls.load_checkpoint(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "model.ckpt"
    for dtype in (np.float32, np.float64):
        ls.save_checkpoint(path, small_store().astype(dtype), iteration=0)
        data = path.read_bytes()
        for cut in (8, 3):  # whole values missing, or a value cut in half
            path.write_bytes(data[:-cut])
            with pytest.raises(ls.CheckpointFormatError):
                ls.load_checkpoint(path)


@pytest.mark.parametrize("edit,extra,message", [
    (lambda h: h["arrays"][-1].update(offset=-9), b"", "array 'bn.running_mean' has offset -9"),
    (lambda h: [a.update(offset=0) for a in h["arrays"]], b"", "array 'a.b' has offset 0"),
    (lambda h: h["arrays"][1].update(offset=13), b"", "array 'a.b' has offset 13"),
    (lambda h: h["arrays"][0].update(shape=[3, -4]), b"", "array 'a.W' has offset 0 and "
                                                            "shape [3, -4]"),
    (lambda h: None, bytes(4), "payload holds 1 value(s) after the last array "
                               "'bn.running_mean'"),
], ids=["negative", "aliased", "gap", "negative_dim", "trailing_value"])
def test_load_rejects_arrays_out_of_place(tmp_path, edit, extra, message):
    path = tmp_path / "model.ckpt"
    ls.save_checkpoint(path, small_store(), iteration=0)
    first, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(first)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload + extra)
    with pytest.raises(ls.CheckpointFormatError, match=re.escape(message)):
        ls.load_checkpoint(path)


def test_save_to_unwritable_dir(tmp_path):
    store = small_store()
    with pytest.raises(ls.CheckpointWriteFailure):
        ls.save_checkpoint(tmp_path / "nope" / "deep" / "model.ckpt", store, iteration=0)


def test_store_astype_and_copy():
    store = small_store()
    d64 = store.astype(np.float64)
    assert d64["a.W"].dtype == np.float64
    assert store["a.W"].dtype == np.float32
    dup = store.copy()
    dup["a.b"] = np.full(4, 5.0, dtype=np.float32)
    assert not np.array_equal(dup["a.b"], store["a.b"])
