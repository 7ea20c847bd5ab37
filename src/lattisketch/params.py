"""Named parameter arrays, the drawer that fills them from a layout (rows of
name, shape, trainable flag and draw, in draw order), and the binary
checkpoint container.

Checkpoint layout: one line of JSON (UTF-8, newline-terminated) describing
the arrays as {name, shape, offset, trainable} with offsets in elements,
followed by every array's data concatenated in the header's payload
"dtype": little-endian float64 when the store holds any float64 array,
else float32. The header also carries the model configs, the training
iteration, and any optimizer scalars, so a file is self-describing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import CheckpointFormatError, CheckpointWriteFailure

CHECKPOINT_MAGIC = "lattisketch-checkpoint"
CHECKPOINT_VERSION = 2
PAYLOAD_DTYPES = ("<f4", "<f8")


class ParameterStore:
    """Ordered name -> ndarray mapping with a per-array trainable flag.

    Buffers (running statistics, optimizer moments) live alongside weights
    with trainable=False so one container serializes everything.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self._trainable: dict[str, bool] = {}

    def add(self, name: str, array, trainable: bool = True) -> None:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._arrays[name] = np.asarray(array)
        self._trainable[name] = bool(trainable)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, value) -> None:
        # assignment only updates data; declaring new arrays goes through add()
        if name not in self._arrays:
            raise KeyError(name)
        self._arrays[name] = np.asarray(value)

    def names(self) -> list:
        return list(self._arrays)

    def trainable_names(self) -> list:
        return [n for n, t in self._trainable.items() if t]

    def is_trainable(self, name: str) -> bool:
        return self._trainable[name]

    def items(self):
        return self._arrays.items()

    def astype(self, dtype) -> "ParameterStore":
        out = ParameterStore()
        for name, arr in self._arrays.items():
            out.add(name, arr.astype(dtype), self._trainable[name])
        return out

    def copy(self) -> "ParameterStore":
        out = ParameterStore()
        for name, arr in self._arrays.items():
            out.add(name, arr.copy(), self._trainable[name])
        return out

    def zero_grads(self) -> dict:
        return {n: np.zeros_like(self._arrays[n]) for n in self.trainable_names()}


def draw_params(rows, rng: np.random.Generator, dtype, store: ParameterStore) -> ParameterStore:
    """Add one array per layout row (name, shape, trainable, draw) to store, in row order:
    "normal" (times 1/sqrt(shape[-1])), "glorot", "zeros", "ones" or "forget" (zeros with
    the second quarter set to 1, an LSTM's forget-gate bias). Returns the store."""
    for name, shape, trainable, draw in rows:
        if draw == "normal":
            arr = rng.standard_normal(shape) * (1.0 / np.sqrt(shape[-1]))
        elif draw == "glorot":
            limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
            arr = rng.uniform(-limit, limit, size=shape)
        elif draw == "ones":
            arr = np.ones(shape)
        else:
            arr = np.zeros(shape)
            if draw == "forget":
                arr[shape[0] // 4 : shape[0] // 2] = 1.0
        store.add(name, arr.astype(dtype), trainable)
    return store


def save_checkpoint(path, store: ParameterStore, iteration: int,
                    configs: dict | None = None, extra: dict | None = None) -> None:
    """Write the container atomically (temp file + rename)."""
    wide = any(arr.dtype == np.float64 for _, arr in store.items())
    payload_dtype = "<f8" if wide else "<f4"
    entries, offset = [], 0
    for name, arr in store.items():
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset,
                        "trainable": store.is_trainable(name)})
        offset += int(arr.size)
    header = {"format": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION, "dtype": payload_dtype,
              "iteration": int(iteration), "configs": configs or {}, "extra": extra or {},
              "arrays": entries}
    directory = os.path.dirname(os.fspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            for _, arr in store.items():
                fh.write(np.ascontiguousarray(arr, dtype=payload_dtype).tobytes())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointWriteFailure(f"cannot write {path}: {exc}") from exc


def load_checkpoint(path) -> tuple:
    """Read a container; returns (store, header dict), the header's iteration an int >= 0.

    Each array must start where the one before it ends, as save_checkpoint
    writes them, and the payload must hold exactly the arrays' values;
    otherwise CheckpointFormatError names the first array out of place.
    """
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read {path}: {exc}") from exc
    try:
        header = json.loads(first.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"bad checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointFormatError("not a checkpoint file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported version {header.get('version')}")
    iteration = header.get("iteration")
    if type(iteration) is not int or iteration < 0:  # bool is a subclass of int
        raise CheckpointFormatError(f"iteration {iteration!r} is not an integer >= 0")
    payload_dtype = header.get("dtype")
    if payload_dtype not in PAYLOAD_DTYPES:
        raise CheckpointFormatError(f"unsupported payload dtype {payload_dtype!r}")
    if len(payload) % np.dtype(payload_dtype).itemsize:
        raise CheckpointFormatError("payload is not a whole number of values")
    data = np.frombuffer(payload, dtype=payload_dtype)
    store, start, name = ParameterStore(), 0, None
    try:
        for entry in header["arrays"]:
            name, shape = entry["name"], tuple(entry["shape"])
            size = int(np.prod(shape)) if shape else 1
            if entry["offset"] != start or min(shape, default=0) < 0:
                raise CheckpointFormatError(
                    f"array {name!r} has offset {entry['offset']} and shape {list(shape)}; "
                    f"it must start at {start}, where the array before it ends")
            if start + size > data.size:
                raise CheckpointFormatError(f"array {name!r} overruns payload")
            if not isinstance(entry["trainable"], bool):
                raise CheckpointFormatError(f"array {name!r} has trainable flag "
                                            f"{entry['trainable']!r}, not true or false")
            arr = data[start : start + size].reshape(shape).copy()
            store.add(name, arr, entry["trainable"])
            start += size
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointFormatError(f"bad array table in checkpoint header: {exc!r}") from exc
    if start != data.size:
        raise CheckpointFormatError(f"payload holds {data.size - start} value(s) after the "
                                    f"last array {name!r}")
    return store, header


def checkpoint_hash(path) -> str:
    """Content hash of a checkpoint file (sha256 hex)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
