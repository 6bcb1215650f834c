"""Binary containers for datasets and model checkpoints.

Both files open with the magic bytes ``COME`` and a u32 format version;
all integers and floats are little-endian, and every tensor payload is f64,
so an array loads back bit-exact.

Dataset container (version 2)::

    "COME" | u32 version | u32 n_samples | u32 tokens | u32 width
    then per sample: u32 source id | u32 label | tokens*width f64

A JSON sidecar (same path with a .json suffix) records the generator
parameters and the train/test indices.

Checkpoint container (version 2)::

    "COME" | u32 version | u32 n_blobs
    then per blob, in name order: u16 name length | name utf-8 | u8 ndim | u32 dims... | f64 data

A model checkpoint holds its trainable parameters and, for the routed
model, the frozen shared experts as ``frozen.{kind}.{w,b}`` blobs.

Both readers raise a ValueError naming the path for a malformed file. A
checkpoint blob must also be finite, since the model does not re-check its
parameters; dataset tokens are checked when a batch enters the model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .datagen import DatasetBundle, GeneratorConfig, generator_sidecar

MAGIC = b"COME"
DATASET_VERSION = 2
CHECKPOINT_VERSION = 2


def _sidecar_path(path) -> Path:
    p = Path(path)
    return p.with_suffix(p.suffix + ".json")


class _Reader:
    """Bounds-checked reads through a container file after its magic bytes.

    Every error is a ValueError naming the path and what was being read.
    Sizes are exact Python integers, so no header value can wrap them.
    """

    def __init__(self, path, kind: str):
        self.path = Path(path)
        self.raw = memoryview(self.path.read_bytes())
        if self.raw[:4] != MAGIC:
            raise ValueError(f"{self.path}: not a {kind} container (bad magic)")
        self.offset = 4

    def read(self, size: int, what: str):
        if len(self.raw) - self.offset < size:
            raise ValueError(
                f"{self.path}: truncated in {what}: needs {size} bytes at offset "
                f"{self.offset}, file has {len(self.raw)}"
            )
        self.offset += size
        return self.raw[self.offset - size : self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def floats(self, shape: tuple, what: str) -> np.ndarray:
        """A read-only view of the next f64 array of ``shape``."""
        data = self.read(8 * math.prod(shape), what)
        try:
            return np.frombuffer(data, dtype="<f8").reshape(shape)
        except ValueError as exc:  # more dimensions than NumPy supports
            raise ValueError(f"{self.path}: cannot shape {what} as {shape} ({exc})") from exc

    def finish(self, what: str):
        if self.offset != len(self.raw):
            extra = len(self.raw) - self.offset
            raise ValueError(f"{self.path}: {extra} trailing bytes after {what}")


def _sample_dtype(t: int, d: int) -> np.dtype:
    """One dataset sample as the container lays it out."""
    return np.dtype([("source", "<u4"), ("label", "<u4"), ("tokens", "<f8", (t, d))])


def save_dataset(path, bundle: DatasetBundle) -> Path:
    """Write the feature container plus its JSON sidecar; returns the path.

    Raises ValueError naming the first sample whose source id or label does
    not fit a u32, or whose source id is not below the generator's
    ``n_sources``, before anything is written.
    """
    p = Path(path)
    n, t, d = bundle.tokens.shape
    records = np.empty(n, dtype=_sample_dtype(t, d))
    for field, ids in (("source", bundle.sources), ("label", bundle.labels)):
        outside = np.flatnonzero((ids < 0) | (ids >= 2**32))
        if outside.size:
            i = int(outside[0])
            raise ValueError(f"{p}: sample {i + 1} of {n} has {field} {ids[i]}, outside [0, 2**32)")
        records[field] = ids
    n_sources = bundle.config.n_sources
    unknown = np.flatnonzero(bundle.sources >= n_sources)
    if unknown.size:
        i = int(unknown[0])
        raise ValueError(f"{p}: sample {i + 1} of {n} has source {bundle.sources[i]}, "
                         f"not below the generator's n_sources = {n_sources}")
    records["tokens"] = bundle.tokens
    with open(p, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIII", DATASET_VERSION, n, t, d))
        fh.write(records.data)
    _sidecar_path(p).write_text(json.dumps(generator_sidecar(bundle), indent=2))
    return p


def load_dataset(path) -> DatasetBundle:
    """Raises ValueError naming the path and the sample being read when the
    file is truncated or has bytes after its last sample, and naming the
    sidecar when that is missing or unreadable."""
    reader = _Reader(path, "feature")
    version, n, t, d = reader.unpack("<IIII", "the header")
    if version != DATASET_VERSION:
        raise ValueError(f"{reader.path}: unsupported dataset version {version}")
    sample_size = 8 + 8 * t * d
    fits = (len(reader.raw) - reader.offset) // sample_size
    if fits < n:  # checked before allocating what the header claims
        raise ValueError(
            f"{reader.path}: truncated in sample {fits + 1} of {n}: the header implies "
            f"{reader.offset + n * sample_size} bytes, file has {len(reader.raw)}"
        )
    what = f"sample {n} of {n}" if n else "the header"
    try:
        dtype = _sample_dtype(t, d)
    except ValueError as exc:  # a sample larger than NumPy supports
        raise ValueError(f"{reader.path}: cannot shape samples as ({t}, {d}) ({exc})") from exc
    records = np.frombuffer(reader.read(n * sample_size, what), dtype=dtype)
    reader.finish(what)
    side = _read_sidecar(_sidecar_path(reader.path), n)
    return DatasetBundle(
        tokens=records["tokens"].astype(np.float64),
        sources=records["source"].astype(np.int64),
        labels=records["label"].astype(np.int64),
        train_idx=np.asarray(side["train_indices"], dtype=np.int64),
        test_idx=np.asarray(side["test_indices"], dtype=np.int64),
        config=GeneratorConfig(**side["generator"]),
        seed=side["seed"],
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_sidecar(path: Path, n_samples: int) -> dict:
    """The parsed sidecar of a dataset with ``n_samples`` samples. Raises a
    ValueError naming the sidecar unless it holds every generator field and
    no other, an int seed, and split indices that are ints in [0, n), each
    in at most one split and at most once."""
    try:
        side = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: cannot read the dataset sidecar ({exc})") from exc
    if not isinstance(side, dict):
        raise ValueError(f"{path}: the dataset sidecar must be a JSON object")
    missing = {"generator", "seed", "train_indices", "test_indices"} - set(side)
    if missing:
        raise ValueError(f"{path}: the dataset sidecar lacks {sorted(missing)}")
    generator = side["generator"]
    if not isinstance(generator, dict):
        raise ValueError(f"{path}: generator must be an object, got {generator!r}")
    fields = {f.name for f in dataclasses.fields(GeneratorConfig)}
    if set(generator) != fields:
        raise ValueError(
            f"{path}: generator fields do not match: unknown {sorted(set(generator) - fields)}, "
            f"missing {sorted(fields - set(generator))}"
        )
    if not _is_int(side["seed"]):
        raise ValueError(f"{path}: seed must be an int, got {side['seed']!r}")
    for key in ("train_indices", "test_indices"):
        indices = side[key]
        if not (isinstance(indices, list)
                and all(_is_int(i) and 0 <= i < n_samples for i in indices)):
            raise ValueError(f"{path}: {key} must be a list of ints in [0, {n_samples})")
        if len(set(indices)) != len(indices):
            raise ValueError(f"{path}: {key} repeats a sample index")
    shared = set(side["train_indices"]) & set(side["test_indices"])
    if shared:
        raise ValueError(f"{path}: {len(shared)} sample indices are in both train_indices and "
                         f"test_indices, e.g. {min(shared)}")
    return side


def _checkpoint_bytes(arrays: dict) -> bytes:
    out = [MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        encoded = name.encode("utf-8")
        out.append(struct.pack("<H", len(encoded)))
        out.append(encoded)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.tobytes())
    return b"".join(out)


def save_checkpoint(path, arrays: dict) -> Path:
    p = Path(path)
    p.write_bytes(_checkpoint_bytes(arrays))
    return p


def load_checkpoint(path) -> dict:
    """Returns the saved arrays by name, as writable float64 copies.

    Raises ValueError naming the path and the blob being read when the file
    is truncated, has bytes after its last blob, repeats a blob name, or
    holds a NaN or Inf.
    """
    reader = _Reader(path, "checkpoint")
    version, n_blobs = reader.unpack("<II", "the header")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{reader.path}: unsupported checkpoint version {version}")
    arrays = {}
    what = "the header"
    for i in range(n_blobs):
        what = f"blob {i + 1} of {n_blobs}"
        (name_len,) = reader.unpack("<H", what)
        try:
            name = bytes(reader.read(name_len, what)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{reader.path}: {what} has a name that is not UTF-8 ({exc})") from exc
        what = f"blob {name!r}"
        (ndim,) = reader.unpack("<B", what)
        if name in arrays:
            raise ValueError(f"{reader.path}: {what} appears more than once")
        arr = reader.floats(reader.unpack(f"<{ndim}I", what), what)
        if not np.isfinite(arr).all():
            bad = int(np.count_nonzero(~np.isfinite(arr)))
            raise ValueError(f"{reader.path}: {what} holds {bad} non-finite entries")
        arrays[name] = arr.copy()
    reader.finish(what)
    return arrays


def checkpoint_digest(arrays: dict) -> str:
    """SHA-256 of the canonical serialized form (stable across save/load)."""
    return hashlib.sha256(_checkpoint_bytes(arrays)).hexdigest()
