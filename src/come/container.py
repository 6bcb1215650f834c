"""One binary container of named f64 arrays, for model checkpoints and datasets.

The file opens with the magic bytes ``COME`` and a u32 format version; all
integers and floats are little-endian, and every array is f64, so an array
loads back bit-exact::

    "COME" | u32 version (2) | u32 n_blobs
    then per blob, in name order: u16 name length | name utf-8 | u8 ndim | u32 dims... | f64 data

A model checkpoint holds its trainable parameters and, for the routed
model, the frozen shared experts as ``frozen.{kind}.{w,b}`` blobs.

A dataset file holds exactly three blobs: ``tokens`` (N, T, D) and the
per-sample integer ids ``sources`` and ``labels`` (N,), which f64 holds
exactly; ``load_dataset`` turns them into int64, rejecting an entry that is
not a 64-bit integer, so ids are integers everywhere past the file. Its JSON
sidecar (same path with a .json suffix) records the generator parameters and
seed, the train/test indices and the per-source sample counts. Saving and
loading check the whole bundle against the generator with
``datagen.check_dataset``, the check ``harness.train`` and ``evaluate`` make
of an in-memory dataset: (T, D) is its (``tokens_per_sample``, ``width``),
ids lie in [0, ``n_sources``) and [0, ``n_classes``), and the splits keep
``datagen.check_splits``' rule (indices in [0, N), each in at most one
split and at most once), which the sidecar's indices also meet under the
sidecar's name.

The reader raises a ValueError naming the path for a malformed file:
truncated, with bytes after its last blob, a repeated blob name, or a NaN
or Inf (the model does not re-check its parameters).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .config import value_type
from .datagen import DatasetBundle, GeneratorConfig, check_dataset, check_splits

MAGIC = b"COME"
CHECKPOINT_VERSION = 2


class _Reader:
    """Bounds-checked reads through a container file after its magic bytes.

    Every error is a ValueError naming the path and what was being read.
    Sizes are exact Python integers, so no header value can wrap them.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.raw = memoryview(self.path.read_bytes())
        if self.raw[:4] != MAGIC:
            raise ValueError(f"{self.path}: not a COME container (bad magic)")
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
        """A read-only view of the next f64 array of ``shape``. Its errors name
        a shape of more than four dims by its ndim and first four dims."""
        size = 8 * math.prod(shape)
        shown = str(shape)
        if len(shape) > 4:
            shown = f"{len(shape)} dims ({', '.join(map(str, shape[:4]))}, ...)"
            left = len(self.raw) - self.offset
            if size > left:  # before read, whose message would spell out the size
                raise ValueError(f"{self.path}: truncated in {what}: {shown} need more than "
                                 f"the {left} bytes left")
        data = self.read(size, what)
        try:
            return np.frombuffer(data, dtype="<f8").reshape(shape)
        except ValueError as exc:  # more dimensions or entries than NumPy supports
            raise ValueError(f"{self.path}: cannot shape {what} as {shown} ({exc})") from exc

    def finish(self, what: str):
        if self.offset != len(self.raw):
            extra = len(self.raw) - self.offset
            raise ValueError(f"{self.path}: {extra} trailing bytes after {what}")


def save_dataset(path, bundle: DatasetBundle) -> Path:
    """Write the dataset container plus its JSON sidecar; returns the path.
    A bundle that disagrees with its generator raises the ValueError
    ``load_dataset`` would, before anything is written."""
    p = Path(path)
    check_dataset(p, bundle, bundle.config)
    save_checkpoint(p, {"tokens": bundle.tokens, "sources": bundle.sources,
                        "labels": bundle.labels})
    Path(f"{p}.json").write_text(json.dumps(generator_sidecar(bundle), indent=2))
    return p


def load_dataset(path) -> DatasetBundle:
    """The dataset saved at ``path``, read through ``load_checkpoint``. Raises
    a ValueError naming the container when it is malformed, holds other than
    (N, T, D) tokens and (N,) sources and labels, an id blob entry that is
    not a 64-bit integer, or disagrees with the sidecar's generator, and
    naming the sidecar when that is missing or bad."""
    arrays = load_checkpoint(path)
    shapes = {name: arr.shape for name, arr in sorted(arrays.items())}
    tokens = shapes.get("tokens", ())
    n = tokens[0] if len(tokens) == 3 else -1
    if shapes != {"labels": (n,), "sources": (n,), "tokens": tokens}:
        raise ValueError(f"{path}: a dataset holds (N, T, D) tokens and (N,) sources and "
                         f"labels, not {shapes}")
    ids = [_int_blob(path, name, arrays[name]) for name in ("sources", "labels")]
    side = _read_sidecar(Path(f"{path}.json"), n)
    splits = [np.asarray(side[key], dtype=np.int64) for key in ("train_indices", "test_indices")]
    bundle = DatasetBundle(arrays["tokens"], *ids, *splits, GeneratorConfig(**side["generator"]),
                           side["seed"])
    check_dataset(path, bundle, bundle.config)
    return bundle


def _int_blob(path, name: str, blob: np.ndarray) -> np.ndarray:
    """The f64 id blob ``name`` as int64, or a ValueError naming the file, the
    blob and its first entry that is not a 64-bit integer."""
    with np.errstate(invalid="ignore"):  # an entry past int64 casts to garbage, caught below
        ids = blob.astype(np.int64)
    bad = np.flatnonzero(ids != blob)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path}: blob {name!r} has {blob[i].item()!r} at sample {i + 1} of "
                         f"{blob.size}, not a 64-bit integer")
    return ids


def generator_sidecar(bundle: DatasetBundle) -> dict:
    """JSON-ready description of how the dataset was produced."""
    return {
        "seed": bundle.seed,
        "generator": dataclasses.asdict(bundle.config),
        "train_indices": bundle.train_idx.tolist(),
        "test_indices": bundle.test_idx.tolist(),
        "source_counts": np.bincount(bundle.sources, minlength=bundle.config.n_sources).tolist(),
    }


def _read_sidecar(path: Path, n_samples: int) -> dict:
    """The parsed sidecar of a dataset with ``n_samples`` samples. Raises a
    ValueError naming the sidecar unless it holds every generator field and
    no other, each of the type a ``data.*`` config key of that name takes and
    together accepted by ``GeneratorConfig.validate``, an int seed, and split
    indices that are lists of ints keeping ``datagen.check_splits``."""
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
    for name, value in generator.items():
        expected, accepts = value_type(f"data.{name}")
        if not accepts(value):
            raise ValueError(f"{path}: generator.{name} must be {expected}, got {value!r}")
    try:
        GeneratorConfig(**generator).validate()
    except ValueError as exc:
        raise ValueError(f"{path}: generator: {exc}") from exc
    _, is_int = value_type("data.seed")
    if not is_int(side["seed"]):
        raise ValueError(f"{path}: seed must be an int, got {side['seed']!r}")
    splits = {key: side[key] for key in ("train_indices", "test_indices")}
    for key, indices in splits.items():
        if not (isinstance(indices, list) and all(map(is_int, indices))):
            raise ValueError(f"{path}: {key} must be a list of ints in [0, {n_samples})")
    check_splits(path, n_samples, **{key: np.asarray(idx) for key, idx in splits.items()})
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
    reader = _Reader(path)
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
