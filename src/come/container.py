"""Binary containers for datasets and model checkpoints.

Both files open with the magic bytes ``COME`` and a u32 format version;
all integers and floats are little-endian, tensor payloads are f32 and are
widened to f64 on load.

Dataset container (version 1)::

    "COME" | u32 version | u32 n_samples | u32 tokens | u32 width
    then per sample: u32 source id | u32 label | tokens*width f32

A JSON sidecar (same path with a .json suffix) records the generator
parameters and the train/test indices.

Checkpoint container (version 1)::

    "COME" | u32 version | u64 structure seed | u64 semantic seed | u32 n_blobs
    then per blob: u16 name length | name utf-8 | u8 ndim | u32 dims... | f32 data
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .datagen import DatasetBundle, GeneratorConfig, generator_sidecar

MAGIC = b"COME"
DATASET_VERSION = 1
CHECKPOINT_VERSION = 1


def _sidecar_path(path) -> Path:
    p = Path(path)
    return p.with_suffix(p.suffix + ".json")


def save_dataset(path, bundle: DatasetBundle) -> Path:
    """Write the feature container plus its JSON sidecar; returns the path."""
    p = Path(path)
    n, t, d = bundle.tokens.shape
    with open(p, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIII", DATASET_VERSION, n, t, d))
        for i in range(n):
            fh.write(struct.pack("<II", int(bundle.sources[i]), int(bundle.labels[i])))
            fh.write(bundle.tokens[i].astype("<f4").tobytes())
    _sidecar_path(p).write_text(json.dumps(generator_sidecar(bundle), indent=2))
    return p


def load_dataset(path) -> DatasetBundle:
    p = Path(path)
    raw = p.read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{p}: not a feature container (bad magic)")
    version, n, t, d = struct.unpack_from("<IIII", raw, 4)
    if version != DATASET_VERSION:
        raise ValueError(f"{p}: unsupported dataset version {version}")
    offset = 20
    tokens = np.empty((n, t, d))
    sources = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        sources[i], labels[i] = struct.unpack_from("<II", raw, offset)
        offset += 8
        tokens[i] = (
            np.frombuffer(raw, dtype="<f4", count=t * d, offset=offset)
            .astype(np.float64)
            .reshape(t, d)
        )
        offset += 4 * t * d
    side = json.loads(_sidecar_path(p).read_text())
    cfg = GeneratorConfig(**side["generator"])
    return DatasetBundle(
        tokens=tokens,
        sources=sources,
        labels=labels,
        train_idx=np.asarray(side["train_indices"], dtype=np.int64),
        test_idx=np.asarray(side["test_indices"], dtype=np.int64),
        config=cfg,
        seed=int(side["seed"]),
    )


def _checkpoint_bytes(params: dict, structure_seed: int, semantic_seed: int) -> bytes:
    out = [MAGIC, struct.pack("<IQQI", CHECKPOINT_VERSION, structure_seed, semantic_seed, len(params))]
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        encoded = name.encode("utf-8")
        out.append(struct.pack("<H", len(encoded)))
        out.append(encoded)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.tobytes())
    return b"".join(out)


def save_checkpoint(path, params: dict, structure_seed: int, semantic_seed: int) -> Path:
    p = Path(path)
    p.write_bytes(_checkpoint_bytes(params, structure_seed, semantic_seed))
    return p


def load_checkpoint(path):
    """Returns (params as float64 dict, structure seed, semantic seed).

    Raises ValueError naming the path and the blob being read when the file
    is truncated or has bytes after its last blob.
    """
    p = Path(path)
    raw = memoryview(p.read_bytes())
    if raw[:4] != MAGIC:
        raise ValueError(f"{p}: not a checkpoint container (bad magic)")
    offset = 4

    def read(size, what):
        nonlocal offset
        if len(raw) - offset < size:
            raise ValueError(
                f"{p}: truncated in {what}: needs {size} bytes at offset {offset}, "
                f"file has {len(raw)}"
            )
        offset += size
        return raw[offset - size : offset]

    header = "<IQQI"
    version, st_seed, se_seed, n_blobs = struct.unpack(
        header, read(struct.calcsize(header), "the header")
    )
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{p}: unsupported checkpoint version {version}")
    params = {}
    what = "the header"
    for i in range(n_blobs):
        what = f"blob {i + 1} of {n_blobs}"
        (name_len,) = struct.unpack("<H", read(2, what))
        name = bytes(read(name_len, what)).decode("utf-8")
        what = f"blob {name!r}"
        (ndim,) = struct.unpack("<B", read(1, what))
        shape = struct.unpack(f"<{ndim}I", read(4 * ndim, what))
        count = int(np.prod(shape)) if ndim else 1
        params[name] = (
            np.frombuffer(read(4 * count, what), dtype="<f4").astype(np.float64).reshape(shape)
        )
    if offset != len(raw):
        raise ValueError(f"{p}: {len(raw) - offset} trailing bytes after {what}")
    return params, int(st_seed), int(se_seed)


def checkpoint_digest(params: dict, structure_seed: int, semantic_seed: int) -> str:
    """SHA-256 of the canonical serialized form (stable across save/load)."""
    return hashlib.sha256(_checkpoint_bytes(params, structure_seed, semantic_seed)).hexdigest()
