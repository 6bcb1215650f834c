import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from come.container import (
    MAGIC,
    checkpoint_digest,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from come.datagen import GeneratorConfig, generate


def _dataset(seed=0):
    cfg = GeneratorConfig(
        n_sources=2,
        width=6,
        tokens_per_sample=3,
        n_classes=3,
        shared_rank=2,
        source_rank=1,
        n_samples=20,
        source_weights=[1.0, 1.0],
    )
    return generate(cfg, seed=seed)


def test_dataset_roundtrip(tmp_path):
    ds = _dataset()
    path = save_dataset(tmp_path / "data.come", ds)
    assert path.read_bytes()[:4] == MAGIC
    assert (tmp_path / "data.come.json").exists()
    loaded = load_dataset(path)
    assert loaded.tokens.shape == ds.tokens.shape
    assert loaded.tokens.dtype == np.float64
    # payload is f32 on disk, so equality holds at f32 resolution
    np.testing.assert_allclose(loaded.tokens, ds.tokens, atol=1e-6)
    np.testing.assert_array_equal(loaded.sources, ds.sources)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    np.testing.assert_array_equal(loaded.train_idx, ds.train_idx)
    np.testing.assert_array_equal(loaded.test_idx, ds.test_idx)
    assert loaded.config == ds.config
    assert loaded.seed == ds.seed


def test_dataset_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.come"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_dataset(p)


def test_dataset_truncation_names_path_and_sample(tmp_path):
    raw = save_dataset(tmp_path / "data.come", _dataset()).read_bytes()
    cut = tmp_path / "cut.come"
    # 20-byte header, then 20 samples of u32 source + u32 label + 3*6 f32
    assert len(raw) == 20 + 20 * 80
    expected = {10: "the header", 20: "sample 1 of 20", 99: "sample 1 of 20",
                100: "sample 2 of 20", 110: "sample 2 of 20", len(raw) - 1: "sample 20 of 20"}
    for size in range(4, len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="truncated in") as err:
            load_dataset(cut)
        assert str(cut) in str(err.value)
        if size in expected:
            assert f"truncated in {expected[size]}:" in str(err.value)


def test_dataset_trailing_bytes_are_rejected(tmp_path):
    path = save_dataset(tmp_path / "data.come", _dataset())
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00")
    with pytest.raises(ValueError, match="3 trailing bytes after sample 20 of 20") as err:
        load_dataset(path)
    assert str(path) in str(err.value)


def test_dataset_missing_sidecar_names_the_sidecar(tmp_path):
    path = save_dataset(tmp_path / "data.come", _dataset())
    sidecar = tmp_path / "data.come.json"
    sidecar.unlink()
    with pytest.raises(ValueError, match="cannot read the dataset sidecar") as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{sidecar}: ")


SIDECAR_EDITS = {
    "unknown_generator_field": (lambda s: s["generator"].update(bogus=1),
                                "generator fields do not match: unknown ['bogus'], missing []"),
    "missing_generator_field": (lambda s: s["generator"].pop("width"),
                                "generator fields do not match: unknown [], missing ['width']"),
    "generator_not_an_object": (lambda s: s.update(generator=[1]),
                                "generator must be an object, got [1]"),
    "missing_generator": (lambda s: s.pop("generator"), "sidecar lacks ['generator']"),
    "missing_seed": (lambda s: s.pop("seed"), "sidecar lacks ['seed']"),
    "string_seed": (lambda s: s.update(seed="3"), "seed must be an int, got '3'"),
    "missing_train_indices": (lambda s: s.pop("train_indices"),
                              "sidecar lacks ['train_indices']"),
    "missing_test_indices": (lambda s: s.pop("test_indices"), "sidecar lacks ['test_indices']"),
    "index_past_the_end": (lambda s: s["train_indices"].append(20),
                           "train_indices must be a list of ints in [0, 20)"),
    "negative_index": (lambda s: s["test_indices"].append(-1),
                       "test_indices must be a list of ints in [0, 20)"),
    "float_index": (lambda s: s["test_indices"].append(1.0),
                    "test_indices must be a list of ints in [0, 20)"),
    "indices_not_a_list": (lambda s: s.update(train_indices=3),
                           "train_indices must be a list of ints in [0, 20)"),
}


@pytest.mark.parametrize("edit, message", SIDECAR_EDITS.values(), ids=SIDECAR_EDITS)
def test_dataset_malformed_sidecar_names_the_sidecar(tmp_path, edit, message):
    path = save_dataset(tmp_path / "data.come", _dataset())
    sidecar = tmp_path / "data.come.json"
    side = json.loads(sidecar.read_text())
    edit(side)
    sidecar.write_text(json.dumps(side))
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{sidecar}: ")


def test_dataset_sidecar_that_is_not_an_object_names_the_sidecar(tmp_path):
    path = save_dataset(tmp_path / "data.come", _dataset())
    sidecar = tmp_path / "data.come.json"
    sidecar.write_text("[]")
    with pytest.raises(ValueError, match=re.escape(f"{sidecar}: the dataset sidecar must be")):
        load_dataset(path)


def test_dataset_save_is_deterministic(tmp_path):
    ds = _dataset(seed=3)
    p1 = save_dataset(tmp_path / "a.come", ds)
    p2 = save_dataset(tmp_path / "b.come", ds)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    params = {
        "attn.wq": rng.normal(size=(4, 4)),
        "router.b": rng.normal(size=3),
        "head.w": rng.normal(size=(4, 3)),
    }
    path = save_checkpoint(tmp_path / "model.come", params, 111, 222)
    loaded, st, se = load_checkpoint(path)
    assert (st, se) == (111, 222)
    assert set(loaded) == set(params)
    for k in params:
        assert loaded[k].dtype == np.float64
        np.testing.assert_allclose(loaded[k], params[k], atol=1e-6)


def test_checkpoint_digest_stable_across_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=(5, 5)), "b": rng.normal(size=5)}
    d0 = checkpoint_digest(params, 7, 8)
    path = save_checkpoint(tmp_path / "m.come", params, 7, 8)
    loaded, st, se = load_checkpoint(path)
    assert checkpoint_digest(loaded, st, se) == d0
    # any parameter change shifts the digest
    loaded["b"] = loaded["b"] + 1e-3
    assert checkpoint_digest(loaded, st, se) != d0


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.come"
    p.write_bytes(b"COMX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(p)


def _three_blob_checkpoint(tmp_path):
    rng = np.random.default_rng(3)
    params = {"attn.wq": rng.normal(size=(4, 4)), "head.w": rng.normal(size=(4, 3)),
              "router.b": rng.normal(size=3)}
    return save_checkpoint(tmp_path / "model.come", params, 1, 2).read_bytes()


def test_checkpoint_truncation_names_path_and_blob(tmp_path):
    raw = _three_blob_checkpoint(tmp_path)
    cut = tmp_path / "cut.come"
    # header, then blob 'attn.wq': u16 + 7 name bytes + u8 + 2 dims + 16 floats
    first_blob_end = 28 + 2 + 7 + 1 + 8 + 64
    expected = {10: "the header", 31: "blob 1 of 3", 50: "blob 'attn.wq'",
                first_blob_end + 1: "blob 2 of 3", len(raw) - 1: "blob 'router.b'"}
    for size in range(4, len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="truncated in") as err:
            load_checkpoint(cut)
        assert str(cut) in str(err.value)
        if size in expected:
            assert f"truncated in {expected[size]}:" in str(err.value)


def test_checkpoint_trailing_bytes_are_rejected(tmp_path):
    padded = tmp_path / "padded.come"
    padded.write_bytes(_three_blob_checkpoint(tmp_path) + b"\x00\x01")
    with pytest.raises(ValueError, match="2 trailing bytes after blob 'router.b'") as err:
        load_checkpoint(padded)
    assert str(padded) in str(err.value)


def test_dataset_header_larger_than_the_file_fails_before_allocating(tmp_path):
    path = save_dataset(tmp_path / "data.come", _dataset())
    raw = bytearray(path.read_bytes())
    raw[8:12] = (0xFFFFFFFF).to_bytes(4, "little")  # n_samples
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="truncated in sample 21 of 4294967295") as err:
        load_dataset(path)
    assert str(path) in str(err.value)


def test_checkpoint_dims_are_sized_without_wrapping(tmp_path):
    path = tmp_path / "model.come"
    blob = struct.pack("<H", 1) + b"w" + struct.pack("<B3I", 3, 2**31, 2**31, 4)
    path.write_bytes(MAGIC + struct.pack("<IQQI", 1, 1, 2, 1) + blob)
    with pytest.raises(ValueError, match=r"truncated in blob 'w': needs 73786976294838206464"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def saved_containers(tmp_path_factory):
    root = tmp_path_factory.mktemp("containers")
    dataset = save_dataset(root / "data.come", _dataset())
    return {
        load_dataset: (dataset, dataset.read_bytes()),
        load_checkpoint: (root / "model.come", _three_blob_checkpoint(root)),
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("load", [load_dataset, load_checkpoint], ids=["dataset", "checkpoint"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_container_loads_or_names_its_path(saved_containers, load, data):
    path, original = saved_containers[load]
    raw = bytearray(original)
    flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
    for pos, mask in data.draw(st.lists(flips, max_size=4), label="flips"):
        raw[pos] ^= mask
    cut = data.draw(st.integers(0, len(raw)), label="length")
    path.write_bytes(bytes(raw[:cut]))
    try:
        load(path)
    except ValueError as exc:
        assert str(path) in str(exc)
