import hashlib
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
from come.datagen import GeneratorConfig, generate, leave_source_out


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
    np.testing.assert_array_equal(loaded.tokens, ds.tokens)
    np.testing.assert_array_equal(loaded.sources, ds.sources)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.sources.dtype == loaded.labels.dtype == np.int64
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
    # 12-byte header, then blobs 'labels' (20,), 'sources' (20,) and 'tokens' (20, 3, 6)
    labels_end = 12 + (2 + 6 + 1 + 4 + 20 * 8)
    sources_end = labels_end + (2 + 7 + 1 + 4 + 20 * 8)
    assert len(raw) == sources_end + (2 + 6 + 1 + 12 + 20 * 3 * 6 * 8)
    expected = {10: "the header", 13: "blob 1 of 3", 20: "blob 'labels'",
                labels_end + 1: "blob 2 of 3", sources_end - 1: "blob 'sources'",
                sources_end + 8: "blob 'tokens'", len(raw) - 1: "blob 'tokens'"}
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
    with pytest.raises(ValueError, match="3 trailing bytes after blob 'tokens'") as err:
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
    "repeated_train_index": (lambda s: s["train_indices"].append(s["train_indices"][0]),
                             "train_indices repeats a sample index"),
    "repeated_test_index": (lambda s: s["test_indices"].append(s["test_indices"][-1]),
                            "test_indices repeats a sample index"),
    "test_indices_in_train": (lambda s: s["train_indices"].extend(s["test_indices"][:3]),
                              "3 sample indices are in both train_indices and test_indices"),
    "float_n_sources": (lambda s: s["generator"].update(n_sources=2.0),
                        "generator.n_sources must be an int, got 2.0"),
    "bool_width": (lambda s: s["generator"].update(width=True),
                   "generator.width must be an int, got True"),
    "string_mean_scale": (lambda s: s["generator"].update(mean_scale="2"),
                          "generator.mean_scale must be a number, got '2'"),
    "string_source_weight": (lambda s: s["generator"].update(source_weights=[1.0, "1"]),
                             "generator.source_weights must be a list of numbers, got [1.0, '1']"),
    "numeric_basis_mode": (lambda s: s["generator"].update(source_basis_mode=1),
                           "generator.source_basis_mode must be a string, got 1"),
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


@pytest.mark.parametrize("field, value, error", [
    ("sources", -1, "sample 7 of 20 has source -1, not an integer in [0, n_sources = 2)"),
    ("labels", 3, "sample 7 of 20 has label 3, not an integer in [0, n_classes = 3)"),
    ("labels", -1, "sample 7 of 20 has label -1, not an integer in [0, n_classes = 3)"),
    ("labels", 1.5, "labels have dtype float64, expected integers"),
], ids=["sources--1", "labels-3", "labels--1", "labels-1.5"])
def test_dataset_save_rejects_an_id_outside_the_generator_range(tmp_path, field, value, error):
    ds = _dataset()
    ids = getattr(ds, field).astype(type(value))
    ids[6] = value
    setattr(ds, field, ids)
    path = tmp_path / "data.come"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
        save_dataset(path, ds)
    assert list(tmp_path.iterdir()) == []


def test_dataset_load_rejects_an_id_blob_entry_that_is_not_an_integer(tmp_path):
    ds = _dataset()
    path = save_dataset(tmp_path / "data.come", ds)
    labels = ds.labels.astype(float)
    labels[6] = 1.5
    save_checkpoint(path, {"tokens": ds.tokens, "sources": ds.sources, "labels": labels})
    message = f"{path}: blob 'labels' has 1.5 at sample 7 of 20, not a 64-bit integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_dataset(path)


@pytest.mark.parametrize("value", [2, 2**32 - 1])
def test_dataset_save_rejects_a_source_id_not_below_n_sources(tmp_path, value):
    # The sidecar counts samples per source id, so a u32-sized id would
    # otherwise ask for a count array of that length.
    ds = _dataset()
    ds.sources = ds.sources.copy()
    ds.sources[6] = value
    path = tmp_path / "data.come"
    message = f"{path}: sample 7 of 20 has source {value}, not an integer in [0, n_sources = 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_dataset(path, ds)
    assert list(tmp_path.iterdir()) == []


SIDECAR_CONTRADICTIONS = {
    "width": (lambda g: g.update(width=7),
              "tokens have shape (20, 3, 6), but the generator's (tokens_per_sample, width) "
              "is (3, 7)"),
    "tokens_per_sample": (lambda g: g.update(tokens_per_sample=5),
                          "tokens have shape (20, 3, 6), but the generator's "
                          "(tokens_per_sample, width) is (5, 6)"),
    "one_class": (lambda g: g.update(n_classes=1),
                  "generator: need at least one source and two classes"),
    "no_sources": (lambda g: g.update(n_sources=0, source_weights=[]),
                   "generator: need at least one source and two classes"),
    "basis_mode": (lambda g: g.update(source_basis_mode="bogus"),
                   "generator: source_basis_mode must be shared|private"),
    "weights_for_other_sources": (lambda g: g.update(n_sources=3),
                                  "generator: 2 weights for 3 sources"),
    "label_past_n_classes": (lambda g: g.update(n_classes=2),
                             "has label 2, not an integer in [0, n_classes = 2)"),
    "source_past_n_sources": (lambda g: g.update(n_sources=1, source_weights=[1.0]),
                              "has source 1, not an integer in [0, n_sources = 1)"),
}


@pytest.mark.parametrize("edit, message", SIDECAR_CONTRADICTIONS.values(),
                         ids=SIDECAR_CONTRADICTIONS)
def test_dataset_sidecar_that_contradicts_its_container_is_rejected(tmp_path, edit, message):
    path = save_dataset(tmp_path / "data.come", _dataset())
    sidecar = tmp_path / "data.come.json"
    side = json.loads(sidecar.read_text())
    edit(side["generator"])
    sidecar.write_text(json.dumps(side))
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        load_dataset(path)
    assert str(err.value).startswith(str(path))


def test_both_leave_source_out_parts_round_trip(tmp_path):
    ds = _dataset()
    for i, part in enumerate(leave_source_out(ds, holdout=1)):
        loaded = load_dataset(save_dataset(tmp_path / f"part{i}.come", part))
        for field in ("tokens", "sources", "labels", "train_idx", "test_idx"):
            np.testing.assert_array_equal(getattr(loaded, field), getattr(part, field))
            assert getattr(loaded, field).dtype == getattr(part, field).dtype, field
        assert (loaded.config, loaded.seed) == (ds.config, ds.seed)
    assert loaded.train_idx.size == 0  # the held-out part only evaluates


def test_a_dataset_in_the_old_per_sample_layout_names_its_path(tmp_path):
    ds = _dataset()
    path = save_dataset(tmp_path / "data.come", ds)
    # "COME" | u32 version 2 | u32 n | u32 tokens | u32 width, then per sample
    # u32 source | u32 label | tokens*width f64
    records = np.empty(20, dtype=[("source", "<u4"), ("label", "<u4"), ("tokens", "<f8", (3, 6))])
    records["source"], records["label"], records["tokens"] = ds.sources, ds.labels, ds.tokens
    path.write_bytes(MAGIC + struct.pack("<IIII", 2, 20, 3, 6) + records.tobytes())
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}: ")


# SHA-256 of each saved container file, recorded when datasets moved to the
# checkpoint's named-array layout.
DATASET_FILE_DIGESTS = {
    "small": "9ca7f9c23403aebe23aacc00124bbcd28d52bf0eb68672f6a15a3d8d03538444",
    "default": "1f10faa976285a9949145623da9a06995d955ee17ef02499e8c178712751fb95",
}


@pytest.mark.parametrize("name", list(DATASET_FILE_DIGESTS))
def test_dataset_file_bytes_are_pinned(tmp_path, name):
    ds = _dataset() if name == "small" else generate(GeneratorConfig(), seed=0)
    path = save_dataset(tmp_path / "data.come", ds)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_FILE_DIGESTS[name]
    loaded = load_dataset(path)
    for field in ("tokens", "sources", "labels"):
        np.testing.assert_array_equal(getattr(loaded, field), getattr(ds, field))
        assert getattr(loaded, field).dtype == getattr(ds, field).dtype


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    params = {
        "attn.wq": rng.normal(size=(4, 4)),
        "router.b": rng.normal(size=3),
        "head.w": rng.normal(size=(4, 3)),
    }
    path = save_checkpoint(tmp_path / "model.come", params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        assert loaded[k].dtype == np.float64
        np.testing.assert_array_equal(loaded[k], params[k])


def test_checkpoint_digest_stable_across_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=(5, 5)), "b": rng.normal(size=5)}
    d0 = checkpoint_digest(params)
    path = save_checkpoint(tmp_path / "m.come", params)
    loaded = load_checkpoint(path)
    assert checkpoint_digest(loaded) == d0
    # any parameter change shifts the digest, down to the last bit
    loaded["b"][0] = np.nextafter(loaded["b"][0], np.inf)
    assert checkpoint_digest(loaded) != d0


def test_checkpoint_rejects_a_non_finite_blob(tmp_path):
    params = {"attn.wq": np.ones((2, 2)), "router.b": np.array([0.0, np.nan, -np.inf])}
    path = save_checkpoint(tmp_path / "model.come", params)
    with pytest.raises(ValueError, match="blob 'router.b' holds 2 non-finite entries") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.come"
    p.write_bytes(b"COMX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(p)


def _three_blob_checkpoint(tmp_path):
    rng = np.random.default_rng(3)
    params = {"attn.wq": rng.normal(size=(4, 4)), "head.w": rng.normal(size=(4, 3)),
              "router.b": rng.normal(size=3)}
    return save_checkpoint(tmp_path / "model.come", params).read_bytes()


def test_checkpoint_truncation_names_path_and_blob(tmp_path):
    raw = _three_blob_checkpoint(tmp_path)
    cut = tmp_path / "cut.come"
    # 12-byte header, then blob 'attn.wq': u16 + 7 name bytes + u8 + 2 dims + 16 f64
    first_blob_end = 12 + 2 + 7 + 1 + 8 + 128
    expected = {10: "the header", 15: "blob 1 of 3", 50: "blob 'attn.wq'",
                first_blob_end + 1: "blob 2 of 3", len(raw) - 1: "blob 'router.b'"}
    for size in range(4, len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="truncated in") as err:
            load_checkpoint(cut)
        assert str(cut) in str(err.value)
        if size in expected:
            assert f"truncated in {expected[size]}:" in str(err.value)


def test_checkpoint_with_a_repeated_blob_name_is_rejected(tmp_path):
    first = save_checkpoint(tmp_path / "a.come", {"w": np.ones(2)}).read_bytes()
    second = save_checkpoint(tmp_path / "b.come", {"w": np.zeros(3)}).read_bytes()
    # the magic and version, a blob count of two, then both files' single 'w' blob
    path = tmp_path / "twice.come"
    path.write_bytes(first[:8] + struct.pack("<I", 2) + first[12:] + second[12:])
    with pytest.raises(ValueError, match="blob 'w' appears more than once") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_trailing_bytes_are_rejected(tmp_path):
    padded = tmp_path / "padded.come"
    padded.write_bytes(_three_blob_checkpoint(tmp_path) + b"\x00\x01")
    with pytest.raises(ValueError, match="2 trailing bytes after blob 'router.b'") as err:
        load_checkpoint(padded)
    assert str(padded) in str(err.value)


def test_dataset_header_larger_than_the_file_fails_before_allocating(tmp_path):
    path = save_dataset(tmp_path / "data.come", _dataset())
    raw = bytearray(path.read_bytes())
    n_at = raw.index(b"tokens") + 6 + 1  # after the name and ndim of blob 'tokens'
    raw[n_at : n_at + 4] = (0xFFFFFFFF).to_bytes(4, "little")  # its sample count
    path.write_bytes(bytes(raw))
    message = f"truncated in blob 'tokens': needs {8 * (2**32 - 1) * 3 * 6} bytes"
    with pytest.raises(ValueError, match=message) as err:
        load_dataset(path)
    assert str(path) in str(err.value)


def _blob_header(name: str, *dims) -> bytes:
    return (struct.pack("<H", len(name)) + name.encode()
            + struct.pack(f"<B{len(dims)}I", len(dims), *dims))


def test_dataset_with_no_samples_and_huge_dims_names_the_path(tmp_path):
    path = tmp_path / "data.come"
    path.write_bytes(MAGIC + struct.pack("<II", 2, 3) + _blob_header("labels", 0)
                     + _blob_header("sources", 0) + _blob_header("tokens", 0, 2**32 - 1, 2**32 - 1))
    message = r"cannot shape blob 'tokens' as \(0, 4294967295, 4294967295\)"
    with pytest.raises(ValueError, match=message) as err:
        load_dataset(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("first", [0, 7], ids=["no-entries", "more-than-the-file"])
def test_blob_of_242_dims_fails_with_a_short_message_naming_the_path(tmp_path, first):
    # the dims an older dataset layout decodes to
    path = tmp_path / "data.come"
    dims = (first, *[2**32 - 1] * 241)
    path.write_bytes(MAGIC + struct.pack("<II", 2, 1) + _blob_header("", *dims))
    with pytest.raises(ValueError, match=re.escape(f"242 dims ({first}, 4294967295, ")) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
    assert len(str(err.value)) < 300


@pytest.mark.parametrize("arrays", [
    {"tokens": np.zeros((2, 3, 6)), "sources": np.zeros(2)},
    {"tokens": np.zeros((2, 3, 6)), "sources": np.zeros(2), "labels": np.zeros(2),
     "extra": np.zeros(1)},
    {"tokens": np.zeros((2, 18)), "sources": np.zeros(2), "labels": np.zeros(2)},
    {"tokens": np.zeros((2, 3, 6)), "sources": np.zeros(3), "labels": np.zeros(2)},
    {"tokens": np.zeros((2, 3, 6)), "sources": np.zeros(2), "labels": np.zeros((2, 1))},
], ids=["no-labels", "extra-blob", "2-D-tokens", "more-sources", "2-D-labels"])
def test_dataset_must_hold_exactly_its_three_arrays(tmp_path, arrays):
    path = save_checkpoint(tmp_path / "data.come", arrays)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: a dataset holds (N, T, D) tokens and (N,) sources and labels, not ")):
        load_dataset(path)


def test_checkpoint_dims_are_sized_without_wrapping(tmp_path):
    path = tmp_path / "model.come"
    blob = struct.pack("<H", 1) + b"w" + struct.pack("<B3I", 3, 2**31, 2**31, 4)
    path.write_bytes(MAGIC + struct.pack("<II", 2, 1) + blob)
    with pytest.raises(ValueError, match=r"truncated in blob 'w': needs 147573952589676412928"):
        load_checkpoint(path)


def test_dataset_rejects_a_version_1_header(tmp_path):
    path = save_dataset(tmp_path / "data.come", _dataset())
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported checkpoint version 1") as err:
        load_dataset(path)
    assert str(path) in str(err.value)


def test_checkpoint_rejects_a_version_1_header(tmp_path):
    # a version-1 checkpoint stored two u64 seeds before its blob count
    path = tmp_path / "model.come"
    path.write_bytes(MAGIC + struct.pack("<IQQI", 1, 7, 8, 0))
    with pytest.raises(ValueError, match="unsupported checkpoint version 1") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.fixture(scope="module")
def saved_containers(tmp_path_factory):
    root = tmp_path_factory.mktemp("containers")
    dataset = save_dataset(root / "data.come", _dataset())
    return {
        load_dataset: (dataset, dataset.read_bytes()),
        load_checkpoint: (root / "model.come", _three_blob_checkpoint(root)),
    }


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
