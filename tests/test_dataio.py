"""Manifests, PPM round trips, synthetic corpus, adjacency, splits."""
import colorsys
import hashlib
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from styledl import tensor as T
from styledl.dataio import (DatasetRecord, Manifest, cooccurrence_adjacency,
                            load_images, load_manifest, load_pixels, load_ppm,
                            save_manifest, save_ppm, split_dataset, synth_generate)
from styledl.errors import ConfigurationError, ContractViolation, FormatError, ValidationError
from styledl.tensor import resize_nearest


# SHA-256 of synth_generate(seed=0, n_samples=4, n_labels=8, input_size=16):
# each file's name and bytes, in name order (manifest.txt, then the images)
PINNED_CORPUS_SHA256 = "34fb7063f2dfb18aa4dbd022f4510414f90c38f99cf4954c44d39229f1762d09"


def _write(tmp_path, text, name="m.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ------------------------------------------------------------- manifests
def test_manifest_round_trip(tmp_path):
    m = Manifest(label_names=["joy", "fear"],
                 records=[DatasetRecord("a.ppm", np.array([0.25, 0.75])),
                          DatasetRecord("b.ppm", np.array([0.6, 0.4]))])
    path = tmp_path / "manifest.txt"
    save_manifest(m, path)
    back = load_manifest(path)
    assert back.label_names == ["joy", "fear"]
    assert [r.image_path for r in back.records] == ["a.ppm", "b.ppm"]
    np.testing.assert_allclose(back.distributions(), m.distributions(), rtol=1e-15)


@pytest.mark.parametrize("labels, path, bad", [
    (["joy,calm", "fear"], "a.ppm", "label name 'joy,calm'"),
    (["joy", "fear"], "a,b.ppm", "image path 'a,b.ppm'")], ids=["label-name", "image-path"])
def test_save_manifest_rejects_a_comma_before_writing(tmp_path, labels, path, bad):
    # the reader splits label names and rows at commas
    m = Manifest(label_names=labels, records=[DatasetRecord(path, np.array([0.25, 0.75]))])
    out = tmp_path / "manifest.txt"
    with pytest.raises(ContractViolation, match=bad):
        save_manifest(m, out)
    assert not out.exists()


@pytest.mark.parametrize("labels, path, bad", [
    ([" joy", "fear"], "a.ppm", "label name ' joy' has surrounding whitespace"),
    (["", "fear"], "a.ppm", "label name '' is empty"),
    (["jo\ny", "fear"], "a.ppm", r"label name 'jo\\ny' holds a line break"),
    (["joy", "fear"], " a.ppm", "image path ' a.ppm' has surrounding whitespace"),
    (["joy", "fear"], "a\nb.ppm", r"image path 'a\\nb.ppm' holds a line break")])
def test_save_manifest_rejects_what_load_manifest_would_change(tmp_path, labels, path, bad):
    # load_manifest strips each value and reads each list as one line, so
    # these came back changed or failed the reload
    m = Manifest(label_names=labels, records=[DatasetRecord(path, np.array([0.25, 0.75]))])
    out = tmp_path / "manifest.txt"
    with pytest.raises(ContractViolation, match=bad):
        save_manifest(m, out)
    assert not out.exists()


def test_manifest_renormalizes_within_window(tmp_path):
    p = _write(tmp_path, "#labels: a,b\nx.ppm,0.503,0.503\n")
    m = load_manifest(p)
    np.testing.assert_allclose(m.records[0].distribution, [0.5, 0.5])
    assert abs(m.records[0].distribution.sum() - 1.0) < 1e-15


def test_manifest_rejects_sum_outside_window(tmp_path):
    with pytest.raises(ValidationError):
        load_manifest(_write(tmp_path, "#labels: a,b\nx.ppm,0.6,0.6\n"))
    with pytest.raises(ValidationError):
        load_manifest(_write(tmp_path, "#labels: a,b\nx.ppm,0.4,0.5\n"))


def test_manifest_rejects_negative_and_malformed(tmp_path):
    with pytest.raises(ValidationError):
        load_manifest(_write(tmp_path, "#labels: a,b\nx.ppm,-0.1,1.1\n"))
    with pytest.raises(FormatError):
        load_manifest(_write(tmp_path, "#labels: a,b\nx.ppm,0.5\n"))
    with pytest.raises(FormatError):
        load_manifest(_write(tmp_path, "#labels: a,b\nx.ppm,0.5,zebra\n"))
    with pytest.raises(FormatError):
        load_manifest(_write(tmp_path, "no header\nx.ppm,1.0\n"))


def test_manifest_not_utf8_names_the_path(tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes("#labels: a,b\ncaf\u00e9.ppm,0.5,0.5\n".encode("latin-1"))
    with pytest.raises(FormatError, match="latin1.txt: not utf-8"):
        load_manifest(p)


def test_manifest_skips_blank_lines(tmp_path):
    p = _write(tmp_path, "\n#labels: a,b\n\nx.ppm,0.5,0.5\n\n")
    assert len(load_manifest(p)) == 1


@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_manifest_distribution_rows_sum_to_one(c, seed):
    rng = np.random.default_rng(seed)
    m = Manifest(label_names=[f"l{i}" for i in range(c)],
                 records=[DatasetRecord("x.ppm", rng.dirichlet(np.ones(c)))])
    np.testing.assert_allclose(m.distributions().sum(axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------------------ PPM
def _payload(p, h, w):
    """The [3,h,w] image in the last 3*h*w bytes of a P6 file, in [0,1]."""
    hwc = np.frombuffer(p.read_bytes()[-3 * h * w:], np.uint8).reshape(h, w, 3)
    return hwc.transpose(2, 0, 1) / 255.0


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = np.round(rng.random((3, 5, 7)) * 255) / 255.0
    p = tmp_path / "img.ppm"
    save_ppm(p, img)
    assert p.read_bytes().startswith(b"P6\n7 5\n255\n")
    np.testing.assert_allclose(_payload(p, 5, 7), img, atol=1e-12)


@pytest.mark.parametrize("h, w", [(6, 6), (4, 7)])
def test_ppm_load_at_size_matches_resize(tmp_path, h, w):
    # an image already at the requested size skips the resample, bit-identically
    img = np.random.default_rng(h * w).random((3, h, w))
    p = tmp_path / "img.ppm"
    save_ppm(p, img)
    raw = _payload(p, h, w)
    for size in (6, 3, 9):
        np.testing.assert_array_equal(load_ppm(p, size=size), resize_nearest(raw, size, size))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_ppm_rejects_non_finite(tmp_path, bad):
    img = np.full((3, 2, 2), 0.5)
    img[1, 0, 1] = bad
    p = tmp_path / "nan.ppm"
    with pytest.raises(ContractViolation, match="nan.ppm"):
        save_ppm(p, img)
    assert not p.exists()


def test_bad_ppm_magic_error_quotes_a_few_bytes(tmp_path):
    # the first token of a 1 MB file with no whitespace is the whole file
    p = tmp_path / "blob.ppm"
    p.write_bytes(b"\x89PNG" * (1 << 18))
    with pytest.raises(FormatError) as err:
        load_ppm(p, size=8)
    message = str(err.value)
    shown = repr(b"\x89PNG\x89PNG")
    assert message == f"{p}: not a binary PPM (magic {shown}...)"
    assert "\n" not in message and len(message) < len(str(p)) + 60


def test_bad_ppm_magic_is_rejected_without_scanning_the_token(tmp_path):
    # a 4 MB first token gets the same message as a short one; scanning it
    # byte by byte took 0.35-0.56 s (2-core VM), matching its first 9
    # bytes takes under 3 ms
    p = tmp_path / "blob.ppm"
    p.write_bytes(b"\x89PNG" * (1 << 20))
    load = time.perf_counter()
    with pytest.raises(FormatError) as err:
        load_ppm(p, size=8)
    assert time.perf_counter() - load < 0.1
    shown = repr(b"\x89PNG\x89PNG")
    assert str(err.value) == f"{p}: not a binary PPM (magic {shown}...)"


def test_save_ppm_leaves_its_input_unchanged(tmp_path):
    img = np.random.default_rng(3).random((3, 4, 5)) * 1.5 - 0.25
    kept = img.copy()
    hwc = np.ascontiguousarray(img.transpose(1, 2, 0))
    save_ppm(tmp_path / "a.ppm", img)
    save_ppm(tmp_path / "b.ppm", hwc.transpose(2, 0, 1))
    np.testing.assert_array_equal(img, kept)
    np.testing.assert_array_equal(hwc.transpose(2, 0, 1), kept)
    assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


def test_ppm_comment_tolerant_header(tmp_path):
    p = tmp_path / "c.ppm"
    payload = bytes(range(12))
    p.write_bytes(b"P6 # style\n# full line comment\n2 2\n255\n" + payload)
    img = load_ppm(p, size=2)
    assert img.shape == (3, 2, 2)
    assert img[0, 0, 0] == 0.0 and abs(img[2, 1, 1] - 11 / 255) < 1e-12


def test_ppm_header_with_comment_lines_between_every_field(tmp_path):
    p = tmp_path / "c.ppm"
    payload = bytes(range(12))
    gap = b"\n# one\r\n#two # 3 4\n\t#\n \x0b\x0c"
    p.write_bytes(gap + b"P6" + gap + b"2" + gap + b"2" + gap + b"255\r" + payload)
    np.testing.assert_array_equal(load_ppm(p, size=2),
                                  np.frombuffer(payload, np.uint8).reshape(2, 2, 3)
                                  .transpose(2, 0, 1) / 255.0)


@pytest.mark.parametrize("header", [
    b"P6\n2#c\n2\n255\n",    # a comment glued to a number is part of its token
    b"P6#x\n2 2\n255\n",      # and so is one glued to the magic
    b"P6\n+2 2\n255\n",       # a sign, which int() took
    b"P6\n2 2\n2_55\n",       # a digit separator, which int() took
    b"P6\n2 -2\n255\n",
    b"P6\n" + b"1" * 5000 + b" 2\n255\n",   # more digits than int() reads
    b"P6\n2 2\n255",           # no whitespace byte before the payload
    b"# only a comment",
    b"",
], ids=["number#comment", "magic#comment", "sign", "underscore", "negative", "5000-digits",
        "no-whitespace-byte", "comment-only", "empty"])
def test_ppm_rejects_bad_headers(tmp_path, header):
    p = tmp_path / "bad.ppm"
    p.write_bytes(header + bytes(12) if header else header)
    with pytest.raises(FormatError, match="bad.ppm"):
        load_ppm(p, size=2)


def test_ppm_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(FormatError):
        load_ppm(p, size=2)
    p.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(FormatError):
        load_ppm(p, size=2)
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(FormatError):
        load_ppm(p, size=2)


def test_resize_and_flip():
    img = np.arange(12, dtype=np.float64).reshape(3, 2, 2)
    up = resize_nearest(img, 4, 4)
    assert up.shape == (3, 4, 4)
    np.testing.assert_array_equal(up[:, ::2, ::2], img)


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
@pytest.mark.parametrize("src, dst", [((8, 8), (16, 16)),   # whole-factor upsample
                                      ((8, 8), (4, 4)),     # whole-factor downsample
                                      ((6, 9), (4, 14)),    # no whole factor
                                      ((5, 7), (5, 7))])    # identity
def test_resize_is_c_ordered_and_equals_fancy_indexing(dtype, src, dst):
    """Two `np.take` gathers give the fancy-index result, as a C-ordered
    array: `img[..., rows[:, None], cols[None, :]]` put the gathered axes
    first in memory, so [8,16,8,8] -> 16x16 had strides (128, 8, 16384, 1024)."""
    img = (np.random.default_rng(sum(src)).random((8, 16) + src) * 255).astype(dtype)
    rows = T.nearest_index(src[0], dst[0])
    cols = T.nearest_index(src[1], dst[1])
    got = resize_nearest(img, *dst)
    assert got.flags.c_contiguous and got.dtype == dtype
    np.testing.assert_array_equal(got, img[..., rows[:, None], cols[None, :]])


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12),
       out_h=st.integers(1, 12), out_w=st.integers(1, 12))
@example(h=2, w=2, out_h=4, out_w=4)
@example(h=8, w=8, out_h=3, out_w=3)
@example(h=4, w=7, out_h=9, out_w=2)
def test_resize_matches_tensor_resample(h, w, out_h, out_w):
    # image loading and the model's resample share one nearest-index rule
    img = np.random.default_rng(h * 100 + w).random((3, h, w))
    np.testing.assert_array_equal(resize_nearest(img, out_h, out_w),
                                  T.resample_nearest(T.Tensor(img), out_h, out_w).data)


# ------------------------------------------------------------ synthetic
def test_synth_generate_deterministic(tmp_path):
    m1 = synth_generate(seed=4, n_samples=3, n_labels=4, input_size=16,
                        out_dir=tmp_path / "a")
    m2 = synth_generate(seed=4, n_samples=3, n_labels=4, input_size=16,
                        out_dir=tmp_path / "b")
    np.testing.assert_array_equal(m1.distributions(), m2.distributions())
    for rec in m1.records:
        assert (tmp_path / "a" / rec.image_path).read_bytes() == \
               (tmp_path / "b" / rec.image_path).read_bytes()


def _synth_reference(seed, n_samples, n_labels, size):
    """The generator's first form, one sin pass per label and image, with
    the first `save_ppm`'s byte conversion: {file name: bytes} and the
    distributions."""
    rng = np.random.default_rng(seed)
    palette = np.array([colorsys.hsv_to_rgb(i / n_labels, 0.9, 1.0) for i in range(n_labels)])
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    files, dists = {}, []
    for idx in range(n_samples):
        dist = rng.dirichlet(np.full(n_labels, 0.5))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n_labels)
        img = np.zeros((3, size, size))
        for c in range(n_labels):
            angle = math.pi * c / n_labels
            coord = xx * math.cos(angle) + yy * math.sin(angle)
            stripes = 0.55 + 0.45 * np.sin(2.0 * math.pi * (c + 1) * coord + phases[c])
            img += dist[c] * palette[c][:, None, None] * stripes
        img = np.clip(img, 0.0, 1.0)
        payload = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)
        files[f"sample_{idx:04d}.ppm"] = f"P6\n{size} {size}\n255\n".encode("ascii") + \
            payload.tobytes()
        dists.append(dist)
    return files, np.stack(dists)


@pytest.mark.parametrize("seed, n_samples, n_labels, size",
                         [(0, 4, 8, 16), (3, 9, 2, 1), (7, 17, 5, 33), (2331, 8, 12, 7),
                          (4, 3, 3, 64)])
def test_synth_generate_matches_per_label_loop(tmp_path, seed, n_samples, n_labels, size):
    # the basis-and-GEMM generator writes the per-label loop's bytes, across
    # chunk boundaries (9, 17 images), odd sides and label counts
    m = synth_generate(seed, n_samples, n_labels, size, tmp_path)
    files, dists = _synth_reference(seed, n_samples, n_labels, size)
    np.testing.assert_array_equal(m.distributions(), dists)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*files, "manifest.txt"])
    for name, data in files.items():
        assert (tmp_path / name).read_bytes() == data, name


def test_synth_corpus_bytes_are_pinned(tmp_path):
    # every recorded loss, digest and checkpoint SHA-256 assumes this corpus
    synth_generate(seed=0, n_samples=4, n_labels=8, input_size=16, out_dir=tmp_path)
    h = hashlib.sha256()
    for p in sorted(tmp_path.iterdir()):
        h.update(p.name.encode("utf-8"))
        h.update(p.read_bytes())
    assert h.hexdigest() == PINNED_CORPUS_SHA256


def test_synth_generate_temporaries_do_not_grow_with_n_samples(tmp_path):
    # images are made a chunk at a time: 64 more images add only their
    # records, well under half of one chunk's [24, side*side] product
    synth_generate(0, 2, 8, 8, tmp_path / "warm")
    peaks = []
    for n in (16, 80):
        tracemalloc.start()
        try:
            synth_generate(0, n, 8, 32, tmp_path / str(n))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 32 * 32 * 24 * 8 // 2


def test_synth_generate_loadable(tmp_path):
    m = synth_generate(seed=1, n_samples=4, n_labels=8, input_size=16, out_dir=tmp_path)
    assert m.label_names[0] == "amusement"
    back = load_manifest(tmp_path / "manifest.txt")
    assert len(back) == 4
    imgs = load_images(back, tmp_path, size=16)
    assert imgs.shape == (4, 3, 16, 16)
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0


@pytest.mark.parametrize("size", [16, 8, 24, 32])
def test_load_images_matches_load_ppm(tmp_path, size):
    # decoding into the batch array, resampled in bytes, gives load_ppm's bits;
    # 16 is the stored size, 8 a downsample, 24 an uneven and 32 a 2x upsample,
    # and the 12x20 record has its rows and columns resampled apart
    m = synth_generate(seed=2, n_samples=3, n_labels=4, input_size=16, out_dir=tmp_path)
    save_ppm(tmp_path / "wide.ppm", np.random.default_rng(6).random((3, 12, 20)))
    m.records.append(DatasetRecord("wide.ppm", m.records[0].distribution))
    imgs = load_images(m, tmp_path, size=size)
    pixels = load_pixels(m, tmp_path, size=size)
    assert imgs.flags.c_contiguous and pixels.flags.c_contiguous
    assert pixels.dtype == np.uint8 and pixels.shape == (4, 3, size, size)
    np.testing.assert_array_equal(pixels / 255.0, imgs)
    for img, r in zip(imgs, m.records):
        one = load_ppm(tmp_path / r.image_path, size=size)
        assert one.flags.c_contiguous
        np.testing.assert_array_equal(img, one)


@pytest.mark.parametrize("size", [0, -3])
@pytest.mark.parametrize("n_samples", [0, 2])
def test_load_rejects_size_below_one(tmp_path, size, n_samples):
    m = synth_generate(seed=0, n_samples=max(n_samples, 1), n_labels=4, input_size=8,
                       out_dir=tmp_path)
    m = Manifest(m.label_names, m.records[:n_samples])
    for load in (load_pixels, load_images):
        with pytest.raises(ContractViolation, match=f"{size}x{size}"):
            load(m, tmp_path, size)
    with pytest.raises(ContractViolation, match=f"{size}x{size}"):
        load_ppm(tmp_path / "sample_0000.ppm", size=size)


def test_synth_generate_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        synth_generate(seed=0, n_samples=0, n_labels=4, input_size=16, out_dir=tmp_path)
    with pytest.raises(ConfigurationError):
        synth_generate(seed=0, n_samples=2, n_labels=1, input_size=16, out_dir=tmp_path)
    for size in (0, -5):
        with pytest.raises(ConfigurationError, match="input_size"):
            synth_generate(seed=0, n_samples=2, n_labels=4, input_size=size,
                           out_dir=tmp_path / "never")
    assert not (tmp_path / "never").exists()


# ------------------------------------------------------------ adjacency
def test_adjacency_two_label_hand_case():
    # one record with both labels present, one with only the first:
    # P(b|a)=0.5 -> below 0.3? no: 0.5 >= 0.3 -> 1; P(a|b)=1
    m = Manifest(label_names=["a", "b"],
                 records=[DatasetRecord("1", np.array([0.5, 0.5])),
                          DatasetRecord("2", np.array([0.95, 0.05]))])
    adj = cooccurrence_adjacency(m)
    np.testing.assert_allclose(adj, [[0.5, 0.5], [0.5, 0.5]])


def test_adjacency_sparse_labels_keep_diagonal():
    m = Manifest(label_names=["a", "b"],
                 records=[DatasetRecord("1", np.array([1.0, 0.0])),
                          DatasetRecord("2", np.array([0.0, 1.0]))])
    adj = cooccurrence_adjacency(m)
    np.testing.assert_allclose(adj, np.eye(2))


def test_adjacency_rows_stochastic_and_empty_warns():
    rng = np.random.default_rng(8)
    m = Manifest(label_names=[f"l{i}" for i in range(5)],
                 records=[DatasetRecord(str(i), rng.dirichlet(np.ones(5)))
                          for i in range(20)])
    adj = cooccurrence_adjacency(m)
    np.testing.assert_allclose(adj.sum(axis=1), 1.0, atol=1e-12)
    assert (adj >= 0).all()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        empty = cooccurrence_adjacency(Manifest(["a", "b"], []))
    assert any("empty" in str(w.message) for w in caught)
    np.testing.assert_array_equal(empty, np.eye(2))


# --------------------------------------------------------------- splits
def test_split_deterministic_and_partition():
    m = Manifest(label_names=["a", "b"],
                 records=[DatasetRecord(f"{i}.ppm", np.array([0.5, 0.5]))
                          for i in range(10)])
    tr1, te1 = split_dataset(m, ratio=0.7, seed=3)
    tr2, te2 = split_dataset(m, ratio=0.7, seed=3)
    assert [r.image_path for r in tr1.records] == [r.image_path for r in tr2.records]
    assert len(tr1) == 7 and len(te1) == 3
    joined = {r.image_path for r in tr1.records} | {r.image_path for r in te1.records}
    assert len(joined) == 10
    with pytest.raises(ConfigurationError):
        split_dataset(m, ratio=1.5, seed=0)
