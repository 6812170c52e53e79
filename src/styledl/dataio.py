"""Dataset manifests, PPM image IO, synthetic corpus generation, label
co-occurrence adjacency, and deterministic splits.

The manifest is a UTF-8 text file: first line `#labels: a,b,c`, then one
`path,p1,...,pC` row per image. Images are binary PPM (P6, maxval 255),
chosen because they round-trip bit-exactly with no decoder dependency.
"""
from __future__ import annotations

import colorsys
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ContractViolation, FormatError, ValidationError
from .tensor import resize_nearest

EMOTION_NAMES_8 = ("amusement", "anger", "awe", "contentment",
                   "disgust", "excitement", "fear", "sadness")
SUM_TOLERANCE = (0.99, 1.01)
# `cooccurrence_adjacency`'s presence and edge cuts, as in ML-GCN (Chen et al., CVPR 2019)
PRESENCE_T = 0.1
EDGE_T = 0.3


@dataclass
class DatasetRecord:
    image_path: str
    distribution: np.ndarray


@dataclass
class Manifest:
    label_names: list[str]
    records: list[DatasetRecord]

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    def __len__(self) -> int:
        return len(self.records)

    def check_labels(self, names: list[str], source: str) -> None:
        """Raise ConfigurationError unless `names` (from `source`) are this
        manifest's labels in the same order: a distribution is scored
        column by column, so a reordered header would be scored silently
        against the wrong labels. A manifest without rows scores nothing,
        so it is held only to the label count, and `evaluate_metrics`
        reports that it has no samples."""
        same = names == self.label_names if self.records else len(names) == self.n_labels
        if not same:
            raise ConfigurationError(
                f"manifest labels {self.label_names} differ from the {source}'s {names}")

    def distributions(self) -> np.ndarray:
        if not self.records:
            return np.zeros((0, self.n_labels))
        return np.stack([r.distribution for r in self.records])


def _parse_distribution(parts: list[str], n_labels: int, lineno: int) -> np.ndarray:
    if len(parts) != n_labels:
        raise FormatError(f"line {lineno}: expected {n_labels} probabilities, got {len(parts)}")
    try:
        values = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None
    if np.any(values < 0):
        raise ValidationError(f"line {lineno}: negative probability")
    total = values.sum()
    if not SUM_TOLERANCE[0] <= total <= SUM_TOLERANCE[1]:
        raise ValidationError(f"line {lineno}: distribution sums to {total:.6f}, "
                              f"outside [{SUM_TOLERANCE[0]}, {SUM_TOLERANCE[1]}]")
    return values / total


def read_utf8(path: str | Path) -> str:
    """The text of a file; bytes that are not UTF-8 raise FormatError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not utf-8 ({exc.reason} at byte {exc.start})") from None


def load_manifest(path: str | Path) -> Manifest:
    lines = read_utf8(path).splitlines()
    header_idx = None
    for i, line in enumerate(lines):
        if line.strip():
            header_idx = i
            break
    if header_idx is None or not lines[header_idx].startswith("#labels:"):
        raise FormatError(f"{path}: first line must be '#labels: a,b,c'")
    label_names = [s.strip() for s in lines[header_idx][len("#labels:"):].split(",") if s.strip()]
    if not label_names:
        raise FormatError(f"{path}: empty label list")
    records = []
    for lineno, line in enumerate(lines[header_idx + 1:], start=header_idx + 2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise FormatError(f"line {lineno}: expected 'path,p1,...,pC'")
        dist = _parse_distribution(parts[1:], len(label_names), lineno)
        records.append(DatasetRecord(image_path=parts[0], distribution=dist))
    return Manifest(label_names=label_names, records=records)


def reject_unjoinable(values: list[str], what: str) -> None:
    """Raise ContractViolation naming a value that would not come back from
    a comma-joined list of them: an empty value, one holding a comma (the
    separator) or a line break, or one with surrounding whitespace
    (`load_manifest` reads each list as one line and strips each value)."""
    for value in values:
        if not value:
            problem = "is empty"
        elif "," in value:
            problem = "holds a comma, the list separator"
        elif value.splitlines() != [value]:
            problem = "holds a line break"
        elif value != value.strip():
            problem = "has surrounding whitespace"
        else:
            continue
        raise ContractViolation(f"{what} {value!r} {problem}")


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    reject_unjoinable(manifest.label_names, "label name")
    reject_unjoinable([r.image_path for r in manifest.records], "image path")
    path = Path(path)
    lines = ["#labels: " + ",".join(manifest.label_names)]
    for rec in manifest.records:
        probs = ",".join(f"{p:.17g}" for p in rec.distribution)
        lines.append(f"{rec.image_path},{probs}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ----------------------------------------------------------------- PPM IO
# bytes of a bad PPM magic that its error quotes
_MAGIC_SHOWN = 8
# whitespace and '#' comments, each comment to its line's end so that a gap
# parses one way and a failed match backtracks in linear time
_GAP = rb"\s*(?:#[^\r\n]*(?![^\r\n])\s*)*"
# the first token (to one byte past what its error quotes), then three
# decimal fields after whitespace, and one whitespace byte before the payload
_PPM_HEADER = re.compile(_GAP + (rb"([^\s#]\S{0,%d})" % _MAGIC_SHOWN)
                         + rb"(?:" + (rb"\s" + _GAP + rb"(\d+)") * 3 + rb"\s)?")


def _ppm_pixels(path: str | Path) -> np.ndarray:
    """Parse a binary P6 file into a read-only uint8 view [H,W,3] of its bytes."""
    buf = Path(path).read_bytes()
    header = _PPM_HEADER.match(buf)
    if header is None:
        raise FormatError(f"{path}: unexpected end of PPM header")
    magic = header[1]
    if magic != b"P6":
        # a text or binary file's first token can be its whole length
        shown = repr(magic[:_MAGIC_SHOWN]) + ("..." if len(magic) > _MAGIC_SHOWN else "")
        raise FormatError(f"{path}: not a binary PPM (magic {shown})")
    try:
        width, height, maxval = map(int, header.groups()[1:])
    except (TypeError, ValueError):  # no fields matched, or more digits than int() reads
        raise FormatError(f"{path}: bad width, height or maxval after the PPM magic") from None
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: maxval {maxval}, only 255 supported")
    needed = width * height * 3
    payload = memoryview(buf)[header.end():header.end() + needed]
    if len(payload) < needed:
        raise FormatError(f"{path}: truncated payload ({len(payload)} of {needed} bytes)")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def _ppm_chw(path: str | Path, size: int) -> np.ndarray:
    """The bytes of a P6 file as uint8 [3,H,W], nearest-resampled in bytes
    to size x size when it has another size."""
    chw = _ppm_pixels(path).transpose(2, 0, 1)
    if chw.shape[1:] != (size, size):
        chw = resize_nearest(chw, size, size)
    return chw


def load_ppm(path: str | Path, size: int) -> np.ndarray:
    """Read a binary P6 image into floats [3,size,size] in [0,1],
    nearest-resized where the file has another size; an image already that
    size is not resampled."""
    return np.ascontiguousarray(_ppm_chw(path, size)) / 255.0


def save_ppm(path: str | Path, img: np.ndarray) -> None:
    """Write floats [3,H,W] in [0,1] as binary P6: each value times 255,
    rounded to the nearest integer and clipped to [0, 255]. A non-finite
    value raises ContractViolation naming the path, since no byte stands
    for it. `img` is only read."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise ContractViolation(f"save_ppm expects [3,H,W], got {img.shape}")
    if not np.isfinite(img).all():
        raise ContractViolation(f"{path}: image holds a non-finite value")
    h, w = img.shape[1:]
    scaled = img * 255.0
    np.rint(scaled, out=scaled)
    np.clip(scaled, 0, 255, out=scaled)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(scaled.astype(np.uint8).transpose(1, 2, 0).tobytes())


# ------------------------------------------------------- synthetic corpus
# Images per GEMM in `synth_generate`: at 128 px a chunk's product is 3 MiB.
_SYNTH_CHUNK = 8


def _label_palette(n_labels: int) -> np.ndarray:
    colors = [colorsys.hsv_to_rgb(i / n_labels, 0.9, 1.0) for i in range(n_labels)]
    return np.array(colors, dtype=np.float64)


def synth_generate(seed: int, n_samples: int, n_labels: int, input_size: int,
                   out_dir: str | Path) -> Manifest:
    """Write a corpus whose color and stripe frequency encode the target
    distribution: each label contributes its own hue and spatial frequency
    weighted by its probability mass. Byte-identical for a given seed.

    Label c's stripes at pixel p are 0.55 + 0.45 sin(a_c(p) + phi_c), with
    a_c = 2 pi (c + 1) coord_c and a phase phi_c drawn per image. Since
    sin(a + phi) = sin a cos phi + cos a sin phi, the sines and cosines of
    every a_c are taken once, as a [2L, side*side] basis, and each chunk
    of `_SYNTH_CHUNK` images is one GEMM of the images' coefficients
    0.45 d_c palette_c (cos phi_c, sin phi_c) with that basis, plus the
    constant 0.55 sum_c d_c palette_c. Its rows are (image, channel), so
    each image is a C-ordered [3,H,W] block of the product. Every
    temporary is sized by the chunk, not by `n_samples`."""
    if n_samples < 1 or n_labels < 2 or input_size < 1:
        raise ConfigurationError(f"need n_samples >= 1, n_labels >= 2 and input_size >= 1, "
                                 f"got {n_samples}/{n_labels}/{input_size}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if n_labels == len(EMOTION_NAMES_8):
        names = list(EMOTION_NAMES_8)
    else:
        names = [f"emotion{i}" for i in range(n_labels)]
    palette = _label_palette(n_labels)
    side = input_size
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64) / side
    basis = np.empty((2, n_labels, side * side))
    for c in range(n_labels):
        angle = math.pi * c / n_labels
        coord = xx * math.cos(angle) + yy * math.sin(angle)
        a = (2.0 * math.pi * (c + 1) * coord).reshape(-1)
        np.sin(a, out=basis[0, c])
        np.cos(a, out=basis[1, c])
    basis = basis.reshape(2 * n_labels, side * side)
    records = []
    for start in range(0, n_samples, _SYNTH_CHUNK):
        count = min(_SYNTH_CHUNK, n_samples - start)
        dists = np.empty((count, n_labels))
        phases = np.empty((count, n_labels))
        for i in range(count):
            dists[i] = rng.dirichlet(np.full(n_labels, 0.5))
            phases[i] = rng.uniform(0.0, 2.0 * math.pi, size=n_labels)
        mass = dists[:, None, :] * palette.T  # [count, 3, L]
        coef = 0.45 * np.concatenate([mass * np.cos(phases)[:, None, :],
                                      mass * np.sin(phases)[:, None, :]], axis=2)
        imgs = (coef.reshape(3 * count, 2 * n_labels) @ basis).reshape(count, 3, side, side)
        imgs += 0.55 * mass.sum(axis=2)[:, :, None, None]
        for i in range(count):
            name = f"sample_{start + i:04d}.ppm"
            save_ppm(out_dir / name, imgs[i])
            records.append(DatasetRecord(image_path=name, distribution=dists[i]))
        del imgs  # so the next chunk's product is not made beside this one
    manifest = Manifest(label_names=names, records=records)
    save_manifest(manifest, out_dir / "manifest.txt")
    return manifest


def load_pixels(manifest: Manifest, root: str | Path, size: int) -> np.ndarray:
    """Decode every record's image straight into its slot of one uint8
    [N,3,size,size] array, nearest-resampled in bytes where the file has
    another size. At one byte per value this is the form to hold a large
    corpus in; `load_images` is this divided by 255.0."""
    if size < 1:
        raise ContractViolation(f"image size {size}x{size} must be at least 1x1")
    root = Path(root)
    pixels = np.empty((len(manifest.records), 3, size, size), dtype=np.uint8)
    for slot, record in enumerate(manifest.records):
        pixels[slot] = _ppm_chw(root / record.image_path, size)
    return pixels


def load_images(manifest: Manifest, root: str | Path, size: int) -> np.ndarray:
    """Floats [N,3,size,size] in [0,1]: `load_pixels(...) / 255.0`, with the
    bits of `load_ppm` at the same size. Holds 8 bytes per value; `train`
    and `evaluate` keep the uint8 pixels and scale one batch at a time."""
    return load_pixels(manifest, root, size) / 255.0


# ------------------------------------------------- adjacency and splits
def cooccurrence_adjacency(manifest: Manifest) -> np.ndarray:
    """Row-stochastic static adjacency from thresholded label presence.

    Label i counts as present when p_i >= PRESENCE_T. Conditional
    co-presence rates are binarized at EDGE_T, the diagonal is switched
    on, and rows are normalized to sum to 1.
    """
    c = manifest.n_labels
    if not manifest.records:
        warnings.warn("empty manifest: static adjacency falls back to identity")
        return np.eye(c)
    present = manifest.distributions() >= PRESENCE_T
    counts = present.sum(axis=0).astype(np.float64)
    co = (present.T @ present).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(counts[:, None] > 0, co / counts[:, None], 0.0)
    adj = (cond >= EDGE_T).astype(np.float64)
    np.fill_diagonal(adj, 1.0)
    return adj / adj.sum(axis=1, keepdims=True)


def split_dataset(manifest: Manifest, ratio: float, seed: int) -> tuple[Manifest, Manifest]:
    """Deterministic shuffled split into (train, test)."""
    if not 0.0 < ratio < 1.0:
        raise ConfigurationError(f"split ratio {ratio} outside (0,1)")
    order = np.random.default_rng(seed).permutation(len(manifest.records))
    cut = int(len(order) * ratio)
    train = [manifest.records[i] for i in order[:cut]]
    test = [manifest.records[i] for i in order[cut:]]
    return (Manifest(manifest.label_names, train),
            Manifest(manifest.label_names, test))
