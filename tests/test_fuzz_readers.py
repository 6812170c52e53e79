"""Every file reader fails only with a `styledl.errors` type on damaged input.

Each case takes a real file the program wrote (manifest, PPM, report
JSON, checkpoint) or a config file listing every `TrainConfig` field, flips,
cuts and inserts bytes, and reads it back.
A mutated file may still load: a flipped payload byte of a checkpoint or
an image is a different but well-formed file, so only the error type is
checked, not what loads.
"""
import dataclasses
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from styledl.cli import main
from styledl.dataio import load_manifest, load_ppm, synth_generate
from styledl.errors import (ConfigurationError, ContractViolation, FormatError, TrainingError,
                            ValidationError)
from styledl.metrics import evaluate_metrics, load_report
from styledl.training import CHECKPOINT_MAGIC, Checkpoint, TrainConfig, load_train_config, train

# One record of rank 65 whose extents are all 0: numpy cannot build an
# array of that rank, so the rank must be refused before the shape is read.
RANK_65_RECORD = struct.pack("<I", 4) + b"deep" + struct.pack("<I", 65) + bytes(4 * 65)

TYPED_ERRORS = (ConfigurationError, ContractViolation, FormatError, TrainingError, ValidationError)

READERS = {
    "manifest": load_manifest,
    "ppm": lambda path: load_ppm(path, size=8),
    "config": load_train_config,
    "report": load_report,
    "checkpoint": Checkpoint.load,
}

# (kind, position, bytes): positions wrap to the file length and favour the
# headers, where the parsing happens
EDIT = st.tuples(st.sampled_from(["flip", "cut", "insert"]),
                 st.integers(0, 1023) | st.integers(0, 2 ** 23),
                 st.binary(min_size=1, max_size=16))


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("originals")
    manifest = synth_generate(seed=2, n_samples=3, n_labels=4, input_size=8, out_dir=root)
    cfg = TrainConfig(ablation="B", input_size=32, epochs=1, batch_size=3, flip=False)
    (root / "train.cfg").write_text("".join(f"{f.name}={getattr(cfg, f.name)}\n"
                                            for f in dataclasses.fields(cfg)), encoding="utf-8")
    targets = manifest.distributions()
    (root / "report.json").write_text(
        evaluate_metrics(targets, targets[::-1]).to_json(name="x"), encoding="utf-8")
    train(cfg, manifest, root, out_path=root / "model.ckpt")
    files = {"manifest": "manifest.txt", "ppm": "sample_0000.ppm", "config": "train.cfg",
             "report": "report.json", "checkpoint": "model.ckpt"}
    return root, {doc: (root / name).read_bytes() for doc, name in files.items()}


def _mutate(buf: bytes, edits) -> bytes:
    out = bytearray(buf)
    for kind, pos, data in edits:
        pos %= len(out) + 1
        if kind == "flip" and pos < len(out):
            out[pos] ^= data[0]
        elif kind == "cut":
            del out[pos:]
        elif kind == "insert":
            out[pos:pos] = data
    return bytes(out)


@pytest.mark.parametrize("doc", sorted(READERS))
@given(edits=st.lists(EDIT, min_size=1, max_size=3))
@example(edits=[("insert", len(CHECKPOINT_MAGIC), RANK_65_RECORD)])
@settings(derandomize=True, max_examples=250, deadline=None)
def test_damaged_file_raises_only_typed_errors(originals, doc, edits):
    root, blobs = originals
    path = root / f"mutated-{doc}"
    path.write_bytes(_mutate(blobs[doc], edits))
    try:
        READERS[doc](path)
    except TYPED_ERRORS:
        pass  # any other exception fails the test with its traceback


def test_checkpoint_rank_above_limit_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "deep.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + RANK_65_RECORD)
    with pytest.raises(FormatError, match="deep.ckpt: entry 'deep' has rank 65"):
        Checkpoint.load(path)
    assert main(["predict", "--checkpoint", str(path), "--image", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: entry 'deep'") and err.count("\n") == 1, err
