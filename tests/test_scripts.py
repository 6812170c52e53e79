"""Smoke runs of the scripts in `scripts/` at a tiny size."""
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

from styledl.metrics import METRIC_NAMES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(monkeypatch, name, argv):
    module = _module(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


def test_run_overfit(monkeypatch, capsys, tmp_path):
    _run(monkeypatch, "run_overfit",
         ["--n", "4", "--size", "32", "--epochs", "1", "--workdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert re.search(r"^epoch +1 ", out, flags=re.MULTILINE)
    (kl,) = re.findall(r"mean train KL\s+(\S+)", out)
    assert math.isfinite(float(kl)) and float(kl) >= 0


def test_run_ablation(monkeypatch, capsys, tmp_path):
    record = tmp_path / "runs.json"
    _run(monkeypatch, "run_ablation",
         ["--presets", "B", "full", "--seeds", "0", "1", "--n", "10", "--split", "0.5",
          "--size", "32", "--epochs", "1", "--workdir", str(tmp_path), "--json", str(record)])
    out = capsys.readouterr().out
    assert "5 train / 5 test" in out
    rows = dict(re.findall(r"^(B|full)\s+(\S+)$", out, flags=re.MULTILINE))
    assert set(rows) == {"B", "full"}
    assert all(math.isfinite(float(kl)) and float(kl) >= 0 for kl in rows.values())
    doc = json.loads(record.read_text(encoding="utf-8"))
    assert (doc["presets"], doc["seeds"]) == (["B", "full"], [0, 1])
    assert [(r["preset"], r["seed"]) for r in doc["runs"]] == [
        ("B", 0), ("B", 1), ("full", 0), ("full", 1)]
    for run in doc["runs"]:
        assert set(run["metrics"]) == set(METRIC_NAMES)
        assert all(math.isfinite(v) for v in run["metrics"].values())
        assert math.isfinite(run["train_pred_loss"])


def test_digest_repeats(monkeypatch, capsys, tmp_path):
    rows = []
    for run in ("a", "b"):
        _run(monkeypatch, "digest", ["--pairs", "full:32", "--workdir", str(tmp_path / run)])
        out = capsys.readouterr().out
        # the digests hold for one BLAS kernel, which the first line names
        assert re.match(r"OpenBLAS core \S+, (\d+|unknown) thread\(s\)\n", out), out
        rows.append(re.findall(r"^full +32 +([0-9a-f]{12}) +([0-9a-f]{12}) +([0-9a-f]{12})$",
                               out, flags=re.MULTILINE))
    assert len(rows[0]) == 1 and rows[0] == rows[1]


def test_digest_blas_kernel_is_unknown_where_it_cannot_be_read(monkeypatch):
    digest = _module("digest")

    def missing(path):
        raise OSError(path)

    monkeypatch.setattr(digest.ctypes, "CDLL", missing)
    assert digest.blas_kernel() == ("unknown", "unknown")
    monkeypatch.setattr(digest.ctypes, "CDLL", lambda path: object())
    assert digest.blas_kernel() == ("unknown", "unknown")
