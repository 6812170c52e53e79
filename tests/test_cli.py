"""End-to-end command line workflow on a tiny corpus."""
import json

import numpy as np
import pytest

from styledl.cli import main
from styledl.errors import FormatError
from styledl.metrics import METRIC_NAMES, load_report


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-synth", "--seed", "3", "--n", "10", "--labels", "4",
                 "--size", "32", "--out", str(data)]) == 0
    cfg = root / "train.cfg"
    cfg.write_text("epochs=2\ninput_size=32\nablation=B\nflip=false\n")
    return root, data, cfg


def test_gen_synth_then_build_adj(workdir, capsys):
    root, data, _ = workdir
    assert main(["build-adj", "--manifest", str(data / "manifest.txt")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    rows = np.array([[float(v) for v in line.split()] for line in lines])
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    out = root / "adj.txt"
    assert main(["build-adj", "--manifest", str(data / "manifest.txt"),
                 "--out", str(out)]) == 0
    assert np.loadtxt(out).shape == (4, 4)


def test_train_evaluate_predict_rank(workdir, capsys):
    root, data, cfg = workdir
    ckpt = root / "model.ckpt"
    manifest = str(data / "manifest.txt")
    assert main(["train", "--config", str(cfg), "--manifest", manifest,
                 "--out", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "epoch    1" in out and "epoch    2" in out

    report_path = root / "ours.json"
    assert main(["evaluate", "--checkpoint", str(ckpt), "--manifest", manifest,
                 "--json", str(report_path), "--name", "Ours"]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["name"] == "Ours" and doc["n"] == 10
    capsys.readouterr()

    assert main(["predict", "--checkpoint", str(ckpt),
                 "--image", str(data / "sample_0000.ppm")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    probs = [float(line.split()[-1]) for line in lines]
    assert len(probs) == 4 and abs(sum(probs) - 1.0) < 1e-3

    knn_path = root / "knn.json"
    assert main(["baseline-knn", "--train", manifest, "--test", manifest,
                 "--k", "3", "--size", "32", "--json", str(knn_path)]) == 0
    capsys.readouterr()

    assert main(["rank", "--reports", str(report_path), str(knn_path)]) == 0
    table = capsys.readouterr().out
    assert "Ours" in table and "AA-kNN(k=3)" in table and "(1)" in table


def test_train_ablation_override(workdir):
    root, data, cfg = workdir
    out = root / "bg.ckpt"
    assert main(["train", "--config", str(cfg), "--manifest",
                 str(data / "manifest.txt"), "--out", str(out),
                 "--ablation", "B+G"]) == 0
    from styledl.training import Checkpoint
    assert Checkpoint.load(out).config.ablation == "B+G"


def test_cli_reports_errors_not_tracebacks(workdir, capsys):
    root, data, cfg = workdir
    assert main(["train", "--config", str(cfg), "--manifest",
                 str(data / "manifest.txt"), "--out", str(root / "x.ckpt"),
                 "--ablation", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err
    bad_cfg = root / "bad.cfg"
    bad_cfg.write_text("input_size=32\nepochs=abc\n")
    assert main(["train", "--config", str(bad_cfg), "--manifest",
                 str(data / "manifest.txt"), "--out", str(root / "x.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config line 2") and err.count("\n") == 1
    assert main(["evaluate", "--checkpoint", str(root / "missing.ckpt"),
                 "--manifest", str(data / "manifest.txt")]) == 1


@pytest.mark.parametrize("line", ["mu=1.5", "lam=-1", "momentum=1.0", "seed=-1",
                                  "input_size=33"])
def test_train_rejects_out_of_range_config_before_reading_images(tmp_path, capsys, line):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("#labels: a,b\nmissing_0.ppm,0.5,0.5\nmissing_1.ppm,1,0\n")
    cfg = tmp_path / "train.cfg"
    size = "" if line.startswith("input_size=") else "input_size=32\n"
    cfg.write_text(f"epochs=1\n{size}{line}\n")
    assert main(["train", "--config", str(cfg), "--manifest", str(manifest),
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    err = capsys.readouterr().err
    key = line.split("=")[0]
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1, err


def test_cli_reports_training_error(workdir, capsys, monkeypatch):
    import styledl.training as train_mod
    from styledl.tensor import Tensor

    root, data, cfg = workdir
    monkeypatch.setattr(train_mod, "pred_loss",
                        lambda *args: Tensor(np.array(np.nan), requires_grad=True))
    assert main(["train", "--config", str(cfg), "--manifest",
                 str(data / "manifest.txt"), "--out", str(root / "nan.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: epoch 1: loss is not finite") and err.count("\n") == 1


@pytest.mark.parametrize("size", ["0", "-5"])
def test_gen_synth_rejects_size_below_one(tmp_path, capsys, size):
    out = tmp_path / "corpus"
    assert main(["gen-synth", "--n", "2", "--size", size, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "input_size" in err and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"name": "x"}', "[1, 2]", '{"metrics": {"kl": {}}}', "{"])
def test_rank_rejects_malformed_report(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["rank", "--reports", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and err.count("\n") == 1


def test_rank_rejects_a_boolean_mean(tmp_path, capsys):
    """JSON `true` is an int to Python; as a metric mean it loaded as 1.0
    and was ranked."""
    metrics = {m: {"mean": 0.5} for m in METRIC_NAMES}
    metrics["cosine"] = {"mean": True}
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps({"name": "x", "metrics": metrics}))
    with pytest.raises(FormatError, match="metric 'cosine'"):
        load_report(bad)
    assert main(["rank", "--reports", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: metric 'cosine'")
    assert captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_baseline_knn_rejects_size_below_one(workdir, capsys, size):
    _, data, _ = workdir
    manifest = str(data / "manifest.txt")
    assert main(["baseline-knn", "--train", manifest, "--test", manifest,
                 "--size", size]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"{size}x{size}" in captured.err, captured.err
    assert captured.err.count("\n") == 1, captured.err


def test_baseline_knn_rejects_reordered_test_labels(workdir, tmp_path, capsys):
    _, data, _ = workdir
    lines = (data / "manifest.txt").read_text().splitlines()
    names = lines[0][len("#labels: "):].split(",")
    rows = [line.split(",") for line in lines[1:]]
    # the same images and targets with the header and every row reversed
    reordered = tmp_path / "manifest.txt"
    reordered.write_text("\n".join(["#labels: " + ",".join(names[::-1])]
                                   + [",".join([str(data / row[0])] + row[:0:-1]) for row in rows])
                         + "\n")
    report = tmp_path / "report.json"
    assert main(["baseline-knn", "--train", str(data / "manifest.txt"), "--test", str(reordered),
                 "--size", "32", "--json", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: manifest labels") and captured.err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize("command", ["evaluate", "baseline-knn"])
def test_empty_test_manifest_fails_without_a_report(workdir, tmp_path, capsys, command):
    _, data, cfg = workdir
    empty = tmp_path / "empty.txt"
    empty.write_text("#labels: a,b,c,d\n")
    report = tmp_path / "report.json"
    if command == "evaluate":
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(cfg), "--manifest", str(data / "manifest.txt"),
                     "--out", str(ckpt)]) == 0
        args = ["evaluate", "--checkpoint", str(ckpt), "--manifest", str(empty)]
    else:
        args = ["baseline-knn", "--train", str(data / "manifest.txt"), "--test", str(empty),
                "--size", "32"]
    capsys.readouterr()
    assert main(args + ["--json", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no samples") and captured.err.count("\n") == 1
    assert not report.exists()
