import json

import pytest

from metadetector.cli import main
from metadetector.text import load_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    src, tgt = str(d / "src.jsonl"), str(d / "tgt.jsonl")
    code = main(["synth", "--out-source", src, "--out-target", tgt,
                 "--n-source", "80", "--n-target", "80", "--shift", "0.3",
                 "--post-length", "8", "--seed", "4"])
    assert code == 0
    return src, tgt


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_missing_flag_exits_1(capsys):
    code, _, _ = run_cli(capsys, "mmd", "--source", "x.jsonl")
    assert code == 1


def test_synth_writes_corpora(corpora):
    src, tgt = corpora
    assert len(load_corpus(src, "source")) == 80
    assert len(load_corpus(tgt, "target")) == 80


def test_mmd_self_comparison(capsys, corpora):
    src, _ = corpora
    code, out, _ = run_cli(capsys, "mmd", "--source", src, "--target", src)
    assert code == 0
    report = json.loads(out)
    assert report["d_k"] < 1e-6
    assert report["gate_open"] is False


def test_train_eval_weights_roundtrip(capsys, corpora, tmp_path):
    src, tgt = corpora
    ckpt = str(tmp_path / "model.npz")
    hist = str(tmp_path / "hist.csv")
    code, out, _ = run_cli(capsys, "train", "--source", src, "--target", tgt,
                           "--out", ckpt, "--history", hist,
                           "--epochs", "2", "--batch-size", "20",
                           "--seed", "1")
    assert code == 0
    summary = json.loads(out)
    assert summary["epochs"] == 2

    code, out, _ = run_cli(capsys, "eval", "--checkpoint", ckpt,
                           "--corpus", tgt)
    assert code == 0
    report = json.loads(out)
    assert 0.0 <= report["accuracy"] <= 1.0
    assert set(report["per_class"]) == {"real", "fake"}

    code, out, _ = run_cli(capsys, "weights", "--checkpoint", ckpt,
                           "--corpus", src, "--top-n", "3")
    assert code == 0
    ranking = json.loads(out)
    assert len(ranking["top"]) == 3
    for entry in ranking["top"]:
        assert entry["weight"] + entry["pseudo_prob"] == 1.0


def test_eval_unlabeled_corpus_exits_2(capsys, corpora, tmp_path):
    src, tgt = corpora
    ckpt = str(tmp_path / "model.npz")
    assert main(["train", "--source", src, "--target", tgt, "--out", ckpt,
                 "--epochs", "1", "--batch-size", "20"]) == 0
    capsys.readouterr()

    unlabeled = tmp_path / "unlabeled.jsonl"
    lines = []
    for i, line in enumerate(open(tgt, encoding="utf-8")):
        obj = json.loads(line)
        if i == 0:
            obj["label"] = None
        lines.append(json.dumps(obj))
    unlabeled.write_text("\n".join(lines) + "\n")

    code, _, err = run_cli(capsys, "eval", "--checkpoint", ckpt,
                           "--corpus", str(unlabeled))
    assert code == 2
    assert json.loads(lines[0])["id"] in err


def test_train_weighting_flag(capsys, corpora, tmp_path):
    src, tgt = corpora
    ckpt = str(tmp_path / "m.npz")
    code, out, _ = run_cli(capsys, "train", "--source", src, "--target", tgt,
                           "--out", ckpt, "--epochs", "1",
                           "--batch-size", "20", "--weighting", "off",
                           "--lambda", "0")
    assert code == 0


def test_determinism_across_runs(capsys, corpora, tmp_path):
    src, tgt = corpora

    def run(tag):
        ckpt = str(tmp_path / f"m{tag}.npz")
        hist = str(tmp_path / f"h{tag}.csv")
        rep = str(tmp_path / f"r{tag}.json")
        assert main(["train", "--source", src, "--target", tgt,
                     "--out", ckpt, "--history", hist, "--epochs", "2",
                     "--batch-size", "20", "--seed", "7"]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--corpus", tgt,
                     "--out", rep]) == 0
        capsys.readouterr()
        return open(hist, "rb").read(), open(rep, "rb").read()

    assert run("a") == run("b")


def test_mmd_reports_the_gate_train_uses(capsys, tmp_path):
    src, tgt = str(tmp_path / "src.jsonl"), str(tmp_path / "tgt.jsonl")
    code, _, _ = run_cli(capsys, "synth", "--out-source", src, "--out-target", tgt,
                         "--n-source", "300", "--n-target", "300",
                         "--shift", "0.9", "--seed", "5")
    assert code == 0
    code, out, _ = run_cli(capsys, "mmd", "--source", src, "--target", tgt,
                           "--seed", "5")
    assert code == 0
    gate = json.loads(out)
    code, out, _ = run_cli(capsys, "train", "--source", src, "--target", tgt,
                           "--out", str(tmp_path / "m.npz"), "--epochs", "1",
                           "--seed", "5")
    assert code == 0
    shift = json.loads(out)["shift"]
    assert (shift["d_k"], shift["gate_open"]) == (gate["d_k"], gate["gate_open"])
