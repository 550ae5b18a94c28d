import contextlib
import io
import json
import shlex
import shutil
import threading
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from metadetector.cli import build_parser, main
from metadetector.model import vocab_hash
from metadetector.text import Vocabulary, load_corpus
from helpers import nan_gradient_at


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


class _Stop(Exception):
    pass


def test_settings_flags_left_out_keep_the_dataclass_defaults(corpora, tmp_path,
                                                            monkeypatch):
    from metadetector import cli
    from metadetector.data_synth import SynthSpec
    from metadetector.training import TrainConfig

    seen = []

    def capture(*args):  # the settings are the last argument
        seen.append(args[-1])
        raise _Stop

    monkeypatch.setattr(cli, "generate", capture)
    monkeypatch.setattr(cli, "prepare", capture)
    src, tgt = corpora
    for argv in (["synth", "--out-source", str(tmp_path / "s.jsonl"),
                  "--out-target", str(tmp_path / "t.jsonl")],
                 ["mmd", "--source", src, "--target", tgt]):
        with pytest.raises(_Stop):
            main(argv)
    assert seen == [SynthSpec(), TrainConfig()]


def test_readme_walkthrough_parses():
    """Each command of the README's CLI walkthrough, continuation lines
    joined, is one the parser accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("metadetector ")]
    assert [argv[1] for argv in commands] == ["synth", "mmd", "train", "eval", "weights"]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


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
    for i, line in enumerate(Path(tgt).read_text(encoding="utf-8").splitlines()):
        obj = json.loads(line)
        if i == 0:
            obj["label"] = None
        lines.append(json.dumps(obj))
    unlabeled.write_text("\n".join(lines) + "\n")

    code, _, err = run_cli(capsys, "eval", "--checkpoint", ckpt,
                           "--corpus", str(unlabeled))
    assert code == 2
    assert json.loads(lines[0])["id"] in err


def test_train_prints_the_checkpoint_it_wrote(capsys, corpora, tmp_path):
    src, tgt = corpora
    code, out, _ = run_cli(capsys, "train", "--source", src, "--target", tgt,
                           "--out", str(tmp_path / "m"), "--epochs", "1",
                           "--batch-size", "20")
    assert code == 0
    written = json.loads(out)["checkpoint"]
    assert written == str(tmp_path / "m.npz")
    code, _, _ = run_cli(capsys, "eval", "--checkpoint", written, "--corpus", tgt)
    assert code == 0


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
        return Path(hist).read_bytes(), Path(rep).read_bytes()

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


def test_train_uses_the_config_seed(capsys, corpora, tmp_path):
    """A config's seed alone trains the same checkpoint as --seed."""
    src, tgt = corpora
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 42}')
    base = ["train", "--source", src, "--target", tgt, "--epochs", "1",
            "--batch-size", "20"]
    a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    assert main([*base, "--config", str(cfg), "--out", a]) == 0
    assert main([*base, "--seed", "42", "--out", b]) == 0
    capsys.readouterr()
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_reserved_token_spellings_in_posts(capsys, tmp_path):
    """Posts holding ``<pad>`` and ``<unk>`` gate and train like any others."""
    paths = {}
    for event in ("src", "tgt"):
        paths[event] = str(tmp_path / f"{event}.jsonl")
        with open(paths[event], "w", encoding="utf-8") as fh:
            fh.write(_jsonl(*({"id": f"{event}{i}", "label": i % 2, "event": event,
                               "text": f"<pad> <unk> w{i % 3} {event} <unk>"}
                              for i in range(20))))
    code, _, _ = run_cli(capsys, "mmd", "--source", paths["src"],
                         "--target", paths["tgt"])
    assert code == 0
    code, _, _ = run_cli(capsys, "train", "--source", paths["src"],
                         "--target", paths["tgt"], "--out", str(tmp_path / "m.npz"),
                         "--epochs", "1", "--batch-size", "10")
    assert code == 0


@pytest.mark.parametrize("unwritable", ["out", "history"])
def test_train_refuses_an_unwritable_output_before_training(unwritable, capsys, corpora,
                                                           tmp_path, monkeypatch):
    from metadetector import cli

    def no_train(*args, **kwargs):
        raise AssertionError("train ran")

    monkeypatch.setattr(cli, "train", no_train)
    src, tgt = corpora
    paths = {"out": str(tmp_path / "m.npz"), "history": str(tmp_path / "h.csv")}
    paths[unwritable] = str(tmp_path / "missing" / "x")
    code, _, err = run_cli(capsys, "train", "--source", src, "--target", tgt,
                           "--out", paths["out"], "--history", paths["history"])
    assert code == 2 and paths[unwritable] in err
    assert list(tmp_path.iterdir()) == []


def test_train_checkpoint_takes_the_npz_suffix(capsys, corpora, tmp_path):
    src, tgt = corpora
    code, _, _ = run_cli(capsys, "train", "--source", src, "--target", tgt,
                         "--out", str(tmp_path / "m"), "--epochs", "1", "--batch-size", "20")
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]


@pytest.mark.parametrize("failing", ["train", "save_checkpoint", "history_to_csv"])
def test_failed_run_removes_only_the_outputs_it_created(failing, capsys, corpora, tmp_path,
                                                        monkeypatch):
    from metadetector import cli

    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, failing, fail)
    src, tgt = corpora
    history = tmp_path / "h.csv"
    history.write_text("earlier run\n")
    code, _, err = run_cli(capsys, "train", "--source", src, "--target", tgt,
                           "--out", str(tmp_path / "m"), "--history", str(history),
                           "--epochs", "1", "--batch-size", "20")
    assert code == 2 and "No space left" in err
    assert [p.name for p in tmp_path.iterdir()] == ["h.csv"]
    assert history.read_text() == "earlier run\n"


@pytest.mark.parametrize("failure", ["evaluation", "gradient"])
def test_a_run_failing_during_training_leaves_no_thread_or_output(failure, capsys, corpora,
                                                                  tmp_path, monkeypatch):
    from metadetector import training

    if failure == "evaluation":
        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(training, "predict", fail)
    else:  # 80 + 80 posts in batches of 20 take 8 steps an epoch
        nan_gradient_at(monkeypatch, 10)
    src, tgt = corpora
    threads = threading.active_count()
    code, _, err = run_cli(capsys, "train", "--source", src, "--target", tgt,
                           "--out", str(tmp_path / "m"), "--history", str(tmp_path / "h.csv"),
                           "--epochs", "3", "--batch-size", "20")
    assert code == 2
    assert ("No space left" if failure == "evaluation" else "non-finite gradient") in err
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == threads


def test_eval_failing_in_a_chunk_exits_2_and_leaves_no_report(capsys, corpora, checkpoint,
                                                              tmp_path, monkeypatch):
    from metadetector import evaluation

    calls, lock = [], threading.Lock()
    real = evaluation.extract_features

    def failing_third(*args, **kwargs):
        with lock:
            calls.append(None)
            third = len(calls) == 3
        if third:
            raise OSError(28, "No space left on device")
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "FORWARD_BLOCK", 20)  # 80 posts in 8 chunks
    monkeypatch.setattr(evaluation, "FORWARD_CHUNK", 10)
    monkeypatch.setattr(evaluation, "extract_features", failing_third)
    threads = threading.active_count()
    out = tmp_path / "x.json"
    code, _, err = run_cli(capsys, "eval", "--checkpoint", checkpoint,
                           "--corpus", corpora[1], "--out", str(out))
    assert code == 2 and "No space left" in err
    assert not out.exists()
    assert threading.active_count() == threads


GOOD_POST = {"id": "p0", "text": "some words here", "label": 1, "event": "ev"}


def _jsonl(*objs) -> str:
    return "".join(json.dumps(o) + "\n" for o in objs)


@pytest.fixture(scope="module")
def checkpoint(corpora, tmp_path_factory):
    src, tgt = corpora
    path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
    assert main(["train", "--source", src, "--target", tgt, "--out", path,
                 "--epochs", "1", "--batch-size", "20"]) == 0
    return path


@pytest.mark.parametrize("command, unwritable", [("eval", "out"), ("eval", "csv"),
                                                 ("weights", "csv")])
def test_scoring_refuses_an_unwritable_output_before_scoring(command, unwritable, capsys,
                                                             corpora, checkpoint,
                                                             tmp_path, monkeypatch):
    from metadetector import cli

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored")

    monkeypatch.setattr(cli, "evaluate", no_scoring)
    monkeypatch.setattr(cli, "export_weights", no_scoring)
    src, tgt = corpora
    paths = {"out": str(tmp_path / "r.json"), "csv": str(tmp_path / "r.csv")}
    paths[unwritable] = str(tmp_path / "missing" / "x")
    outputs = ["--out", paths["out"]] if command == "eval" else []
    code, out, err = run_cli(capsys, command, "--checkpoint", checkpoint,
                             "--corpus", tgt if command == "eval" else src,
                             *outputs, "--csv", paths["csv"])
    assert code == 2 and paths[unwritable] in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_weights_top_n_zero_is_empty(capsys, corpora, checkpoint):
    src, _ = corpora
    code, out, _ = run_cli(capsys, "weights", "--checkpoint", checkpoint,
                           "--corpus", src, "--top-n", "0")
    assert code == 0
    ranking = json.loads(out)
    assert ranking["top"] == [] and ranking["bottom"] == []
    assert ranking["summary"]["n"] == 80


# a pretrained-vector file named by a train config, and its bad line
BAD_VECTORS = {"vectors-not-utf8": (b"1 2\n\xff\xfe 0.5 0.5\n", 2),
               "vectors-short-line": (b"2 2\na 0.5 0.5\nb 0.5\n", 3),
               "vectors-zero-dim": (b"1 0\na\n", 1),
               "vectors-huge-dim": (b"1 1000000000000\na 0.5\n", 1),
               "vectors-nan": (b"2 2\na 0.5 0.5\nb nan 0.5\n", 3),
               "vectors-inf": (b"1 2\na -inf 0.5\n", 2),
               "vectors-overflow": (b"1 2\na 0.5 1e400\n", 2)}


def _move_pad(arrays, meta):
    """Swap ``<pad>`` with token 5 and rewrite the hash to match."""
    tokens = meta["vocab_tokens"]
    tokens[0], tokens[5] = tokens[5], tokens[0]
    meta["vocab_hash"] = vocab_hash(Vocabulary({t: i for i, t in enumerate(tokens)},
                                               meta["vocab_min_count"]))


# a saved checkpoint's arrays and metadata, and one change that spoils them
CHECKPOINT_TAMPERS = {
    "checkpoint-no-meta": lambda arrays, meta: arrays.pop("__meta__"),
    "checkpoint-missing-array": lambda arrays, meta: arrays.pop("f_w_fc"),
    "checkpoint-1d-embedding": lambda arrays, meta: arrays.update(
        embedding=arrays["embedding"].ravel()),
    "checkpoint-string-array": lambda arrays, meta: arrays.update(
        f_w_fc=arrays["f_w_fc"].astype(str)),
    "checkpoint-k-string": lambda arrays, meta: meta.update(k=str(meta["k"])),
    "checkpoint-vocab-int": lambda arrays, meta: meta.update(vocab_tokens=5),
    "checkpoint-k-huge": lambda arrays, meta: meta.update(k=10**13),
    "checkpoint-pad-moved": _move_pad,
}

# a bad command-line argument, and the name its error must give
BAD_ARGUMENTS = {"mmd-embedding-dim-zero": "embedding_dim",
                 "weights-top-n-negative": "top_n",
                 "train-seed-negative": "seed",
                 "mmd-seed-negative": "seed",
                 "synth-seed-negative": "seed",
                 "synth-anomaly-nan": "anomaly fraction"}


def _write_bad_input(case, d, checkpoint):
    """Write the bad file of ``case`` into ``d``; return (its path, command).

    A bad command-line argument writes no file; its "path" is then the name
    the error must give.
    """
    if case in BAD_ARGUMENTS:
        return BAD_ARGUMENTS[case], case
    if case.startswith("vectors-"):
        path = d / "vec.txt"
        path.write_bytes(BAD_VECTORS[case][0])
        (d / "cfg.json").write_text(json.dumps({"pretrained_vectors": str(path)}))
        return path, "config"
    if case.startswith("corpus-"):
        path = d / "bad.jsonl"
        if case == "corpus-missing":
            return path, "corpus"
        second = {
            "corpus-array-line": "[1, 2]\n",
            "corpus-text-not-string": _jsonl({**GOOD_POST, "text": 5}),
            "corpus-label-bool": _jsonl({**GOOD_POST, "label": True}),
            "corpus-mixed-events": _jsonl({**GOOD_POST, "event": "other"}),
            "corpus-lone-surrogate": _jsonl({**GOOD_POST, "text": "ok \ud800"}),
        }[case]
        path.write_text(_jsonl(GOOD_POST) + second)
        return path, "corpus"
    if case.startswith("config-"):
        path = d / "cfg.json"
        if case != "config-missing":
            path.write_text({"config-invalid-json": "{not json",
                             "config-not-object": "[1, 2]",
                             "config-string-for-int": '{"epochs": "5"}',
                             "config-bool-for-int": '{"epochs": true}',
                             "config-embedding-dim-zero": '{"embedding_dim": 0}',
                             "config-w-max-zero": '{"w_max": 0}',
                             "config-lr-nan": '{"lr": NaN}',
                             "config-lambda-infinite": '{"lambda_": Infinity}',
                             "config-k-above-max": '{"k": 257}',
                             "config-n-filters-huge": '{"n_filters": 1000000000}',
                             "config-w-max-huge": '{"w_max": 1000000000}',
                             "config-w-max-above-k": '{"w_max": 9, "k": 8}',
                             "config-seed-negative": '{"seed": -3}',
                             "config-embedding-dim-huge":
                                 '{"embedding_dim": 1000000000000}'}[case])
        return path, "config"
    path = d / "bad.npz"
    if case == "checkpoint-not-npz":
        path.write_text("not an archive\n")
    elif case == "checkpoint-corpus":
        path.write_text(_jsonl(GOOD_POST))
    elif case == "checkpoint-csv":
        path.write_text("post_id,weight,pseudo_prob,excerpt\np0,0.5,0.5,some words\n")
    elif case == "checkpoint-empty":
        path.write_bytes(b"")
    elif case == "checkpoint-npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    elif case == "checkpoint-truncated":
        data = Path(checkpoint).read_bytes()
        path.write_bytes(data[:len(data) // 2])
    elif case in CHECKPOINT_TAMPERS:
        with np.load(checkpoint) as npz:
            arrays = {k: npz[k] for k in npz.files}
        meta = json.loads(str(arrays["__meta__"]))
        CHECKPOINT_TAMPERS[case](arrays, meta)
        if "__meta__" in arrays:
            arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
    return path, "checkpoint"


# checkpoint files that are no zip archive; np.load is never reached
NOT_ZIP = ["checkpoint-not-npz", "checkpoint-corpus", "checkpoint-csv",
           "checkpoint-empty", "checkpoint-npy"]

BAD_INPUTS = ["corpus-missing", "corpus-array-line", "corpus-text-not-string",
              "corpus-label-bool", "corpus-mixed-events", "corpus-lone-surrogate",
              "checkpoint-missing", *NOT_ZIP, "checkpoint-truncated",
              *CHECKPOINT_TAMPERS,
              "config-missing", "config-invalid-json", "config-not-object",
              "config-string-for-int", "config-bool-for-int",
              "config-embedding-dim-zero", "config-w-max-zero", "config-lr-nan",
              "config-lambda-infinite", "config-k-above-max", "config-embedding-dim-huge",
              "config-n-filters-huge", "config-w-max-huge", "config-w-max-above-k",
              "config-seed-negative", *BAD_ARGUMENTS, *BAD_VECTORS]


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2_without_traceback(case, capsys, corpora, checkpoint,
                                             tmp_path):
    src, tgt = corpora
    bad, kind = _write_bad_input(case, tmp_path, checkpoint)
    argv = {"corpus": ["eval", "--checkpoint", checkpoint, "--corpus", str(bad)],
            "checkpoint": ["eval", "--checkpoint", str(bad), "--corpus", tgt],
            "config": ["train", "--source", src, "--target", tgt,
                       "--config", str(tmp_path / "cfg.json"),
                       "--out", str(tmp_path / "m.npz")],
            "mmd-embedding-dim-zero": ["mmd", "--source", src, "--target", tgt,
                                       "--embedding-dim", "0"],
            "weights-top-n-negative": ["weights", "--checkpoint", checkpoint,
                                       "--corpus", src, "--top-n", "-2"],
            "train-seed-negative": ["train", "--source", src, "--target", tgt,
                                    "--out", str(tmp_path / "m.npz"), "--seed", "-1"],
            "mmd-seed-negative": ["mmd", "--source", src, "--target", tgt, "--seed", "-1"],
            "synth-seed-negative": ["synth", "--out-source", str(tmp_path / "s.jsonl"),
                                    "--out-target", str(tmp_path / "t.jsonl"),
                                    "--seed", "-1"],
            "synth-anomaly-nan": ["synth", "--out-source", str(tmp_path / "s.jsonl"),
                                  "--out-target", str(tmp_path / "t.jsonl"),
                                  "--anomaly-fraction", "nan"],
            }[kind]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert str(bad) in err
    if case.startswith("corpus-") and case != "corpus-missing":
        assert f"{bad}, line 2:" in err
    if case in BAD_VECTORS:
        assert f"{bad}, line {BAD_VECTORS[case][1]}:" in err
    if case in NOT_ZIP:
        assert f"{bad}: not an npz checkpoint" in err and "pickle" not in err


# each command's last argument is the output path that names an earlier one
CLASHING_PATHS = {
    "weights-csv-is-corpus": ["weights", "--checkpoint", "m.npz", "--corpus", "s.jsonl",
                              "--csv", "s.jsonl"],
    "eval-out-is-checkpoint": ["eval", "--checkpoint", "m.npz", "--corpus", "t.jsonl",
                               "--out", "./m.npz"],
    "train-history-is-out": ["train", "--source", "s.jsonl", "--target", "t.jsonl",
                             "--out", "x.npz", "--history", "x.npz"],
    "train-history-is-out-with-suffix": ["train", "--source", "s.jsonl",
                                         "--target", "t.jsonl",
                                         "--out", "x", "--history", "x.npz"],
    "train-history-is-config-vectors": ["train", "--source", "s.jsonl",
                                        "--target", "t.jsonl", "--config", "c.json",
                                        "--out", "x.npz", "--history", "v.txt"],
    "synth-target-is-source": ["synth", "--out-source", "x.jsonl",
                               "--out-target", "x.jsonl"],
}


@pytest.mark.parametrize("case", CLASHING_PATHS)
def test_an_output_that_names_an_input_or_another_output_is_refused(
        case, capsys, corpora, checkpoint, tmp_path, monkeypatch):
    for name, path in (("s.jsonl", corpora[0]), ("t.jsonl", corpora[1]),
                       ("m.npz", checkpoint)):
        shutil.copyfile(path, tmp_path / name)
    (tmp_path / "v.txt").write_text("0 2\n")
    (tmp_path / "c.json").write_text('{"pretrained_vectors": "v.txt"}')
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    argv = CLASHING_PATHS[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {argv[-1]}:") and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def corrupt_lines():
    """One JSONL line that is not a valid post of event "ev", as bytes."""
    good = json.dumps(GOOD_POST)
    not_object = st.one_of(st.none(), st.booleans(), st.integers(),
                           st.text(max_size=5),
                           st.lists(st.integers(), max_size=3)).map(json.dumps)
    wrong_value = st.one_of(
        st.tuples(st.just("text"), st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
            st.lists(st.text(max_size=3), max_size=2))),
        st.tuples(st.just("label"), st.one_of(
            st.booleans(), st.integers().filter(lambda v: v not in (0, 1)),
            st.floats(allow_nan=False), st.text(max_size=3))),
        st.tuples(st.just("event"), st.one_of(
            st.none(), st.integers(), st.text(max_size=5).filter(lambda e: e != "ev"))),
    ).map(lambda kv: json.dumps({**GOOD_POST, kv[0]: kv[1]}))
    missing_field = st.sampled_from(sorted(GOOD_POST)).map(
        lambda f: json.dumps({k: v for k, v in GOOD_POST.items() if k != f}))
    truncated = st.integers(1, len(good) - 1).map(lambda n: good[:n])
    text_lines = st.one_of(not_object, wrong_value, missing_field, truncated)
    not_utf8 = st.tuples(st.binary(max_size=8).filter(lambda b: b"\n" not in b),
                         st.sampled_from([b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80"])
                         ).map(b"".join)
    return st.one_of(text_lines.map(str.encode), not_utf8)


@settings(max_examples=60, deadline=None)
@given(line=corrupt_lines())
def test_corrupt_corpus_line_exits_2(line, corpora, tmp_path_factory):
    _, tgt = corpora
    bad = tmp_path_factory.mktemp("fuzz") / "bad.jsonl"
    bad.write_bytes(json.dumps(GOOD_POST).encode() + b"\n" + line + b"\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["mmd", "--source", str(bad), "--target", tgt])
    assert code == 2
    assert err.getvalue().startswith(f"error: {bad}, line 2:")
