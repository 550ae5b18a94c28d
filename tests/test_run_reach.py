"""The package holds only what a run executes: one in-process run of every
command enters each function the package defines, apart from a listed few
that a file of the benchmark in ``perfbench/`` still names."""

import ast
import json
import os
import sys
import threading
from pathlib import Path

import metadetector
from metadetector.cli import main

# never entered by a run; each stays while the perfbench file named above it
# names it
NOT_RUN = {
    # perfbench/tracer.py, TARGETS
    "autodiff.matmul", "autodiff.concat", "autodiff.sigmoid", "autodiff.softmax_rows",
    "autodiff.conv_text", "autodiff.max_pool_full", "autodiff.embedding_lookup",
    "text.embed", "mmd.median_bandwidths",
    # perfbench/test_checks.py
    "evaluation._forward_chunks", "text._PretrainedTable.weights",
}


def package_functions() -> dict[tuple[str, int], tuple[str, object]]:
    """(file, first line) of each function the package defines -> its name
    and the key of the function it is nested in (None at module or class
    level); a decorated function's first line is its first decorator's."""
    found = {}

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (path, min([child.lineno] + [d.lineno for d in child.decorator_list]))
                found[key] = (prefix + child.name, parent)
                visit(child, path, f"{prefix}{child.name}.", key)
            else:
                visit(child, path, prefix, parent)

    for path in Path(metadetector.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), os.path.realpath(path),
              f"{path.stem}.", None)
    return found


def run_every_command(d: Path) -> None:
    src, tgt = str(d / "src.jsonl"), str(d / "tgt.jsonl")
    commands = [
        ["synth", "--out-source", src, "--out-target", tgt, "--n-source", "100",
         "--n-target", "100", "--post-length", "8", "--anomaly-fraction", "0.2",
         "--seed", "3"],
        ["mmd", "--source", src, "--target", tgt],
        ["train", "--source", src, "--target", tgt, "--out", str(d / "m.npz"),
         "--history", str(d / "h.csv"), "--epochs", "2", "--batch-size", "20"],
        ["train", "--source", src, "--target", tgt, "--config", str(d / "cfg.json"),
         "--out", str(d / "frozen.npz"), "--weighting", "on"],
        ["eval", "--checkpoint", str(d / "m.npz"), "--corpus", tgt,
         "--out", str(d / "report.json"), "--csv", str(d / "report.csv")],
        ["weights", "--checkpoint", str(d / "m.npz"), "--corpus", src,
         "--csv", str(d / "weights.csv")],
    ]
    for argv in commands:
        if argv[0] == "train" and "--config" in argv:
            # 8-d vectors for the words of the first source post
            with open(src, encoding="utf-8") as fh:
                words = sorted(set(json.loads(fh.readline())["text"].split()))
            (d / "vec.txt").write_text(f"{len(words)} 8\n" + "".join(
                f"{w} {' '.join(['0.1'] * 8)}\n" for w in words))
            (d / "cfg.json").write_text(json.dumps({
                "pretrained_vectors": str(d / "vec.txt"), "freeze_embeddings": True,
                "epochs": 2, "batch_size": 20}))
        assert main(argv) == 0, argv


def test_a_run_enters_every_function_but_the_benchmarks(tmp_path, capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    threading.setprofile(profile)  # the gate's and the scoring's workers
    try:
        run_every_command(tmp_path)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    capsys.readouterr()
    entered = {(os.path.realpath(name), line) for name, line in entered}
    never = {name for key, (name, parent) in package_functions().items()
             if key not in entered and (parent is None or parent in entered)}
    assert never == NOT_RUN
