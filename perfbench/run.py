"""Benchmark of the metadetector CLI: train, wide-vocabulary set-up, scoring.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Inputs are generated from the seed in
a separate step; then whole rounds of CLI commands run, each in a fresh
process, until ``--seconds`` have passed, and every output is checked. The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import checks
import reference
import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
TRACE_DIR = os.path.join(WORK_ROOT, "traces")
CHILD_TIMEOUT_S = 170
# One BLAS thread in every child, so a run does not depend on how many cores are free.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "train_s": "s", "train_posts_per_s": "posts/s",
              "score_posts_per_s": "posts/s", "peak_rss_mb": "MB"}


def run_children(cmds: list[list[str]]) -> list[subprocess.CompletedProcess]:
    """Run commands side by side; every child has ended when this returns."""
    env = {**os.environ, **CHILD_ENV}
    procs = [subprocess.Popen(c, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for c in cmds]
    try:
        done = []
        for cmd, p in zip(cmds, procs):
            out, err = p.communicate(timeout=CHILD_TIMEOUT_S)
            done.append(subprocess.CompletedProcess(cmd, p.returncode, out, err))
        return done
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()


class Run:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.attempted = self.failed = 0
        self.fails: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.rss: list[float] = []
        self.walls = {False: 0.0, True: 0.0}  # summed op wall time, by traced
        self.traced: list[dict] = []
        self.n_jobs = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # -- inputs -------------------------------------------------------------

    def make_inputs(self) -> None:
        parts = range(len(wl.EVAL_PARTS[self.workload]))
        jobs = ["pair"] + [f"eval{i}" for i in parts]
        script = os.path.join(HERE, "synth.py")
        for r in run_children([[sys.executable, script, self.workload, str(self.seed),
                                self.workdir, job] for job in jobs]):
            if r.returncode != 0:
                raise RuntimeError(f"input generation {r.args[-1]} failed:\n{r.stderr}")
        with open(self.path("eval.jsonl"), "wb") as out:
            for i in parts:
                with open(self.path(f"eval_{i}.jsonl"), "rb") as part:
                    shutil.copyfileobj(part, out)

        flags, config = wl.train_flags(self.workload)
        if self.workload == "train-wide-frozen":
            config = {**config, "pretrained_vectors": self.path("vectors.txt")}
            self.vectors = checks.read_vectors(self.path("vectors.txt"))
        with open(self.path("config.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.train_argv = ["train", "--source", self.path("source.jsonl"),
                           "--target", self.path("target.jsonl"),
                           "--config", self.path("config.json"),
                           "--out", self.path("model.npz"),
                           "--history", self.path("history.csv"),
                           "--seed", str(self.seed)] + flags
        self.epochs = int(flags[flags.index("--epochs") + 1])
        self.batch = int(flags[flags.index("--batch-size") + 1])
        self.corpora = {name: reference.read_corpus(self.path(f"{name}.jsonl"))
                        for name in ("source", "target", "eval")}
        self.posts_per_step = (self.epochs * self.batch * wl.steps_per_epoch(
            len(self.corpora["source"]), len(self.corpora["target"]), self.batch))

    # -- operations ---------------------------------------------------------

    def command(self, argv: list[str], trace: bool = False, capture: bool = False):
        """One CLI command in a fresh worker; None if it failed."""
        self.n_jobs += 1
        tag = f"{self.n_jobs:03d}-{argv[0]}"
        job = {"argv": argv, "trace": trace,
               "result": self.path(f"{tag}.result.json"),
               "capture": self.path(f"{tag}.pred.npy") if capture else None,
               "trace_out": os.path.join(
                   TRACE_DIR, f"{self.workload}-seed{self.seed}-{tag}.json")}
        with open(self.path(f"{tag}.job.json"), "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        (proc,) = run_children([[sys.executable, os.path.join(HERE, "worker.py"),
                                 self.path(f"{tag}.job.json")]])
        result = None
        if proc.returncode == 0 and os.path.exists(job["result"]):
            with open(job["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        ok = result is not None and result["rc"] == 0
        if result is not None:
            print(f"{tag}: {result['wall_s']:.3f} s", file=sys.stderr)
        self.attempted += 1
        if not ok:
            self.failed += 1
            detail = result["stderr"] if result else proc.stderr
            print(f"operation {argv[0]} failed:\n{detail}", file=sys.stderr)
            return None
        self.rss.append(result["peak_rss_mb"])
        self.walls[trace] += result["wall_s"]
        if trace:
            self.traced.append(result["trace"])
        return result

    def train(self, trace: bool = False) -> None:
        res = self.command(self.train_argv, trace=trace)
        if res is None:
            return
        if not trace:
            self.samples["train_s"].append(res["wall_s"])
            self.samples["setup_train"].append(res["setup_s"])
            self.samples["train_rate"].append(
                self.posts_per_step / (res["wall_s"] - res["setup_s"]))
        self.check_training(json.loads(res["stdout"]))

    def score(self, trace: bool = False) -> None:
        """eval on the eval corpus then weights on the source: one scoring pass."""
        ev = self.command(["eval", "--checkpoint", self.path("model.npz"),
                           "--corpus", self.path("eval.jsonl")],
                          trace=trace, capture=True)
        wt = self.command(["weights", "--checkpoint", self.path("model.npz"),
                           "--corpus", self.path("source.jsonl"),
                           "--csv", self.path("weights.csv")], trace=trace)
        if ev is not None:
            report = json.loads(ev["stdout"].splitlines()[0])
            preds = np.load(ev["capture"]) if "capture" in ev else None
            labels = np.array([p["label"] for p in self.corpora["eval"]])
            self.fail_on("eval", checks.check_eval(report, preds, self.ref["eval"], labels))
        if wt is not None:
            ids = [p["id"] for p in self.corpora["source"]]
            self.fail_on("weights", checks.check_weights(
                checks.read_weights_csv(self.path("weights.csv")),
                dict(zip(ids, self.ref["source_pseudo"]))))
        if ev is not None and wt is not None and not trace:
            posts = len(self.corpora["eval"]) + len(self.corpora["source"])
            self.samples["score_rate"].append(posts / (ev["wall_s"] + wt["wall_s"]))
            self.samples["setup_score"].append(ev["setup_s"] + wt["setup_s"])

    # -- checks -------------------------------------------------------------

    def fail_on(self, what: str, fails: list[str]) -> None:
        for f in fails:
            self.fails.append(f"{what}: {f}")
            print(f"CHECK FAILED {what}: {f}", file=sys.stderr)

    def reference_pass(self) -> None:
        """Reference outputs of the checkpoint just trained, for every corpus."""
        t0 = time.perf_counter()
        ck = reference.Checkpoint(self.path("model.npz"))
        self.ref = {}
        for name, posts in self.corpora.items():
            feats = ck.features(ck.encode([p["text"] for p in posts]))
            self.ref[name] = ck.class_probs(feats)
            if name == "source":
                self.ref["source_pseudo"] = ck.pseudo_probs(feats)
        self.checkpoint = ck
        print(f"reference pass in {time.perf_counter() - t0:.2f}s", file=sys.stderr)

    def check_training(self, summary: dict) -> None:
        labels = np.array([p["label"] for p in self.corpora["source"]])
        history = checks.read_history(self.path("history.csv"))
        self.fail_on("train", checks.check_training(history, summary, self.epochs, labels))
        self.reference_pass()
        target_labels = np.array([p["label"] for p in self.corpora["target"]])
        self.fail_on("train", checks.check_target_accuracy(
            history[-1]["target_accuracy"], self.ref["target"], target_labels))
        if self.workload == "train-wide-frozen":
            if not hasattr(self, "ref_d_k"):
                reps = {name: reference.post_means([p["text"] for p in self.corpora[name]],
                                                   self.vectors, wl.WIDE_DIM)
                        for name in ("source", "target")}
                self.ref_d_k = reference.shift_gate_d_k(reps["source"], reps["target"])
            self.fail_on("gate", checks.check_gate(summary["shift"]["d_k"], self.ref_d_k))
            self.fail_on("frozen embedding", checks.check_frozen_embedding(
                self.checkpoint.arrays["embedding"], self.checkpoint.token_to_id,
                self.vectors))

    # -- rounds -------------------------------------------------------------

    def round(self, trace: bool) -> None:
        if self.workload == "score":
            self.score(trace)
            return
        self.train(trace)
        for _ in range(wl.TRAIN_SCORE_PASSES):
            self.score(trace)

    def execute(self, seconds: float, trace: bool) -> dict:
        t0 = time.perf_counter()
        self.make_inputs()
        print(f"inputs made in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        if self.workload == "score":
            self.train()  # the checkpoint every round scores
        if trace:
            self.walls = {False: 0.0, True: 0.0}
            self.round(trace=False)
            self.round(trace=True)
        else:
            start = time.perf_counter()
            while True:
                self.round(trace=False)
                if time.perf_counter() - start >= seconds:
                    break
        metrics = self.layer_metrics() if trace else self.end_to_end()
        return {"correct": not self.fails,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        setup = "setup_score" if self.workload == "score" else "setup_train"
        values = {"setup_s": statistics.median(self.samples[setup]),
                  "train_s": statistics.median(self.samples["train_s"]),
                  "train_posts_per_s": statistics.median(self.samples["train_rate"]),
                  "score_posts_per_s": statistics.median(self.samples["score_rate"]),
                  "peak_rss_mb": max(self.rss)}
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def layer_metrics(self) -> dict:
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        layer_self: dict[str, float] = defaultdict(float)
        counters: dict[str, float] = defaultdict(float)
        spans, missing = 0, set()
        for summary in self.traced:
            for name, (calls, secs) in summary["totals"].items():
                totals[name][0] += calls
                totals[name][1] += secs
            for layer, secs in summary["self"].items():
                layer_self[layer] += secs
            for name, value in summary["counters"].items():
                counters[name] += value
            spans += summary["spans"]
            missing.update(summary["missing"])
        for name in sorted(missing):
            print(f"trace: wrapped name missing: {name}", file=sys.stderr)

        def secs(*names):
            return sum(totals[n][1] for n in names)

        def per(num, den):
            return counters[num] / counters[den] if counters[den] else 0.0

        m = {
            "text.tokenize_s": (secs("text.tokenize"), "s"),
            "text.tokenize_calls": (totals["text.tokenize"][0], "count"),
            "text.encode_s": (secs("text.encode"), "s"),
            "text.build_vocab_s": (secs("text.build_vocab"), "s"),
            "text.load_pretrained_vectors_s": (secs("text.load_pretrained_vectors"), "s"),
            "text.load_corpus_s": (secs("text.load_corpus"), "s"),
            "mmd.shift_gate_s": (secs("mmd.shift_gate"), "s"),
            "mmd.median_bandwidths_s": (secs("mmd.median_bandwidths"), "s"),
            "mmd.mmd_squared_s": (secs("mmd.mmd_squared"), "s"),
            "mmd.distance_cells": (counters["mmd.distance_cells"], "count"),
            "model.extract_features_s": (secs("model.extract_features"), "s"),
            "model.extract_features_calls": (totals["model.extract_features"][0], "count"),
            "model.extract_features_rows": (counters["model.extract_features_rows"], "count"),
            "model.heads_s": (secs("model.detect", "model.discriminate_event",
                                   "model.pseudo_discriminate"), "s"),
            "model.save_checkpoint_s": (secs("model.save_checkpoint"), "s"),
            "model.load_checkpoint_s": (secs("model.load_checkpoint"), "s"),
            "autodiff.backward_s": (secs("autodiff.backward"), "s"),
            "autodiff.graph_nodes_per_step": (
                per("autodiff.graph_nodes", "autodiff.backward_calls"), "count"),
            "autodiff.grad_bytes": (counters["autodiff.grad_bytes"], "bytes"),
            "autodiff.conv_text_fwd_s": (secs("autodiff.conv_text"), "s"),
            "autodiff.conv_text_bwd_s": (secs("autodiff.conv_text.bwd"), "s"),
            "autodiff.max_pool_full_bwd_s": (secs("autodiff.max_pool_full.bwd"), "s"),
            "autodiff.embedding_lookup_bwd_s": (secs("autodiff.embedding_lookup.bwd"), "s"),
            "training.steps": (totals["training.sgd_step"][0], "count"),
            "training.sgd_step_s": (secs("training.sgd_step"), "s"),
            "training.epoch_tail_s": (per("training.epoch_tail_s", "training.epoch_tails"), "s"),
            "evaluation.evaluate_s": (secs("evaluation.evaluate"), "s"),
            "evaluation.export_weights_s": (secs("evaluation.export_weights"), "s"),
        }
        for layer in tracer.LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m["trace.overhead_pct"] = (100.0 * (self.walls[True] / self.walls[False] - 1.0), "%")
        m["trace.spans"] = (spans, "count")
        m["trace.missing_names"] = (len(missing), "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that run_children stops every child it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "metadetector", "cli.py")):
        print("error: src/metadetector not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(TRACE_DIR, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = Run(args.workload, args.seed, workdir).execute(args.seconds,
                                                                bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
