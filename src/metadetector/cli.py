"""Command-line entry points: synth, mmd, train, eval, weights.

Exit codes: 0 success, 1 usage error, 2 data/contract or file error. Reporting
subcommands print a JSON object first, then an aligned human-readable
table where one exists.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields, replace

from .data_synth import SynthSpec, generate, inject_anomalies
from .errors import ContractError, MetaDetectorError
from .evaluation import evaluate, export_weights
from .model import load_checkpoint, save_checkpoint
from .text import load_corpus, save_corpus
from .training import TrainConfig, history_to_csv, prepare, train, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metadetector",
        description="Weighted adversarial event adaptation for fake-news detection")
    sub = parser.add_subparsers(dest="command", required=True)

    # synth's and mmd's settings flags have no default: one left out keeps
    # the dataclass default (see _given)
    p = sub.add_parser("synth", help="generate a synthetic two-event corpus pair")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-source", required=True)
    p.add_argument("--out-target", required=True)
    p.add_argument("--n-source", type=int)
    p.add_argument("--n-target", type=int)
    p.add_argument("--shift", type=float)
    p.add_argument("--signal-strength", type=float)
    p.add_argument("--fake-ratio", type=float)
    p.add_argument("--post-length", type=int)
    p.add_argument("--shared-vocab", dest="shared_vocab_size", metavar="SHARED_VOCAB",
                   type=int)
    p.add_argument("--specific-vocab", dest="specific_vocab_size",
                   metavar="SPECIFIC_VOCAB", type=int)
    p.add_argument("--anomaly-fraction", type=float, default=0.0)

    p = sub.add_parser("mmd", help="shift report between two corpora")
    p.add_argument("--seed", type=int)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--d-star", type=float)
    p.add_argument("--embedding-dim", type=int)

    p = sub.add_parser("train", help="train on a source/target corpus pair")
    p.add_argument("--seed", type=int, help="overrides the config's seed (default 0)")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config", help="JSON file mirroring TrainConfig fields")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--history", help="per-epoch CSV path")
    p.add_argument("--lambda", dest="lambda_", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--d-star", type=float)
    p.add_argument("--weighting", choices=["auto", "on", "off"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)

    p = sub.add_parser("eval", help="metrics of a checkpoint on a labeled corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="write the JSON report here as well")
    p.add_argument("--csv")

    p = sub.add_parser("weights", help="rank source posts by learned weight")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--csv")

    return parser


@contextlib.contextmanager
def _outputs(*paths, inputs=()):
    """Open the output paths given before the block runs, so an unwritable
    one costs no run; if the block fails, remove the files this created.
    An output path that names an input or another output is refused first."""
    seen = {os.path.realpath(path) for path in filter(None, inputs)}
    for path in filter(None, paths):
        if os.path.realpath(path) in seen:
            raise ContractError(f"{path}: output path names an input or another output")
        seen.add(os.path.realpath(path))
    created = []
    try:
        for path in filter(None, paths):
            existed = os.path.exists(path)
            open(path, "ab").close()
            if not existed:
                created.append(path)
        yield
    except BaseException:
        for path in created:
            os.remove(path)
        raise


def _given(args, cls) -> dict:
    """The flags given (not None) that name a field of the dataclass ``cls``."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) is not None}


def _cmd_synth(args) -> int:
    with _outputs(args.out_source, args.out_target):
        spec = SynthSpec(**_given(args, SynthSpec))
        source, target = generate(spec)
        source = inject_anomalies(source, args.anomaly_fraction, seed=spec.seed + 1, spec=spec)
        save_corpus(source, args.out_source)
        save_corpus(target, args.out_target)
    print(json.dumps({"n_source": len(source), "n_target": len(target),
                      "source_path": args.out_source,
                      "target_path": args.out_target}))
    return 0


def _cmd_mmd(args) -> int:
    source = load_corpus(args.source, role="source")
    target = load_corpus(args.target, role="target")
    config = TrainConfig(**_given(args, TrainConfig))
    _, _, _, report = prepare(source, target, config)
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    overrides = _given(args, TrainConfig)
    if args.weighting is not None:
        overrides["weighting_override"] = {
            "auto": "auto", "on": "always_on", "off": "always_off"}[args.weighting]
    config = replace(config, **overrides)
    # the checkpoint path takes the suffix np.savez appends
    out = args.out if args.out.endswith(".npz") else args.out + ".npz"
    with _outputs(out, args.history, inputs=(args.source, args.target, args.config,
                                             config.pretrained_vectors)):
        source = load_corpus(args.source, role="source")
        target = load_corpus(args.target, role="target")
        params, history, shift = train(source, target, config)
        save_checkpoint(params, out)
        if args.history:
            history_to_csv(history, args.history)
    last = history[-1]
    print(json.dumps({
        "checkpoint": out,
        "epochs": len(history),
        "shift": shift.to_dict(),
        "final_source_accuracy": last.source_accuracy,
        "final_target_accuracy": last.target_accuracy,
        "final_losses": {"detection": last.loss_detection,
                         "event": last.loss_event,
                         "pseudo": last.loss_pseudo},
    }))
    return 0


def _cmd_eval(args) -> int:
    with _outputs(args.out, args.csv, inputs=(args.checkpoint, args.corpus)):
        params = load_checkpoint(args.checkpoint)
        corpus = load_corpus(args.corpus, role="target")
        report = evaluate(params, corpus)
        payload = json.dumps(report.to_dict())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        if args.csv:
            write_csv(args.csv, ["class", "precision", "recall", "f1",
                                 "tp", "fp", "tn", "fn"],
                      ([name, m.precision, m.recall, m.f1, m.tp, m.fp, m.tn, m.fn]
                       for name, m in report.per_class.items()))
    print(payload)
    print(report.to_table(), file=sys.stderr)
    return 0


def _cmd_weights(args) -> int:
    with _outputs(args.csv, inputs=(args.checkpoint, args.corpus)):
        params = load_checkpoint(args.checkpoint)
        corpus = load_corpus(args.corpus, role="source")
        ranking = export_weights(params, corpus, top_n=args.top_n)
        if args.csv:
            write_csv(args.csv, ["post_id", "weight", "pseudo_prob", "excerpt"],
                      ([e.post_id, e.weight, e.pseudo_prob, e.excerpt]
                       for e in ranking.entries))
    print(json.dumps(ranking.to_dict()))
    return 0


_COMMANDS = {"synth": _cmd_synth, "mmd": _cmd_mmd, "train": _cmd_train,
             "eval": _cmd_eval, "weights": _cmd_weights}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap per our contract
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (MetaDetectorError, OSError) as exc:  # OSError: a file cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
