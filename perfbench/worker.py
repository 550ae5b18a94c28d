"""One CLI command in a fresh process, timed from outside.

    python3 perfbench/worker.py <job.json>

The job names the ``metadetector`` arguments, whether to trace, and where
to write the result. Run from the root of the repository. The command runs
in-process through ``metadetector.cli.main``, as the console script would.

Set-up is observed by a probe on ``model.extract_features``: the time from
the call into ``cli.main`` to the first call into the extractor.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import metadetector.cli as cli  # noqa: E402
import tracer  # noqa: E402


def install_probe() -> dict:
    seen: dict = {}
    extract = sys.modules["metadetector.model"].extract_features

    def probed(*args, **kwargs):
        if "first" not in seen:
            seen["first"] = time.perf_counter()
        return extract(*args, **kwargs)

    tracer.rebind(extract, probed)
    return seen


def install_capture() -> dict:
    """Keep the predictions ``evaluate`` hands to its metrics."""
    captured: dict = {}
    evaluation = sys.modules["metadetector.evaluation"]
    metrics = getattr(evaluation, "metrics_from_predictions", None)
    if metrics is None:
        return captured

    def keep(predictions, labels, *args, **kwargs):
        captured["predictions"] = np.asarray(predictions)
        return metrics(predictions, labels, *args, **kwargs)

    tracer.rebind(metrics, keep)
    return captured


def run(job: dict) -> dict:
    trace = tracer.Tracer() if job.get("trace") else None
    probe = None if trace else install_probe()
    captured = install_capture() if job.get("capture") else {}
    main = cli.main
    if trace:
        trace.install()
        main = trace.wrap("cli.main", cli.main)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(job["argv"])
        wall = time.perf_counter() - start

    result = {"rc": rc, "wall_s": wall, "stdout": out.getvalue(),
              "stderr": err.getvalue()[-2000:],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if probe is not None and "first" in probe:
        result["setup_s"] = probe["first"] - start
    if "predictions" in captured:
        np.save(job["capture"], captured["predictions"])
        result["capture"] = job["capture"]
    if trace:
        result["trace"] = trace.summary()
        trace.write(job["trace_out"])
    return result


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
