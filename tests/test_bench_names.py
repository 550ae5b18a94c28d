"""Every name the benchmark's tracer and probes wrap exists in the package.

``perfbench/tracer.py`` reports a renamed function only as a non-zero
``trace.missing_names`` in a benchmark run, and a renamed
``model.extract_features`` silently blinds the ``setup_s`` probe of
``perfbench/worker.py``. This test reads the tracer's target list, so a
rename fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.TARGETS]


# Wrapped by the tracer outside TARGETS, or by the worker's probes.
PROBED = [
    ("model", "extract_features"),               # the setup_s probe
    ("evaluation", "metrics_from_predictions"),  # the prediction capture
    ("training", "make_batches"),                # the epoch-tail timer
    ("autodiff", "backward"),
    ("autodiff", "Tensor"),                      # the grad-bytes counter
]


def test_every_wrapped_name_exists():
    missing = [f"metadetector.{mod}.{attr}" for mod, attr in _tracer_targets() + PROBED
               if not hasattr(importlib.import_module(f"metadetector.{mod}"), attr)]
    assert missing == []
