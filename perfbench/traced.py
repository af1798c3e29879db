"""Run one clustereval command in-process with spans around each layer.

Usage: PYTHONPATH=src python3 perfbench/traced.py <clustereval arguments...>

Wraps the entry points the CLI reaches, runs ``clustereval.cli.main`` with
the command's stdout captured, and prints one JSON object: the exit code,
the captured stdout, the spans (name, start, end, parent, ru_maxrss after
the call) and the entry points that could not be wrapped. A missing entry
point is reported, not fatal, so a refactor that removes one leaves that
layer absent and the rest measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import resource
import sys
import time

# (module, attribute looked up at call time, span name)
ENTRY_POINTS = (
    ("clustereval.cli", "parse_clustering_file", "io_formats.parse"),
    ("clustereval.cli", "validate", "model.validate"),
    ("clustereval.single_pass", "evaluate_all", "single_pass.evaluate"),
    ("clustereval.oracle", "evaluate_all", "oracle.evaluate"),
    ("clustereval.cli", "write_report", "io_formats.render"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self._stack.pop()

        return traced


def main(argv) -> int:
    tracer = Tracer()
    unwrapped = []
    for module_name, attr, span_name in ENTRY_POINTS:
        try:
            module = importlib.import_module(module_name)
            setattr(module, attr, tracer.wrap(getattr(module, attr), span_name))
        except (ImportError, AttributeError):
            unwrapped.append(span_name)
    cli = importlib.import_module("clustereval.cli")
    run = tracer.wrap(cli.main, "cli.main")

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            status = run(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            status = exc.code if isinstance(exc.code, int) else 1
    json.dump({"exit": status, "stdout": captured.getvalue(), "spans": tracer.spans, "unwrapped": unwrapped}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
