"""Run the ``repro-serve`` entry point, optionally with span wrappers.

Usage::

    python3 perfbench/serve_launcher.py --report PATH [--trace] -- <repro-serve flags>

Both the untraced and the traced benchmark runs start the server
through this launcher, so they share one process topology.  With
``--trace`` the serve-layer wrappers are installed before the server is
built.  When the server has drained (SIGTERM), the launcher writes one
JSON report to ``PATH``: the process's peak RSS and, when traced, the
span summary and counters; the spans themselves go next to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from common import peak_rss_mb  # noqa: E402
from layers import install_serve_layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install_serve_layers(recorder)
    from repro.serve.cli import main as serve_main

    code = serve_main(serve_args)
    report = {"exit": code, "peak_rss_mb": peak_rss_mb()}
    if recorder is not None:
        report["summary"] = recorder.summary()
        report["counts"] = recorder.counts()
        recorder.dump(Path(args.report).with_suffix(".spans.tsv"))
    Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
