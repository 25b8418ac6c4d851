"""Launch the ``repro serve`` CLI in this process, optionally traced.

    python3 perfbench/serve_daemon.py [--trace-dir DIR] -- serve ARGS...

With ``--trace-dir`` the layer wrappers of ``tracing.py`` are installed
before the CLI entry point runs; when the daemon has drained, its spans
go to ``DIR/spans-serve.npz`` and its per-layer totals to
``DIR/layers-serve.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: "list[str]") -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    from repro.cli import main as repro_main

    if "--trace-dir" not in opts:
        return repro_main(cli_args)
    from tracing import SpanRecorder

    trace_dir = Path(opts[opts.index("--trace-dir") + 1])
    rec = SpanRecorder().install()
    try:
        status = repro_main(cli_args)
    finally:
        rec.uninstall()
    rec.write(trace_dir / "spans-serve.npz")
    (trace_dir / "layers-serve.json").write_text(
        json.dumps(rec.layer_metrics()), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
