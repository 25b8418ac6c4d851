"""The repository benchmark.

    python3 perfbench/run.py --workload replay --seed 0 --seconds 10 --trace 0

runs one workload in this process and prints its metrics, one per line
with its unit, then a final JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs once untraced and once with every
layer's entry points wrapped (see ``tracing.py``) and reports the
per-layer metrics.  Without ``--workload`` every workload runs, each in
a fresh process.  Run it from the repository root; the program is
imported from ``src/``.  Metric definitions and the prediction table
are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"
IMPORT_REPEATS = 3


def _median_import_s() -> float:
    """Median wall of a fresh interpreter importing the CLI package."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import repro.cli"
    walls = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        walls.append(time.perf_counter() - t0)
    return sorted(walls)[len(walls) // 2]


def _run_one(spec: dict, workload: str, seed: int, seconds: float,
             trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    import_s = 0.0 if trace else _median_import_s()
    if workload == "serve":
        import serving

        res = serving.run(seed, seconds, trace, import_s, OUT_DIR)
    else:
        import batch

        res = batch.run(workload, seed, seconds, trace, import_s, OUT_DIR)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if trace:
            value = (res.layers or {}).get(m["name"], 0.0)
        else:
            value = res.metrics[m["name"]][0]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in res.notes:
        print(f"# {workload}: {line}")
    for name, entry in metrics.items():
        print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
    correct = res.failed == 0 and res.attempted > 0
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout holding BENCHMARK.json and "
              f"src/repro (looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names,
                   help="workload to run (default: all, each in its own "
                        "process)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.workload is not None:
        return _run_one(spec, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
