"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-suite --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs traced passes next to untraced ones and reports the
per-layer metrics.  Standard output gets one ``name value unit`` line
per metric; in an untraced run, a ``host_speed`` line with the host's
mean speed relative to the reference the times are scaled to (see
``clock.py``); a ``counters`` line with a digest of the deterministic
counters (equal digests mean equal counters); and last a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when measured (failed operations show in the JSON);
2 when the checkout holds no ``src/repro`` to measure or the arguments
are wrong; 3 when a deterministic counter drifted, which is a benchmark
error rather than noise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_repro() -> bool:
    """Put this checkout's ``src`` first on the path; False if it has none."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    return Path(repro.__file__).resolve().parent == (SRC / "repro").resolve()


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_repro():
        print("perfbench: no src/repro under {}; nothing to measure".format(ROOT),
              file=sys.stderr)
        return 2
    from perfbench import harness

    if args.workload not in harness.WORKLOADS:
        print("perfbench: unknown workload {!r}; expected one of {}".format(
            args.workload, sorted(harness.WORKLOADS)), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workload = harness.WORKLOADS[args.workload](args.seed)
    try:
        measured = harness.measure(workload, args.seconds, bool(args.trace), src_root=SRC)
        unknown = sorted(set(measured.metrics) - {d["name"] for d in declared})
        missing = sorted({d["name"] for d in declared} - set(measured.metrics))
        if unknown or missing:
            raise harness.BenchmarkError(
                "measured metrics differ from BENCHMARK.json: missing {}, unknown {}".format(
                    missing, unknown))
    except harness.BenchmarkError as exc:
        print("perfbench: {}".format(exc), file=sys.stderr)
        return 3

    ledger = measured.ledger
    for problem in ledger.problems:
        print("perfbench: failed {}".format(problem), file=sys.stderr)
    metrics = {}
    for entry in declared:
        value = measured.metrics[entry["name"]]
        # A failed operation can leave a geomean undefined; the run is
        # then reported incorrect, and the value as null.
        metrics[entry["name"]] = {
            "value": value if math.isfinite(value) else None,
            "unit": entry["unit"],
        }
        print("{} {} {}".format(entry["name"], value, entry["unit"]))
    if not args.trace:
        print("host_speed {:.4f} (the run's mean; times above are at the reference speed)".format(
            measured.host_speed))
    print("counters {} {}".format(len(measured.counters),
                                  harness.counters_digest(measured.counters)))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
