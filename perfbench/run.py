"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uf_d11_pool --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload with ``repro.obs`` spans on and
reports the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The workloads and
the reasons for them are in ``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
WORKLOAD_NAMES = ("uf_d11_pool", "rare_uf_d7", "service_analytic")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout(root: str, scratch: str) -> None:
    """Import ``repro`` from ``root/src`` and keep temporary files (the
    service's result store, multiprocessing scratch) inside the checkout."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no repro sources under {src}")
    sys.path.insert(0, src)
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    # Tracing is the benchmark's switch, not the environment's.
    os.environ.pop("REPRO_TRACE", None)


def execute(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (Run, context dict).  ``tiny`` runs it at
    smoke-test size (used by the tests)."""
    start = time.perf_counter()
    import measure
    from workloads import WORKLOADS

    # Importing the program is part of set-up: work moved to import time
    # must show in setup_s.
    import_s = time.perf_counter() - start
    from repro import obs

    workload = WORKLOADS[name]
    run = measure.Run(seed, seconds, trace, import_s)
    calibration_start = measure.calibration_ms()
    if trace:
        obs.enable_tracing()
    else:
        obs.disable_tracing()
    try:
        workload.run(workload.tiny if tiny else workload.spec, run)
    finally:
        if trace:
            os.makedirs(SCRATCH, exist_ok=True)
            obs.write_trace(os.path.join(SCRATCH, f"trace_{name}.json"))
            obs.disable_tracing()
            obs.clear_trace()
        stop_resource_tracker()
    context = measure.run_context(calibration_start, measure.calibration_ms())
    if trace:
        run.layers["run.calibration_ms"] = (context["calibration_ms_start"], "ms")
    return run, context


def stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for shared memory.

    ``collect()`` allocates shared-memory tables, which starts a resource
    tracker process that would otherwise outlive the run by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def result_line(run) -> dict:
    """The final JSON line: every metric of the run's kind, 0 for a layer
    the workload does not reach."""
    from workloads import E2E_UNITS, LAYER_METRICS

    units = LAYER_METRICS if run.trace else E2E_UNITS
    source = run.layers if run.trace else run.e2e
    metrics = {name: source.get(name, (0.0, unit)) for name, unit in units.items()}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }


def report(name: str, run, context: dict) -> None:
    """Print the run's context and named numbers, then the result line."""
    print("context " + json.dumps(context, sort_keys=True))
    shown = {**run.e2e, **run.named, "failed_frac": (run.failed_frac, "frac")}
    for metric, (value, unit) in sorted(shown.items()):
        print(f"{name} {metric} {value:.6g} {unit}")
    for problem in run.problems:
        print(f"{name} FAILED {problem}")
    print(json.dumps(result_line(run)))


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout(ROOT, SCRATCH)
    run, context = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, run, context)
    return 0


if __name__ == "__main__":
    sys.exit(main())
