"""Measurement helpers shared by the workloads: the per-run record, set-up
stages from ``repro.obs`` spans, counter deltas, memory and run context.

Everything here observes the program from outside: stages are spans the
benchmark opens around calls into public functions, and layer counters are
read from the ``repro.obs`` registry the program already maintains.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro import obs


class Run:
    """One benchmark run: its arguments, the metrics it reports and the
    outcome of every operation and correctness check it made.

    ``attempted`` counts units of work (shards, estimates, requests) plus
    checks; ``failed`` counts the ones that failed.  ``failed_frac`` is
    their ratio, reported beside the metrics.
    """

    def __init__(self, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0) -> None:
        self.seed = seed
        self.import_s = import_s  # time to import the program, in setup_s
        self.seconds = seconds
        self.trace = trace
        self.e2e: Dict[str, Tuple[float, str]] = {}
        self.layers: Dict[str, Tuple[float, str]] = {}
        # The workload's own names for its end-to-end numbers (e.g.
        # ``shots_per_s``), printed for people; the JSON uses ``e2e``.
        self.named: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def seeds(self, stream: int, index: int) -> np.random.SeedSequence:
        """A fresh seed for one operation.

        Streams keep set-up, warm-up and measured operations apart, so no
        measured operation decodes a syndrome stream seen earlier in the
        process; ``--seed`` keeps runs apart from each other.
        """
        return np.random.SeedSequence([self.seed, stream, index])

    def work(self, units: int, failed: int = 0, what: str = "") -> None:
        self.attempted += units
        if failed:
            self.failed += failed
            self.problems.append(f"{failed} failed: {what}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# Stream tags for Run.seeds().
WARMUP, MEASURED, TRACED = 1, 2, 3


# -- set-up spans ---------------------------------------------------------


def span_seconds(events: Sequence[dict]) -> Dict[str, float]:
    """Total duration per span name, in seconds."""
    totals: Dict[str, float] = {}
    for event in events:
        totals[event["name"]] = totals.get(event["name"], 0.0) + event["dur"] / 1e6
    return totals


def median_setup(reps: List[Tuple[float, List[dict]]]) -> Tuple[float, Dict[str, float]]:
    """(set-up seconds, span seconds per stage) of the median set-up.

    Each rep is (wall seconds, span events recorded during it); taking the
    stages of one whole rep keeps their sum comparable to its total.
    """
    ordered = sorted(reps, key=lambda rep: rep[0])
    wall, events = ordered[(len(ordered) - 1) // 2]
    return wall, span_seconds(events)


# -- counters -----------------------------------------------------------------


def counter_totals() -> Dict[str, float]:
    """Every counter summed over its label sets; histograms as ``name:sum``
    and ``name:count``."""
    out: Dict[str, float] = {}
    for name, family in obs.snapshot().items():
        if family["type"] == "histogram":
            out[name + ":sum"] = sum(v["sum"] for v in family["series"].values())
            out[name + ":count"] = sum(v["count"] for v in family["series"].values())
        elif family["type"] == "counter":
            out[name] = sum(family["series"].values())
    return out


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- statistics, memory, context ----------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb(children: int = 0) -> float:
    """Peak resident memory of this process plus ``children`` concurrent
    child processes (pool workers, a server).

    Each child is counted at the largest peak among the reaped children
    (the kernel keeps no per-child figure), so call this after they ended.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def calibration_ms() -> float:
    """Median time of a short fixed kernel (numpy sort plus a Python loop).

    Printed with every result so drift of a shared machine between runs
    shows up; results are not normalised by it.
    """
    data = np.random.default_rng(12345).random(200_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(data)
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def run_context(calibration_start: float, calibration_end: float) -> dict:
    return {
        "metadata": obs.run_metadata(),
        "nproc": os.cpu_count(),
        "calibration_ms_start": calibration_start,
        "calibration_ms_end": calibration_end,
        "calibration_drift_frac": calibration_end / calibration_start - 1.0,
    }


def closed_loop(deadline_s: float) -> Iterator[int]:
    """Operation indices until ``deadline_s`` has passed (at least one);
    the caller runs one operation per index, so the next starts only when
    the previous one returned."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < deadline_s:
        yield index
        index += 1