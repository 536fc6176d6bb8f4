"""Fault injection: every failure mode of the Monte-Carlo stack is defined.

Each case runs in a child interpreter under a hard deadline: the failure
this suite guards against is often an indefinite hang, and pytest has no
per-test timeout here, so a regression must fail the case instead of
stalling the run.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
DEADLINE_S = 120


def _run_isolated(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter (own process group); return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        # Take the pool workers down with the child.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"fault case still running after {DEADLINE_S} s (hang)")
    assert proc.returncode == 0, out
    return out


# A one-shot trip wire: the first pool worker to find the file removes it
# and dies with os._exit mid-shard; the parent never trips.  Patched into
# the class before any pool forks, so the workers inherit it.
KILLED_WORKER = """
    import importlib
    import os
    import sys
    from concurrent.futures.process import BrokenProcessPool

    import numpy as np

    from repro.decoder.engine import DecodingEngine
    from repro.estimator.sweep import grid, sweep
    from repro.sim.frame import FrameSimulator
    from repro.sim.memory import memory_circuit

    call, trip = sys.argv[1], sys.argv[2]
    parent = os.getpid()


    def tripped():
        if os.getpid() == parent:
            return False
        try:
            os.remove(trip)
        except FileNotFoundError:
            return False
        return True


    def arm():
        open(trip, "w").close()


    sample_weighted = FrameSimulator.sample_weighted


    def tripping_sample(self, shots, rng):
        if tripped():
            os._exit(17)
        return sample_weighted(self, shots, rng)


    FrameSimulator.sample_weighted = tripping_sample


    def point(p):
        if tripped():
            os._exit(17)
        return {"y": p["x"] * 3}


    CALLS = {
        "run": lambda e: e.run(2000, seed=5),
        "run_until": lambda e: e.run_until(50, max_shots=4000, seed=6),
        "run_until_rel_error": lambda e: e.run_until_rel_error(
            0.3, max_shots=4000, seed=7
        ),
        "collect": lambda e: e.collect(2000, seed=8),
    }


    def same(a, b):
        if isinstance(a, tuple):
            return all(np.array_equal(x, y) for x, y in zip(a, b))
        return a == b


    if call == "sweep":
        # Zero pool overhead: the sweep always takes the pooled path.
        importlib.import_module("repro.estimator.sweep")._CALIBRATION[2] = 0.0
        spec = grid(x=tuple(range(12)))
        arm()
        try:
            sweep(point, spec, jobs=2, shard_size=2)
        except BrokenProcessPool:
            pass
        else:
            raise AssertionError("sweep survived a dead worker")
        assert not os.path.exists(trip)
        assert sweep(point, spec, jobs=2, shard_size=2) == sweep(point, spec)
    else:
        circuit = memory_circuit(3, 3, 0.01)
        engine = DecodingEngine(
            circuit, "union_find", shard_shots=256, workers=2
        )
        CALLS[call](engine)  # the pool is up before the fault
        arm()
        try:
            CALLS[call](engine)
        except BrokenProcessPool:
            pass
        else:
            raise AssertionError(f"{call} survived a dead worker")
        assert not os.path.exists(trip)
        # The broken pool was discarded: the same engine respawns one and
        # answers exactly as a fresh engine does.
        recovered = CALLS[call](engine)
        engine.close()
        with DecodingEngine(
            circuit, "union_find", shard_shots=256, workers=2
        ) as fresh:
            assert same(recovered, CALLS[call](fresh)), call
    print("ok", call)
"""


@pytest.mark.parametrize(
    "call", ["run", "run_until", "run_until_rel_error", "collect", "sweep"]
)
def test_killed_worker_raises_broken_pool_and_recovers(call, tmp_path):
    out = _run_isolated(KILLED_WORKER, call, str(tmp_path / "trip"))
    assert out.strip().endswith(f"ok {call}")
