"""The one process pool behind every sharded path (engine and sweep).

Shards run against per-process state installed once by an initializer
(the ``_WORKER`` dict idiom the source lint enforces).  With metrics on,
each task runs under one generic snapshot/``delta_since`` wrapper and the
parent merges the deltas in task order, so telemetry recorded in workers
comes out as a serial run would record it.  A worker that dies mid-call
surfaces as :class:`concurrent.futures.process.BrokenProcessPool`, not a
hang; retries and per-shard timeouts are not attempted.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.obs import metrics as _metrics
from repro.obs.spans import span


def _metered(fn: Callable[[Any], Any], task: Any):
    """Worker-side wrapper: run one task, ship its metric delta home.

    The snapshot is taken per task (not per worker) so no increment is
    ever shipped twice.
    """
    base = _metrics.snapshot()
    out = fn(task)
    return out, _metrics.delta_since(base)


class WorkerPool:
    """Order-preserving, metric-merging process pool (lazily spawned).

    Args:
        workers: worker processes.  ``1`` runs every task inline and
            re-runs ``initializer`` before every :meth:`map`: inline
            pools (e.g. two engines) share one module-level ``_WORKER``
            dict, so it may hold another pool's state.
        initializer: installs per-process worker state; called once per
            worker process.
        initargs: arguments for ``initializer``.

    A broken pool (dead worker) is discarded after raising, and the next
    :meth:`map` spawns a fresh one.
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable[..., None],
        initargs: Sequence[Any] = (),
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._executor: Optional[ProcessPoolExecutor] = None

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> List[Any]:
        """``[fn(task) for task in tasks]``, run on the workers."""
        tasks = list(tasks)
        if self.workers == 1:
            self._initializer(*self._initargs)
            return [fn(task) for task in tasks]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                self.workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        try:
            if not _metrics.enabled():
                return list(self._executor.map(fn, tasks))
            outs: List[Any] = []
            with span("pool.merge_deltas", tasks=len(tasks)):
                for out, delta in self._executor.map(
                    functools.partial(_metered, fn), tasks
                ):
                    _metrics.merge(delta)
                    outs.append(out)
            return outs
        except BrokenProcessPool:
            self.close()
            raise

    def close(self) -> None:
        """Shut the worker processes down (idempotent; ``map`` respawns)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
