"""``parallel_for`` / ``parallel_reduce`` over splittable ranges."""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Optional

from repro.tbb.range import blocked_range
from repro.tbb.scheduler import WorkStealingPool, task_group

_default_pool: Optional[WorkStealingPool] = None
_pool_lock = threading.Lock()


def _get_pool(n_workers: Optional[int] = None) -> WorkStealingPool:
    global _default_pool
    with _pool_lock:
        if _default_pool is None:
            from repro.tbb.pipeline import global_control

            n = n_workers or global_control.active_parallelism() or os.cpu_count() or 4
            _default_pool = WorkStealingPool(n)
        return _default_pool


def parallel_for(range_: blocked_range, body: Callable[[blocked_range], None],
                 pool: Optional[WorkStealingPool] = None) -> None:
    """Apply ``body`` to leaf sub-ranges via recursive splitting.

    The classic TBB pattern: a divisible range splits in two, the right
    half is *spawned* (stealable) while the owner recurses into the left
    — depth-first locally, breadth-first for thieves.
    """
    p = pool if pool is not None else _get_pool()
    group = task_group(p)

    def process(r: blocked_range) -> None:
        while r.is_divisible:
            left, right = r.split()
            group.run(lambda rr=right: process(rr))
            r = left
        body(r)

    group.run(lambda: process(range_))
    group.wait()


def parallel_reduce(range_: blocked_range,
                    identity: Any,
                    body: Callable[[blocked_range, Any], Any],
                    reduction: Callable[[Any, Any], Any],
                    pool: Optional[WorkStealingPool] = None) -> Any:
    """TBB's functional-form ``parallel_reduce``."""
    p = pool if pool is not None else _get_pool()
    results: list[Any] = []
    lock = threading.Lock()

    def leaf(r: blocked_range) -> None:
        v = body(r, identity)
        with lock:
            results.append(v)

    parallel_for(range_, leaf, pool=p)
    acc = identity
    for v in results:
        acc = reduction(acc, v)
    return acc
