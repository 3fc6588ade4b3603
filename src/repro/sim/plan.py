"""The process-wide cache of reaction plans.

Soaks, sweeps, the estimator and the checkers build the *same* components
over and over (one fresh :class:`~repro.gals.network.AsyncNetwork` per
task, one design per job), so :func:`shared_plan` compiles each
component once per process into its
:class:`~repro.sim.specialize.SpecializedPlan` and every
:class:`~repro.sim.engine.Reactor` built without ``plan=`` and every
:func:`~repro.sim.batch.simulate_batch` runs the cached one.  A
component whose generated code would be over the generator's budget
(:class:`~repro.sim.specialize.PlanBudgetError`) is cached as its
:class:`~repro.sim.engine.Interpreter` instead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict

from repro.lang.ast import Component
from repro.lang.serializer import content_key
from repro.perf import PERF
from repro.sim.engine import Interpreter
from repro.sim.specialize import PlanBudgetError, SpecializedPlan, clear_code_table


# A build type-checks the component, walks the AST once per equation,
# generates the step functions, and compile()s each step shape not yet
# compiled in this process.  Plans are cached by component *content*
# (repro.lang.serializer.content_key, which ignores identity and source
# spans) and by signal declaration order (a plan's slots, and so a
# reactor's outputs, follow that order), under a bounded LRU; a hit's
# content was type-checked when its plan was built.  Hits, misses and
# evictions are counted in repro.perf as ``plan.cache_hits`` /
# ``plan.cache_misses`` / ``plan.cache_evictions``, which
# :func:`plan_cache_stats` reads back.
#
# The cache is shared state between whatever threads build reactors — in
# particular the verification service's scheduler thread and its socket
# request handlers — so every access happens under ``_plan_lock``.
# Compilation itself stays inside the lock: racing threads would otherwise
# duplicate the expensive AST walk only for one result to be discarded.

_PLAN_CACHE_CAPACITY = 128
_plan_cache: "OrderedDict[tuple, object]" = OrderedDict()
_plan_lock = threading.RLock()


def shared_plan(component: Component):
    """The process-wide cached executor of ``component``: its
    :class:`~repro.sim.specialize.SpecializedPlan`, or its
    :class:`~repro.sim.engine.Interpreter` when a generated function
    would be over budget.  One entry per
    :func:`~repro.lang.serializer.content_key` and signal declaration
    order; :func:`clear_plan_cache` empties the cache (useful around
    benchmarks)."""
    key = (content_key(component), tuple(component.signals()))
    with _plan_lock:
        plan = _plan_cache.get(key)
        if plan is not None:
            _plan_cache.move_to_end(key)
            PERF.incr("plan.cache_hits")
            return plan
        PERF.incr("plan.cache_misses")
        try:
            plan = SpecializedPlan(component)
        except PlanBudgetError:
            plan = Interpreter(component)
        _plan_cache[key] = plan
        while len(_plan_cache) > _PLAN_CACHE_CAPACITY:
            _plan_cache.popitem(last=False)
            PERF.incr("plan.cache_evictions")
        return plan


def clear_plan_cache() -> None:
    """Drop every cached plan, and every compiled step shape of
    :mod:`repro.sim.specialize` (benchmarks use this to time cold
    builds).

    Hit/miss/eviction statistics live in ``repro.perf`` and survive a
    clear."""
    with _plan_lock:
        _plan_cache.clear()
    clear_code_table()


def plan_cache_stats() -> Dict[str, int]:
    """This process's cache occupancy plus the ``plan.cache_*`` counts
    of :data:`repro.perf.PERF` — which, outside a task's counter scope,
    include every task folded back from a worker pool."""
    with _plan_lock:
        return {
            "size": len(_plan_cache),
            "capacity": _PLAN_CACHE_CAPACITY,
            "hits": PERF.get("plan.cache_hits"),
            "misses": PERF.get("plan.cache_misses"),
            "evictions": PERF.get("plan.cache_evictions"),
        }
