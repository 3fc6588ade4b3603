"""Out-of-program tracing: spans around calls into each layer's public
functions, installed by rebinding the attributes the callers resolve.

The program is not modified.  :func:`install` replaces each traced
function with a wrapper everywhere it is bound — the defining module,
every ``repro`` module that imported the name, and the class for methods —
because the service runner imports its callees inside the handler
(``from repro.mc import compile_lts`` in ``_run_verify``) and so resolves
the package attribute, not the defining module's.

Each span records its name, start, end, parent span and thread.  Self
time is a span's duration minus the time its child spans cover.  Spans
marked *hot* (one per reaction or per LTS transition) are folded into
per-name totals instead of being kept one by one, and still count as
child time of their parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional


class Target(NamedTuple):
    module: str
    attr: str                  # "func" or "Class.method"
    span: Optional[str]        # None: result hook only, no span
    hot: bool = False
    everywhere: bool = True    # rebind in every module holding the function
    hook: Optional[str] = None  # Tracer method fed (result, args)


TARGETS = (
    Target("repro.service.runner", "execute", "service.execute"),
    Target("repro.service.jobs", "job_key", "service.job_key"),
    Target("repro.mc.store", "MCStore.get", "mc.store.get"),
    Target("repro.mc.store", "MCStore.put", "mc.store.put"),
    Target("repro.mc.compile", "compile_lts", "mc.compile_lts"),
    Target("repro.mc.compile", "_react_outcome", "mc.compile_lts.react", hot=True),
    Target("repro.mc.compile", "Reactor", "mc.compile_lts.reactor", everywhere=False),
    Target("repro.mc.lts", "LTS.add_transition_frozen", "mc.lts.state", hot=True),
    Target("repro.mc.lts", "LTS.mark_invalid_frozen", "mc.lts.state", hot=True),
    Target("repro.mc.lts", "lts_to_dict", "mc.lts_codec"),
    Target("repro.mc.lts", "lts_from_dict", "mc.lts_codec"),
    Target("repro.mc.symbolic", "SymbolicChecker.__init__", "mc.symbolic"),
    Target("repro.mc.symbolic", "SymbolicChecker.check_never_present", "mc.symbolic"),
    Target("repro.mc.symbolic", "SymbolicChecker.state_count", "mc.symbolic"),
    Target("repro.mc.bdd", "BDD.__init__", None, hook="_on_bdd"),
    Target("repro.mc.compose", "verify_composed", "mc.compose", hook="_on_compose"),
    Target("repro.mc.bmc", "bounded_never_present", "mc.bmc"),
    Target("repro.prove.core", "prove_flow_equivalence", "prove", hook="_on_prove"),
    Target("repro.lint.engine", "lint_program", "lint"),
    Target("repro.lang.serializer", "program_to_dict", "lang.serializer"),
    Target("repro.lang.serializer", "program_from_dict", "lang.serializer"),
    Target("repro.lang.analysis", "flatten_program", "lang.flatten"),
    Target("repro.sim.specialize", "SpecializedPlan.__init__", "sim.specialize"),
    Target("repro.sim.batch", "simulate_batch", "sim.batch"),
    Target("repro.gals.network", "AsyncNetwork.run", "gals.network_run"),
    Target("repro.faults.soak", "soak_batch", "faults.soak_batch"),
    Target("repro.desync.transform", "desynchronize", "desync.desynchronize"),
    Target("repro.desync.estimator", "estimate_buffer_sizes", "desync.estimate",
           hook="_on_estimate"),
    Target("repro.perf.sweep", "sweep", "perf.sweep", hook="_on_sweep"),
)

#: modules imported before patching, so their import-time bindings of
#: traced names exist and get rebound
PRELOAD = (
    "repro.service", "repro.service.runner", "repro.service.scheduler",
    "repro.service.server", "repro.mc", "repro.mc.compose", "repro.mc.symbolic",
    "repro.mc.store", "repro.mc.bmc", "repro.prove", "repro.prove.core",
    "repro.lint", "repro.lint.engine", "repro.lang", "repro.lang.serializer",
    "repro.sim", "repro.sim.batch", "repro.sim.specialize", "repro.gals.network",
    "repro.faults", "repro.faults.soak", "repro.desync", "repro.desync.estimator",
    "repro.desync.transform", "repro.perf.sweep", "repro.workloads.scenarios",
)


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: name -> [calls, inclusive seconds (outermost only), self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.bdds: List[Any] = []
        self.compose_calls = 0
        self.compose_fallbacks = 0
        self.prove_calls = 0
        self.prove_affine = 0
        self.estimate_iterations = 0
        self.sweep_task_s = 0.0
        self.sweep_capacity_s = 0.0
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        name = target.span
        hot = target.hot
        hook = getattr(self, target.hook) if target.hook else None

        if name is None:
            @functools.wraps(fn)
            def hook_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(result, args)
                return result

            return hook_only

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            # frame: name, start, child seconds, id, parent id
            frame = [name, 0.0, 0.0, None if hot else next(tracer._ids),
                     None if parent is None else parent[3]]
            stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, end, stack, hot)
            if hook is not None:
                hook(result, args)
            return result

        return wrapper

    def _close(self, frame: list, end: float, stack: list, hot: bool) -> None:
        name, start, child, span_id, parent_id = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        outermost = hot or all(f[0] != name for f in stack)
        with self._lock:
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            if outermost:
                total[1] += duration
            total[2] += duration - child
            if not hot:
                self.spans.append({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent_id, "thread": threading.get_ident(),
                })

    # -- result hooks -----------------------------------------------------------

    def _on_bdd(self, result, args) -> None:
        with self._lock:
            self.bdds.append(args[0])

    def _on_compose(self, cert, args) -> None:
        with self._lock:
            self.compose_calls += 1
            self.compose_fallbacks += cert.method == "monolithic"

    def _on_prove(self, cert, args) -> None:
        with self._lock:
            self.prove_calls += 1
            self.prove_affine += cert.method == "affine-inductive"

    def _on_estimate(self, report, args) -> None:
        with self._lock:
            self.estimate_iterations += report.iterations

    def _on_sweep(self, report, args) -> None:
        with self._lock:
            self.sweep_task_s += sum(r.seconds for r in report.results)
            self.sweep_capacity_s += report.workers * report.seconds

    # -- queries ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def seconds(self, name: str) -> float:
        """Inclusive time, counting nested same-name spans once."""
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def seconds_under(self, names, ancestor: str) -> float:
        """Time in spans named in ``names`` that run inside ``ancestor``."""
        by_id = {s["id"]: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span["name"] not in names:
                continue
            parent = by_id.get(span["parent"])
            while parent is not None and parent["name"] != ancestor:
                parent = by_id.get(parent["parent"])
            if parent is not None:
                total += span["end"] - span["start"]
        return total

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        for module in PRELOAD:
            importlib.import_module(module)
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self.wrap(original, target))
                continue
            original = getattr(owner, target.attr)
            wrapped = self.wrap(original, target)
            holders = [owner]
            if target.everywhere:
                holders = [
                    m for name, m in list(sys.modules.items())
                    if name.startswith("repro") and m is not None
                    and getattr(m, target.attr, None) is original
                ]
            if not holders:
                raise RuntimeError("no module binds {}.{}".format(
                    target.module, target.attr))
            for holder in holders:
                self._patch(holder, target.attr, wrapped)

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
