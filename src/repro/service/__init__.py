"""Verification-as-a-service: a persistent job platform for design checking.

Every expensive pipeline this repo owns — static lint (:mod:`repro.lint`),
Section 5.2 buffer estimation (:mod:`repro.desync.estimator`), explicit /
symbolic / bounded model checking (:mod:`repro.mc`) and fault soaks
(:mod:`repro.faults`) — used to be a one-shot CLI invocation.  This
package turns them into *jobs* on a long-lived scheduler so that a design
shop can push thousands of checks per commit and get the throughput the
perf layers bought:

- :mod:`repro.service.jobs` — job specs, states and the content-addressed
  job key (a design is hashed by its canonical serialized *content*, so
  two structurally equal designs share one key);
- :mod:`repro.service.runner` — the deterministic per-job executor, a
  module-level function that also runs inside pool workers;
- :mod:`repro.service.scheduler` — priority queues, job states,
  cancellation, in-flight coalescing and backfill over a persistent
  worker pool (generalizing :mod:`repro.perf.sweep` from
  one-grid-one-pool to a long-lived service); a resubmitted job key is
  served from the job table, which keeps every ``done`` envelope, a
  ``verify`` or ``prove`` key the persistent store holds is served from
  it at submit, without a worker, and the hit/miss counts live in
  :data:`repro.perf.PERF`;
- :mod:`repro.service.server` / :mod:`repro.service.client` — a
  line-delimited JSON socket API (``repro serve`` / ``repro submit``)
  with streaming progress events;
- :mod:`repro.service.smoke` — the ``make serve-smoke`` gate: a real
  server, a mixed batch, byte-identity vs sequential execution, and a
  second server lifetime served from the store the first one filled.

Determinism contract: a job's ``result`` payload depends only on its
spec, never on worker count, scheduling order or cache state, so the
scheduler is free to reorder and shard.  Experiment A12 pushes a
10k-mixed-job batch through 1/2/4 workers and asserts byte-identical
digests against in-process sequential execution.
"""

from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_KINDS,
    JOB_STATES,
    PENDING,
    RUNNING,
    JobSpec,
    design_key,
    job_key,
    resolve_program,
    result_digest,
)
from repro.service.runner import execute
from repro.service.scheduler import JobRecord, Scheduler
from repro.service.server import ServiceServer
from repro.service.client import ServiceClient

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_KINDS",
    "JOB_STATES",
    "PENDING",
    "RUNNING",
    "JobSpec",
    "JobRecord",
    "Scheduler",
    "ServiceClient",
    "ServiceServer",
    "design_key",
    "execute",
    "job_key",
    "resolve_program",
    "result_digest",
]
