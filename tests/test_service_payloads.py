"""Pinned ``verify``, ``prove``, ``soak`` and ``estimate`` result digests
of the service runner.

The perfbench goldens pin these payloads too, but tier-1 does not run
them.  Each digest below is the :func:`repro.service.runner.execute`
digest of one job: one proven and one refuted ``verify`` job per
backend, model-checked ``prove`` jobs on every prover backend, and one
affine proof each way.  A change to how the backends are dispatched must
leave every digest as it is, whether the job runs without a store, cold
into a fresh store, or warm from the store, where each job is one read
of its ``job-result`` entry (the envelope :func:`execute` put under the
job key).  The ``soak`` and ``estimate`` jobs read no store; their
digests pin the batched fault soak and buffer estimation behind those
handlers.
"""

from repro.mc.store import STORE_ENV
from repro.perf import PERF
from repro.service import execute

CHAIN = {"name": "gals_relay_chain", "args": {"stages": 1}}
POLLED = {"always": ["f0_rreq"]}
ALTERNATING = {"x0": "alternating", "f0_msgout": "alternating",
               "x1": "alternating"}

JOBS = [
    ("verify-explicit-proven", "verify", CHAIN,
     dict(POLLED, backend="explicit", never="f0_alarm"),
     "9cc0741aacbe6e22e5ac8cbd854cf8ae2b92cbea91faf73aabb7cbdee69a83c4"),
    ("verify-explicit-refuted", "verify", "toggle_producer",
     {"backend": "explicit", "never": "x"},
     "1c430301b25c3f45ace028a8911e2b242fb7e64924f75217fb3ef60bdebce547"),
    ("verify-symbolic-proven", "verify", CHAIN,
     dict(POLLED, backend="symbolic", never="f0_alarm"),
     "600bccf97dad7cc7ae4db478299592126f7f0eb15feb5a89130b81ba6cf1786a"),
    ("verify-symbolic-refuted", "verify", "toggle_producer",
     {"backend": "symbolic", "never": "x"},
     "242367c83d91f7a3e0e3a6df5a9b3eb92ef98202b35fdabaa010c80952a12404"),
    ("verify-bounded-safe", "verify", CHAIN,
     dict(POLLED, backend="bounded", never="f0_alarm", depth=4),
     "75aa6733885cb4fdb2b8eabf6e206b72682f120bdfa7edc6ec2a5d35e56d5837"),
    ("verify-bounded-refuted", "verify", "toggle_producer",
     {"backend": "bounded", "never": "x", "depth": 4},
     "b74888238ce65f457a0752465622798dbd74e5cfddf006c51270f248b4807629"),
    ("verify-compose-proven", "verify", CHAIN,
     dict(POLLED, backend="compose", never="f0_alarm"),
     "9245ae96ea27ea7772af13dce7d3aaf12ce4462466cda0507b3de7c3dbb89297"),
    ("verify-compose-refuted", "verify", "toggle_producer",
     {"backend": "compose", "never": "x"},
     "44e366666e2ca3fe05b19ef019f93647bbb510e31f03d9ca63fd9c6970087e0e"),
    ("verify-compose-contracts", "verify", CHAIN,
     dict(POLLED, backend="compose", never="dup", contracts=ALTERNATING),
     "6f94d1f343879079c3b6e7748a3ae30694d3ef25d2996857d0262c551b5b9f9b"),
    ("prove-explicit-refuted", "prove", "boolean_producer_consumer",
     {"backend": "explicit", "capacities": 1},
     "dff9590b454016b18e98d4c1ed89c072334b93e8409b0c579183a94754a69b15"),
    ("prove-explicit-proven", "prove", "boolean_producer_consumer",
     {"backend": "explicit", "capacities": 1, "always": ["x_rreq"]},
     "3f10164194075b33e48597d2b0cb6c5fddc15ca83d88e8488b517ada89d185f4"),
    ("prove-symbolic-refuted", "prove", "boolean_producer_consumer",
     {"backend": "symbolic", "fifo": "boolean", "capacities": 1},
     "7a63cdf1457026b20df9f81c9b8b4698c22a0337d4e53926ce4e920df5686b3b"),
    ("prove-symbolic-proven", "prove", "boolean_producer_consumer",
     {"backend": "symbolic", "fifo": "boolean", "capacities": 1,
      "never_input": ["p_act"]},
     "e39d6bc95f70fa505399742325603c29ed8e12d6aac937b951d9cd19915946ce"),
    ("prove-compose-refuted", "prove", "boolean_producer_consumer",
     {"backend": "compose", "capacities": 1},
     "c83c535d382d1e029d511094908b3d794bc9bd596991e43ad7d30659427244be"),
    ("prove-compose-proven", "prove", "boolean_producer_consumer",
     {"backend": "compose", "capacities": 1, "always": ["x_rreq"]},
     "83dbc52ffa3b23b0af14dcd06cd19f23dedbf2b27d67880fadd31b01b3ca9167"),
    ("prove-affine-proven", "prove", "producer_consumer",
     {"rates": ["p_act:1", "x_rreq:1"]},
     "e88c0ddbe46a27cadad898ffb3a15df0571935a3b5299db4d46a13edae12ec98"),
    ("prove-affine-refuted", "prove", "producer_consumer",
     {"rates": ["p_act:1", "x_rreq:2"]},
     "5874173387ff5e10bd11fc3ed892fa530a70399ce38094d2c62c1cf3daf11616"),
]


SIM_JOBS = [
    ("estimate-default", "estimate", "producer_consumer", {},
     "f7a1e98b11c33f231c1ea4305c70068d80a59fa3c5ab9f8e9dc9205278a7d7fe"),
    ("estimate-capped", "estimate", "producer_consumer",
     {"horizon": 30, "stim": ["p_act:1", "x_rreq:3"], "initial": 2,
      "max_capacity": 6},
     "1cd09edfa42f56db57c7416038d739a8a35051e9988e0a6e1232a50716b2b16d"),
    ("estimate-pipeline", "estimate",
     {"name": "pipeline", "args": {"stages": 2}},
     {"horizon": 20, "stim": ["p_act:1", "x0_rreq:2", "x1_rreq:1"]},
     "0bd1149395e8f04ba98b8b79300bdd2bf4fa0e22400905bac547cb823870d86b"),
    ("soak-drop", "soak", "producer_consumer",
     {"seed": 3, "drop": 0.2, "horizon": 8.0},
     "8b4cedf9de89a78da1f8c47da242849a7ee3c4971f1da9d1ab0f8919d62e33e2"),
    ("soak-duplicate-reorder", "soak", "producer_consumer",
     {"seed": 1, "duplicate": 0.1, "reorder": 0.2, "window": 3,
      "horizon": 12.0},
     "d59f2556bcff9caaca869c2fa3b875e14d56c05248be28fd1869af2311e723c0"),
    ("soak-pipeline-jitter", "soak", "pipeline",
     {"seed": 5, "jitter": 1.5, "horizon": 10.0},
     "eda0f3c0cb82adfa8dbebbc082418dbc39490355e5161b6ecbc6f51d747b8668"),
]


def _digests(jobs=JOBS):
    return {
        name: execute({"kind": kind, "design": design, "params": params})["digest"]
        for name, kind, design, params, _ in jobs
    }


PINNED = {name: digest for name, _, _, _, digest in JOBS}


def test_digests_without_a_store(monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)
    assert _digests() == PINNED


def test_digests_cold_and_warm_store(monkeypatch, tmp_path):
    monkeypatch.setenv(STORE_ENV, str(tmp_path / "store"))
    assert _digests() == PINNED   # cold: every job computed and stored
    with PERF.scope() as warm:
        assert _digests() == PINNED   # warm: one job-result read each
    assert (warm.counts.get("mc.store.hits", 0),
            warm.counts.get("mc.store.misses", 0)) == (len(JOBS), 0)


def test_soak_and_estimate_digests():
    pinned = {name: digest for name, _, _, _, digest in SIM_JOBS}
    assert _digests(SIM_JOBS) == pinned
