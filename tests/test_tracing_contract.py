"""The traced benchmark wraps module globals and class attributes of the
package from outside (bench/tracing.py). These tests fail as soon as one of
those names is renamed away, or the package stops calling it through the
name that is wrapped. The last test reads the tracer's nonce-reuse count
over one round of the key-service workload."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pufstack.protocols import attest, auth
from pufstack.puf import Challenge, create_puf
from pufstack.xof import derive_rng

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)
NAME, XOF = tracing.NAME, tracing.XOF


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_install_and_uninstall_restore_every_name():
    originals = (attest.expand, attest.derive_walk, auth.expand,
                 auth.stabilized_response)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert attest.derive_walk is not originals[1]
    finally:
        tracer.uninstall()
    assert (attest.expand, attest.derive_walk, auth.expand,
            auth.stabilized_response) == originals


def test_protocols_call_the_wrapped_names(tracer):
    puf = create_puf("photonic", 1, {"noise_sigma": 0.0})
    secret = auth.enroll_secret(puf)
    device = auth.DeviceSession(puf, secret, nonce_rng=derive_rng(b"n", "n"))
    request = attest.AttestationRequest(1, Challenge(np.zeros(64, dtype=np.uint8)))
    memory = b"image" * 100                 # 4 chunks of 128 bytes

    root = tracer.begin(0, "bench.op")
    device.respond(auth.AuthRequest())
    report = attest.device_attest(request, memory, puf, chunk_size=128)
    attest.verifier_attest_check(request, report, memory, puf, 10 ** 6,
                                 chunk_size=128)
    tracer.end(root)

    names = [span[NAME] for span in tracer.spans]
    assert names.count("puf.stabilized_response") == 1
    # the 4-chunk walk reads its 4 links through evaluate on each side
    assert names.count("puf.evaluate") == 8
    assert names.count("xof.derive_walk") == 2
    # expander bytes outside the walks: one 8-byte auth challenge, and
    # 3 chained 8-byte challenges on each side of the attestation
    walk_bytes = sum(span[XOF] for span in tracer.spans
                     if span[NAME] == "xof.derive_walk")
    assert tracer.spans[root][XOF] - walk_bytes == 8 + 2 * 3 * 8


def test_key_service_reuses_no_nonce(tracer, monkeypatch):
    # one round of the key-service workload as the traced benchmark runs it:
    # every op seals under a new provisioning handle on the enrolled key
    # and under a device handle on the key that op reproduces
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workloads").KeyService(1)
    workload.setup()
    ops = range(workload.round)
    for i in ops:
        staged = workload.prepare(i)
        root = tracer.begin(i, workload.root)
        result = workload.op(i, staged)
        tracer.end(root)
        assert workload.check(i, staged, result) is None
    assert len(tracer.seals) == (1 + 2 * workload.INPUTS) * len(ops)
    assert tracing._nonce_reuse(tracer.seals, ops) == [0] * len(ops)
