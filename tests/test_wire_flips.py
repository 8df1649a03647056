"""Every bit on the wire is checked: each single-bit flip of an honest
message, delivered to its receiver, is rejected. A field that no receiver
checks shows up here as an accepted flip."""

import copy

import numpy as np

from pufstack.errors import AuthenticationError, FormatError
from pufstack.protocols import attest, auth
from pufstack.protocols.attest import (AttestationReport, AttestationRequest,
                                       device_attest, honest_elapsed,
                                       verifier_attest_check)
from pufstack.protocols.auth import AuthMessage1, AuthMessage2, AuthRequest
from pufstack.puf import Challenge

from test_auth import MEMORY, make_pair

CHALLENGE = Challenge(np.array([i % 2 for i in range(64)], dtype=np.uint8))
# The device reports its own attestation time, so a flip in the low bytes
# of elapsed that stays within budget is accepted. ROADMAP item 2 (the
# verifier keeps the clock) removes the field; until then these are the
# only bytes whose flips may pass.
REPORT_ELAPSED_BYTES = set(range(33, 41))


def _flips(wire: bytes):
    for pos in range(len(wire) * 8):
        flipped = bytearray(wire)
        flipped[pos // 8] ^= 1 << (7 - pos % 8)
        yield pos // 8, bytes(flipped)


def _accepted_bytes(wire: bytes, receive) -> set[int]:
    """Byte offsets of the flips that ``receive`` takes without raising."""
    accepted = set()
    for offset, flipped in _flips(wire):
        try:
            receive(flipped)
        except (AuthenticationError, FormatError):
            continue
        accepted.add(offset)
    return accepted


def _scan_cases():
    """{MSG_* name: (honest wire bytes, receive, accepted byte offsets)}."""
    device, verifier = make_pair()
    cases = {}

    request = verifier.request().to_bytes()
    cases["MSG_AUTH_REQUEST"] = (request, _accepted_bytes(
        request, lambda raw: copy.copy(device).respond(AuthRequest.from_bytes(raw))))

    msg1 = device.respond(AuthRequest.from_bytes(request)).to_bytes()
    before = (verifier.secret, verifier.previous, verifier.counter)
    # a rejected message 1 leaves the verifier as it was, so one verifier
    # takes every flip
    cases["MSG_DEVICE_RESPONSE"] = (msg1, _accepted_bytes(
        msg1, lambda raw: verifier.check_device(AuthMessage1.from_bytes(raw))))
    assert (verifier.secret, verifier.previous, verifier.counter) == before

    msg2 = verifier.check_device(AuthMessage1.from_bytes(msg1)).to_bytes()
    # a rejected confirmation drops the device's pending state: each flip
    # goes to a copy
    cases["MSG_VERIFIER_CONFIRM"] = (msg2, _accepted_bytes(
        msg2, lambda raw: copy.copy(device).confirm(AuthMessage2.from_bytes(raw))))
    device.confirm(AuthMessage2.from_bytes(msg2))
    assert device.secret == verifier.secret

    puf = device.puf
    att_request = AttestationRequest(timestamp=42, challenge=CHALLENGE)
    budget = int(1.2 * honest_elapsed(1, puf.challenge_len))

    def check_report(raw):
        verdict = verifier_attest_check(att_request, AttestationReport.from_bytes(raw),
                                        MEMORY, puf, budget)
        if not verdict.accepted:
            raise AuthenticationError(verdict.reason)

    report = device_attest(att_request, MEMORY, puf).to_bytes()
    check_report(report)
    cases["MSG_ATTESTATION_REPORT"] = (report, _accepted_bytes(report, check_report))
    return cases


def test_every_wire_bit_flip_rejected():
    cases = _scan_cases()
    types = {name: getattr(module, name) for module in (auth, attest)
             for name in dir(module) if name.startswith("MSG_")}
    assert set(cases) == set(types), "every message type needs a scan case"
    for name, (wire, accepted) in cases.items():
        assert wire[0] == types[name]
        allowed = REPORT_ELAPSED_BYTES if name == "MSG_ATTESTATION_REPORT" else set()
        assert accepted <= allowed, f"{name}: flips accepted in bytes {sorted(accepted)}"
    assert [len(cases[name][0]) for name in sorted(cases)] == [41, 1, 103, 33]
