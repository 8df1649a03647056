"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of pufstack from outside:
each wrapper is installed on the attribute its caller looks up (a module
global or a class attribute), so the program itself is not edited. The
benchmark calls the entry points through their packages (``keys``,
``harness``, ``metrics``); the program's own calls go through the names
it imported, so ``protocols.auth``'s ``stabilized_response`` and
``protocols.attest``'s ``derive_walk`` are wrapped in those modules.

A span is (name, start, end, parent, op id, rows, xof bytes). ``rows``
counts challenge rows that went through ``PhotonicPuf.evaluate_analog``
while the span was open, and ``xof bytes`` the bytes requested from the
counter-mode expander (``expand`` and ``XofStream.take``). Spans stay in
memory until the run ends. A span's self time is its duration minus the
durations of its direct children; the run is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import weakref
from collections import defaultdict

# Layer of a span name: the first prefix that matches.
LAYERS = ("protocols.auth", "protocols.attest", "puf", "xof", "keys",
          "metrics", "harness", "bench")

NAME, START, END, PARENT, OP, ROWS, XOF = range(7)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = None
        self.rows = 0
        self.xof_bytes = 0
        self.seals: list[tuple] = []          # (op, key id, nonce)
        self._stack: list[int] = []
        self._box_keys = weakref.WeakKeyDictionary()
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           self.rows, self.xof_bytes])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ROWS] = self.rows - span[ROWS]
        span[XOF] = self.xof_bytes - span[XOF]
        self._stack.pop()

    def begin(self, op, root: str) -> int:
        """Start recording one operation (or the set-up) under a root span."""
        self.op = op
        self.active = True
        return self.open(root)

    def end(self, index: int) -> None:
        self.close(index)
        self.active = False
        self.op = None

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def install(self) -> None:
        """Wrap the layer entry points of an imported pufstack package."""
        from pufstack import harness, keys, metrics, puf, xof
        from pufstack.keys import aead
        from pufstack.protocols import attest, auth
        spanned = [
            (puf, "create_puf", "puf.create_puf"),
            (puf.PufInstance, "evaluate", "puf.evaluate"),
            (puf.PufInstance, "evaluate_many", "puf.evaluate_many"),
            (auth, "stabilized_response", "puf.stabilized_response"),
            (attest, "derive_walk", "xof.derive_walk"),
            (attest, "device_attest", "protocols.attest.device_attest"),
            (attest, "verifier_attest_check", "protocols.attest.verifier_attest_check"),
            (harness.Channel, "transmit", "harness.channel.transmit"),
            (harness.Channel, "inject", "harness.channel.inject"),
            (keys, "fe_reproduce", "keys.fe_reproduce"),
            (aead.AeadBox, "open", "keys.aead.open"),
            (keys.SecureAccelerator, "seal_network", "keys.netservice.seal_network"),
            (keys.SecureAccelerator, "seal_input", "keys.netservice.seal_input"),
            (keys.SecureAccelerator, "load_network", "keys.netservice.load_network"),
            (keys.SecureAccelerator, "execute_network", "keys.netservice.execute_network"),
            (keys.SecureAccelerator, "open_output", "keys.netservice.open_output"),
            (metrics, "population_responses", "metrics.population_responses"),
            (metrics, "compute_metrics", "metrics.compute_metrics"),
            (metrics, "band_sweep", "metrics.band_sweep"),
            (harness, "harvest_crps", "harness.harvest_crps"),
            (harness, "modeling_attack", "harness.modeling_attack"),
        ]
        for owner, attr, name in spanned:
            self._patch(owner, attr, self._spanned(name, owner.__dict__[attr]))

        tracer = self
        analog = puf.PhotonicPuf.evaluate_analog

        def evaluate_analog(self, bits_matrix):
            if tracer.active:
                tracer.rows += len(bits_matrix)
            return analog(self, bits_matrix)
        self._patch(puf.PhotonicPuf, "evaluate_analog", evaluate_analog)

        def counting_expand(fn):
            def counted(seed, label, n_bytes):
                if tracer.active:
                    tracer.xof_bytes += n_bytes
                return fn(seed, label, n_bytes)
            return counted
        # every module that imported ``expand`` by name, plus xof itself
        for module in (xof, auth, attest):
            self._patch(module, "expand", counting_expand(module.__dict__["expand"]))
        take = xof.XofStream.take

        def stream_take(self, n):
            if tracer.active:
                tracer.xof_bytes += n
            return take(self, n)
        self._patch(xof.XofStream, "take", stream_take)

        box_init = aead.AeadBox.__init__

        def init(self, key):
            tracer._box_keys[self] = hash(key)
            box_init(self, key)
        self._patch(aead.AeadBox, "__init__", init)

        seal = self._spanned("keys.aead.seal", aead.AeadBox.seal)

        def recorded_seal(self, plaintext, aad=b""):
            blob = seal(self, plaintext, aad)
            if tracer.active:
                tracer.seals.append((tracer.op, tracer._box_keys.get(self), blob.nonce))
            return blob
        self._patch(aead.AeadBox, "seal", recorded_seal)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "rows": s[ROWS],
                    "xof_bytes": s[XOF]}) + "\n")


# -- per-layer metrics -----------------------------------------------------

# metric -> (span name, scale): median duration of one call
PER_CALL = {
    "puf.fabricate_ms": ("puf.create_puf", 1e3),
    "puf.eval_b1_ms": ("puf.evaluate", 1e3),
    "puf.stabilized_read_ms": ("puf.stabilized_response", 1e3),
    "xof.walk_ms": ("xof.derive_walk", 1e3),
    "harness.channel_us": ("harness.channel.transmit", 1e6),
    "keys.fe_reproduce_us": ("keys.fe_reproduce", 1e6),
    "keys.execute_us": ("keys.netservice.execute_network", 1e6),
}

# metric -> (span names, "duration" | "self", scale): median over ops of the
# per-op sum
PER_OP = {
    "protocols.auth.self_ms": (("protocols.auth.session",), "self", 1e3),
    "protocols.attest.self_ms": (("protocols.attest.device_attest",
                                  "protocols.attest.verifier_attest_check"), "self", 1e3),
    "keys.aead_ms_per_op": (("keys.aead.seal", "keys.aead.open"), "duration", 1e3),
    "metrics.compute_ms": (("metrics.compute_metrics", "metrics.band_sweep"), "duration", 1e3),
    "metrics.population_self_ms": (("metrics.population_responses",), "self", 1e3),
    "harness.harvest_self_ms": (("harness.harvest_crps",), "self", 1e3),
    "harness.attack_ms": (("harness.modeling_attack",), "duration", 1e3),
}

UNITS = {
    "puf.fabricate_ms": "ms", "puf.eval_b1_ms": "ms", "puf.eval_row_us": "us",
    "puf.stabilized_read_ms": "ms", "puf.rows_per_read": "count",
    "puf.rows_per_op": "count", "xof.walk_ms": "ms",
    "xof.expand_bytes_per_op": "count", "protocols.auth.self_ms": "ms",
    "protocols.attest.self_ms": "ms", "harness.channel_us": "us",
    "keys.fe_reproduce_us": "us", "keys.aead_ms_per_op": "ms",
    "keys.execute_us": "us", "keys.aead.nonce_reuse": "count",
    "metrics.compute_ms": "ms", "metrics.population_self_ms": "ms",
    "harness.harvest_self_ms": "ms", "harness.attack_ms": "ms",
}

BATCH_ROWS = 256   # evaluate_many calls of at least this many rows count as batched


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(tracer: Tracer, setup_slowdown: float, op_slowdown: float) -> dict:
    """Per-layer metrics and self time per layer from the recorded spans.

    Times are divided by the host slowdown of the set-up or of the ops, so
    they are quoted at reference host speed (see hostspeed). A metric whose
    layer the workload never calls reads 0.
    """
    spans = [list(s) for s in tracer.spans]
    for s in spans:
        slowdown = setup_slowdown if s[OP] == "setup" else op_slowdown
        s[START] /= slowdown
        s[END] /= slowdown
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    ops = sorted({s[OP] for s in spans if isinstance(s[OP], int)})
    calls = defaultdict(list)                          # name -> [span]
    per_op = defaultdict(lambda: defaultdict(float))   # op -> key -> value
    layer_self = defaultdict(float)
    roots = {}
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        own = duration - child_time[i]
        calls[s[NAME]].append(s)
        if isinstance(s[OP], int):
            per_op[s[OP]][("duration", s[NAME])] += duration
            per_op[s[OP]][("self", s[NAME])] += own
            layer_self[layer_of(s[NAME])] += own
            if s[PARENT] is None:
                roots[s[OP]] = s

    out = {}
    for metric, (name, scale) in PER_CALL.items():
        out[metric] = _median([(s[END] - s[START]) * scale for s in calls[name]])
    out["puf.eval_row_us"] = _median([(s[END] - s[START]) * 1e6 / s[ROWS]
                                      for s in calls["puf.evaluate_many"]
                                      if s[ROWS] >= BATCH_ROWS])
    out["puf.rows_per_read"] = _median([s[ROWS] for s in calls["puf.stabilized_response"]])
    out["puf.rows_per_op"] = _median([roots[op][ROWS] for op in ops])
    out["xof.expand_bytes_per_op"] = _median([roots[op][XOF] for op in ops])
    for metric, (names, kind, scale) in PER_OP.items():
        out[metric] = _median([sum(per_op[op][(kind, n)] for n in names) * scale
                               for op in ops])
    out["keys.aead.nonce_reuse"] = _median(_nonce_reuse(tracer.seals, ops))

    op_time = sum(roots[op][END] - roots[op][START] for op in ops)
    layers = {layer: {"ms_per_op": 1e3 * t / len(ops), "share": t / op_time}
              for layer, t in sorted(layer_self.items())} if ops else {}
    return {"metrics": {k: out[k] for k in UNITS}, "layer_self": layers,
            "ops": len(ops)}


def _nonce_reuse(seals, ops) -> list[int]:
    """Per op: (key, nonce) pairs sealed more than once, across all handles."""
    counts = defaultdict(lambda: defaultdict(int))
    for op, key, nonce in seals:
        counts[op][(key, nonce)] += 1
    return [sum(1 for n in counts[op].values() if n > 1) for op in ops]
