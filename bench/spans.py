"""Spans around calls into causalec's modules, recorded from outside.

``install`` replaces each instrumented function or method with a wrapper
that records one span per call: name, start, end, parent span and run id.
Spans are kept in compact arrays and written out by ``SpanRecorder.dump``
when the benchmark ends.  A span's self time is its duration minus the time
covered by its child spans; totals per name are accumulated as spans close.

The program itself is never edited: wrappers are set on the classes and on
the module globals through which the program looks its functions up, and
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, owner attribute or None for a module global, function, span name)
# Functions imported into another module by name are patched in every module
# that looks them up, so the wrapper sees every call.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("causalec.field", "PrimeField", "vadd", "field.vadd"),
    ("causalec.field", "PrimeField", "vsub", "field.vsub"),
    ("causalec.field", "PrimeField", "vscale", "field.vscale"),
    ("causalec.coding", "LinearCode", "reencode", "coding.reencode"),
    ("causalec.coding", "LinearCode", "decode", "coding.decode"),
    ("causalec.coding", "LinearCode", "encode_one", "coding.encode_one"),
    ("causalec.coding", "LinearCode", "is_recovery_set", "coding.is_recovery_set"),
    ("causalec.coding", "LinearCode", "minimal_recovery_sets", "coding.minimal_recovery_sets"),
    ("causalec.server", None, "vc_compare", "tags.vc_compare"),
    ("causalec.checker", None, "vc_compare", "tags.vc_compare"),
    ("causalec.messages", "Message", "describe", "messages.describe"),
    ("causalec.server", "Server", "on_write", "server.on_write"),
    ("causalec.server", "Server", "on_read", "server.on_read"),
    ("causalec.server", "Server", "on_app", "server.on_app"),
    ("causalec.server", "Server", "on_del", "server.on_del"),
    ("causalec.server", "Server", "on_val_inq", "server.on_val_inq"),
    ("causalec.server", "Server", "on_val_resp", "server.on_val_resp"),
    ("causalec.server", "Server", "on_val_resp_encoded", "server.on_val_resp_encoded"),
    ("causalec.server", "Server", "apply_inqueue", "server.apply_inqueue"),
    ("causalec.server", "Server", "encoding", "server.encoding"),
    ("causalec.server", "Server", "garbage_collection", "server.garbage_collection"),
    ("causalec.server", "Server", "check_invariants", "server.check_invariants"),
    ("causalec.server", "Server", "check_symbol_legitimacy", "server.check_symbol_legitimacy"),
    ("causalec.server", "Server", "digest", "server.digest"),
    ("causalec.simnet", None, "run", "simnet.run"),
    ("causalec.simnet", "Simulation", "run_to_quiescence", "simnet.run_to_quiescence"),
    ("causalec.simnet", "RunResult", "trace_sha256", "simnet.trace_sha256"),
    ("causalec.checker", None, "check_all", "checker.check_all"),
    ("causalec.checker", None, "check_causal", "checker.check_causal"),
    ("causalec.checker", None, "build_causal_order", "checker.build_causal_order"),
    ("causalec.checker", None, "check_eventual", "checker.check_eventual"),
    ("causalec.checker", None, "check_storage", "checker.check_storage"),
    ("causalec.checker", None, "check_locality_and_liveness",
     "checker.check_locality_and_liveness"),
    ("causalec.checker", None, "probe_invariants", "checker.probe_invariants"),
    ("causalec.scenarios", None, "scenario_from_json", "scenarios.scenario_from_json"),
    ("causalec.scenarios", "Scenario", "build_scripts", "scenarios.build_scripts"),
    ("causalec.harness", None, "fuzz_scenario", "harness.fuzz_scenario"),
    ("causalec.harness", None, "random_code", "harness.random_code"),
)

# bench.run is the root span of one checked run, opened by the benchmark
# itself, so every second of a spanned run belongs to some span's self time.
SPAN_NAMES: Tuple[str, ...] = ("bench.run",) + tuple(dict.fromkeys(t[3] for t in TARGETS))

INTERNAL_ACTIONS = ("apply_inqueue", "encoding", "garbage_collection")


class SpanRecorder:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self, probe_client_base: int):
        self.names: List[str] = list(SPAN_NAMES)
        self._ids: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("H")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._stack: List[list] = []  # [span index, child seconds] per open span
        self.run_id = -1
        self.untraced = False
        self.probe_client_base = probe_client_base
        self.describe_untraced = 0
        self.useful = {a: 0 for a in INTERNAL_ACTIONS}
        self.workload_reads = 0
        self.remote_reads = 0
        self.recovery_pairs: set = set()
        self._saved: List[tuple] = []

    # -- recording ---------------------------------------------------------------

    def span(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call."""
        nid = self._ids[name]
        rec = self
        name_id, parent, run, start, end = (
            self.name_id, self.parent, self.run, self.start, self.end)
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            run.append(rec.run_id)
            end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                end[idx] = t1
                d = t1 - t0
                calls[nid] += 1
                self_s[nid] += d - frame[1]
                if stack:
                    stack[-1][1] += d
            if after is not None:
                after(args, out)
            return out

        return span

    def _count_describe(self, args, out) -> None:
        if self.untraced:
            self.describe_untraced += 1

    def _count_read(self, args, out) -> None:
        # Server.on_read(self, clientid, opid, obj): a remote read sends ValInq
        if args[1] < self.probe_client_base:
            self.workload_reads += 1
            if any(s.kind == "server" for s in out):
                self.remote_reads += 1

    def _count_recovery(self, args, out) -> None:
        self.recovery_pairs.add((args[0], args[1]))

    def _useful(self, action: str) -> Callable:
        def count(args, out) -> None:
            if out[0]:
                self.useful[action] += 1
        return count

    def install(self, modules: Dict[str, object]) -> None:
        after = {
            "messages.describe": self._count_describe,
            "server.on_read": self._count_read,
            "coding.minimal_recovery_sets": self._count_recovery,
        }
        for a in INTERNAL_ACTIONS:
            after[f"server.{a}"] = self._useful(a)
        for mod_name, owner_name, attr, name in TARGETS:
            owner = modules[mod_name]
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.span(fn, name, after.get(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- results ----------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def self_ms(self, name: str) -> float:
        return self.self_s[self._ids[name]] * 1e3

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def dump(self, path: str) -> None:
        """Write every span: a JSON header, then the five arrays in its order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name_id", "H"], ["parent", "l"], ["run", "l"],
                             ["start", "d"], ["end", "d"]],
                  "byteorder": "native"}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.run, self.start, self.end):
                arr.tofile(fh)
