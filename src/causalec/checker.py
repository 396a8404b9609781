"""Trace-level verification of the store's safety and liveness claims.

The causal check is white-box: operation timestamps are the home server's
vector clock recorded at the response point, so the candidate causal order
can be constructed directly instead of searched for.  An execution passes
when that order is a partial order extending every client's program order
and every completed read is dictated by a write it is consistent with.

The remaining checks cover convergence (probe reads after quiescence all
return the newest write), storage (history lists and queues drain to exactly
one codeword symbol per server), write locality, read liveness under the
halting hypothesis, and the per-transition state invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .field import Value
from .simnet import OperationRecord, RunResult, max_tag_write_value
from .tags import EQ, LT, vc_compare

VC = Tuple[int, ...]


@dataclass
class Verdict:
    name: str
    passed: bool
    inconclusive: bool = False
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed or self.inconclusive

    def line(self) -> str:
        status = "INCONCLUSIVE" if self.inconclusive else ("PASS" if self.passed else "FAIL")
        return f"{self.name}: {status}"


def _leads_to(a: OperationRecord, b: OperationRecord) -> bool:
    """The white-box causal order between two distinct operations."""
    if a.ts is not None and b.ts is not None:
        c = vc_compare(a.ts, b.ts)
        if c == LT:
            return True
        if c == EQ:
            if a.kind == "write":
                return True
            if (a.kind == b.kind == "read" and a.client == b.client
                    and a.opid[1] < b.opid[1]):
                return True
        return False
    return a.ts is not None and b.ts is None


def build_causal_order(ops: List[OperationRecord]) -> List[int]:
    """Successor bitmask per operation index under the white-box order."""
    n = len(ops)
    rel = [0] * n
    for i, a in enumerate(ops):
        bits = 0
        for j, b in enumerate(ops):
            if i != j and _leads_to(a, b):
                bits |= 1 << j
        rel[i] = bits
    return rel


def _read_dictation(ops: List[OperationRecord], rel: List[int], i: int, v: Value,
                    zero: Value) -> Tuple[bool, List[int]]:
    """Whether read ``i`` returning ``v`` is dictated by a write it is
    consistent with, plus its blockers: preceding writes of other values.
    Without a preceding write of ``v``, only a zero ``v`` can be dictated."""
    obj = ops[i].obj
    bit = 1 << i
    blockers = [j for j, w in enumerate(ops)
                if w.kind == "write" and w.obj == obj and w.value != v and rel[j] & bit]
    candidates = [j for j, w in enumerate(ops)
                  if w.kind == "write" and w.obj == obj and w.value == v and rel[j] & bit]
    if not candidates:
        return v == zero and not blockers, blockers
    return any(all(not rel[j] & (1 << b) for b in blockers) for j in candidates), blockers


def check_causal(result: RunResult) -> Verdict:
    """Causal consistency of a completed run, with a minimal witness on failure."""
    ops = result.operation_list()
    rel = build_causal_order(ops)
    n = len(ops)

    def fail(witness: dict) -> Verdict:
        return Verdict("causal", False, details={"witness": witness})

    # the order must be a strict partial order
    for i in range(n):
        if rel[i] & (1 << i):
            return fail({"kind": "irreflexivity", "op": ops[i].opid})
    for i in range(n):
        mask = rel[i]
        j = 0
        m = mask
        while m:
            if m & 1:
                if rel[j] & (1 << i):
                    return fail({"kind": "antisymmetry", "ops": [ops[i].opid, ops[j].opid]})
                if rel[j] & ~mask & ~(1 << i):
                    extra = rel[j] & ~mask & ~(1 << i)
                    k = extra.bit_length() - 1
                    return fail({"kind": "transitivity",
                                 "ops": [ops[i].opid, ops[j].opid, ops[k].opid]})
            m >>= 1
            j += 1

    # program order must be contained in it
    by_client: Dict[int, List[int]] = {}
    for i, op in enumerate(ops):
        by_client.setdefault(op.client, []).append(i)
    for client, idxs in by_client.items():
        idxs.sort(key=lambda i: ops[i].opid[1])
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                if not rel[i] & (1 << j):
                    return fail({"kind": "program-order", "client": client,
                                 "ops": [ops[i].opid, ops[j].opid]})

    # every completed read needs a dictating write it is consistent with
    zero = result.servers[1].code.zero_value()
    for i, op in enumerate(ops):
        if op.kind != "read" or not op.completed:
            continue
        ok, blockers = _read_dictation(ops, rel, i, op.value, zero)
        if not ok:
            blocker = ops[blockers[0]].opid if blockers else None
            return fail({"kind": "read-dictation", "read": op.opid,
                         "value": op.value, "blocker": blocker})
    return Verdict("causal", True)


def revalidate_witness(result: RunResult, witness: dict) -> bool:
    """Re-derive a reported violation from scratch; True when it stands.

    A read-dictation witness stands exactly when ``check_causal`` would
    reject the read, ``not ok`` for ``_read_dictation``'s ``ok``: with
    candidates, not any(all(no blocker follows j)) is all(any(some blocker
    follows j)); without, not (v == zero and not blockers) is
    (v != zero or blockers).
    """
    ops = result.operation_list()
    idx = {op.opid: i for i, op in enumerate(ops)}
    rel = build_causal_order(ops)
    kind = witness["kind"]
    if kind == "irreflexivity":
        i = idx[witness["op"]]
        return bool(rel[i] & (1 << i))
    if kind == "antisymmetry":
        i, j = (idx[o] for o in witness["ops"])
        return bool(rel[i] & (1 << j)) and bool(rel[j] & (1 << i))
    if kind == "transitivity":
        i, j, k = (idx[o] for o in witness["ops"])
        return bool(rel[i] & (1 << j)) and bool(rel[j] & (1 << k)) and not rel[i] & (1 << k)
    if kind == "program-order":
        i, j = (idx[o] for o in witness["ops"])
        return ops[i].client == ops[j].client and not rel[i] & (1 << j)
    if kind == "read-dictation":
        zero = result.servers[1].code.zero_value()
        ok, _ = _read_dictation(ops, rel, idx[witness["read"]], witness["value"], zero)
        return not ok
    return False


def check_eventual(result: RunResult) -> Verdict:
    """After quiescence, every probe read of an object returns the newest write."""
    if result.halted:
        return Verdict("eventual", False, inconclusive=True,
                       details={"reason": "convergence assumes no server halts"})
    if not result.quiescent:
        return Verdict("eventual", False, inconclusive=True,
                       details={"reason": "run did not quiesce"})
    if not result.probe_results:
        return Verdict("eventual", False, inconclusive=True,
                       details={"reason": "no probe reads were issued"})
    code = result.servers[1].code
    zero = code.zero_value()
    mismatches = []
    for (s, obj), got in sorted(result.probe_results.items()):
        want = max_tag_write_value(result, obj, zero)
        if got != want:
            mismatches.append({"server": s, "object": obj, "got": got, "want": want})
    return Verdict("eventual", not mismatches, details={"mismatches": mismatches})


def storage_accounting(result: RunResult) -> List[dict]:
    """Per-server element counts: payload (field elements) vs metadata (ints).

    Objects that were never written keep their initialization sentinel (the
    zero-tagged zero value) forever -- no delete notice can ever cover the
    zero tag -- so those entries are tallied separately from real history.
    """
    written = {obj for (obj, _v) in result.write_registry.values()}
    rows = []
    for sid, srv in sorted(result.servers.items()):
        zt = srv._zero_tag()
        history = 0
        sentinels = 0
        payload = len(srv.m_val)
        for x in range(1, srv.k + 1):
            for t, v in srv.L[x - 1].items():
                payload += len(v)
                if x not in written and t == zt:
                    sentinels += 1
                else:
                    history += 1
        payload += sum(len(w) for e in srv.readl.values() for w in e.symbols if w is not None)
        queued = [item for queue in srv.inqueue.values() for item in queue]
        payload += sum(len(item.value) for item in queued)
        n = srv.n
        meta = n  # vector clock
        meta += srv.k * (n + 1) * 2  # symbol tag vector + tmax
        meta += sum(len(d) for d in srv.dell) * (n + 2)
        rows.append({"server": sid, "payload_elems": payload, "metadata_ints": meta,
                     "history_entries": history, "unwritten_sentinels": sentinels,
                     "inqueue": len(queued), "pending_reads": len(srv.readl)})
    return rows


def check_storage(result: RunResult) -> Verdict:
    """At quiescence each server keeps exactly one codeword symbol of payload."""
    if result.halted:
        return Verdict("storage", False, inconclusive=True,
                       details={"reason": "halted servers leave history pinned"})
    if not result.quiescent:
        return Verdict("storage", False, inconclusive=True,
                       details={"reason": "run did not quiesce"})
    code = result.servers[1].code
    writes = len(result.write_registry)
    rows = storage_accounting(result)
    meta_bound = 2 * code.n * (writes + code.k + 2) * (code.n + 2) \
        + code.n + 2 * code.k * (code.n + 1)
    offenders = [r for r in rows
                 if r["history_entries"] or r["inqueue"] or r["pending_reads"]
                 or r["payload_elems"] != code.value_len * (1 + r["unwritten_sentinels"])
                 or r["metadata_ints"] > meta_bound]
    return Verdict("storage", not offenders,
                   details={"accounting": rows, "offenders": offenders,
                            "metadata_bound": meta_bound})


def check_locality_and_liveness(result: RunResult) -> Verdict:
    """Writes at live homes complete locally; reads complete whenever the
    home and one full recovery set stayed live."""
    code = result.servers[1].code
    halted = set(result.halted)
    failures = []
    if result.write_locality_breaks:
        failures.append({"kind": "locality", "count": result.write_locality_breaks})
    for op in result.operation_list():
        home = result.client_homes[op.client]
        if op.kind == "write":
            if home not in halted and not op.completed:
                failures.append({"kind": "write-liveness", "op": op.opid})
        else:
            if home in halted:
                continue
            eligible = any(not (rs.members & halted)
                           for rs in code.minimal_recovery_sets(op.obj))
            if eligible and not op.completed:
                failures.append({"kind": "read-liveness", "op": op.opid})
    return Verdict("locality+liveness", not failures, details={"failures": failures})


def scan_digests(trace) -> Verdict:
    """Error flags in every recorded state digest must be zero."""
    bad = []
    for rec in trace:
        if rec.digest is None:
            continue
        _vc, _tags, _lsizes, err1, err2, *_rest = rec.digest
        if any(err1) or any(err2):
            bad.append(rec.seq)
    return Verdict("digest-scan", not bad, details={"records": bad})


def probe_invariants(result: RunResult) -> Verdict:
    """Inline per-transition probes plus the digest scan."""
    v = scan_digests(result.trace)
    ok = not result.violations and v.passed
    return Verdict("invariants", ok,
                   details={"violations": result.violations, "digest_scan": v.details})


def check_all(result: RunResult) -> List[Verdict]:
    return [
        check_causal(result),
        check_eventual(result),
        check_storage(result),
        check_locality_and_liveness(result),
        probe_invariants(result),
    ]


def all_passed(verdicts: List[Verdict]) -> bool:
    return all(v.passed or v.inconclusive for v in verdicts)
