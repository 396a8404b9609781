"""Verification of a finished run against the store's safety and liveness claims.

The causal check is white-box: operation timestamps are the home server's
vector clock recorded at the response point, so the candidate causal order,
``_leads_to``, is evaluated directly instead of searched for.  An execution
passes when that order is a partial order extending every client's program
order and every completed read is dictated by a write it is consistent with.
Only what can fail is checked:

* antisymmetry -- two writes stamped with the same timestamp lead to each
  other, and nothing else can;
* program order -- each client's consecutive operations, in invocation
  order; transitivity carries it to every other pair of the client's
  operations;
* read dictation -- each completed read against the writes on its object.

Irreflexivity and transitivity need no scan: ``_leads_to`` is never
evaluated on an operation paired with itself, and it is transitive for any
timestamps (the proof is in its docstring).

Read dictation first tries one write per stamped read: the newest-tag
write on its object whose stamp is componentwise at most the read's, the
newest in the read's causal past.  If that write holds the read's value,
or there is none and the read returned zero, the read passes.  This is
exact: once antisymmetry holds no two writes share a stamp, and the tag
order extends strict dominance, so that write leads to no other write in
the past and no blocker follows it.  Servers serve the highest tag they
hold, so in a correct run every read passes this way.  Any other completed
read, and one with no stamp, is evaluated on its whole causal past
(``_causal_past``), which gives the verdict and witness that evaluating
every read so would give.

The remaining checks cover convergence (probe reads after quiescence all
return the newest write), storage (history lists and queues drain to exactly
one codeword symbol per server), and locality and read liveness under
the halting hypothesis; convergence and storage take their writes from the
stamped write records in ``RunResult.ops``.  Each run fact has one record,
kept by the layer that sees it.  The simulator checks the per-transition
state invariants inline (``Server.check_invariants``, and handler raises
such as a set error flag), stops the run at the violating transition and
keeps the violations, which ``probe_invariants`` reports.  Each check runs
only when its inputs changed: ``check_invariants`` when ``m_tagvec``,
``tmax`` or ``m_val`` did, the clock test alone when only ``vc`` moved, and
the check of an outgoing coded response unless it carries the last checked
symbol object under that symbol's tag vector.  The symbol check compares
against a per-server encoding memo on every call.  The simulator counts
locality breaks, which only ``check_locality_and_liveness`` reads.  Probe
reads are ordinary operation records marked ``probe``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le
from typing import Dict, List, Tuple

from .field import Value
from .simnet import OperationRecord, RunResult
from .tags import EQ, LT, Tag, vc_compare

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
    """The white-box causal order between two distinct operations.

    ``a`` leads to ``b`` when ``a`` is stamped and ``b`` is not, or both are
    stamped and ``a.ts`` is dominated by ``b.ts``, or the timestamps are equal
    and ``a`` is a write or both are reads of one client with ``a`` invoked
    first.

    Transitive for any timestamps.  Take a -> b -> c with a, c distinct.  The
    left operand of a true case is always stamped, so a and b are.  If c is
    not, a -> c.  Otherwise a.ts <= b.ts <= c.ts componentwise.  If either
    step is strict then a.ts < c.ts (a.ts == c.ts would force b.ts equal to
    both), so a -> c.  If neither is, all three timestamps are equal: a write
    a leads to c; a read a leads to b only as a read of the same client
    invoked earlier, so b is no write, c is a read of that client invoked
    later still, and a -> c.

    Antisymmetric except for two writes stamped alike: dominance and the
    unstamped rule hold one way only, and at equal timestamps b -> a too
    needs b to be a write, or both to be reads of one client, whose
    invocation order holds one way only.
    """
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


def _causal_past(ops: List[OperationRecord], i: int) -> List[int]:
    """The ascending indices of the writes on read ``i``'s object that lead
    to it."""
    read = ops[i]
    return [j for j, w in enumerate(ops)
            if w.kind == "write" and w.obj == read.obj and _leads_to(w, read)]


def build_causal_order(ops: List[OperationRecord]) -> Dict[int, List[int]]:
    """For each completed read's index, the ascending indices of the writes
    on its object that lead to it."""
    return {i: _causal_past(ops, i)
            for i, op in enumerate(ops) if op.kind == "read" and op.completed}


def _read_dictation(ops: List[OperationRecord], before: List[int], v: Value,
                    zero: Value) -> Tuple[bool, List[int]]:
    """Whether a read returning ``v`` after the writes ``before`` is dictated
    by a write it is consistent with, plus its blockers: preceding writes of
    other values.  Without a preceding write of ``v``, only a zero ``v`` can
    be dictated."""
    blockers = [j for j in before if ops[j].value != v]
    candidates = [j for j in before if ops[j].value == v]
    if not candidates:
        return v == zero and not blockers, blockers
    return any(not any(_leads_to(ops[j], ops[b]) for b in blockers)
               for j in candidates), blockers


def check_causal(result: RunResult) -> Verdict:
    """Causal consistency of a completed run, with a minimal witness on failure."""
    ops = result.operation_list()

    def fail(witness: dict) -> Verdict:
        return Verdict("causal", False, details={"witness": witness})

    # antisymmetry: the first two writes of the earliest-starting clash
    stamped: Dict[VC, List[int]] = {}
    for i, op in enumerate(ops):
        if op.kind == "write" and op.ts is not None:
            stamped.setdefault(op.ts, []).append(i)
    clashes = [idxs for idxs in stamped.values() if len(idxs) > 1]
    if clashes:
        i, j = min(clashes, key=lambda idxs: idxs[0])[:2]
        return fail({"kind": "antisymmetry", "ops": [ops[i].opid, ops[j].opid]})

    # program order: consecutive operations of each client
    by_client: Dict[int, List[int]] = {}
    for i, op in enumerate(ops):
        by_client.setdefault(op.client, []).append(i)
    for client, idxs in by_client.items():
        idxs.sort(key=lambda i: ops[i].opid[1])
        for i, j in zip(idxs, idxs[1:]):
            if not _leads_to(ops[i], ops[j]):
                return fail({"kind": "program-order", "client": client,
                             "ops": [ops[i].opid, ops[j].opid]})

    # every completed read needs a dictating write it is consistent with;
    # the newest write in a stamped read's past settles most of them (see
    # the module docstring for why that is exact)
    zero = result.servers[1].code.zero_value()
    newest_first: Dict[int, List[OperationRecord]] = {}
    for w in sorted(stamped_writes(result), key=_tag, reverse=True):
        newest_first.setdefault(w.obj, []).append(w)
    for i, op in enumerate(ops):
        if op.kind != "read" or not op.completed:
            continue
        if op.ts is not None:
            # w.ts <= op.ts componentwise: _leads_to(w, op) for a stamped write
            newest = next((w for w in newest_first.get(op.obj, ())
                           if all(map(le, w.ts, op.ts))), None)
            if op.value == (zero if newest is None else newest.value):
                continue
        ok, blockers = _read_dictation(ops, _causal_past(ops, i), op.value, zero)
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
    (v != zero or blockers).  Only a completed read can be rejected.
    """
    ops = result.operation_list()
    idx = {op.opid: i for i, op in enumerate(ops)}
    kind = witness["kind"]
    if kind == "antisymmetry":
        a, b = (ops[idx[o]] for o in witness["ops"])
        return a is not b and _leads_to(a, b) and _leads_to(b, a)
    if kind == "program-order":
        a, b = (ops[idx[o]] for o in witness["ops"])
        return (a.client == b.client and a.opid[1] < b.opid[1]
                and not _leads_to(a, b))
    if kind == "read-dictation":
        i = idx[witness["read"]]
        if ops[i].kind != "read" or not ops[i].completed:
            return False
        zero = result.servers[1].code.zero_value()
        ok, _ = _read_dictation(ops, _causal_past(ops, i), witness["value"], zero)
        return not ok
    return False


def stamped_writes(result: RunResult) -> List[OperationRecord]:
    """The writes a home server took: those stamped with its clock.  A
    write's tag is ``Tag(op.ts, op.client)``, the tag the server gave it."""
    return [op for op in result.ops.values() if op.kind == "write" and op.ts is not None]


def _tag(op: OperationRecord) -> Tag:
    return Tag(op.ts, op.client)


def newest_writes(result: RunResult) -> Dict[int, Value]:
    """Per written object, the value of its newest write: the last one in
    tag order."""
    return {op.obj: op.value for op in sorted(stamped_writes(result), key=_tag)}


def check_eventual(result: RunResult) -> Verdict:
    """After quiescence, every probe read of an object returns the newest write."""
    if result.halted:
        return Verdict("eventual", False, inconclusive=True,
                       details={"reason": "convergence assumes no server halts"})
    if not result.quiescent:
        return Verdict("eventual", False, inconclusive=True,
                       details={"reason": "run did not quiesce"})
    # one probe read per (live server, object), in that order
    probes = sorted(((result.client_homes[op.client], op.obj, op.value)
                     for op in result.ops.values() if op.probe), key=lambda p: p[:2])
    if not probes:
        return Verdict("eventual", False, inconclusive=True,
                       details={"reason": "no probe reads were issued"})
    zero = result.servers[1].code.zero_value()
    newest = newest_writes(result)
    mismatches = []
    for s, obj, got in probes:
        want = newest.get(obj, zero)
        if got != want:
            mismatches.append({"server": s, "object": obj, "got": got, "want": want})
    return Verdict("eventual", not mismatches, details={"mismatches": mismatches})


def storage_accounting(result: RunResult) -> List[dict]:
    """Per-server element counts: payload (field elements) vs metadata (ints).

    Objects that were never written keep their initialization sentinel (the
    zero-tagged zero value) forever -- no delete notice can ever cover the
    zero tag -- so those entries are tallied separately from real history.
    """
    written = {op.obj for op in stamped_writes(result)}
    rows = []
    for sid, srv in sorted(result.servers.items()):
        zt = srv.zero_tag
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
    writes = len(stamped_writes(result))
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
    """Writes at live homes, and reads at a home that stores the object
    uncoded (its row a nonzero multiple of e_X), are answered in the
    transition that receives them; reads complete whenever the home and one
    full recovery set stayed live, that is, whenever the live servers
    recover the object."""
    code = result.servers[1].code
    halted = set(result.halted)
    live = [s for s in result.servers if s not in halted]
    # recovery sets are closed upward, so one of them stayed live iff the
    # live servers recover the object
    recoverable: Dict[int, bool] = {}
    failures = []
    if result.locality_breaks:
        failures.append({"kind": "locality", "count": result.locality_breaks})
    if result.violations:
        # the run stopped on a violation, which ``invariants`` reports; the
        # operations it left pending say nothing about liveness
        return Verdict("locality+liveness", False, inconclusive=not failures,
                       details={"failures": failures, "reason": "run stopped on a violation"})
    for op in result.operation_list():
        home = result.client_homes[op.client]
        if op.kind == "write":
            if home not in halted and not op.completed:
                failures.append({"kind": "write-liveness", "op": op.opid})
        else:
            if home in halted or op.completed:
                continue
            if op.obj not in recoverable:
                recoverable[op.obj] = code.is_recovery_set(live, op.obj) is not None
            if recoverable[op.obj]:
                failures.append({"kind": "read-liveness", "op": op.opid})
    return Verdict("locality+liveness", not failures, details={"failures": failures})


def probe_invariants(result: RunResult) -> Verdict:
    """The violations the simulator's per-transition probes recorded."""
    return Verdict("invariants", not result.violations,
                   details={"violations": result.violations})


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
