"""Checker behaviour, including negative controls on corrupted inputs.

The causal checker is also compared against a reference oracle: an
all-pairs successor-bitmask checker, which scans the white-box order for
irreflexivity, antisymmetry and transitivity, checks program order on every
pair of a client's operations and read dictation against every operation.
On arbitrary small histories both must agree on the verdict and the witness
kind.  Its read-dictation pass, which clears most reads by the newest-tag
write in their past, is also compared with the whole-past evaluation of
every completed read, on directed histories and on fuzz runs.  Histories
valid by construction, each then given one fault from a bad-pattern class,
must fail both checkers with the witness kind that class implies.
"""

import collections
import copy
import dataclasses
import inspect
import operator
import textwrap
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import bundled
from causalec import checker, server, simnet
from causalec.checker import (
    _leads_to,
    _read_dictation,
    build_causal_order,
    check_all,
    check_causal,
    check_eventual,
    check_locality_and_liveness,
    check_storage,
    probe_invariants,
    revalidate_witness,
)
from causalec.coding import LinearCode
from causalec.field import PrimeField
from causalec.harness import fuzz_run, fuzz_scenario
from causalec.latency import LatencyGraph
from causalec.messages import ValRespEncoded, WriteReturnAck
from causalec.scenarios import ClientSpec, Scenario, ScriptOp, scenario_from_json
from causalec.server import CAUSAL, EVENTUAL, Server
from causalec.simnet import OperationRecord, RunResult, Simulation, run
from causalec.tags import ProtocolInvariantViolation, Tag


@pytest.fixture(scope="module")
def fig1_run():
    sc = scenario_from_json(bundled.doc("fig1"))
    return run(sc, seed=5, probes=True, collect_trace=True)


def probe_values(r):
    """The values the post-quiescence probe reads returned."""
    return {op.value for op in r.ops.values() if op.probe}


def small(scripts, n=2, halts=None):
    code = LinearCode(PrimeField(7), [[1]] * n)
    graph = LatencyGraph(n, {(i, j): 1 for i in range(1, n + 1)
                             for j in range(i + 1, n + 1)})
    clients = sorted({c for c in scripts})
    return Scenario(name="t", code=code, graph=graph,
                    clients=[ClientSpec(c, 1 + (c - 1) % n) for c in clients],
                    scripts=scripts, halts=halts or {})


class TestCausal:
    def test_full_run_passes(self, fig1_run):
        assert check_causal(fig1_run).passed

    def test_zero_reads_vacuous(self):
        sc = small({1: [ScriptOp(0, "write", 1, (5,))]})
        r = run(sc, seed=0)
        assert check_causal(r).passed

    def test_program_order_contained(self, fig1_run):
        by_client = {}
        for op in fig1_run.operation_list():
            by_client.setdefault(op.client, []).append(op)
        for client_ops in by_client.values():
            client_ops.sort(key=lambda op: op.opid[1])
            for a, b in zip(client_ops, client_ops[1:]):
                assert _leads_to(a, b)

    def test_witness_revalidates(self):
        sc = scenario_from_json(bundled.doc("ev_differential"))
        r = run(sc, seed=0, protocol="eventualec", probes=True)
        verdict = check_causal(r)
        assert not verdict.passed
        assert revalidate_witness(r, verdict.details["witness"])

    def test_doctored_read_value_caught(self):
        sc = small({1: [ScriptOp(0, "write", 1, (5,))],
                    2: [ScriptOp(2000, "read", 1)]})
        r = run(sc, seed=0, probes=True)
        assert check_causal(r).passed
        bad = copy.deepcopy(r)
        read_op = next(o for o in bad.ops.values() if o.kind == "read" and not o.probe)
        read_op.value = (6,)  # value no write produced
        verdict = check_causal(bad)
        assert not verdict.passed
        assert verdict.details["witness"]["kind"] == "read-dictation"
        assert revalidate_witness(bad, verdict.details["witness"])

    def test_doctored_equal_write_stamps_caught(self):
        sc = small({1: [ScriptOp(0, "write", 1, (5,))],
                    2: [ScriptOp(2000, "write", 1, (6,))]})
        r = run(sc, seed=0)
        assert check_causal(r).passed
        bad = copy.deepcopy(r)
        first, second = bad.operation_list()
        second.ts = first.ts
        witness = check_causal(bad).details["witness"]
        assert witness == {"kind": "antisymmetry", "ops": [first.opid, second.opid]}
        assert revalidate_witness(bad, witness)

    def test_doctored_smaller_later_stamp_caught(self):
        sc = small({1: [ScriptOp(0, "write", 1, (5,)), ScriptOp(2000, "read", 1)]})
        r = run(sc, seed=0)
        assert check_causal(r).passed
        bad = copy.deepcopy(r)
        write, read = bad.operation_list()
        read.ts = tuple(0 for _ in read.ts)
        witness = check_causal(bad).details["witness"]
        assert witness == {"kind": "program-order", "client": 1,
                           "ops": [write.opid, read.opid]}
        assert revalidate_witness(bad, witness)


class TestEventual:
    def test_one_write_converges_everywhere(self):
        sc = small({1: [ScriptOp(0, "write", 1, (5,))]}, n=3)
        r = run(sc, seed=0, probes=True)
        v = check_eventual(r)
        assert v.passed
        assert probe_values(r) == {(5,)}

    def test_concurrent_writes_converge_to_newest_tag(self):
        sc = small({1: [ScriptOp(0, "write", 1, (3,))],
                    2: [ScriptOp(0, "write", 1, (6,))]}, n=2)
        r = run(sc, seed=0, probes=True)
        assert check_eventual(r).passed
        # the newest write is the one with the larger tag (clock, then client)
        want = max((Tag(op.ts, op.client), op.value)
                   for op in r.ops.values() if op.kind == "write")[1]
        assert probe_values(r) == {want}

    def test_zero_writes_return_initial_value(self):
        sc = small({1: [ScriptOp(0, "read", 1)]}, n=2)
        r = run(sc, seed=0, probes=True)
        assert check_eventual(r).passed
        assert probe_values(r) == {(0,)}

    def test_halted_run_inconclusive(self):
        sc = small({1: [ScriptOp(0, "write", 1, (5,))]}, n=3, halts={3: 0})
        r = run(sc, seed=0, probes=True)
        v = check_eventual(r)
        assert v.inconclusive and not v.passed


class TestStorage:
    def test_quiescent_run_passes(self, fig1_run):
        assert check_storage(fig1_run).passed

    def test_doctored_leftover_entry_caught(self):
        sc = small({1: [ScriptOp(0, "write", 1, (5,))]}, n=2)
        r = run(sc, seed=0, probes=True)
        assert check_storage(r).passed
        r.servers[1].L[0][Tag((9, 9), 1)] = (1,)  # stuck history entry
        bad = check_storage(r)
        assert not bad.passed
        assert bad.details["offenders"][0]["server"] == 1

    def test_halted_run_inconclusive(self):
        sc = small({1: [ScriptOp(0, "write", 1, (5,))]}, n=3, halts={3: 0})
        assert check_storage(run(sc, seed=0)).inconclusive

    def test_accounting_shape(self, fig1_run):
        rows = check_storage(fig1_run).details["accounting"]
        assert len(rows) == 5
        for row in rows:
            assert row["payload_elems"] == 1 + row["unwritten_sentinels"]
            assert row["metadata_ints"] > 0


class TestLocalityLiveness:
    def test_clean_run(self, fig1_run):
        assert check_locality_and_liveness(fig1_run).passed

    def test_halted_home_exempts_ops(self):
        sc = small({1: [ScriptOp(1000, "write", 1, (5,))]}, n=2, halts={1: 0})
        r = run(sc, seed=0)
        assert r.pending_opids  # the write can never be acknowledged
        assert check_locality_and_liveness(r).passed

    def test_ineligible_read_exempt_but_eligible_required(self):
        code = LinearCode(PrimeField(7), [[0, 1], [1, 1], [1, 0]])
        graph = LatencyGraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        sc = Scenario(name="t", code=code, graph=graph,
                      clients=[ClientSpec(1, 1), ClientSpec(3, 3)],
                      scripts={3: [ScriptOp(0, "write", 1, (4,))],
                               1: [ScriptOp(50_000, "read", 1)]},
                      halts={2: 40_000, 3: 40_000})
        r = run(sc, seed=0)
        assert r.pending_opids == [(1, 1)]
        assert check_locality_and_liveness(r).passed  # no live recovery set

    def test_doctored_pending_eligible_read_caught(self):
        sc = small({1: [ScriptOp(0, "write", 1, (5,))],
                    2: [ScriptOp(2000, "read", 1)]})
        r = run(sc, seed=0)
        read_op = next(o for o in r.ops.values() if o.kind == "read")
        read_op.t_response = None
        assert not check_locality_and_liveness(r).passed

    def test_unacknowledged_write_fails_locality_only(self, monkeypatch):
        on_write = Server.on_write

        def drop_ack(self, frm, msg):
            return on_write(self, frm, msg)[1:]

        monkeypatch.setattr(Server, "on_write", drop_ack)
        r = run(small({1: [ScriptOp(0, "write", 1, (5,))]}), seed=0)
        assert r.locality_breaks == 1
        verdict = check_locality_and_liveness(r)
        assert not verdict.passed
        assert {"kind": "locality", "count": 1} in verdict.details["failures"]
        assert probe_invariants(r).passed

    def test_uncoded_read_sent_remote_fails_locality(self, monkeypatch):
        # on_read with its singleton decode skipped: a read at a server that
        # stores the object uncoded is fetched remotely, answering late
        source = textwrap.dedent(inspect.getsource(Server.on_read))
        uncoded = "self.code.held[self.id - 1] == (obj,)"
        assert source.count(uncoded) == 1
        mutant = {}
        exec(source.replace(uncoded, "False"), vars(server), mutant)
        monkeypatch.setattr(Server, "on_read", mutant["on_read"])
        r = run(scenario_from_json(bundled.doc("fig1")), seed=0, probes=True)
        assert r.locality_breaks > 0
        failed = [v.name for v in check_all(r) if not (v.passed or v.inconclusive)]
        assert failed == ["locality+liveness"]
        assert check_locality_and_liveness(r).details["failures"] == [
            {"kind": "locality", "count": r.locality_breaks}]

    def test_live_rank_matches_minimal_set_scan(self):
        # recovery sets are closed upward, so some minimal set avoids the
        # halted server iff the live servers recover the object
        seen = set()
        for seed in range(300):
            code = fuzz_scenario(seed).code
            for halted in range(1, code.n + 1):
                live = [s for s in range(1, code.n + 1) if s != halted]
                for obj in range(1, code.k + 1):
                    scan = any(halted not in rs.members
                               for rs in code.minimal_recovery_sets(obj))
                    rank = code.is_recovery_set(live, obj) is not None
                    assert rank == scan, (seed, halted, obj)
                    seen.add(scan)
        assert seen == {False, True}

    def test_raising_write_handler_fails_invariants_only(self, monkeypatch):
        def boom(self, frm, msg):
            raise ProtocolInvariantViolation("boom")

        monkeypatch.setattr(Server, "on_write", boom)
        r = run(small({1: [ScriptOp(0, "write", 1, (5,))]}), seed=0)
        assert r.violations == ["boom"]
        assert r.locality_breaks == 0
        failed = [v.name for v in check_all(r) if not (v.passed or v.inconclusive)]
        assert failed == ["invariants"]


class TestInvariantProbes:
    def test_clean_run(self, fig1_run):
        assert probe_invariants(fig1_run).passed

    def test_verdicts_deterministic(self, fig1_run):
        a = [v.line() for v in check_all(fig1_run)]
        b = [v.line() for v in check_all(fig1_run)]
        assert a == b


def corrupted(srv, value):
    """The value with every coordinate moved by one in the server's field."""
    p = srv.code.field.p
    return tuple((c + 1) % p for c in value)


class TestProbeFaults:
    """Each runtime probe stops the run at the very transition that breaks
    its invariant.  A fault is injected once into a traced fig1 run by
    wrapping a ``Server`` method; the run must end with exactly the matching
    violation, and its last trace record must be the faulty transition.  A
    probe that misses the fault, or catches it only at a later step, fails."""

    @staticmethod
    def run_fig1():
        return run(scenario_from_json(bundled.doc("fig1")), seed=5, probes=True,
                   collect_trace=True)

    @staticmethod
    def assert_stopped(r, violation, node, event):
        assert r.violations == [violation]
        assert not probe_invariants(r).passed
        assert (r.trace[-1].node, r.trace[-1].event) == (node, event)

    def test_stored_symbol_corrupted_under_memoised_tag_vector(self, monkeypatch):
        # a delete notice changes no clock, tag or tmax, so only the symbol
        # itself differs from the state the probes last checked
        original, fired = Server.on_del, []

        def on_del(srv, frm, msg):
            sends = original(srv, frm, msg)
            if not fired and tuple(srv.m_tagvec) in srv._encodings:
                srv.m_val = corrupted(srv, srv.m_val)
                fired.append((srv.id, ("recv", f"s{frm}", msg)))
            return sends

        monkeypatch.setattr(Server, "on_del", on_del)
        r = self.run_fig1()
        ((sid, event),) = fired
        self.assert_stopped(
            r, f"server {sid}: stored symbol is not the encoding of its tag vector",
            f"s{sid}", event)

    def test_outgoing_symbol_corrupted_under_memoised_tag_vector(self, monkeypatch):
        original, fired = Server.on_val_inq, []

        def on_val_inq(srv, frm, msg):
            sends = original(srv, frm, msg)
            for i, send in enumerate(sends):
                if (not fired and isinstance(send.msg, ValRespEncoded)
                        and send.msg.tagvec in srv._encodings):
                    bad = dataclasses.replace(send.msg, symbol=corrupted(srv, send.msg.symbol))
                    sends[i] = send._replace(msg=bad)
                    fired.append((srv.id, ("recv", f"s{frm}", msg)))
            return sends

        monkeypatch.setattr(Server, "on_val_inq", on_val_inq)
        r = self.run_fig1()
        ((sid, event),) = fired
        self.assert_stopped(
            r, f"outgoing response: server {sid}: stored symbol is not the encoding "
               f"of its tag vector", f"s{sid}", event)

    def test_write_acknowledged_twice(self, monkeypatch):
        # the second ack answers an operation its client no longer waits on
        original, fired = Server.on_write, []

        def on_write(srv, frm, msg):
            sends = original(srv, frm, msg)
            if not fired:
                sends.insert(0, sends[0])
                fired.append((frm, srv.id, sends[0].msg))
            return sends

        monkeypatch.setattr(Server, "on_write", on_write)
        r = self.run_fig1()
        ((cid, sid, ack),) = fired
        self.assert_stopped(r, f"client {cid}: response to {ack.opid}, which is not pending",
                            f"c{cid}", ("recv", f"s{sid}", ack))

    @pytest.mark.parametrize("fault", ["never_invoked", "other_client"])
    def test_answer_to_an_operation_not_pending(self, monkeypatch, fault):
        # the first ack names an opid that no client invoked (opids count from
        # 1), or goes to a client other than the writer
        original, fired = Server.on_write, []

        def on_write(srv, frm, msg):
            sends = original(srv, frm, msg)
            if not fired:
                ack = sends[0]
                if fault == "never_invoked":
                    sends[0] = ack._replace(msg=WriteReturnAck((frm, 0)))
                else:
                    sends[0] = ack._replace(dst=1 if frm != 1 else 2)
                fired.append((sends[0].dst, srv.id, sends[0].msg))
            return sends

        monkeypatch.setattr(Server, "on_write", on_write)
        r = self.run_fig1()
        ((cid, sid, ack),) = fired
        self.assert_stopped(r, f"client {cid}: response to {ack.opid}, which is not pending",
                            f"c{cid}", ("recv", f"s{sid}", ack))

    def test_list_entry_not_matching_its_write(self, monkeypatch):
        # the corrupted value waits in the inqueue until it is applied to L[X]
        original, fired = Server.on_app, []

        def on_app(srv, frm, msg):
            if not fired:
                msg = dataclasses.replace(msg, value=corrupted(srv, msg.value))
                fired.append((srv.id, msg.obj, msg.tag))
            return original(srv, frm, msg)

        monkeypatch.setattr(Server, "on_app", on_app)
        r = self.run_fig1()
        ((sid, obj, tag),) = fired
        self.assert_stopped(
            r, f"server {sid}: list entry {tag.render()} on X{obj} does not match "
               f"the write with that tag", f"s{sid}", ("apply",))

    @pytest.mark.parametrize("action,event", [("encoding", ("encode",)),
                                              ("garbage_collection", ("gc",))])
    def test_internal_action_raises(self, monkeypatch, action, event):
        # an internal action's raise takes the same path as a handler's: one
        # violation, and the step recorded with nothing emitted
        original, fired = getattr(Server, action), []

        def raise_once(srv):
            if not fired:
                fired.append(srv.id)
                raise ProtocolInvariantViolation(f"server {srv.id}: {action} raised")
            return original(srv)

        monkeypatch.setattr(Server, action, raise_once)
        r = self.run_fig1()
        (sid,) = fired
        self.assert_stopped(r, f"server {sid}: {action} raised", f"s{sid}", event)
        assert r.trace[-1].emitted == ()

    def test_tmax_above_symbol_tag(self, monkeypatch):
        original, fired = Server.on_del, []

        def on_del(srv, frm, msg):
            sends = original(srv, frm, msg)
            if not fired:
                mt = srv.m_tagvec[msg.obj - 1]
                srv.tmax[msg.obj - 1] = above = Tag(mt.ts, mt.id + 1)
                fired.append((srv.id, ("recv", f"s{frm}", msg),
                              f"tmax {above.render()} exceeds symbol tag {mt.render()} "
                              f"for X{msg.obj}"))
            return sends

        monkeypatch.setattr(Server, "on_del", on_del)
        r = self.run_fig1()
        ((sid, event, text),) = fired
        self.assert_stopped(r, f"server {sid}: {text}", f"s{sid}", event)


class TestNarrowedProbeFaults:
    """The probes re-check only the state that a transition changed: the
    clock test alone when only ``vc`` moved, ``check_invariants`` when
    ``m_tagvec``, ``tmax`` or ``m_val`` changed, and an outgoing coded
    response unless it is the last checked symbol under its own tag vector.
    A fault aimed at each of those branches must still stop the run at the
    faulty transition."""

    assert_stopped = staticmethod(TestProbeFaults.assert_stopped)
    run_fig1 = staticmethod(TestProbeFaults.run_fig1)

    @staticmethod
    def keep_simulations(monkeypatch):
        """The simulations ``run`` builds, so a fault can read the snapshot
        that the probes last checked."""
        sims = []

        class Kept(Simulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sims.append(self)

        monkeypatch.setattr(simnet, "Simulation", Kept)
        return sims

    def test_clock_entry_moved_backwards_with_only_vc_changed(self, monkeypatch):
        original, fired = Server.apply_inqueue, []

        def apply_inqueue(srv):
            before = (srv.vc[:], srv.m_tagvec[:], srv.tmax[:], srv.m_val)
            changed, sends = original(srv)
            kept = [i for i, (a, b) in enumerate(zip(before[0], srv.vc)) if a == b > 0]
            if changed and kept and not fired:
                assert (srv.m_tagvec, srv.tmax) == (before[1], before[2])
                assert srv.m_val is before[3]
                srv.vc[kept[0]] -= 1
                fired.append(srv.id)
            return changed, sends

        monkeypatch.setattr(Server, "apply_inqueue", apply_inqueue)
        r = self.run_fig1()
        (sid,) = fired
        self.assert_stopped(r, f"server {sid}: vector clock went backwards", f"s{sid}",
                            ("apply",))

    def test_wrong_symbol_with_tag_vector_unchanged(self, monkeypatch):
        # the applied write moves the clock, and the symbol is swapped while
        # its tag vector stays as checked
        original, fired = Server.apply_inqueue, []

        def apply_inqueue(srv):
            tagvec = srv.m_tagvec[:]
            changed, sends = original(srv)
            if changed and not fired:
                assert srv.m_tagvec == tagvec
                srv.m_val = corrupted(srv, srv.m_val)
                fired.append(srv.id)
            return changed, sends

        monkeypatch.setattr(Server, "apply_inqueue", apply_inqueue)
        r = self.run_fig1()
        (sid,) = fired
        self.assert_stopped(
            r, f"server {sid}: stored symbol is not the encoding of its tag vector",
            f"s{sid}", ("apply",))

    def fault_outgoing(self, monkeypatch, fault):
        """Run fig1 with ``fault(srv, msg)`` applied to the first outgoing
        ``ValRespEncoded`` that is the last checked symbol under the last
        checked tag vector; it returns the faulty message, or None to pass."""
        sims = self.keep_simulations(monkeypatch)
        original, fired = Server.on_val_inq, []

        def on_val_inq(srv, frm, inq):
            sends = original(srv, frm, inq)
            snap = sims[-1]._snapshots[srv.id]
            for i, send in enumerate(sends):
                msg = send.msg
                if (fired or not isinstance(msg, ValRespEncoded)
                        or msg.symbol is not snap[3] or list(msg.tagvec) != snap[1]):
                    continue
                bad = fault(srv, msg)
                if bad is not None:
                    sends[i] = send._replace(msg=bad)
                    fired.append((srv.id, ("recv", f"s{frm}", inq)))
            return sends

        monkeypatch.setattr(Server, "on_val_inq", on_val_inq)
        r = self.run_fig1()
        ((sid, event),) = fired
        self.assert_stopped(
            r, f"outgoing response: server {sid}: stored symbol is not the encoding "
               f"of its tag vector", f"s{sid}", event)

    def test_outgoing_stored_symbol_under_another_tag_vector(self, monkeypatch):
        def other_tagvec(srv, msg):
            other = next((tv for tv, enc in srv._encodings.items() if enc != msg.symbol), None)
            return None if other is None else dataclasses.replace(msg, tagvec=other)

        self.fault_outgoing(monkeypatch, other_tagvec)

    def test_outgoing_other_symbol_under_stored_tag_vector(self, monkeypatch):
        self.fault_outgoing(monkeypatch, lambda srv, msg: dataclasses.replace(
            msg, symbol=corrupted(srv, msg.symbol)))


def test_constructed_state_is_checked_before_the_first_step(monkeypatch):
    # construction checks each server's state once, so a symbol corrupted
    # there stops the run before it takes a step
    original = Server.__init__

    def init(srv, sid, *args, **kwargs):
        original(srv, sid, *args, **kwargs)
        if sid == 2:
            srv.m_val = corrupted(srv, srv.m_val)

    monkeypatch.setattr(Server, "__init__", init)
    r = TestProbeFaults.run_fig1()
    assert r.violations == ["server 2: stored symbol is not the encoding of its tag vector"]
    assert r.transitions == 0 and r.trace == []
    assert not probe_invariants(r).passed


# -- reference oracle: the all-pairs bitmask checker --------------------------------


def oracle_relation(ops):
    """Successor bitmask per operation index under the white-box order."""
    rel = [0] * len(ops)
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i != j and _leads_to(a, b):
                rel[i] |= 1 << j
    return rel


def oracle_read_dictation(ops, rel, i, v, zero):
    obj = ops[i].obj
    bit = 1 << i
    blockers = [j for j, w in enumerate(ops)
                if w.kind == "write" and w.obj == obj and w.value != v and rel[j] & bit]
    candidates = [j for j, w in enumerate(ops)
                  if w.kind == "write" and w.obj == obj and w.value == v and rel[j] & bit]
    if not candidates:
        return v == zero and not blockers, blockers
    return any(all(not rel[j] & (1 << b) for b in blockers) for j in candidates), blockers


def oracle_witness(ops, zero):
    """The first violation the bitmask checker finds, or None."""
    rel = oracle_relation(ops)
    n = len(ops)
    for i in range(n):
        if rel[i] & (1 << i):
            return {"kind": "irreflexivity", "op": ops[i].opid}
    for i in range(n):
        for j in range(n):
            if not rel[i] & (1 << j):
                continue
            if rel[j] & (1 << i):
                return {"kind": "antisymmetry", "ops": [ops[i].opid, ops[j].opid]}
            extra = rel[j] & ~rel[i] & ~(1 << i)
            if extra:
                k = extra.bit_length() - 1
                return {"kind": "transitivity", "ops": [ops[i].opid, ops[j].opid, ops[k].opid]}
    by_client = {}
    for i, op in enumerate(ops):
        by_client.setdefault(op.client, []).append(i)
    for client, idxs in by_client.items():
        idxs.sort(key=lambda i: ops[i].opid[1])
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                if not rel[i] & (1 << j):
                    return {"kind": "program-order", "client": client,
                            "ops": [ops[i].opid, ops[j].opid]}
    for i, op in enumerate(ops):
        if op.kind == "read" and op.completed:
            ok, blockers = oracle_read_dictation(ops, rel, i, op.value, zero)
            if not ok:
                return {"kind": "read-dictation", "read": op.opid, "value": op.value,
                        "blocker": ops[blockers[0]].opid if blockers else None}
    return None


ZERO = (0,)
CLOCK = st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2))
OP = st.tuples(st.integers(1, 3), st.sampled_from(["read", "write"]), st.integers(1, 2),
               st.integers(0, 2), st.integers(0, 3), st.booleans(), CLOCK)


def history(rows):
    """A stand-in run result: what the causal checker reads of one."""
    ops = {}
    seq = {}
    for client, kind, obj, value, t_invoke, completed, ts in rows:
        seq[client] = seq.get(client, 0) + 1
        opid = (client, seq[client])
        ops[opid] = OperationRecord(opid, client, kind, obj, (value,), t_invoke,
                                    t_response=t_invoke + 1 if completed else None, ts=ts)
    code = SimpleNamespace(zero_value=lambda: ZERO)
    h = SimpleNamespace(ops=ops, servers={1: SimpleNamespace(code=code)})
    h.operation_list = lambda: RunResult.operation_list(h)
    return h


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(st.lists(OP, min_size=1, max_size=9))
def test_check_causal_agrees_with_bitmask_oracle(rows):
    h = history(rows)
    ops = h.operation_list()
    verdict = check_causal(h)
    want = oracle_witness(ops, ZERO)
    assert verdict.passed == (want is None)
    if want is None:
        return
    got = verdict.details["witness"]
    assert got["kind"] == want["kind"]
    if got["kind"] != "program-order":
        assert got == want
    assert revalidate_witness(h, got)
    assert revalidate_witness(h, want)


# client, kind, object, a write's value, which write in its past a read
# returns, and how many ops back lies the op (if any) whose stamp it joins
ORDERED_OP = st.tuples(st.integers(1, 3), st.sampled_from(["read", "write"]), st.integers(1, 2),
                       st.integers(1, 4), st.integers(0, 4), st.none() | st.integers(1, 3))


def ordered_history(rows):
    """A history in which antisymmetry and program order hold by
    construction, so that every verdict is decided by read dictation.  Each
    client's stamps increase along its ops: an op's stamp joins the client's
    frontier (its last stamp) and, optionally, a recent op's stamp (what its
    home server had seen), and a write then increments the client's own
    entry, so no two writes are stamped alike.  A read's pick ``p`` returns
    zero for 0 or an empty past, else the value of the ``p``-th newest-tag
    write in its past, or of the oldest there: the newest is valid, and an
    older one only when it is maximal there or holds the same value."""
    frontier, stamps, writes, out = {}, [], [], []
    for t, (client, kind, obj, value, pick, seen) in enumerate(rows):
        ts = frontier.get(client, (0, 0, 0))
        if seen is not None and seen <= len(stamps):
            ts = tuple(map(max, ts, stamps[-seen]))
        if kind == "write":
            ts = ts[:client - 1] + (ts[client - 1] + 1,) + ts[client:]
            writes.append((Tag(ts, client), obj, value))
        else:
            past = sorted(((tag, v) for tag, o, v in writes
                           if o == obj and all(map(operator.le, tag.ts, ts))), reverse=True)
            value = past[min(pick, len(past)) - 1][1] if pick and past else 0
        frontier[client] = ts
        stamps.append(ts)
        out.append((client, kind, obj, value, t, True, ts))
    return history(out)


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(st.lists(ORDERED_OP, min_size=1, max_size=9))
def test_check_causal_agrees_with_bitmask_oracle_on_ordered_histories(rows):
    h = ordered_history(rows)
    verdict = check_causal(h)
    want = oracle_witness(h.operation_list(), ZERO)
    assert want is None or want["kind"] == "read-dictation"
    assert verdict.passed == (want is None)
    if want is not None:
        assert verdict.details["witness"] == want
        assert revalidate_witness(h, want)


# -- one fault per bad pattern (Bouajjani et al., POPL 2017) on a passing history --
# Each fault names the first op it applies to, in table order, as (index,
# column of the history row, new cell), or None when the history has no such op.

VALUE, TS = 3, 6  # history row columns


def past_writes(ops, read):
    """The writes on the read's object in its causal past."""
    return [w for w in ops if w.kind == "write" and w.obj == read.obj and _leads_to(w, read)]


def overwritten_read(ops):
    """WriteCORead: a read returns the value of a write in its past, and a
    later write there, holding another value, overwrote every write there
    that holds it."""
    for i, r in enumerate(ops):
        past = past_writes(ops, r) if r.kind == "read" else []
        for w in past:
            if all(any(_leads_to(u, v) and v.value != w.value for v in past)
                   for u in past if u.value == w.value):
                return i, VALUE, w.value[0]
    return None


def init_read(ops):
    """WriteCOInitRead: a read whose past holds a write returns zero."""
    return next(((i, VALUE, ZERO[0]) for i, r in enumerate(ops)
                 if r.kind == "read" and past_writes(ops, r)), None)


def thin_air_read(ops):
    """ThinAirRead: a read returns a value that no write wrote (writes hold 1-4)."""
    return next(((i, VALUE, 5) for i, r in enumerate(ops) if r.kind == "read"), None)


def shared_stamp(ops):
    """CyclicCO: a write takes an earlier write's stamp."""
    writes = [i for i, op in enumerate(ops) if op.kind == "write"]
    return (writes[1], TS, ops[writes[0]].ts) if len(writes) > 1 else None


def smaller_stamp(ops):
    """Program order: a client's later op gets a stamp below its last one's,
    one entry decremented; a write's new stamp clashes with no other write's."""
    last = {}
    for i, op in enumerate(ops):
        prev, last[op.client] = last.get(op.client), op
        if prev is None or not any(prev.ts):
            continue
        k = next(k for k, c in enumerate(prev.ts) if c)
        ts = prev.ts[:k] + (prev.ts[k] - 1,) + prev.ts[k + 1:]
        if op.kind == "read" or all(w.ts != ts for w in ops if w.kind == "write"):
            return i, TS, ts
    return None


FAULTS = {"WriteCORead": (overwritten_read, "read-dictation"),
          "WriteCOInitRead": (init_read, "read-dictation"),
          "ThinAirRead": (thin_air_read, "read-dictation"),
          "CyclicCO": (shared_stamp, "antisymmetry"),
          "program-order": (smaller_stamp, "program-order")}
# one object, and writes twice as likely as reads: under ORDERED_OP, a read
# whose past holds an overwritten write (WriteCORead) is rare
FAULT_OP = st.tuples(st.integers(1, 3), st.sampled_from(["read", "write", "write"]), st.just(1),
                     st.integers(1, 4), st.integers(0, 4), st.none() | st.integers(1, 3))


def test_one_fault_on_a_passing_ordered_history_fails_both_checkers():
    mutated = collections.Counter()

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(st.lists(FAULT_OP, min_size=4, max_size=9))
    def check(rows):
        h = ordered_history(rows)
        if not check_causal(h).passed:
            return
        ops = h.operation_list()
        for name, (fault, kind) in FAULTS.items():
            change = fault(ops)
            if change is None:
                continue
            i, column, cell = change
            table = [[op.client, op.kind, op.obj, op.value[0], op.t_invoke, True, op.ts]
                     for op in ops]
            table[i][column] = cell
            bad = history(table)
            verdict = check_causal(bad)
            want = oracle_witness(bad.operation_list(), ZERO)
            assert not verdict.passed and want is not None, name
            got = verdict.details["witness"]
            assert got["kind"] == want["kind"] == kind, name
            if kind != "program-order":
                assert got == want, name
            if kind == "read-dictation":
                assert got["read"] == ops[i].opid, name
            assert revalidate_witness(bad, got), name
            mutated[name] += 1

    check()
    assert min(mutated[name] for name in FAULTS) >= 20, mutated


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(OP, min_size=2, max_size=6))
def test_order_is_transitive_and_antisymmetric_but_for_equal_write_stamps(rows):
    ops = history(rows).operation_list()
    for a in ops:
        for b in ops:
            if a is b or not _leads_to(a, b):
                continue
            if _leads_to(b, a):
                assert a.kind == b.kind == "write" and a.ts is not None and a.ts == b.ts
            for c in ops:
                if c is not a and c is not b and _leads_to(b, c):
                    assert _leads_to(a, c)


# -- the read-dictation shortcut against the whole-past evaluation -------------------


def whole_past_witness(result):
    """The first read-dictation failure found by evaluating every completed
    read's whole causal past (``build_causal_order``), or None."""
    ops = result.operation_list()
    zero = result.servers[1].code.zero_value()
    for i, before in build_causal_order(ops).items():
        ok, blockers = _read_dictation(ops, before, ops[i].value, zero)
        if not ok:
            return {"kind": "read-dictation", "read": ops[i].opid, "value": ops[i].value,
                    "blocker": ops[blockers[0]].opid if blockers else None}
    return None


@pytest.fixture
def whole_past_reads(monkeypatch):
    """The opids of the reads whose whole past ``check_causal`` evaluated."""
    seen = []
    real = checker._causal_past

    def causal_past(ops, i):
        seen.append(ops[i].opid)
        return real(ops, i)

    monkeypatch.setattr(checker, "_causal_past", causal_past)
    return seen


# client 1 writes 1 at (1, 0) and client 2 writes 2 at (0, 1): concurrent,
# and the first has the newer tag
CONCURRENT = [(1, "write", 1, 1, 0, True, (1, 0)), (2, "write", 1, 2, 0, True, (0, 1))]
# client 1 writes 1, then 2, which dominates it
DOMINATED = [(1, "write", 1, 1, 0, True, (1, 0)), (1, "write", 1, 2, 1, True, (2, 0))]


@pytest.mark.parametrize("rows,whole_past,witness", [
    # returns the newest write in its past: cleared by the shortcut
    (CONCURRENT + [(3, "read", 1, 1, 1, True, (1, 1))], [], None),
    # returns a concurrent write, maximal in its past but not the newest
    (CONCURRENT + [(3, "read", 1, 2, 1, True, (1, 1))], [(3, 1)], None),
    # returns the older, dominated write
    (DOMINATED + [(2, "read", 1, 1, 2, True, (2, 1))], [(2, 1)],
     {"kind": "read-dictation", "read": (2, 1), "value": (1,), "blocker": (1, 2)}),
    # an empty past (the writes are concurrent with the read): zero passes...
    (CONCURRENT + [(3, "read", 1, 0, 1, True, (0, 0))], [], None),
    # ...and a value, even one that a concurrent write holds, fails
    (CONCURRENT + [(3, "read", 1, 2, 1, True, (0, 0))], [(3, 1)],
     {"kind": "read-dictation", "read": (3, 1), "value": (2,), "blocker": None}),
    # a completed read with no stamp follows every stamped write
    (DOMINATED + [(2, "read", 1, 2, 2, True, None)], [(2, 1)], None),
    (DOMINATED + [(2, "read", 1, 1, 2, True, None)], [(2, 1)],
     {"kind": "read-dictation", "read": (2, 1), "value": (1,), "blocker": (1, 2)}),
], ids=["newest", "concurrent-maximal", "dominated", "empty-zero", "empty-value",
        "unstamped-newest", "unstamped-dominated"])
def test_read_dictation_shortcut(whole_past_reads, rows, whole_past, witness):
    h = history(rows)
    verdict = check_causal(h)
    assert whole_past_reads == whole_past
    assert verdict.passed == (witness is None)
    assert verdict.details.get("witness") == witness == whole_past_witness(h)
    if witness is not None:
        assert revalidate_witness(h, witness)


def test_check_causal_equals_whole_past_evaluation_on_fuzz_runs():
    failed = 0
    for protocol in (CAUSAL, EVENTUAL):
        for seed in range(300):
            result, verdicts = fuzz_run(seed, protocol)
            witness = verdicts[0].details.get("witness")
            assert witness == whole_past_witness(result), (protocol, seed)
            failed += witness is not None
    assert failed  # eventualec breaks causality on some seeds
