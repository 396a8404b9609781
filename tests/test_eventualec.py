"""The eventually consistent variant: dropped guards and the behavioural
split it opens against the causal variant on one delivery schedule."""

import pytest

import bundled
from causalec.checker import (
    check_causal,
    check_eventual,
    check_locality_and_liveness,
    check_storage,
    probe_invariants,
)
from causalec.coding import LinearCode
from causalec.field import PrimeField
from causalec.messages import App, Read, ReadReturn, ValInq, ValResp
from causalec.scenarios import scenario_from_json
from causalec.server import EVENTUAL, ReadLEntry, Server
from causalec.simnet import run
from causalec.tags import LOCALHOST, Tag, zero_tag


def tag(ts, cid):
    return Tag(tuple(ts), cid)


def replicated(n=3):
    return LinearCode(PrimeField(7), [[1]] * n)


class TestGuardDiffs:
    def test_stale_list_still_serves_reads(self):
        srv = Server(1, replicated(), EVENTUAL)
        t_old = tag([0, 1, 0], 2)
        srv.L[0] = {t_old: (5,)}
        srv.m_tagvec[0] = tag([0, 2, 0], 2)  # symbol is newer than the list
        sends = srv.on_read(7, Read((7, 1), 1))
        assert sends[0].msg == ReadReturn((7, 1), (5,))

    def test_empty_list_falls_through_to_shared_branches(self):
        srv = Server(1, replicated(), EVENTUAL)
        srv.L[0].clear()
        srv.m_val = (4,)
        sends = srv.on_read(7, Read((7, 1), 1))
        assert sends[0].msg == ReadReturn((7, 1), (4,))  # singleton decode

    def test_apply_is_unconditional(self):
        srv = Server(1, replicated(), EVENTUAL)
        t = tag([0, 5, 0], 2)  # causal variant would wait for 1..4
        srv.on_app(2, App(1, (4,), t))
        changed, _ = srv.apply_inqueue()
        assert changed
        assert srv.vc == [0, 5, 0]
        assert srv.L[0][t] == (4,)

    def test_apply_answers_reads_regardless_of_wanted_version(self):
        srv = Server(1, replicated(), EVENTUAL)
        wanted = tag([0, 9, 0], 2)
        srv._readl_add(ReadLEntry(9, (9, 1), 1, (wanted,), [None] * 3))
        srv.on_app(2, App(1, (4,), tag([0, 1, 0], 2)))
        _, sends = srv.apply_inqueue()
        assert sends[0].msg == ReadReturn((9, 1), (4,))

    def test_external_inquiry_gets_highest_tagged_value(self):
        srv = Server(1, replicated(), EVENTUAL)
        t1, t2 = tag([0, 1, 0], 2), tag([0, 2, 0], 2)
        srv.L[0] = {t1: (3,), t2: (6,)}
        sends = srv.on_val_inq(2, ValInq(9, (9, 1), 1, (tag([0, 9, 0], 2),)))
        msg = sends[0].msg
        assert isinstance(msg, ValResp) and msg.value == (6,)
        assert msg.clientid is None and msg.opid is None

    def test_internal_inquiry_always_encoded(self):
        srv = Server(1, replicated(), EVENTUAL)
        sends = srv.on_val_inq(2, ValInq(LOCALHOST, (-2, 1), 1, (zero_tag(3),)))
        assert not isinstance(sends[0].msg, ValResp)

    def test_value_response_answers_every_matching_read(self):
        srv = Server(1, replicated(), EVENTUAL)
        srv._readl_add(ReadLEntry(8, (8, 1), 1, (zero_tag(3),), [None] * 3))
        srv._readl_add(ReadLEntry(9, (9, 1), 1, (zero_tag(3),), [None] * 3))
        srv._readl_add(ReadLEntry(LOCALHOST, (-1, 1), 1, (zero_tag(3),), [None] * 3))
        sends = srv.on_val_resp(2, ValResp(1, (4,)))
        assert {(s.dst, s.msg.opid) for s in sends} == {(8, (8, 1)), (9, (9, 1))}
        assert not srv.readl, "matching internal reads are dropped unserved"
        assert not srv.L[0].get(zero_tag(3)) == (4,)

    def test_no_tuples_is_a_noop(self):
        srv = Server(1, replicated(), EVENTUAL)
        assert srv.on_val_resp(2, ValResp(1, (4,))) == []


@pytest.fixture(scope="module")
def runs():
    sc = scenario_from_json(bundled.doc("ev_differential"))
    causal = run(sc, seed=0, protocol="causalec", probes=True, collect_trace=True)
    eventual = run(sc, seed=0, protocol="eventualec", probes=True, collect_trace=True)
    return causal, eventual


class TestDifferential:

    def test_same_delivery_schedule(self, runs):
        causal, eventual = runs
        # deliveries of the workload's write fan-out happen at identical times
        def app_times(r):
            return [(rec.t, rec.node) for rec in r.trace
                    if rec.event[0] == "recv" and isinstance(rec.event[2], App)]
        assert app_times(causal) == app_times(eventual)

    def test_causal_variant_passes(self, runs):
        causal, _ = runs
        assert check_causal(causal).passed
        assert check_eventual(causal).passed
        assert check_storage(causal).passed

    def test_eventual_variant_flags_causality(self, runs):
        _, eventual = runs
        verdict = check_causal(eventual)
        assert not verdict.passed
        witness = verdict.details["witness"]
        assert witness["kind"] == "read-dictation"
        assert witness["value"] == (5,)  # the dependent write surfaced early

    def test_eventual_variant_keeps_liveness_and_convergence(self, runs):
        _, eventual = runs
        assert check_eventual(eventual).passed
        assert check_storage(eventual).passed
        assert check_locality_and_liveness(eventual).passed
        assert probe_invariants(eventual).passed

    def test_reads_split_between_variants(self, runs):
        causal, eventual = runs
        def read_values(r):
            return [op.value for op in r.operation_list()
                    if op.kind == "read" and not op.probe]
        assert read_values(causal) == [(3,), (0,), (0,)]
        assert read_values(eventual) == [(3,), (5,), (0,)]
