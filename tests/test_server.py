"""Single-server transition semantics, hand-executed.

Each test drives one handler on a directly constructed server and compares
the state delta and emitted batch against the expected step-by-step result,
except ``TestDirtySets``, which checks the internal actions' work sets
against full sweeps over whole runs; ``TestUnmovedSteps``, which checks over
whole runs that a step reporting no change changed nothing, that every step
the simulator records without calling its action has nothing to do, and
that each delete notice marks exactly the objects whose minima it moves; and
``TestRoundSchedule``, which pins the round-due flags apart from the work
sets; and ``TestMarkingRules``, which pins each work-set marking rule in one
step against a copy that visits every object the step left unmarked.
"""

import collections
import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import bundled
from bundled import FIG1_COEFFS
from causalec import simnet
from causalec.coding import LinearCode
from causalec.field import PrimeField
from causalec.messages import (
    App,
    Del,
    Read,
    ReadReturn,
    ValInq,
    ValResp,
    ValRespEncoded,
    Write,
    WriteReturnAck,
)
from causalec.harness import fuzz_scenario, random_code
from causalec.latency import LatencyGraph
from causalec.scenarios import (
    ClientSpec, RandomWorkload, Scenario, ScriptOp, scenario_from_json)
from causalec.server import CAUSAL, VARIANTS, ReadLEntry, Server
from causalec.tags import LOCALHOST, ProtocolInvariantViolation, Tag, zero_tag


def replicated(n=3, p=7):
    """n servers all storing the single object plainly."""
    return LinearCode(PrimeField(p), [[1]] * n)


def fig1():
    return LinearCode(PrimeField(7), FIG1_COEFFS)


def tag(ts, cid):
    return Tag(tuple(ts), cid)


def sends_of(kind, sends):
    return [s for s in sends if isinstance(s.msg, kind)]


def _min_moves(dmax, srv, prev, servers):
    """Whether raising ``srv``'s entry in ``dmax`` from ``prev`` (None: no
    entry) moved the minimum over ``servers``, which is undefined while one
    of them has no entry: ``srv`` held the only minimum, or was the last
    server without an entry.  A tie at the minimum leaves it in place."""
    for i in servers:
        if i != srv:
            t = dmax.get(i)
            if t is None or (prev is not None and t <= prev):
                return False
    return True


# fig1's servers 1..5; X1 is held by 1, 3 and 4.  Three tags, so entries tie.
NOTICE_TAGS = [tag([v, 0, 0, 0, 0], 1) for v in (1, 2, 3)]
DEL_MAX = st.dictionaries(st.integers(1, 5), st.sampled_from(NOTICE_TAGS), max_size=5)


class TestWrite:
    def test_fresh_write_acks_and_fans_out(self):
        srv = Server(1, replicated())
        sends = srv.on_write(7, Write((7, 1), 1, (5,)))
        assert srv.vc == [1, 0, 0]
        assert srv.L[0][tag([1, 0, 0], 7)] == (5,)
        ack = sends[0]
        assert ack.kind == "client" and ack.dst == 7
        assert ack.msg == WriteReturnAck((7, 1))
        apps = sends_of(App, sends)
        assert [(s.dst, s.msg) for s in apps] == [
            (2, App(1, (5,), tag([1, 0, 0], 7))),
            (3, App(1, (5,), tag([1, 0, 0], 7))),
        ]

    def test_second_write_advances_own_slot(self):
        srv = Server(1, replicated())
        srv.on_write(7, Write((7, 1), 1, (5,)))
        srv.on_write(7, Write((7, 2), 1, (6,)))
        assert srv.vc == [2, 0, 0]
        assert tag([2, 0, 0], 7) in srv.L[0]

    def test_write_answers_pending_external_reads(self):
        srv = Server(1, replicated())
        entry = ReadLEntry(9, (9, 1), 1, (zero_tag(3),), [None, None, None])
        srv._readl_add(entry)
        sends = srv.on_write(7, Write((7, 1), 1, (5,)))
        returns = sends_of(ReadReturn, sends)
        assert [(s.dst, s.msg) for s in returns] == [(9, ReadReturn((9, 1), (5,)))]
        assert not srv.readl

    def test_write_leaves_internal_reads_pending(self):
        srv = Server(1, replicated())
        entry = ReadLEntry(LOCALHOST, (-1, 1), 1, (zero_tag(3),), [None] * 3)
        srv._readl_add(entry)
        sends = srv.on_write(7, Write((7, 1), 1, (5,)))
        assert not sends_of(ReadReturn, sends)
        assert (-1, 1) in srv.readl


class TestRead:
    def test_initial_read_returns_zero_from_the_sentinel(self):
        srv = Server(1, replicated())
        sends = srv.on_read(7, Read((7, 1), 1))
        assert sends == [type(sends[0])("client", 7, ReadReturn((7, 1), (0,)))]

    def test_list_hit_returns_highest_tagged(self):
        srv = Server(1, replicated())
        srv.on_write(7, Write((7, 1), 1, (5,)))
        srv.on_write(7, Write((7, 2), 1, (6,)))
        sends = srv.on_read(8, Read((8, 1), 1))
        assert sends[0].msg == ReadReturn((8, 1), (6,))

    def test_local_decode_when_list_is_empty(self):
        srv = Server(1, fig1())
        srv.L[0].clear()  # locally stored object, history already collected
        srv.m_val = (4,)
        sends = srv.on_read(7, Read((7, 1), 1))
        assert sends[0].msg == ReadReturn((7, 1), (4,))
        assert ("decoded", 1, (1,), (7, 1)) in srv.notes

    def test_remote_fanout_when_not_locally_decodable(self):
        srv = Server(1, fig1())
        srv.L[2].clear()  # X3 is not stored at server 1
        sends = srv.on_read(7, Read((7, 1), 3))
        inqs = sends_of(ValInq, sends)
        assert [s.dst for s in inqs] == [2, 3, 4, 5]
        assert inqs[0].msg == ValInq(7, (7, 1), 3, tuple(srv.m_tagvec))
        entry = srv.readl[(7, 1)]
        assert entry.symbols[0] == srv.m_val
        assert entry.symbols[1:] == [None] * 4

    def test_stale_list_goes_remote_under_causal_guard(self):
        srv = Server(3, fig1())
        t_old = tag([1, 0, 0, 0, 0], 1)
        t_new = tag([2, 0, 0, 0, 0], 1)
        srv.L[0] = {t_old: (5,)}
        srv.m_tagvec[0] = t_new
        sends = srv.on_read(7, Read((7, 1), 1))
        assert sends_of(ValInq, sends), "older history than the symbol must not serve the read"


class TestDeleteNotices:
    def test_set_semantics(self):
        srv = Server(1, replicated())
        t = tag([0, 1, 0], 2)
        srv.on_del(2, Del(1, t))
        srv.on_del(2, Del(1, t))
        assert list(srv.dell[0]) == [(t, 2)]

    def test_distinct_tags_retained(self):
        srv = Server(1, replicated())
        srv.on_del(2, Del(1, tag([0, 1, 0], 2)))
        srv.on_del(2, Del(1, tag([0, 2, 0], 2)))
        assert len(srv.dell[0]) == 2

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.sampled_from(NOTICE_TAGS), DEL_MAX)
    # entries missing; a tie at the minimum; the sender outside the holders;
    # the holders' minimum alone moving, at a holder
    @example(me=1, frm=3, new=NOTICE_TAGS[2], entries={1: NOTICE_TAGS[0]})
    @example(me=1, frm=4, new=NOTICE_TAGS[2],
             entries={1: NOTICE_TAGS[1], 3: NOTICE_TAGS[1], 4: NOTICE_TAGS[0]})
    @example(me=2, frm=1, new=NOTICE_TAGS[1],
             entries={i: NOTICE_TAGS[0] for i in range(1, 6)})
    @example(me=2, frm=5, new=NOTICE_TAGS[2],
             entries={1: NOTICE_TAGS[1], 2: NOTICE_TAGS[1], 3: NOTICE_TAGS[2],
                      4: NOTICE_TAGS[1], 5: NOTICE_TAGS[0]})
    def test_one_pass_minima_match_two_scans(self, me, frm, new, entries):
        # _add_del decides in one pass over the servers whether the notice
        # moved the minimum over X1's holders and over all servers; the work
        # sets it marks must follow the two _min_moves scans
        srv = Server(me, fig1())
        srv._del_max[0] = [entries.get(i, srv.zero_tag) for i in range(1, 6)]
        srv._enc_dirty.clear()
        srv._gc_dirty.clear()
        prev = entries.get(frm)
        srv._add_del(1, new, frm)
        raised = prev is None or prev < new
        holders = srv.code.holders[0]
        held = raised and frm in holders and _min_moves(entries, frm, prev, holders)
        everyone = raised and _min_moves(entries, frm, prev, range(1, 6))
        here = 1 in srv.objects_here
        assert (1 in srv._enc_dirty) == (held and not here)
        assert (1 in srv._gc_dirty) == (everyone or held and here)
        assert srv._del_max[0][frm - 1] == (new if raised else prev)


class TestApplyQueue:
    def test_out_of_order_app_raises(self):
        srv = Server(1, replicated())
        srv.on_app(2, App(1, (1,), tag([0, 2, 0], 2)))
        with pytest.raises(ProtocolInvariantViolation, match="out of order"):
            srv.on_app(2, App(1, (2,), tag([0, 1, 0], 2)))

    def test_app_behind_applied_clock_raises(self):
        srv = Server(1, replicated())
        srv.on_app(2, App(1, (1,), tag([0, 1, 0], 2)))
        srv.apply_inqueue()
        with pytest.raises(ProtocolInvariantViolation, match="out of order"):
            srv.on_app(2, App(1, (2,), tag([0, 1, 0], 2)))

    def test_lower_origin_applies_first_among_ready_heads(self):
        srv = Server(1, replicated(4))
        t3, t2 = tag([0, 0, 1, 0], 3), tag([0, 1, 0, 0], 2)
        srv.on_app(3, App(1, (3,), t3))
        srv.on_app(2, App(1, (2,), t2))
        changed, _ = srv.apply_inqueue()
        assert changed and srv.vc == [0, 1, 0, 0] and list(srv.L[0])[-1] == t2
        changed, _ = srv.apply_inqueue()
        assert changed and srv.vc == [0, 1, 1, 0] and list(srv.L[0])[-1] == t3
        assert not srv.inqueue

    def test_blocked_head_waits_for_third_origin(self):
        srv = Server(1, replicated(4))
        t2 = tag([0, 1, 1, 0], 2)  # depends on server 3's first write
        t3 = tag([0, 0, 1, 0], 3)
        t4 = tag([0, 0, 0, 1], 4)
        srv.on_app(2, App(1, (2,), t2))
        srv.on_app(4, App(1, (4,), t4))
        # server 2's head goes first and is blocked, so the ready head from
        # server 4 waits behind it
        changed, _ = srv.apply_inqueue()
        assert not changed and srv.vc == [0, 0, 0, 0]
        srv.on_app(3, App(1, (3,), t3))
        applied = []
        while srv.inqueue:
            changed, _ = srv.apply_inqueue()
            assert changed
            applied.append(list(srv.L[0])[-1])
        assert applied == [t3, t2, t4]
        assert srv.vc == [0, 1, 1, 1]

    def test_ready_head_applies(self):
        srv = Server(1, replicated())
        t = tag([0, 1, 0], 2)
        srv.on_app(2, App(1, (4,), t))
        changed, sends = srv.apply_inqueue()
        assert changed and not sends
        assert srv.vc == [0, 1, 0]
        assert srv.L[0][t] == (4,)
        assert not srv.inqueue

    def test_gap_blocks(self):
        srv = Server(1, replicated())
        srv.on_app(2, App(1, (4,), tag([0, 2, 0], 2)))  # needs vc[2] == 1 first
        changed, sends = srv.apply_inqueue()
        assert not changed and not sends
        assert srv.vc == [0, 0, 0] and srv.inqueue

    def test_unseen_dependency_blocks(self):
        srv = Server(1, replicated())
        srv.on_app(2, App(1, (4,), tag([0, 1, 1], 2)))  # depends on a server-3 write
        changed, _ = srv.apply_inqueue()
        assert not changed

    def test_apply_answers_covered_reads(self):
        srv = Server(1, replicated())
        entry = ReadLEntry(9, (9, 1), 1, (zero_tag(3),), [None] * 3)
        srv._readl_add(entry)
        t = tag([0, 1, 0], 2)
        srv.on_app(2, App(1, (4,), t))
        _, sends = srv.apply_inqueue()
        assert sends[0].msg == ReadReturn((9, 1), (4,))
        assert not srv.readl

    def test_apply_skips_reads_wanting_newer(self):
        srv = Server(1, replicated())
        wanted = tag([0, 5, 0], 2)
        entry = ReadLEntry(9, (9, 1), 1, (wanted,), [None] * 3)
        srv._readl_add(entry)
        srv.on_app(2, App(1, (4,), tag([0, 1, 0], 2)))
        _, sends = srv.apply_inqueue()
        assert not sends and (9, 1) in srv.readl


class TestValInq:
    def test_exact_version_answered_plainly(self):
        srv = Server(2, fig1())
        t = tag([1, 0, 0, 0, 0], 1)
        srv.L[1][t] = (6,)
        wanted = (zero_tag(5), t, zero_tag(5))
        sends = srv.on_val_inq(4, ValInq(9, (9, 1), 2, wanted))
        assert sends == [type(sends[0])(
            "server", 4, ValResp(2, (6,), 9, (9, 1), wanted))]

    def test_matching_tags_echo_symbol_verbatim(self):
        srv = Server(4, fig1())
        srv.m_val = (3,)
        srv.L[2].clear()  # otherwise the sentinel serves the zero-tag request
        sends = srv.on_val_inq(1, ValInq(9, (9, 1), 3, tuple(srv.m_tagvec)))
        msg = sends[0].msg
        assert isinstance(msg, ValRespEncoded)
        assert msg.symbol == (3,) and msg.tagvec == tuple(srv.m_tagvec)

    def test_reencodes_out_version_the_requester_does_not_want(self):
        # server 4 mixes X1+X2 and has encoded an X2 version the requester
        # does not know; it removes that contribution before answering
        code = fig1()
        srv = Server(4, code)
        t2 = tag([0, 1, 0, 0, 0], 2)
        srv.L[1][t2] = (2,)
        srv.m_val = (2,)  # x1 = 0, x2 = 2 encoded
        srv.m_tagvec[1] = t2
        srv.L[2].clear()
        wanted = (zero_tag(5),) * 3  # requester knows no versions at all
        msg = srv.on_val_inq(5, ValInq(9, (9, 1), 3, wanted))[0].msg
        assert msg.symbol == (0,)
        assert msg.tagvec[1] == zero_tag(5)

    def test_reencodes_in_the_wanted_version_when_available(self):
        code = fig1()
        srv = Server(4, code)
        t_old = tag([0, 1, 0, 0, 0], 2)
        t_new = tag([0, 2, 0, 0, 0], 2)
        srv.L[1] = {t_old: (2,), t_new: (5,)}
        srv.m_val = (2,)
        srv.m_tagvec[1] = t_old
        srv.L[2].clear()
        wanted = (zero_tag(5), t_new, zero_tag(5))
        msg = srv.on_val_inq(5, ValInq(9, (9, 1), 3, wanted))[0].msg
        assert msg.symbol == (5,)
        assert msg.tagvec[1] == t_new


class TestValRespEncoded:
    def make_reader(self):
        # server 3 reading X3 remotely; its own symbol is already in slot 3
        code = fig1()
        srv = Server(3, code)
        srv.m_val = (6,)  # x1=1, x2=2, x3=3 encoded
        symbols = [None] * 5
        symbols[2] = (6,)
        entry = ReadLEntry(9, (9, 1), 3, tuple(srv.m_tagvec), symbols)
        srv._readl_add(entry)
        return srv, entry

    def test_absent_tuple_is_a_noop(self):
        srv, _ = self.make_reader()
        msg = ValRespEncoded((0,), (zero_tag(5),) * 3, 9, (9, 99), 3, (zero_tag(5),) * 3)
        assert srv.on_val_resp_encoded(4, msg) == []

    def test_pair_completion_decodes_and_answers(self):
        srv, entry = self.make_reader()
        msg = ValRespEncoded((3,), entry.tagvec, 9, (9, 1), 3, entry.tagvec)
        sends = srv.on_val_resp_encoded(4, msg)  # y3 - y4 = 6 - 3 = 3
        assert sends[0].msg == ReadReturn((9, 1), (3,))
        assert ("decoded", 3, (3, 4), (9, 1)) in srv.notes
        assert not srv.readl

    def test_localhost_completion_feeds_the_list(self):
        code = fig1()
        srv = Server(3, code)
        srv.m_val = (6,)
        t2 = tag([0, 1, 0, 0, 0], 2)
        srv.m_tagvec[1] = t2
        symbols = [None] * 5
        symbols[2] = (6,)
        entry = ReadLEntry(LOCALHOST, (-3, 1), 2, tuple(srv.m_tagvec), symbols)
        srv._readl_add(entry)
        # responses from servers 1 and 5 cover {1,3,5}, a recovery set for X2
        m1 = ValRespEncoded((1,), entry.tagvec, LOCALHOST, (-3, 1), 2, entry.tagvec)
        assert srv.on_val_resp_encoded(1, m1) == []
        m5 = ValRespEncoded((3,), entry.tagvec, LOCALHOST, (-3, 1), 2, entry.tagvec)
        sends = srv.on_val_resp_encoded(5, m5)
        assert sends == []  # internal reads answer no client
        assert srv.L[1][t2] == (2,)  # y3 - y1 - y5 = 6-1-3
        assert not srv.readl

    def test_receiver_side_correction_uses_local_history(self):
        # response still encodes an old X2; the receiver swaps it out using
        # its own copies of both versions
        srv, entry = self.make_reader()
        t_old = tag([0, 1, 0, 0, 0], 2)
        # the entry wants the zero tag for X2, so the receiver needs both the
        # response's version and the zero-tag sentinel in its own history
        srv.L[1] = {t_old: (2,), zero_tag(5): (0,)}
        resp_tagvec = (entry.tagvec[0], t_old, entry.tagvec[2])
        msg = ValRespEncoded((5,), resp_tagvec, 9, (9, 1), 3, entry.tagvec)
        sends = srv.on_val_resp_encoded(4, msg)
        # y4' = 5 - 2 (remove x2_old) + 0 (wanted zero tag -> sentinel zero)
        assert sends and sends[0].msg == ReadReturn((9, 1), (3,))

    def test_version_missing_from_history_raises(self):
        # the response encodes an X2 version the receiver's L[X2] lacks: the
        # paper's error flag, which its proofs show never gets set
        srv, entry = self.make_reader()
        t_old = tag([0, 1, 0, 0, 0], 2)
        resp_tagvec = (entry.tagvec[0], t_old, entry.tagvec[2])
        msg = ValRespEncoded((5,), resp_tagvec, 9, (9, 1), 3, entry.tagvec)
        with pytest.raises(ProtocolInvariantViolation,
                           match=r"^server 3: error flag set for X2$"):
            srv.on_val_resp_encoded(4, msg)
        assert entry.symbols[3] is None and (9, 1) in srv.readl


class TestValResp:
    def test_external_completion(self):
        srv = Server(1, replicated())
        entry = ReadLEntry(9, (9, 1), 1, (zero_tag(3),), [None] * 3)
        srv._readl_add(entry)
        msg = ValResp(1, (4,), 9, (9, 1), (zero_tag(3),))
        sends = srv.on_val_resp(2, msg)
        assert sends[0].msg == ReadReturn((9, 1), (4,))
        assert not srv.readl

    def test_localhost_inserts_at_requested_tag(self):
        srv = Server(1, replicated())
        wanted = tag([0, 1, 0], 2)
        entry = ReadLEntry(LOCALHOST, (-1, 1), 1, (wanted,), [None] * 3)
        srv._readl_add(entry)
        msg = ValResp(1, (4,), LOCALHOST, (-1, 1), (wanted,))
        assert srv.on_val_resp(2, msg) == []
        assert srv.L[0][wanted] == (4,)

    def test_no_tuple_is_a_noop(self):
        srv = Server(1, replicated())
        msg = ValResp(1, (4,), 9, (9, 1), (zero_tag(3),))
        assert srv.on_val_resp(2, msg) == []

    @pytest.mark.parametrize("part", ["opid", "clientid", "obj", "requestedtags"])
    def test_both_responses_match_the_pending_read_alike(self, part):
        # a plain or a coded response answers the entry its opid names only
        # when the client, object and requested tags match it too
        srv = Server(3, fig1())
        zt = zero_tag(5)
        srv._readl_add(ReadLEntry(9, (9, 1), 3, (zt,) * 3, [None] * 5))
        right = {"opid": (9, 1), "clientid": 9, "obj": 3, "requestedtags": (zt,) * 3}
        wrong = dict(right, **{part: {"opid": (9, 2), "clientid": 8, "obj": 2,
                                      "requestedtags": (zt, tag([0, 1, 0, 0, 0], 2), zt)}[part]})
        assert srv.on_val_resp(2, ValResp(value=(4,), **wrong)) == []
        assert srv.on_val_resp_encoded(4, ValRespEncoded((4,), (zt,) * 3, **wrong)) == []
        assert srv.readl[9, 1].symbols == [None, None, None, None, None]
        sends = srv.on_val_resp(2, ValResp(value=(4,), **right))
        assert sends_of(ReadReturn, sends) and not srv.readl


class TestEncoding:
    def test_reencode_in_place_when_old_version_present(self):
        srv = Server(2, fig1())  # stores X2 plainly
        t1 = tag([0, 1, 0, 0, 0], 2)
        t2 = tag([0, 2, 0, 0, 0], 2)
        srv._l_insert(2, t1, (3,))
        assert srv.L[1] == {zero_tag(5): (0,), t1: (3,)}
        changed, sends = srv.encoding()
        assert changed
        assert srv.m_val == (3,) and srv.m_tagvec[1] == t1
        dels = sends_of(Del, sends)
        # X2 lives at servers 2, 3 and 4; notices go to the other holders
        assert [(s.dst, s.msg.tag) for s in dels] == [(3, t1), (4, t1)]
        assert (t1, 2) in srv.dell[1]
        # a yet newer version advances the symbol again
        srv._l_insert(2, t2, (5,))
        changed, _ = srv.encoding()
        assert changed and srv.m_val == (5,) and srv.m_tagvec[1] == t2

    def test_missing_old_version_triggers_internal_read(self):
        srv = Server(2, fig1())
        t1 = tag([0, 1, 0, 0, 0], 2)
        t2 = tag([0, 2, 0, 0, 0], 2)
        srv.m_tagvec[1] = t1  # encoded version no longer in the list
        srv.L[1] = {t2: (5,)}
        srv._enc_dirty.add(2)  # the state is written directly, so mark X2
        changed, sends = srv.encoding()
        assert changed
        inqs = sends_of(ValInq, sends)
        assert [s.dst for s in inqs] == [1, 3, 4, 5]
        assert inqs[0].msg.clientid == LOCALHOST
        (entry,) = srv.readl.values()
        assert entry.clientid == LOCALHOST and entry.tagvec[1] == t1
        # a second pass over X2 must not spawn a duplicate inquiry
        srv._enc_dirty.add(2)
        changed, sends = srv.encoding()
        assert not changed and not sends

    def test_bookkeeping_for_remote_objects(self):
        srv = Server(5, fig1())  # X2 not stored at server 5
        t1 = tag([0, 1, 0, 0, 0], 2)
        srv.L[1] = {t1: (3,)}
        srv._enc_dirty.add(2)  # the state is written directly, so mark X2
        changed, sends = srv.encoding()
        assert not changed, "no notices from the holders yet"
        for holder in (2, 3, 4):
            srv.on_del(holder, Del(2, t1))
        changed, sends = srv.encoding()
        assert changed
        assert srv.m_tagvec[1] == t1
        dels = sends_of(Del, sends)
        assert [s.dst for s in dels] == [1, 2, 3, 4]
        assert srv.m_val == (0,), "bookkeeping never touches the symbol"


class TestGarbageCollection:
    def test_full_acknowledgement_drains_history(self):
        srv = Server(2, fig1())
        t1 = tag([0, 1, 0, 0, 0], 2)
        srv._l_insert(2, t1, (3,))
        assert srv.L[1] == {zero_tag(5): (0,), t1: (3,)}
        srv.encoding()
        for other in (1, 3, 4, 5):
            srv.on_del(other, Del(2, t1))
        changed, _ = srv.garbage_collection()
        assert changed
        assert srv.tmax[1] == t1
        assert srv.L[1] == {}

    def test_pending_read_protects_its_version(self):
        srv = Server(2, fig1())
        t1 = tag([0, 1, 0, 0, 0], 2)
        t2 = tag([0, 2, 0, 0, 0], 2)
        srv.L[1] = {t1: (3,), t2: (5,)}
        srv.m_tagvec[1] = t2
        entry = ReadLEntry(LOCALHOST, (-2, 1), 2,
                           (zero_tag(5), t1, zero_tag(5)), [None] * 5)
        srv._readl_add(entry)
        for other in (1, 3, 4, 5):
            srv.on_del(other, Del(2, t2))
        srv._add_del(2, t2, 2)
        srv.garbage_collection()
        assert t1 in srv.L[1], "a pending read still wants this version"

    def test_empty_notices_delete_nothing(self):
        srv = Server(2, fig1())
        t1 = tag([0, 1, 0, 0, 0], 2)
        srv.L[1][t1] = (3,)
        changed, sends = srv.garbage_collection()
        assert srv.tmax[1] == zero_tag(5)
        assert t1 in srv.L[1] and zero_tag(5) in srv.L[1]

    def test_fanout_once_per_threshold(self):
        srv = Server(2, fig1())
        t1 = tag([0, 1, 0, 0, 0], 2)
        for holder in (3, 4):
            srv.on_del(holder, Del(2, t1))
            # X2's holder 2 (this server) has sent no notice yet
            _, sends = srv.garbage_collection()
            assert not sends_of(Del, sends)
        srv._add_del(2, t1, 2)
        _, sends = srv.garbage_collection()
        assert [s.dst for s in sends_of(Del, sends)] == [1, 3, 4, 5]
        _, sends = srv.garbage_collection()
        assert not sends, "identical notice must not be re-broadcast"


class FullSweepTwin(Server):
    """After each internal action, replays it on a copy that visits every
    object; the copy must find nothing to do and leave the state as is.  An
    action that changed something must leave work behind, so that the next
    round, which confirms the fixed point, is scheduled.  ``seen`` counts
    the calls and the events that mark the work sets."""

    STATE = ("L", "dell", "m_tagvec", "m_val", "tmax", "readl")
    SHARED = ("code", "write_registry", "_encodings")
    seen = collections.Counter()

    def encoding(self):
        return self._against_full_sweep(Server.encoding, self._enc_dirty)

    def garbage_collection(self):
        return self._against_full_sweep(Server.garbage_collection, self._gc_dirty)

    def _readl_add(self, entry):
        self.seen["localhost fetch" if entry.clientid == LOCALHOST else "remote read"] += 1
        return super()._readl_add(entry)

    def on_del(self, frm, msg):
        self.seen["held notice"] += msg.obj in self.objects_here
        return super().on_del(frm, msg)

    def _against_full_sweep(self, action, dirty):
        self.seen["calls"] += 1
        self.seen["partial"] += len(dirty) < self.k  # the work set left some object out
        result = action(self)
        if result[0]:
            assert self.round_due
        twin = full_sweep_copy(self)
        assert action(twin) == (False, [])
        for name in self.STATE:
            assert getattr(twin, name) == getattr(self, name), name
        return result


def full_sweep_copy(srv):
    """A deep copy of srv whose work sets hold every object.  It shares the
    code, the write registry and the probes' encoding memo, which the
    actions never write; pickling is about ten times faster than deepcopy."""
    twin = copy.copy(srv)
    vars(twin).update(pickle.loads(pickle.dumps(
        {k: v for k, v in vars(srv).items() if k not in FullSweepTwin.SHARED})))
    twin._enc_dirty = set(srv.object_indices())
    twin._gc_dirty = set(srv.object_indices())
    return twin


class UnmovedTwin(Server):
    """Checks the two rules the simulator's cheap steps rest on.  An internal
    action that returns ``(False, [])`` must leave ``digest()`` and
    ``m_val`` as they were, because the simulator then reuses the server's
    last digest and skips the probes (the digest holds ``vc``, ``m_tagvec``
    and ``tmax``, so the probe snapshot is covered too).  Whenever an
    action's predicate (``can_apply``, ``can_encode``, ``can_collect``) is
    false, that action on a copy that visits every object must change
    nothing, because the simulator then records its step without calling
    it.  A delete notice on X must mark X exactly when it moves an input of
    an action for X: the minimum of the newest notices over all servers
    (GC's ``tmax``), the minimum over X's holders (GC's broadcast when X is
    held here, encoding otherwise), or whether every server has sent the
    symbol's tag; a surplus mark never makes a skip wrong, so this is
    checked on its own.  ``seen`` counts the steps that did not move, the
    skips of each action and the notices that mark nothing."""

    STATE = ("vc", "inqueue") + FullSweepTwin.STATE
    seen = collections.Counter()

    def apply_inqueue(self):
        return self._unchanged_unless_moved(Server.apply_inqueue)

    def encoding(self):
        return self._unchanged_unless_moved(Server.encoding)

    def garbage_collection(self):
        return self._unchanged_unless_moved(Server.garbage_collection)

    def _unchanged_unless_moved(self, action):
        before = self.digest(), self.m_val
        result = action(self)
        if result == (False, []):
            self.seen["unmoved"] += 1
            self.seen[f"unmoved {action.__name__}"] += 1
            assert (self.digest(), self.m_val) == before, action.__name__
        return result

    @property
    def can_apply(self):
        return self._skip_is_exact(Server.can_apply, Server.apply_inqueue)

    @property
    def can_encode(self):
        return self._skip_is_exact(Server.can_encode, Server.encoding)

    @property
    def can_collect(self):
        return self._skip_is_exact(Server.can_collect, Server.garbage_collection)

    def on_del(self, frm, msg):
        obj = msg.obj
        held = obj in self.objects_here
        enc_was, gc_was = obj in self._enc_dirty, obj in self._gc_dirty
        before = self._notice_inputs(obj)
        sends = super().on_del(frm, msg)
        after = self._notice_inputs(obj)
        tmax_moved = before[0] != after[0]
        holders_moved = before[1] != after[1]
        completed = after[2] and not before[2]
        if not gc_was:
            assert (obj in self._gc_dirty) == (tmax_moved or (held and holders_moved)
                                               or completed)
        if not enc_was:
            assert (obj in self._enc_dirty) == (not held and holders_moved)
        if not (gc_was or tmax_moved or holders_moved or completed):
            self.seen["notice marking nothing"] += 1
        return sends

    def _notice_inputs(self, obj):
        everyone = range(1, self.n + 1)
        mt = self.m_tagvec[obj - 1]
        return (self._per_server_del_max(obj, everyone),
                self._per_server_del_max(obj, self.code.holders[obj - 1]),
                all((mt, i) in self.dell[obj - 1] for i in everyone))

    def _skip_is_exact(self, predicate, action):
        work = predicate.fget(self)
        if not work:
            self.seen[f"skipped {action.__name__}"] += 1
            twin = full_sweep_copy(self)
            assert action(twin) == (False, []), action.__name__
            for name in self.STATE:
                assert getattr(twin, name) == getattr(self, name), name
        return work


def random_8_4() -> Scenario:
    """A random N=8, K=4 code over GF(7) with a 100-op random workload."""
    rng = random.Random(84)
    code = random_code(rng, 8, 4)
    edges = {(i, j): rng.randint(500, 5000) / 1000
             for i in range(1, 9) for j in range(i + 1, 9)}
    return Scenario(
        name="random-8-4", code=code, graph=LatencyGraph(8, edges),
        clients=[ClientSpec(i, i) for i in range(1, 9)],
        random_workload=RandomWorkload(ops=100),
        delays={"kind": "jitter", "factor": 2})


def dense_8_4() -> Scenario:
    """A dense N=8, K=4 code over GF(257), every server's symbol mixing every
    object, under phased traffic: a write burst on every object, then reads
    once history has drained, so reads go remote, plus writes on the one
    object a read phase leaves alone, so holders fetch the version their
    symbol still encodes."""
    n, k, p = 8, 4, 257
    rng = random.Random(257)
    code = LinearCode(PrimeField(p), [[rng.randint(1, p - 1) for _ in range(k)]
                                      for _ in range(n)], value_len=2)
    edges = {(i, j): rng.randint(1000, 4000) / 1000
             for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    ops = []

    def write(t, c, x):
        ops.append((t, c, ScriptOp(t, "write", x, (rng.randrange(p), rng.randrange(p)))))

    t = 0
    for phase in range(3):
        for c in range(1, n + 1):
            write(t, c, 1 + (c + phase) % k)
        t += 150_000  # ticks: delete notices empty every history list by then
        skew = 1 + phase % k
        for c in range(1, n + 1):
            for r in range(2):
                obj = rng.choice([x for x in range(1, k + 1) if x != skew])
                ops.append((t + 25_000 * r, c, ScriptOp(t + 25_000 * r, "read", obj)))
        write(t + 10_000, rng.randint(1, n), skew)
        t += 100_000
    scripts = {c: [op for _, cc, op in sorted(ops, key=lambda o: o[:2]) if cc == c]
               for c in range(1, n + 1)}
    return Scenario(
        name="dense-8-4", code=code, graph=LatencyGraph(n, edges),
        clients=[ClientSpec(c, c) for c in range(1, n + 1)], scripts=scripts,
        delays={"kind": "jitter", "factor": 2})


class TestDirtySets:
    @pytest.fixture
    def seen(self, monkeypatch):
        monkeypatch.setattr(simnet, "Server", FullSweepTwin)
        monkeypatch.setattr(FullSweepTwin, "seen", collections.Counter())
        return FullSweepTwin.seen

    def test_objects_outside_the_dirty_sets_are_fixed_points(self, seen):
        for variant in VARIANTS:
            for seed in range(40):
                simnet.run(fuzz_scenario(seed), seed, protocol=variant,
                           collect_trace=False, probes=True)
        assert seen["partial"] > seen["calls"] // 2 > 0

    @pytest.mark.parametrize("system", [random_8_4, dense_8_4])
    def test_larger_systems(self, seen, system):
        for variant in VARIANTS:
            result = simnet.run(system(), 1, protocol=variant,
                                collect_trace=False, probes=True)
            assert result.quiescent and not result.violations
        assert seen["partial"] > seen["calls"] // 2 > 0
        assert seen["remote read"] and seen["localhost fetch"] and seen["held notice"]


class TestUnmovedSteps:
    SKIPS = ("skipped apply_inqueue", "skipped encoding", "skipped garbage_collection")

    @pytest.fixture
    def seen(self, monkeypatch):
        monkeypatch.setattr(simnet, "Server", UnmovedTwin)
        monkeypatch.setattr(UnmovedTwin, "seen", collections.Counter())
        return UnmovedTwin.seen

    def test_fuzz_systems(self, seen):
        for variant in VARIANTS:
            for seed in range(40):
                simnet.run(fuzz_scenario(seed), seed, protocol=variant,
                           collect_trace=False, probes=True)
        assert seen["unmoved"] and all(seen[k] for k in self.SKIPS)
        assert seen["notice marking nothing"]

    @pytest.mark.parametrize("system", [random_8_4, dense_8_4])
    def test_larger_systems(self, seen, system):
        for variant in VARIANTS:
            result = simnet.run(system(), 1, protocol=variant,
                                collect_trace=False, probes=True)
            assert result.quiescent and not result.violations
        # dense_8_4's writes reach every server before any write that depends
        # on them, so no queue head there ever waits
        skips = self.SKIPS if system is random_8_4 else self.SKIPS[1:]
        assert seen["unmoved"] and all(seen[k] for k in skips)
        assert seen["notice marking nothing"]

    def test_bundled_scenarios_call_encoding_only_with_work(self, seen):
        for name in bundled.NAMES:
            for variant in VARIANTS:
                for seed in range(3):
                    simnet.run(scenario_from_json(bundled.path(name)), seed,
                               protocol=variant, collect_trace=False, probes=True)
        assert seen["skipped encoding"] and seen["unmoved apply_inqueue"]
        assert seen["unmoved encoding"] == 0

    def test_every_queue_or_clock_change_sets_the_apply_flag(self):
        # in a whole run a server's own write never unblocks a queued remote
        # write, since that write can name only writes this server has made,
        # so the flag's set in on_write is pinned here
        srv = Server(1, replicated())
        srv.on_app(2, App(1, (4,), tag([0, 1, 1], 2)))  # waits for server 3's write
        assert srv.apply_inqueue() == (False, []) and not srv.can_apply
        srv.on_app(3, App(1, (5,), tag([0, 0, 1], 3)))
        assert srv.can_apply
        assert srv.apply_inqueue()[0] and srv.apply_inqueue()[0] and not srv.inqueue
        srv.on_app(2, App(1, (6,), tag([1, 2, 1], 2)))  # waits for this server's write
        assert srv.apply_inqueue() == (False, []) and not srv.can_apply
        srv.on_write(9, Write((9, 1), 1, (3,)))
        assert srv.can_apply
        assert srv.apply_inqueue()[0] and not srv.inqueue


class TestRoundSchedule:
    """``round_due`` keeps the round schedule of trace format v1: a change
    that used to mark an object still makes a round due, even when it leaves
    both work sets empty.  Rounds are driven as the simulator drives them:
    the flag is cleared, then ``encoding`` and ``garbage_collection`` run."""

    @staticmethod
    def round(srv):
        srv.round_due = False
        return srv.encoding(), srv.garbage_collection()

    def settled(self, sid):
        srv = Server(sid, fig1())
        self.round(srv)
        assert not srv.round_due
        return srv

    def drained(self, srv):
        while srv.round_due:
            self.round(srv)
        assert not srv._enc_dirty and not srv._gc_dirty

    def test_remote_read_is_due_with_empty_work_sets(self):
        srv = self.settled(1)  # server 1 stores X1 only
        srv.L[1].clear()  # X2's history drained: the read must go remote
        assert sends_of(ValInq, srv.on_read(9, Read((9, 1), 2)))
        assert not srv._enc_dirty and not srv._gc_dirty
        assert srv.round_due
        assert self.round(srv) == ((False, []), (False, []))
        assert not srv.round_due

    def test_notice_raising_a_non_minimal_entry_is_due_with_empty_work_sets(self):
        srv = self.settled(2)  # server 2 stores X2, held at servers 2, 3 and 4
        t1, t2, t3 = (tag([0, c, 0, 0, 0], 2) for c in (1, 2, 3))
        srv._l_insert(2, t1, (3,))
        srv.encoding()  # the symbol takes t1 and server 2's own notice
        for other in (1, 3, 4, 5):
            srv.on_del(other, Del(2, t1))
        self.drained(srv)
        assert srv.tmax[1] == t1
        # server 3 ties at the minimum, then sits above it
        for newer in (t2, t3):
            srv.on_del(3, Del(2, newer))
            assert not srv._enc_dirty and not srv._gc_dirty
            assert srv.round_due
            self.drained(srv)

    def test_read_removal_at_or_above_the_symbol_is_due_with_empty_work_sets(self):
        srv = self.settled(1)  # server 1 stores X1 only
        srv.L[1].clear()  # X2's history drained: the read goes remote
        assert sends_of(ValInq, srv.on_read(9, Read((9, 1), 2)))
        self.drained(srv)
        (entry,) = srv.readl.values()
        assert list(entry.tagvec) == srv.m_tagvec
        sends = srv.on_val_resp(2, ValResp(2, (5,), 9, (9, 1), entry.tagvec))
        assert sends_of(ReadReturn, sends) and not srv.readl
        assert not srv._enc_dirty and not srv._gc_dirty
        assert srv.round_due

    def test_not_ready_apply_is_due_with_empty_work_sets(self):
        srv = self.settled(1)
        srv.on_app(2, App(2, (4,), tag([0, 1, 1, 0, 0], 2)))  # waits for server 3's write
        srv.on_del(3, Del(2, tag([0, 0, 1, 0, 0], 3)))  # X2 still lacks holder 4's notice
        assert srv.apply_inqueue() == (False, []) and not srv.can_apply
        assert not srv._enc_dirty and not srv._gc_dirty
        assert srv.round_due
        self.drained(srv)
        assert not srv.can_apply and srv.apply_inqueue() == (False, [])

    def test_notice_on_held_object_is_due_with_empty_work_sets(self):
        srv = self.settled(2)  # server 2 stores X2
        srv.on_del(3, Del(2, tag([0, 0, 2, 0, 0], 3)))
        self.round(srv)
        assert not srv.round_due
        # older than server 3's last notice and not the symbol's tag
        srv.on_del(3, Del(2, tag([0, 0, 1, 0, 0], 3)))
        assert not srv._enc_dirty and not srv._gc_dirty
        assert srv.round_due
        assert self.round(srv) == ((False, []), (False, []))
        assert not srv.round_due


def drain(srv):
    """Run the internal actions until neither work set holds an object."""
    while srv.can_encode or srv.can_collect:
        srv.encoding()
        srv.garbage_collection()


def assert_unmarked_are_fixed_points(srv):
    """Each action, over a copy that visits only the objects outside its
    work set, finds nothing to do and leaves the state as it is."""
    for action, work in ((Server.encoding, "_enc_dirty"),
                         (Server.garbage_collection, "_gc_dirty")):
        twin = full_sweep_copy(srv)
        setattr(twin, work, set(srv.object_indices()) - getattr(srv, work))
        assert action(twin) == (False, []), action.__name__
        for name in FullSweepTwin.STATE:
            assert getattr(twin, name) == getattr(srv, name), name


class TestMarkingRules:
    """Each marking rule in one step on fig1's code, checked against a copy
    that visits every object the step left unmarked.  X1 is held by servers
    1, 3 and 4, X2 by 2, 3 and 4."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_constructed_server_has_empty_work_sets(self, variant):
        for sid in range(1, 6):
            srv = Server(sid, fig1(), variant)
            assert not srv._enc_dirty and not srv._gc_dirty
            assert_unmarked_are_fixed_points(srv)
            assert srv.encoding() == (False, []) and srv.garbage_collection() == (False, [])

    def test_insert_at_or_below_the_symbol_tag_marks_no_encoding(self):
        srv = Server(2, fig1())  # vc (0,1,0,0,0) after this write
        srv.on_write(9, Write((9, 1), 2, (3,)))
        drain(srv)
        assert srv.m_tagvec[1] == tag([0, 1, 0, 0, 0], 9)
        # server 3's concurrent write orders below the symbol's tag
        srv.on_app(3, App(2, (4,), tag([0, 0, 1, 0, 0], 3)))
        assert srv.apply_inqueue()[0]
        assert 2 not in srv._enc_dirty
        assert_unmarked_are_fixed_points(srv)

    def test_insert_above_tmax_marks_no_collection(self):
        srv = Server(2, fig1())
        srv.on_write(9, Write((9, 1), 2, (3,)))
        assert srv._enc_dirty == {2} and not srv._gc_dirty
        assert_unmarked_are_fixed_points(srv)

    def test_pending_fetch_suppresses_encoding_marks_until_its_response(self):
        srv = Server(2, fig1())
        t1 = tag([0, 1, 0, 0, 0], 9)
        srv.on_write(9, Write((9, 1), 2, (3,)))
        drain(srv)
        for other in (1, 3, 4, 5):  # every server deleted past t1: X2's history empties
            srv.on_del(other, Del(2, t1))
        drain(srv)
        assert srv.m_tagvec[1] == srv.tmax[1] == t1 and srv.L[1] == {}
        srv.on_app(3, App(2, (5,), tag([0, 1, 1, 0, 0], 3)))
        srv.apply_inqueue()
        assert 2 in srv._enc_dirty
        _, sends = srv.encoding()  # t1 is gone from L[X2]: fetch it
        assert sends_of(ValInq, sends)
        (entry,) = srv.readl.values()
        srv.on_app(4, App(2, (6,), tag([0, 1, 1, 1, 0], 4)))
        assert srv.apply_inqueue()[0]
        assert 2 not in srv._enc_dirty
        assert_unmarked_are_fixed_points(srv)
        srv.on_val_resp(3, ValResp(2, (3,), LOCALHOST, entry.opid, entry.tagvec))
        assert 2 in srv._enc_dirty and not srv.readl
        assert srv.encoding()[0] and srv.m_tagvec[1] == tag([0, 1, 1, 1, 0], 4)

    def test_read_removal_above_tmax_marks_no_collection(self):
        srv = Server(1, fig1())
        srv.on_write(9, Write((9, 1), 1, (3,)))
        drain(srv)
        srv.L[1].clear()  # X2's history drained: the read goes remote
        assert sends_of(ValInq, srv.on_read(8, Read((8, 1), 2)))
        (entry,) = srv.readl.values()
        srv.on_write(9, Write((9, 2), 1, (4,)))
        drain(srv)
        # the read's X1 tag is now below the symbol's and above tmax
        assert srv.tmax[0] < entry.tagvec[0] < srv.m_tagvec[0]
        srv.on_val_resp(2, ValResp(2, (5,), 8, (8, 1), entry.tagvec))
        assert not srv.readl and 1 not in srv._gc_dirty
        assert_unmarked_are_fixed_points(srv)

    def test_insert_at_the_holders_minimum_marks_encoding(self):
        srv = Server(1, fig1())  # X2 is not held here
        t1 = tag([0, 1, 0, 0, 0], 2)
        for holder in (2, 3, 4):  # the holders' notices outrun the write
            srv.on_del(holder, Del(2, t1))
        drain(srv)
        srv.on_app(2, App(2, (3,), t1))
        assert srv.apply_inqueue()[0]
        assert 2 in srv._enc_dirty
        assert srv.encoding()[0] and srv.m_tagvec[1] == t1

    def test_read_removal_at_tmax_marks_collection_when_not_held(self):
        srv = Server(1, fig1())  # X2 is not held here
        t1, t2 = tag([0, 1, 0, 0, 0], 2), tag([0, 1, 1, 0, 0], 3)
        srv.on_app(2, App(2, (3,), t1))
        srv.apply_inqueue()
        for holder in (2, 3, 4):
            srv.on_del(holder, Del(2, t1))
        drain(srv)
        srv.L[2].clear()  # X3's history drained: the read goes remote
        assert sends_of(ValInq, srv.on_read(8, Read((8, 1), 3)))
        (entry,) = srv.readl.values()
        srv.on_app(3, App(2, (4,), t2))
        srv.apply_inqueue()
        for holder in (2, 3, 4):
            srv.on_del(holder, Del(2, t2))
        srv.on_del(5, Del(2, t1))
        drain(srv)
        # t1 is tmax and below the symbol's tag: only the read keeps it
        assert entry.tagvec[1] == srv.tmax[1] == t1 and srv.m_tagvec[1] == t2
        assert t1 in srv.L[1]
        srv.on_val_resp(5, ValResp(3, (5,), 8, (8, 1), entry.tagvec))
        assert 2 in srv._gc_dirty
        assert srv.garbage_collection()[0] and t1 not in srv.L[1]
