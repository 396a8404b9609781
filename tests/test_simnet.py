"""Simulation fabric: FIFO channels, determinism, halting, quiescence,
fairness, trace serialisation, and the latency analysis."""

import collections
import dataclasses
import hashlib
import json
import random
from itertools import combinations

import pytest

import bundled
from bundled import ALT_COEFFS, FIG1_COEFFS, FIG1_EDGES
from causalec import simnet
from causalec.coding import LinearCode
from causalec.field import PrimeField
from causalec.harness import fuzz_scenario, verdicts_to_json
from causalec.latency import (
    LatencyGraph,
    LatencyReport,
    analyze_latency,
    format_ms,
    replication_baseline,
    to_ms,
)
from causalec.messages import App, Del, Read, Write, WriteReturnAck
from causalec.checker import check_all
from causalec.scenarios import ClientSpec, Scenario, ScenarioError, ScriptOp, scenario_from_json
from causalec.server import _HANDLERS, VARIANTS, Send, Server
from causalec.simnet import FAIRNESS_STEPS, Simulation, run
from causalec.tags import Tag


def all_recovery_latency(graph, code):
    """Brute-force oracle for analyze_latency: minimise over *every*
    recovery set, not just the minimal ones."""
    per_pair = {}
    servers = range(1, code.n + 1)
    for obj in range(1, code.k + 1):
        sets = [S for size in range(1, code.n + 1) for S in combinations(servers, size)
                if code.is_recovery_set(S, obj) is not None]
        for s in servers:
            per_pair[(s, obj)] = min(
                max((graph.weight(s, j) for j in S if j != s), default=0.0)
                for S in sets)
    vals = list(per_pair.values())
    return LatencyReport(per_pair, max(vals), sum(vals) / len(vals))


def small_scenario(**kw):
    code = LinearCode(PrimeField(7), [[1], [1], [1]])
    graph = LatencyGraph(3, {(1, 2): 2, (1, 3): 3, (2, 3): 4})
    base = dict(
        name="unit", code=code, graph=graph,
        clients=[ClientSpec(1, 1), ClientSpec(2, 2)],
        scripts={1: [ScriptOp(0, "write", 1, (5,))],
                 2: [ScriptOp(1000, "read", 1)]},
        delays={"kind": "graph"},
    )
    base.update(kw)
    return Scenario(**base)


class TestChannels:
    def test_fifo_order_per_channel(self):
        doc = bundled.doc("fig1")
        doc["workload"]["ops"] = 25
        sc = scenario_from_json(doc)
        r = run(sc, seed=3, collect_trace=True)
        sent = {}
        for rec in r.trace:
            if rec.node.startswith("s"):
                src = rec.node
                for kind, dst, msg in rec.emitted:
                    if kind == "server":
                        sent.setdefault((src, f"s{dst}"), []).append(msg)
        delivered = {}
        for rec in r.trace:
            if rec.node.startswith("s") and rec.event[0] == "recv" \
                    and rec.event[1].startswith("s"):
                delivered.setdefault((rec.event[1], rec.node), []).append(rec.event[2])
        for chan, msgs in delivered.items():
            assert msgs == sent[chan][:len(msgs)], f"channel {chan} reordered"

    def test_fixed_delay_delivery_time(self):
        sc = small_scenario()
        r = run(sc, seed=0, collect_trace=True)
        # the write fans out at t=0; the app reaches server 2 after exactly d(1,2)
        arrivals = [rec.t for rec in r.trace
                    if rec.node == "s2" and rec.event[0] == "recv"
                    and isinstance(rec.event[2], App)]
        assert arrivals[0] == to_ms(2)

    def test_send_to_halted_never_delivers(self):
        sc = small_scenario(halts={3: 0})
        r = run(sc, seed=0, collect_trace=True)
        assert all(rec.node != "s3" or rec.event[0] == "halt" for rec in r.trace)
        assert r.halted == [3]

    def test_jittered_delays_respect_fifo(self):
        doc = bundled.doc("fig1")
        doc["workload"]["ops"] = 20
        doc["delays"] = {"kind": "jitter", "factor": 3}
        sc = scenario_from_json(doc)
        r = run(sc, seed=9, collect_trace=True)
        assert r.quiescent
        # delivery times per channel never regress
        last = {}
        for rec in r.trace:
            if rec.node.startswith("s") and rec.event[0] == "recv":
                chan = (rec.event[1], rec.node)
                assert last.get(chan, -1) <= rec.t
                last[chan] = rec.t

    @pytest.mark.parametrize("name", ["encoding_scenario_1", "fig1"])
    def test_jittered_delays_stay_in_bounds(self, name):
        # every server-to-server delivery takes its graph delay up to three
        # times that, plus the channel's extra delay; FIFO clamping cannot
        # push one past the bound, since the message ahead of it on the
        # channel was sent no later and bounded alike
        doc = bundled.doc(name)
        doc["delays"] = {"kind": "jitter", "factor": 3}
        sc = scenario_from_json(doc)
        assert sc.channel_extra_ms or name == "fig1"
        for seed in range(3):
            r = run(sc, seed, collect_trace=True, probes=True)
            assert all(v.passed for v in check_all(r)), seed
            in_flight = {}  # channel -> send times of undelivered messages
            delays = []
            for rec in r.trace:
                if not rec.node.startswith("s"):
                    continue
                sid = int(rec.node[1:])
                if rec.event[0] == "recv" and rec.event[1].startswith("s"):
                    src = int(rec.event[1][1:])
                    extra = sc.channel_extra_ms.get((src, sid), 0)
                    base = sc.graph.delay_ms(src, sid)
                    delays.append(rec.t - in_flight[src, sid].pop(0) - extra)
                    assert base <= delays[-1] <= int(base * 3), (seed, src, sid)
                for kind, dst, _msg in rec.emitted:
                    if kind == "server":
                        in_flight.setdefault((sid, dst), []).append(rec.t)
            assert len(set(delays)) > 1

    def test_scenario_built_in_code_checks_its_delays(self):
        # a misspelt kind once ran with a default delay
        with pytest.raises(ScenarioError, match=r"^delays\.kind:"):
            small_scenario(delays={"kind": "jiter"})
        with pytest.raises(ScenarioError, match=r"^delays\.factor: must be in 1\.\.100000"):
            small_scenario(delays={"kind": "jitter", "factor": 0.5})
        with pytest.raises(ScenarioError, match=r"^delays\.factr: unknown field"):
            small_scenario(delays={"kind": "jitter", "factr": 2})
        sc = small_scenario(delays={"kind": "jitter", "factor": 1.5},
                            channel_extra_ms={(1, 2): 40})
        draws, bounds = sc.channel_delays()
        assert draws
        assert bounds[1, 2] == (2040, 3040) and bounds[2, 1] == (2000, 3000)
        draws, bounds = small_scenario().channel_delays()  # graph: fixed, no draw
        assert not draws and bounds[3, 1] == (3000, 3000)

    def test_delay_draw_is_randints_sequence(self, monkeypatch):
        # Simulation._server_step's send loop draws getrandbits(k) until it
        # is below the channel's span = hi - lo + 1, with k the span's bit
        # length taken at set-up; every jittered trace depends on that being
        # randint(lo, hi), value for value and bit for bit
        lo, spans = 1234, {2: 1, 3: 2**31, 4: 10**12}
        sc = small_scenario(code=LinearCode(PrimeField(7), [[1]] * 4), graph=LatencyGraph(
            4, {pair: 1 for pair in combinations(range(1, 5), 2)}))
        monkeypatch.setattr(sc, "channel_delays", lambda: (
            True, {(1, dst): (lo, lo + span - 1) for dst, span in spans.items()}))
        sim = Simulation(sc, seed=11, collect_trace=False)
        ref = random.Random()
        ref.setstate(sim.rng.getstate())
        notice = Del(1, Tag((1, 0, 0, 0), 1))
        pick = random.Random(5)
        for batch in range(300):
            dsts = pick.sample(sorted(spans), pick.randint(1, 3))
            sim.now = batch * 10**13  # later than every earlier arrival: no clamp
            sim.heap.clear()
            sim._server_step(sim.servers[1], None,
                             lambda: (False, [Send("server", dst, notice) for dst in dsts]))
            sent = sorted(sim.heap, key=lambda entry: entry[1])
            assert [(entry[3][1], entry[0] - sim.now) for entry in sent] == \
                [(dst, ref.randint(lo, lo + spans[dst] - 1)) for dst in dsts]
        assert sim.rng.getstate() == ref.getstate()  # equal bits consumed

    def test_server_rejects_a_message_it_has_no_handler_for(self):
        sim = Simulation(small_scenario(), seed=0)
        sim.heap.clear()
        sim._push(0, "deliver", ("server", 1, "server", 2, WriteReturnAck((1, 1))))
        with pytest.raises(TypeError, match="^server cannot handle WriteReturnAck$"):
            sim.run_to_quiescence()


class TestOperations:
    """The simulator keeps each client well-formed: one operation at a time,
    invoked at its home server, with opids counted per client."""

    def test_invokes_count_opids_per_client_and_go_home(self):
        sc = scenario_from_json(bundled.doc("fig1"))
        r = run(sc, seed=5, probes=True)
        assert all(r.client_homes[c.id] == c.home for c in sc.clients)
        invokes = [rec for rec in r.trace if rec.event[0] == "invoke"]
        assert len(invokes) == len(r.ops)
        assert any(op.probe for op in r.ops.values())
        count = collections.Counter()
        for rec in invokes:
            cid = int(rec.node[1:])
            count[cid] += 1
            opid = (cid, count[cid])
            kind, obj, value = rec.event[1:]
            msg = Write(opid, obj, value) if kind == "write" else Read(opid, obj)
            assert rec.emitted == (("server", r.client_homes[cid], msg),)
            op = r.ops[opid]
            assert (op.client, op.kind, op.obj, op.t_invoke) == (cid, kind, obj, rec.t)

    def test_read_completion_carries_value(self):
        # the value travels in the ReadReturn, from which the simulator records it
        sc = Scenario(name="t", code=LinearCode(PrimeField(7), [[1], [1]]),
                      graph=LatencyGraph(2, {(1, 2): 1}), clients=[ClientSpec(7, 2)],
                      scripts={7: [ScriptOp(0, "write", 1, (4,)), ScriptOp(1000, "read", 1)]})
        write, read = run(sc, seed=0).operation_list()
        assert (read.opid, read.kind, read.obj, read.value) == ((7, 2), "read", 1, (4,))
        assert (write.opid, write.kind, write.value) == ((7, 1), "write", (4,))


class TestHandlerLookup:
    """The simulator looks each handler up on the server at each delivery, so
    a wrapper set on ``Server`` (a benchmark span, a test's injected fault)
    sees every message that a server receives."""

    def test_every_entry_names_a_server_method(self):
        for mtype, name in _HANDLERS.items():
            assert callable(getattr(Server, name, None)), mtype.__name__

    def test_class_wrappers_see_every_delivery(self, monkeypatch):
        handlers = {**_HANDLERS, Del: "on_del"}  # a notice takes its own path
        calls = collections.Counter()
        for name in handlers.values():
            def counted(srv, frm, msg, name=name, original=getattr(Server, name)):
                calls[name] += 1
                return original(srv, frm, msg)
            monkeypatch.setattr(Server, name, counted)
        delivered = set()
        # no bundled scenario delivers a ValResp; fuzz system 10 does under both
        for scenario, seed in [(s, 0) for s in bundled.NAMES] + [("fuzz", 10)]:
            for protocol in VARIANTS:
                calls.clear()
                r = traced_run(scenario, seed, protocol)
                received = collections.Counter(
                    handlers[type(rec.event[2])] for rec in r.trace
                    if rec.event[0] == "recv" and rec.node.startswith("s"))
                assert calls == received, (scenario, protocol)
                delivered.update(received)
        assert delivered == set(handlers.values())


class TestDeterminism:
    def test_same_seed_same_trace(self):
        sc = scenario_from_json(bundled.doc("fig1"))
        for seed in range(3):
            a = run(sc, seed, collect_trace=True, probes=True)
            b = run(sc, seed, collect_trace=True, probes=True)
            assert a.trace_sha256() == b.trace_sha256()

    def test_different_seeds_diverge(self):
        sc = scenario_from_json(bundled.doc("fig1"))
        hashes = {run(sc, seed, collect_trace=True).trace_sha256() for seed in range(4)}
        assert len(hashes) == 4


def reference_jsonl(result):
    """The trace rendered without any memo: ``Tag.render`` and
    ``Message.describe`` on every occurrence, one ``json.dumps`` per record."""
    def tags(ts):
        return tuple(t.render() for t in ts)

    lines = []
    for rec in result.trace:
        event = rec.event
        if event[0] == "recv":
            event = event[:2] + (event[2].describe(),)
        digest = rec.digest
        if digest is not None:
            # format v1's two error-flag slots, all zero, follow the history sizes
            vc, tagvec, lsizes, tmax, inq, readl = digest
            flags = (0,) * len(tagvec)
            digest = (vc, tags(tagvec), lsizes, flags, flags, tags(tmax), inq, readl)
        lines.append(json.dumps(
            {"seq": rec.seq, "t": format_ms(rec.t), "node": rec.node, "event": event,
             "digest": digest,
             "emitted": [(kind, dst, msg.describe()) for kind, dst, msg in rec.emitted],
             "notes": rec.notes},
            sort_keys=True, separators=(",", ":")))
    return "\n".join(lines)


def fig1_value_len_3_doc():
    doc = bundled.doc("fig1")
    doc["name"], doc["code"]["value_len"] = "fig1_value_len_3", 3
    return doc


def traced_run(name, seed, protocol="causalec", collect_trace=True):
    if name == "fuzz":
        scenario = fuzz_scenario(seed)
    elif name == "fig1_value_len_3":
        scenario = scenario_from_json(fig1_value_len_3_doc())
    else:
        scenario = scenario_from_json(bundled.doc(name))
    return run(scenario, seed, protocol=protocol, collect_trace=collect_trace, probes=True)


# every bundled scenario under both protocols, plus further seeds, fuzz
# systems and three-element values
TRACE_CASES = sorted({(name, 0, protocol) for name in bundled.NAMES for protocol in VARIANTS}
                     | {("fig1", 1, "eventualec"), ("appendix_a", 2, "causalec"),
                        ("fuzz", 0, "causalec"), ("fuzz", 3, "eventualec"),
                        ("fuzz", 7, "causalec"), ("fuzz", 10, "eventualec"),
                        ("fig1_value_len_3", 0, "causalec")})


def message_values(rec):
    """Every message in the record, received or sent."""
    return ([rec.event[2]] if rec.event[0] == "recv" else []) + [s.msg for s in rec.emitted]


# every way a record's line is assembled differently; each test sees the
# record and the one before it (None for the first)
RECORD_SHAPES = {
    "halt, digest null": lambda rec, prev: rec.event == ("halt",) and rec.digest is None,
    "decoded notes": lambda rec, prev: any(note[0] == "decoded" for note in rec.notes),
    "client invoke": lambda rec, prev: rec.event[0] == "invoke",
    "client recv": lambda rec, prev: rec.node.startswith("c") and rec.event[0] == "recv",
    "multi-send emitted": lambda rec, prev: len(rec.emitted) > 1,
    "ValResp with null addressing": lambda rec, prev: any(
        type(m).__name__ == "ValResp" and m.clientid is None and m.opid is None
        and m.requestedtags is None for m in message_values(rec)),
    "value longer than 1": lambda rec, prev: any(
        len(getattr(m, "value", ()) or ()) > 1 for m in message_values(rec)),
    "unmoved step, previous digest object": lambda rec, prev: (
        prev is not None and rec.event in (("apply",), ("encode",), ("gc",))
        and rec.digest is not None and rec.digest is prev.digest),
    "delivery leaving an equal digest, previous digest object": lambda rec, prev: (
        prev is not None and rec.event[0] == "recv" and rec.node == prev.node
        and rec.digest is not None and rec.digest is prev.digest),
    "fractional t": lambda rec, prev: "." in format_ms(rec.t),
}


def op_outcomes(result):
    return {opid: (rec.t_invoke, rec.t_response, rec.value) for opid, rec in result.ops.items()}


@pytest.fixture(scope="module")
def traced_runs():
    return {case: traced_run(*case) for case in TRACE_CASES}


class TestTraceSerialisation:
    @pytest.mark.parametrize("name,seed,protocol", TRACE_CASES)
    def test_memoised_rendering_matches_reference(self, traced_runs, name, seed, protocol):
        r = traced_runs[name, seed, protocol]
        assert r.trace_jsonl() == reference_jsonl(r)

    def test_cases_cover_every_record_shape(self, traced_runs):
        covered = {shape for r in traced_runs.values()
                   for prev, rec in zip([None] + r.trace, r.trace)
                   for shape, test in RECORD_SHAPES.items() if test(rec, prev)}
        assert covered == set(RECORD_SHAPES)

    @pytest.mark.parametrize("name,seed,protocol", TRACE_CASES)
    def test_block_hash_matches_whole_text(self, traced_runs, name, seed, protocol):
        r = traced_runs[name, seed, protocol]
        assert r.trace_sha256() == hashlib.sha256(r.trace_jsonl().encode()).hexdigest()

    @pytest.mark.parametrize("name,seed,protocol", TRACE_CASES)
    def test_untraced_run_agrees(self, traced_runs, name, seed, protocol):
        # fuzz, scale and coded run untraced, and only traced runs are hashed
        traced = traced_runs[name, seed, protocol]
        untraced = traced_run(name, seed, protocol, collect_trace=False)
        assert untraced.trace == [] and untraced.transitions == traced.transitions
        assert verdicts_to_json(untraced, check_all(untraced)) == \
            verdicts_to_json(traced, check_all(traced))
        assert op_outcomes(untraced) == op_outcomes(traced)

    @pytest.mark.parametrize("records", [0, 1, simnet.TRACE_BLOCK - 1, simnet.TRACE_BLOCK,
                                         simnet.TRACE_BLOCK + 1, 2 * simnet.TRACE_BLOCK])
    def test_block_hash_at_block_boundaries(self, traced_runs, records):
        # the records of every case in one list: longer than any one trace
        records_all = [rec for case in TRACE_CASES for rec in traced_runs[case].trace]
        assert len(records_all) > records
        cut = dataclasses.replace(traced_runs[TRACE_CASES[0]], trace=records_all[:records])
        assert cut.trace_sha256() == hashlib.sha256(cut.trace_jsonl().encode()).hexdigest()
        assert cut.trace_jsonl().count("\n") == max(records - 1, 0)

    def test_hash_is_repeatable(self):
        r = traced_run("fig1", 0)
        assert r.trace_sha256() == r.trace_sha256()

    def test_records_are_snapshots(self):
        # the trace must not see server state that changes after the run
        r = traced_run("fig1", 0)
        before = r.trace_sha256()
        for srv in r.servers.values():
            late = Tag((99,) * srv.n, 99)
            srv.vc[0] += 100
            srv.m_tagvec[0] = late
            srv.tmax[0] = late
            srv.L[0][late] = srv.m_val
        assert r.trace_sha256() == before


class TestQuiescence:
    def test_single_write_encodes_everywhere(self):
        sc = small_scenario(scripts={1: [ScriptOp(0, "write", 1, (5,))]})
        r = run(sc, seed=0)
        assert r.quiescent
        for srv in r.servers.values():
            assert srv.m_val == (5,)
            assert all(not lx for lx in srv.L)
            assert not srv.inqueue and not srv.readl

    def test_no_operations_immediately_quiescent(self):
        sc = small_scenario(scripts={})
        r = run(sc, seed=0)
        assert r.quiescent and r.transitions < 50
        assert not r.ops

    def test_halted_recovery_set_leaves_read_pending(self):
        # server 1 cannot decode X1 alone; after the write converges and the
        # history collects everywhere, halting servers 2 and 3 kills both
        # recovery sets, so a later read at server 1 can never complete
        code = LinearCode(PrimeField(7), [[0, 1], [1, 1], [1, 0]])
        graph = LatencyGraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        sc = Scenario(
            name="stuck", code=code, graph=graph,
            clients=[ClientSpec(1, 1), ClientSpec(3, 3)],
            scripts={3: [ScriptOp(0, "write", 1, (4,))],
                     1: [ScriptOp(50_000, "read", 1)]},
            halts={2: 40_000, 3: 40_000},
        )
        r = run(sc, seed=0)
        assert r.quiescent
        assert not r.servers[1].L[0], "history must have collected before the halts"
        assert r.pending_opids == [(1, 1)]

    def test_step_cap_reports_non_quiescence(self):
        sc = small_scenario(step_cap=5)
        r = run(sc, seed=0)
        assert not r.quiescent

    # records 904-906 of the uncapped traced run are s5's apply, encode and gc
    # steps of a round with no queued write and no work; caps 904-906 stop the
    # run at each of them, traced and untraced alike
    @pytest.mark.parametrize("cap", [1, 7, 50, 904, 905, 906])
    def test_step_cap_is_never_passed(self, cap):
        # rounds that follow one event stop at the cap too, not only the
        # checks between events and between sweeps
        sc = scenario_from_json(bundled.doc("fig1"))
        sc.step_cap = cap
        r = run(sc, seed=3, probes=True)
        assert not r.quiescent
        assert r.transitions == len(r.trace) <= cap
        untraced = run(sc, seed=3, probes=True, collect_trace=False)
        assert not untraced.quiescent and not untraced.trace
        assert untraced.transitions == r.transitions
        assert op_outcomes(untraced) == op_outcomes(r)

    @pytest.fixture
    def forced_rounds(self, monkeypatch):
        """``(kind, steps before, steps after)`` per forced round that took a
        step: kind ``fairness`` when the fairness scan forced it, ``sweep``
        when a quiescence sweep did."""
        rounds, scanning = [], []
        scan, service = Simulation._fairness_rounds, Simulation._service_round

        def fairness_rounds(sim):
            scanning.append(True)
            scan(sim)
            scanning.pop()

        def service_round(sim, sid, force=False):
            before = sim.steps
            moved = service(sim, sid, force)
            if force and sim.steps > before:
                rounds.append(("fairness" if scanning else "sweep", before, sim.steps))
            return moved

        monkeypatch.setattr(Simulation, "_fairness_rounds", fairness_rounds)
        monkeypatch.setattr(Simulation, "_service_round", service_round)
        return rounds

    @pytest.mark.parametrize("kind", ["fairness", "sweep"])
    def test_step_cap_stops_a_forced_round(self, forced_rounds, kind):
        # the cap lands between the encode and collect steps of the first
        # round of that kind, and the collect step is never taken
        sc = scenario_from_json(bundled.doc("fig1"))
        run(sc, seed=3, probes=True)
        before = next(b for k, b, _ in forced_rounds if k == kind)
        forced_rounds.clear()
        sc.step_cap = before + 2
        r = run(sc, seed=3, probes=True)
        assert not r.quiescent
        assert r.transitions == len(r.trace) == sc.step_cap
        assert forced_rounds[-1] == (kind, before, sc.step_cap)
        assert r.trace[-1].event == ("encode",)


class FullScanTwin(Simulation):
    """At every fairness scan, finds the due servers and the floor by a
    full scan over every live server's last full round, and asserts that
    the ordered scan forces the same rounds, in id order, and leaves the
    same floor.  A scan is entered only at or above the floor; one skipped
    under it, seen where it sets the next scan's step count, must have
    nothing due.  ``last`` keeps every server's last full round, halted ones too.
    ``scans`` counts the full and skipped scans, the rounds forced and the
    full scans taken while a server is halted; ``halts`` says, per halt,
    whether the halted server was the least recent."""

    def __init__(self, *args, **kwargs):
        self.forced = None  # the rounds the running scan forced
        self.scans = collections.Counter()
        self.halts = []
        super().__init__(*args, **kwargs)
        self.last = dict(self._last_full_round)

    def _service_round(self, sid, force=False):
        if self.forced is not None:
            self.forced.append(sid)
        moved = super()._service_round(sid, force)
        if sid in self._last_full_round:
            self.last[sid] = self._last_full_round[sid]
        return moved

    def _live_last(self):
        return {s: last for s, last in self.last.items() if s not in self.halted}

    def _due(self):
        return sorted(s for s, last in self._live_last().items()
                      if self.steps - last >= self._fair_window)

    @property
    def _next_fair_scan(self):
        return self.next_scan

    @_next_fair_scan.setter
    def _next_fair_scan(self, steps):
        # set after set-up and outside a full scan: this scan was skipped
        if self.forced is None and hasattr(self, "last"):
            assert self.steps < self._fair_floor
            assert not self._due()
            self.scans["skipped"] += 1
        self.next_scan = steps

    def _fairness_rounds(self):
        assert self.steps >= self._fair_floor
        due = self._due()
        self.forced = []
        super()._fairness_rounds()
        assert self.forced == due
        self.forced = None
        assert self._fair_floor == self._fair_window + min(
            self._live_last().values(), default=self.step_cap)
        self.scans.update(full=1, forced=len(due), halted=bool(self.halted))

    def _record(self, node, event, *args, **kwargs):
        if event == ("halt",):
            sid = int(node[1:])
            self.halts.append(all(self.last[sid] < last
                                  for s, last in self._live_last().items() if s != sid))
        super()._record(node, event, *args, **kwargs)


def full_scan_run(scenario, seed, protocol="causalec"):
    """``run`` with probes, on a ``FullScanTwin``."""
    sim = FullScanTwin(scenario, seed, protocol=protocol, collect_trace=False)
    if sim.run_to_quiescence() and not sim.halted:
        sim.inject_probes()
        sim.run_to_quiescence()
    return sim


class TestFairness:
    @pytest.mark.parametrize("protocol", VARIANTS)
    def test_ordered_scan_matches_full_scan(self, protocol):
        scans = collections.Counter()
        halts = []
        sims = [full_scan_run(fuzz_scenario(seed), seed, protocol) for seed in range(100)]
        sims += [full_scan_run(scenario_from_json(bundled.doc(name)), 0, protocol)
                 for name in bundled.NAMES]
        for sim in sims:
            scans += sim.scans
            halts += sim.halts
        assert scans["forced"] and scans["skipped"] and scans["halted"]
        assert len(halts) > 20

    def test_halted_server_least_recent(self):
        # server 3 takes no full round before it halts, while servers 1 and
        # 2 do; the scans after the halt must not see it
        sc = small_scenario(
            scripts={1: [ScriptOp(0, "write", 1, (5,)), ScriptOp(9000, "write", 1, (6,))],
                     2: [ScriptOp(1000, "read", 1), ScriptOp(12000, "read", 1)]},
            halts={3: 2500})
        sim = full_scan_run(sc, 0)
        assert sim.halts == [True] and sim.scans["halted"]

    def test_every_live_server_acts_within_bounded_windows(self):
        doc = bundled.doc("fig1")
        doc["workload"]["ops"] = 30
        sc = scenario_from_json(doc)
        r = run(sc, seed=1, collect_trace=True)
        window = 2 * FAIRNESS_STEPS * sc.code.n
        for sid in range(1, 6):
            node = f"s{sid}"
            for action in ("apply", "encode", "gc"):
                seqs = [rec.seq for rec in r.trace
                        if rec.node == node and rec.event[0] == action]
                assert seqs, f"{node} never performed {action}"
                gaps = [b - a for a, b in zip(seqs, seqs[1:])]
                assert max(gaps, default=0) <= window, (node, action, max(gaps))


class TestLatencyAnalysis:
    def graph(self):
        return LatencyGraph(5, {(i, j): w for i, j, w in FIG1_EDGES})

    def test_reference_numbers(self):
        code = LinearCode(PrimeField(7), FIG1_COEFFS)
        rep = analyze_latency(self.graph(), code)
        assert rep.worst == pytest.approx(4.5, abs=1e-9)
        assert rep.average == pytest.approx(2.83, abs=1e-9)
        alt = analyze_latency(self.graph(), LinearCode(PrimeField(7), ALT_COEFFS))
        assert alt.average == pytest.approx(2.7, abs=1e-9)
        repl = replication_baseline(self.graph(), 3)
        assert repl.best_worst == pytest.approx(6.0, abs=1e-9)
        assert repl.best_average == pytest.approx(2.8, abs=1e-9)

    def test_agrees_with_all_recovery_sets_bruteforce(self):
        rng = random.Random(2)
        for trial in range(12):
            n = rng.randint(2, 6)
            k = rng.randint(1, min(3, n))
            coeffs = [[rng.randrange(7) for _ in range(k)] for _ in range(n)]
            code = LinearCode(PrimeField(7), coeffs)
            try:
                code.check_recoverable()
            except ValueError:
                continue
            weights = {(i, j): rng.randint(1, 40) / 4
                       for i in range(1, n + 1) for j in range(i + 1, n + 1)}
            graph = LatencyGraph(n, weights) if n > 1 else None
            if graph is None:
                continue
            fast = analyze_latency(graph, code)
            slow = all_recovery_latency(graph, code)
            assert fast.per_pair == slow.per_pair

    def test_replication_closed_form_on_complete_graph(self):
        # uniform weight w, one object per server: worst w, average w(n-1)/n
        for n, w in [(3, 2.0), (4, 1.5)]:
            graph = LatencyGraph(n, {(i, j): w
                                     for i in range(1, n + 1)
                                     for j in range(i + 1, n + 1)})
            rep = replication_baseline(graph, n)
            assert rep.best_worst == pytest.approx(w)
            assert rep.best_average == pytest.approx(w * (n - 1) / n)

    def test_single_object_baseline(self):
        # one object: every server takes a copy, so all reads are local
        graph = LatencyGraph(3, {(1, 2): 2, (1, 3): 3, (2, 3): 4})
        rep = replication_baseline(graph, 1)
        assert rep.best_worst == 0.0
        assert rep.best_average == 0.0
        # two objects on two servers force one remote fetch each way
        graph2 = LatencyGraph(2, {(1, 2): 3})
        rep2 = replication_baseline(graph2, 2)
        assert rep2.best_worst == 3.0
        assert rep2.best_average == pytest.approx(1.5)

    def test_unrecoverable_object_rejected(self):
        code = LinearCode(PrimeField(7), [[1, 0], [1, 0]])
        graph = LatencyGraph(2, {(1, 2): 1})
        with pytest.raises(ValueError):
            analyze_latency(graph, code)

    def test_overfull_placement_rejected(self):
        graph = LatencyGraph(2, {(1, 2): 1})
        with pytest.raises(ValueError):
            replication_baseline(graph, 3)

    def test_graph_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LatencyGraph(2, {(1, 2): 0})
        with pytest.raises(ValueError, match="complete"):
            LatencyGraph(3, {(1, 2): 1, (1, 3): 1})
        with pytest.raises(ValueError, match="bad edge"):
            LatencyGraph(2, {(1, 1): 1, (1, 2): 1})
