"""Deterministic discrete-event simulation of the full system.

Virtual time is an integer tick count (1/1000 of a latency unit), so delays
stay rational and runs with equal seeds replay bit-identically.  Channels are
reliable and FIFO: random per-message delays are clamped so a later send on
the same channel never arrives earlier.  A halted server processes nothing
further; messages addressed to it stay queued forever.

Internal actions fire under a fairness policy: a served delivery is followed
by an apply/encode/collect round at that server (encode and collect only
while ``Server.round_due`` is set), a server with no full round in the last
``FAIRNESS_STEPS`` steps per server gets one forced, and once the event heap
drains every live server is swept until no action changes state and nothing
is in flight -- that fixed point is quiescence, and it is detected by forced
rounds, not by timeouts.  The live servers are kept least recent full round
first: a full round moves its server to the end, and its step count is above
every earlier one, and a halt removes it, so the order stays sorted and the
servers due a forced round are a prefix of it.  A round takes all of its
steps but calls only the actions that have work (``Server.can_apply``,
``can_encode``, ``can_collect``); the others would change nothing, so their
steps are recorded without the call, or only counted when untraced.  Every
server transition, a delivery or an internal action, is one
``Simulation._server_step``, but for a delete notice: it never sends, notes
or raises, so the event loop hands it straight to ``Server.on_del``.  Calls
that could take no step or check nothing new are not made: the round after
a delivery when the server has no queued write and no round due, the
fairness scan below the floor (no server is due), and the probe when the
clock, the symbol's tag vector and ``tmax`` equal the snapshot it last
checked and the symbol is the tuple the snapshot holds; construction checks
each server's constructed state once, and that is the first snapshot.  A
run stops when its step count reaches ``step_cap``, which a violation
lowers to 0, and is then not quiescent.  Trace records stay structured;
``trace_lines`` writes them as JSON text.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .field import Value
from .latency import format_ms
from .messages import Del, Message, OpId, Read, ReadReturn, ValRespEncoded, Write
from .scenarios import PROBE_CLIENT_BASE, Scenario, ScriptOp
from .server import _HANDLERS, Send, Server
from .tags import ProtocolInvariantViolation, Tag

FAIRNESS_STEPS = 8  # per server: the age of a last full round that forces one
APPLY, ENCODE, GC = ("apply",), ("encode",), ("gc",)  # a round's internal events


@dataclass
class OperationRecord:
    opid: OpId
    client: int
    kind: str
    obj: int
    value: Optional[Value]  # written value, or the value a read returned
    t_invoke: int
    t_response: Optional[int] = None
    ts: Optional[Tuple[int, ...]] = None  # home server's clock when it answered
    probe: bool = False

    @property
    def completed(self) -> bool:
        return self.t_response is not None


@dataclass(slots=True)
class TraceRecord:
    """One transition, kept structured while the simulation runs.

    ``event`` is ``("recv", source, Message)``, ``("invoke", kind, obj,
    value)`` or an internal step such as ``("apply",)``; ``digest`` is the
    acting server's ``Server.digest()`` (None for client and halt steps),
    shared with that server's previous record when it is unchanged;
    ``emitted`` holds the ``Send`` tuples the transition produced.  Messages
    and tags are immutable, so a record is a snapshot.  Text appears only in
    ``trace_lines``, when the trace is serialised.  Records are for
    replay and diffing: no checker reads them, because the state invariants
    are checked inline while the run is simulated.
    """

    seq: int
    t: int
    node: str
    event: tuple
    digest: Optional[tuple]
    emitted: Tuple[Send, ...]
    notes: tuple = ()


_encode = json.JSONEncoder(separators=(",", ":")).encode
TRACE_BLOCK = 1024  # lines per block that ``trace_sha256`` hashes


def trace_lines(trace: Sequence[TraceRecord]) -> Iterator[str]:
    """Yield each record as the JSON line ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` gives for it, with tags as ``Tag.render`` text
    and messages as ``Message.describe`` data, written straight from their
    fields.  The memos live for this one call: tag, int-tuple and tag-vector
    text by value; digest and message text by identity (each entry holds
    its object, so the id is not reused); the time text per change of
    ``t``; and, for a record with no sends, no notes and a non-``recv``
    event, the text between the digest and ``seq`` per (event, node).  Node
    names and send kinds are plain words, written without escaping.

    Trace format v1 has two per-object error-flag slots after the history
    sizes of each digest.  The paper's flags provably stay 0 (a flag that
    would be set raises instead), so they are written here as all-zero
    K-tuples and are not part of ``Server.digest()``."""
    ints = functools.cache(lambda v: f"[{','.join(map(str, v))}]")
    tag = functools.cache(lambda t: f'"{t.render()}"')
    tags = functools.cache(lambda v: f"[{','.join(map(tag, v))}]")
    small = functools.cache(_encode)  # non-recv events, notes
    tail = functools.cache(lambda ev, node: f',"emitted":[],"event":{small(ev)},'
                                            f'"node":"{node}","notes":[],"seq":')
    digests: Dict[int, Tuple[Optional[tuple], str]] = {id(None): (None, "null")}
    messages: Dict[int, Tuple[Message, str]] = {}

    def digest(d: Optional[tuple]) -> str:
        hit = digests.get(id(d))
        if hit is None:
            vc, tagvec, lsizes, tmax, inq, readl = d
            flags = ints((0,) * len(tagvec))
            hit = digests[id(d)] = (d, f"[{ints(vc)},{tags(tagvec)},{ints(lsizes)},"
                                       f"{flags},{flags},{tags(tmax)},{inq},{readl}]")
        return hit[1]

    def field(v) -> str:  # None, int, Tag, or a tuple of tags or of ints
        if v is None:
            return "null"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, Tag):
            return tag(v)
        return tags(v) if v and isinstance(v[0], Tag) else ints(v)

    def message(m: Message) -> str:
        hit = messages.get(id(m))
        if hit is None:
            text = ",".join([f'"{type(m).__name__}"']
                            + [field(getattr(m, f)) for f in m.__dataclass_fields__])
            hit = messages[id(m)] = (m, f"[{text}]")
        return hit[1]

    t_last = None
    for r in trace:
        if r.t != t_last:
            t_last = r.t
            t_text = f',"t":"{format_ms(t_last)}"}}'
        ev = r.event
        if not r.emitted and not r.notes and ev[0] != "recv":
            yield f'{{"digest":{digest(r.digest)}{tail(ev, r.node)}{r.seq}{t_text}'
            continue
        event = f'["recv","{ev[1]}",{message(ev[2])}]' if ev[0] == "recv" else small(ev)
        emitted = ",".join([f'["{s.kind}",{s.dst},{message(s.msg)}]' for s in r.emitted])
        yield (f'{{"digest":{digest(r.digest)},"emitted":[{emitted}],"event":{event},'
               f'"node":"{r.node}","notes":{small(r.notes)},"seq":{r.seq}{t_text}')


@dataclass
class RunResult:
    scenario_name: str
    protocol: str
    seed: int
    quiescent: bool
    transitions: int
    ops: Dict[OpId, OperationRecord]
    trace: List[TraceRecord]
    violations: List[str]
    locality_breaks: int
    pending_opids: List[OpId]
    halted: List[int]
    servers: Dict[int, Server]
    client_homes: Dict[int, int]

    def trace_jsonl(self) -> str:
        """The trace as JSON lines, one ``trace_lines`` pass."""
        return "\n".join(trace_lines(self.trace))

    def trace_sha256(self) -> str:
        """The SHA-256 of ``trace_jsonl()``, fed in blocks of lines so the
        whole text is never held."""
        h = hashlib.sha256()
        lines = trace_lines(self.trace)
        sep = ""
        for block in iter(lambda: "\n".join(islice(lines, TRACE_BLOCK)), ""):
            h.update(f"{sep}{block}".encode())
            sep = "\n"
        return h.hexdigest()

    def operation_list(self) -> List[OperationRecord]:
        return sorted(self.ops.values(), key=lambda r: (r.t_invoke, r.opid))


class Simulation:
    def __init__(self, scenario: Scenario, seed: int, protocol: Optional[str] = None,
                 collect_trace: bool = True):
        self.scenario = scenario
        self.seed = seed
        self.protocol = protocol or scenario.protocol
        self.collect_trace = collect_trace
        self.code = scenario.code
        self.n = scenario.code.n
        self.rng = random.Random(0xD15C ^ (seed * 7919))
        registry: Dict[Tag, Tuple[int, Value]] = {}  # for the servers' probes
        self.servers: Dict[int, Server] = {
            s: Server(s, self.code, self.protocol, write_registry=registry)
            for s in range(1, self.n + 1)}
        self.homes: Dict[int, int] = {c.id: c.home for c in scenario.clients}
        self._opcounts: Dict[int, int] = {}  # per client, its last opid's count
        self.scripts: Dict[int, List[ScriptOp]] = scenario.build_scripts(seed)
        self.heap: List[tuple] = []
        self.now = 0
        self.seq = 0
        self.steps = 0
        self.step_cap = scenario.step_cap  # the run stops when steps reach it
        self.trace: List[TraceRecord] = []
        self.ops: Dict[OpId, OperationRecord] = {}
        self.violations: List[str] = []
        self.locality_breaks = 0
        # per server channel: the least delay in ticks, the number of delays
        # a message draws from with rng (0: the delay is fixed), that
        # number's bit length, and the arrival time of its last message
        draws, bounds = scenario.channel_delays()
        self._links = {link: [lo, hi - lo + 1 if draws else 0, (hi - lo + 1).bit_length(), 0]
                       for link, (lo, hi) in bounds.items()}
        self._names = {s: f"s{s}" for s in self.servers}
        # per server, the state the probes last checked and, when tracing, the
        # digest last recorded, both from construction on
        self._snapshots: Dict[int, tuple] = {}
        for s, srv in self.servers.items():
            self._snapshots[s] = (srv.vc[:], srv.m_tagvec[:], srv.tmax[:], srv.m_val)
            try:
                srv.check_invariants()
            except ProtocolInvariantViolation as e:
                self._fail(str(e))
        self._digests = ({s: srv.digest() for s, srv in self.servers.items()}
                         if collect_trace else {})
        # live server -> step count of its last full round, least recent first
        self._last_full_round: Dict[int, int] = dict.fromkeys(self.servers, 0)
        self.halted: Set[int] = set()  # a halted server processes nothing further
        self._next_fair_scan = 0
        self._fair_floor = 0  # no live server is due before this step count
        self._fair_window = FAIRNESS_STEPS * self.n
        for s, t in scenario.halts.items():
            self._push(t, "halt", s)
        for cid, script in self.scripts.items():
            if script:
                self._push(script[0].time_ms, "invoke", cid)

    # -- scheduling ----------------------------------------------------------

    def _push(self, t: int, kind: str, payload) -> None:
        self.seq += 1
        heappush(self.heap, (t, self.seq, kind, payload))

    # -- trace / probes --------------------------------------------------------

    def _record(self, node: str, event: Optional[tuple], srv: Optional[Server] = None,
                emitted: Sequence[Send] = (), notes: Sequence[tuple] = (),
                moved: bool = False) -> None:
        """Count one transition; when tracing, log it with the digest of the
        server that took it (None for client and halt steps).  The step that
        reaches the cap is the run's last.  Untraced, ``_server_step``, a
        delete notice and a round's steps without work count where they are
        taken, without this call.

        A server's state changes only inside its own steps, and each step
        that changes it says so; a step that did not move therefore reuses
        the digest of that server's last record instead of taking a new one.
        A step that moved but left a digest equal to the last one reuses
        the last one too, so the trace writer's identity memo hits."""
        self.steps += 1
        if not self.collect_trace:
            return
        digest = None
        if srv is not None:
            digest = self._digests[srv.id]
            if moved:
                new = srv.digest()
                if new != digest:
                    digest = self._digests[srv.id] = new
        self.trace.append(TraceRecord(self.steps, self.now, node, event, digest,
                                      tuple(emitted), tuple(notes)))

    def _fail(self, text: str) -> None:
        """Record a violation; it stops the run."""
        self.violations.append(text)
        self.step_cap = 0

    def _probe_after(self, srv: Server) -> None:
        """Check the server's state after a transition that did not raise and
        left it differing from the snapshot, the symbol tested by identity (an
        immutable tuple, which the snapshot holds); any other transition left
        it as checked.

        Each check is a pure function of its inputs in the snapshot ``(vc,
        m_tagvec, tmax, m_val)`` and of the write registry, whose entries are
        never rewritten, and a failure stops the run; so when ``m_tagvec``,
        ``tmax`` and ``m_val`` equal the stored copies, only the clock test
        runs, and only if the clock moved.  Otherwise ``check_invariants``
        runs and the clock and symbol tag vector must not have gone
        backwards.  The first snapshot is the constructed state, which
        construction checked."""
        prev = self._snapshots[srv.id]
        if srv.m_tagvec == prev[1] and srv.tmax == prev[2] and srv.m_val == prev[3]:
            if srv.vc != prev[0]:
                self._snapshots[srv.id] = (srv.vc[:], prev[1], prev[2], srv.m_val)
                if any(a < b for a, b in zip(srv.vc, prev[0])):
                    self._fail(f"server {srv.id}: vector clock went backwards")
            return
        self._snapshots[srv.id] = (srv.vc[:], srv.m_tagvec[:], srv.tmax[:], srv.m_val)
        try:
            srv.check_invariants()
        except ProtocolInvariantViolation as e:
            self._fail(str(e))
            return
        if any(a < b for a, b in zip(srv.vc, prev[0])):
            self._fail(f"server {srv.id}: vector clock went backwards")
        if any(old > new for old, new in zip(prev[1], srv.m_tagvec)):
            self._fail(f"server {srv.id}: symbol tag vector decreased")

    def _server_step(self, srv: Server, event: Optional[tuple], action, *args) -> bool:
        """One server transition: an internal action, returning ``(changed,
        sends)``, or the handler of any delivery but a delete notice, returning
        its sends and always moving.  A raise is a violation, recorded with
        no sends or notes; otherwise each send is scheduled (a coded symbol
        checked, a client response's ``ts`` stamped), the step recorded and
        the server probed if it left its snapshot; returns whether it moved.

        A server message takes its channel's least delay plus, when delays
        are drawn, ``randint(lo, hi)``'s draw as CPython 3.11 makes it:
        ``getrandbits(k)``, ``k`` the span's bit length, redrawn until below
        the span.  It is clamped to stay FIFO; a message to a client has no
        delay and, as virtual time never goes back, needs no clamp."""
        sid = srv.id
        try:
            out = action(*args)
        except ProtocolInvariantViolation as e:
            self._fail(str(e))
            srv.notes.clear()
            self._record(self._names[sid], event, srv, moved=True)
            return False
        if type(out) is list:
            changed, sends = True, out
        else:
            changed, sends = out
        if sends:
            now, heap, links = self.now, self.heap, self._links
            seq, getrandbits = self.seq, self.rng.getrandbits
            for kind, dst, msg in sends:
                if kind == "client":
                    t = now
                    # an ack or a read return; a repeated answer keeps the
                    # first stamp, and one to an operation never invoked
                    # stamps nothing and fails where the client receives it
                    rec = self.ops.get(msg.opid)
                    if rec is not None and rec.ts is None:
                        rec.ts = tuple(srv.vc)
                else:
                    if type(msg) is ValRespEncoded:
                        # the last checked symbol under its own tag vector
                        # passes again, so only another pair is checked
                        snap = self._snapshots[sid]
                        if msg.symbol is not snap[3] or list(msg.tagvec) != snap[1]:
                            try:
                                srv.check_symbol_legitimacy(msg.symbol, msg.tagvec)
                            except ProtocolInvariantViolation as e:
                                self._fail(f"outgoing response: {e}")
                    lo, span, k, last = link = links[sid, dst]
                    t = now + lo
                    if span:
                        r = getrandbits(k)
                        while r >= span:
                            r = getrandbits(k)
                        t += r
                    if t < last:
                        t = last
                    link[3] = t
                seq += 1
                heappush(heap, (t, seq, "deliver", (kind, dst, "server", sid, msg)))
            self.seq = seq
        moved = changed or bool(sends)
        if self.collect_trace:
            self._record(self._names[sid], event, srv, sends, srv.notes, moved)
        else:
            self.steps += 1
        srv.notes.clear()
        if moved:
            prev = self._snapshots[sid]
            if (srv.vc != prev[0] or srv.m_tagvec != prev[1]
                    or srv.tmax != prev[2] or srv.m_val is not prev[3]):
                self._probe_after(srv)
        return moved

    # -- event processing -------------------------------------------------------

    def _deliver_to_client(self, cid: int, src: int, msg: Message) -> None:
        """Complete the client's pending operation, the one the response
        names; a response to any other operation is a violation."""
        self._record(f"c{cid}", ("recv", f"s{src}", msg) if self.collect_trace else None)
        rec = self.ops.get(msg.opid)
        if rec is None or rec.client != cid or rec.completed:
            # a server answered an operation twice, unasked, or to another client
            self._fail(f"client {cid}: response to {msg.opid}, which is not pending")
            return
        rec.t_response = self.now
        if type(msg) is ReadReturn:
            rec.value = msg.value
        script = self.scripts.get(cid, [])
        if script:
            self._push(max(self.now, script[0].time_ms), "invoke", cid)

    def _invoke(self, cid: int) -> None:
        # an invoke is pushed only when the client has ops left and none
        # pending, so each client is well-formed by construction
        op = self.scripts[cid].pop(0)
        n = self._opcounts[cid] = self._opcounts.get(cid, 0) + 1
        opid = (cid, n)
        msg = Write(opid, op.obj, op.value) if op.kind == "write" else Read(opid, op.obj)
        home = self.homes[cid]
        self.ops[opid] = OperationRecord(
            opid=opid, client=cid, kind=op.kind, obj=op.obj,
            value=op.value, t_invoke=self.now,
            probe=cid >= PROBE_CLIENT_BASE)
        self._record(f"c{cid}", ("invoke", op.kind, op.obj,
                                 op.value if op.kind == "write" else None), None,
                     (Send("server", home, msg),))
        # to the co-located home server, with no delay, as in _server_step
        self._push(self.now, "deliver", ("server", home, "client", cid, msg))

    def _service_round(self, sid: int, force: bool = False) -> bool:
        """Apply-drain then encode and collect.  Unless forced, the encode
        and collect steps are taken only when the server's round is due
        (``Server.round_due``), which is cleared as they begin;
        forced rounds certify quiescence and fairness.  Each step whose
        action has no work is taken without calling the action, which
        would change nothing: recorded when tracing, else only counted."""
        if sid in self.halted or self.steps >= self.step_cap:
            return False
        srv = self.servers[sid]
        trace = self.collect_trace
        name = self._names[sid]
        moved = False
        # an apply that finds the head not ready clears can_apply and a raise
        # lowers the cap, so the drain stops at the first apply that did not move
        if srv.inqueue and srv.can_apply:
            while srv.can_apply and self.steps < self.step_cap:
                moved |= self._server_step(srv, APPLY, srv.apply_inqueue)
        elif trace:  # every caller enters forced, or with a write queued or the round due
            self._record(name, APPLY, srv)
        else:
            self.steps += 1
        if self.steps >= self.step_cap or not (force or srv.round_due):
            return moved
        order = self._last_full_round
        del order[sid]
        order[sid] = self.steps
        srv.round_due = False
        if srv.can_encode:
            moved |= self._server_step(srv, ENCODE, srv.encoding)
        elif trace:
            self._record(name, ENCODE, srv)
        else:
            self.steps += 1
        if self.steps >= self.step_cap:
            return moved
        if srv.can_collect:
            moved |= self._server_step(srv, GC, srv.garbage_collection)
        elif trace:
            self._record(name, GC, srv)
        else:
            self.steps += 1
        return moved

    def _fairness_rounds(self) -> None:
        """Called every 4 steps from ``_fair_floor`` on: force a round, in id
        order, at each live server whose last full round is ``_fair_window``
        steps old.

        ``_last_full_round`` holds the live servers least recent first: a
        server moves to the end at each full round, whose step count is
        above every earlier one, and leaves at its halt.  So the due servers
        are a prefix of it, and its first entry sets the floor below which
        no server is due and the event loop skips the scan."""
        self._next_fair_scan = self.steps + 4
        cutoff = self.steps - self._fair_window
        due = []
        for s, last in self._last_full_round.items():
            if last > cutoff:
                break
            due.append(s)
        for s in sorted(due):
            self._service_round(s, force=True)
        self._fair_floor = self._fair_window + next(iter(self._last_full_round.values()),
                                                    self.step_cap)

    # -- main loop -----------------------------------------------------------------

    def _drain(self) -> None:
        heap, halted, servers = self.heap, self.halted, self.servers
        while heap and self.steps < self.step_cap:
            self.now, _, kind, payload = heappop(heap)
            if kind == "deliver":
                dst_kind, dst, src_kind, src, msg = payload
                if dst_kind == "client":
                    self._deliver_to_client(dst, src, msg)
                elif dst in halted:
                    continue
                elif type(msg) is Del:
                    # a notice never sends, never notes and cannot raise: it
                    # is delivered, counted and probed with nothing else
                    srv = servers[dst]
                    srv.on_del(src, msg)
                    if self.collect_trace:
                        self._record(self._names[dst], ("recv", f"s{src}", msg), srv,
                                     moved=True)
                    else:
                        self.steps += 1
                    prev = self._snapshots[dst]
                    if (srv.vc != prev[0] or srv.m_tagvec != prev[1]
                            or srv.tmax != prev[2] or srv.m_val is not prev[3]):
                        self._probe_after(srv)
                    self._service_round(dst)  # a notice always makes the round due
                else:
                    srv = servers[dst]
                    mtype = type(msg)
                    name = _HANDLERS.get(mtype)
                    if name is None:
                        raise TypeError(f"server cannot handle {mtype.__name__}")
                    event = (("recv", f"{'c' if src_kind == 'client' else 's'}{src}", msg)
                             if self.collect_trace else None)
                    # locality: a write, or a read of the object this server stores
                    # uncoded, is answered in this very transition; one that raised is no break
                    if self._server_step(srv, event, getattr(srv, name), src, msg) and (
                            mtype is Write
                            or mtype is Read and self.code.held[dst - 1] == (msg.obj,)):
                        if self.ops[msg.opid].ts is None:
                            self.locality_breaks += 1
                    if srv.inqueue or srv.round_due:
                        self._service_round(dst)
            elif kind == "invoke":
                self._invoke(payload)
            else:
                halted.add(payload)
                del self._last_full_round[payload]
                self._record(self._names[payload], ("halt",))
            if self.steps >= self._next_fair_scan:
                if self.steps < self._fair_floor:
                    self._next_fair_scan = self.steps + 4
                else:
                    self._fairness_rounds()

    def run_to_quiescence(self) -> bool:
        while self.steps < self.step_cap:
            self._drain()
            swept = False
            for s in sorted(self.servers):
                swept |= self._service_round(s, force=True)
            if self.steps >= self.step_cap:
                break
            if not swept and not self.heap:
                return True
        return False

    def inject_probes(self) -> None:
        """One read per (live server, object), issued by fresh probe clients."""
        idx = 0
        for s in sorted(self.servers):
            if s in self.halted:
                continue
            for obj in range(1, self.code.k + 1):
                idx += 1
                cid = PROBE_CLIENT_BASE + idx
                self.homes[cid] = s
                self.scripts[cid] = [ScriptOp(self.now, "read", obj)]
                self._push(self.now, "invoke", cid)

    def result(self, quiescent: bool) -> RunResult:
        pending = [opid for opid, rec in self.ops.items() if not rec.completed]
        return RunResult(
            scenario_name=self.scenario.name,
            protocol=self.protocol,
            seed=self.seed,
            quiescent=quiescent,
            transitions=self.steps,
            ops=self.ops,
            trace=self.trace,
            violations=self.violations,
            locality_breaks=self.locality_breaks,
            pending_opids=sorted(pending),
            halted=sorted(self.halted),
            servers=self.servers,
            client_homes=self.homes,
        )


def run(scenario: Scenario, seed: int, protocol: Optional[str] = None,
        collect_trace: bool = True, probes: bool = False) -> RunResult:
    """Execute a scenario to quiescence; optionally follow with probe reads.

    Probe reads (one per live server and object) run after the workload has
    quiesced, so their returns witness the converged value of each object.
    """
    sim = Simulation(scenario, seed, protocol=protocol, collect_trace=collect_trace)
    quiescent = sim.run_to_quiescence()
    if probes and quiescent and not sim.halted:
        # convergence is only promised when every server keeps taking steps
        sim.inject_probes()
        quiescent = sim.run_to_quiescence()
    return sim.result(quiescent)

