"""Server state machine for the coded store, in both protocol variants.

One event (message receipt or internal action) executes a full handler body
atomically and emits an ordered batch of messages.  Each message type has
one handler ``on_X(frm, msg)``, which returns its sends but for ``on_del``:
a delete notice sends nothing, and the simulator calls it directly.  The
internal actions return ``(changed, sends)``.
The causal variant ("causalec") and the eventually consistent one ("eventualec") differ only
where ``variant`` is tested: apply readiness (causalec applies a remote
write after the writes it depends on, and answers with it only the reads
that asked for no newer version), the list-read guard (causalec serves
``L[X]`` only when it is as new as the symbol) and ``ValResp`` addressing
(eventualec answers a client read's inquiry with its newest version, naming
no operation, and that response answers every pending read on its object).

State per server (all tag vectors indexed by object-1):

* ``vc``            vector clock, one counter per server
* ``inqueue``       pending ``App`` messages: origin -> FIFO deque, never empty
* ``L[X]``          version history list: tag -> value
* ``dell[X]``       delete notices seen: ordered set of (tag, server)
* ``m_val/m_tagvec``the stored codeword symbol and the versions it encodes
* ``readl``         pending reads: opid -> entry with per-server symbol slots
* ``tmax[X]``       newest tag known to be deletable everywhere
* ``_del_max[X]``   per server, the newest tag of its delete notices on X
                    (the view of ``dell`` that GC's minima read); it starts
                    at the zero tag, which no notice carries, as does
                    ``_gc_del_sent[X]``, the last notice GC broadcast
* ``_enc_dirty``, ``_gc_dirty`` exact work sets: the only objects
                    ``encoding`` and ``garbage_collection`` visit, each
                    emptied by its action.  Every object outside a set is at
                    that action's fixed point, and X is marked only when a
                    change gives the action work on X.  Both start empty:
                    the constructed state is a fixed point of both, as each
                    ``L[X]`` holds only the zero version, which is the
                    symbol's tag and ``tmax``, and ``dell`` is empty.
                    - An ``L[X]`` insertion of ``tag`` marks encoding when
                      ``tag`` is above the symbol's tag and, for a held X,
                      the symbol's version is in ``L[X]`` or no localhost
                      fetch of it is pending (that fetch marks X as it
                      ends), or, for an X not held, ``tag`` is at most the
                      holders' notice minimum: otherwise there is no newer
                      version to encode.  It marks GC when ``tag`` is below
                      ``tmax``, or equal to it and either the symbol's tag
                      or of an X not held: only such a tag can be doomed,
                      and a higher ``max(L[X])`` only makes GC do less.
                    - ``encoding`` leaves each object it visits at its
                      fixed point.  Raising X's symbol tag marks GC only for
                      an X not held whose ``tmax`` was the old symbol tag
                      and is in ``L[X]``, an entry doomed once the symbol
                      is above it; for a held X it only protects more.
                    - A new delete notice marks X when it moves a minimum of
                      ``_del_max[X]`` -- over all N servers (GC: ``tmax``)
                      or over X's holders (GC's broadcast ``max_u`` when X
                      is held, encoding when it is not) -- or completes the
                      set of notices naming the symbol's tag for X from
                      every server (GC).
                    - A ``readl`` removal marks GC for each X whose entry
                      tag is below the symbol's (only those are protected),
                      in ``L[X]`` and doomed: below ``tmax``, or at it for
                      an X not held.  It marks encoding for a localhost
                      fetch's object.
                    Adding to ``readl`` and a GC collection can only make the
                    actions do less, so they mark nothing.
* ``_apply_dirty``  set by ``on_app`` and by every ``vc`` change (``on_write``
                    and an applied write), cleared when ``apply_inqueue``
                    finds the head not ready: while clear, the head and the
                    clock it was tested against are as they were.
* ``round_due``     the round schedule of trace format v1: set by every
                    ``L[X]`` or ``readl`` change, by every ``_add_del`` (a
                    notice received, or ``encoding``'s own) and by a
                    ``garbage_collection`` that changed something; the
                    simulator clears it as a round's encode step begins.
                    ``_add_del`` sets it before its repeat test, so a notice
                    already in ``dell`` makes the round due although it
                    changed nothing; moving the set below the test changes
                    traces.  The flag goes with trace format v2 (ROADMAP
                    items 2 and 3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import le
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .coding import LinearCode
from .field import Value
from .messages import (
    App,
    Del,
    Message,
    OpId,
    Read,
    ReadReturn,
    TagVec,
    ValInq,
    ValResp,
    ValRespEncoded,
    Write,
    WriteReturnAck,
)
from .tags import (
    LOCALHOST,
    LT,
    ProtocolInvariantViolation,
    Tag,
    vc_compare,
    zero_tag,
)

CAUSAL = "causalec"
EVENTUAL = "eventualec"
VARIANTS = (CAUSAL, EVENTUAL)


class Send(NamedTuple):
    kind: str  # "server" or "client"
    dst: int
    msg: Message


@dataclass
class ReadLEntry:
    clientid: int
    opid: OpId
    obj: int
    tagvec: TagVec
    symbols: List[Optional[Value]]


class Server:
    def __init__(self, sid: int, code: LinearCode, variant: str = CAUSAL,
                 write_registry: Optional[Dict[Tag, Tuple[int, Value]]] = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown protocol variant {variant!r}")
        self.id = sid
        self.code = code
        self.variant = variant
        self.n = code.n
        self.k = code.k
        self.objects_here = code.objects_at(sid)
        # the initial version of every object, built once
        self.zero_tag = zt = zero_tag(self.n)
        self.zero_value = zv = code.zero_value()
        self.vc: List[int] = [0] * self.n
        self.inqueue: Dict[int, Deque[App]] = {}
        self.L: List[Dict[Tag, Value]] = [{zt: zv} for _ in range(self.k)]
        self.dell: List[Dict[Tuple[Tag, int], None]] = [{} for _ in range(self.k)]
        self.m_val: Value = zv
        self.m_tagvec: List[Tag] = [zt] * self.k
        self.readl: Dict[OpId, ReadLEntry] = {}
        self.tmax: List[Tag] = [zt] * self.k
        self.notes: List[tuple] = []  # per-transition annotations, drained by the simulator
        self._opid_counter = 0
        self._gc_del_sent: List[Tag] = [zt] * self.k
        self._readl_opids_seen: set = set()
        # incremental view of dell: per object, each server's newest tag
        self._del_max: List[List[Tag]] = [[zt] * self.n for _ in range(self.k)]
        self._servers = range(1, self.n + 1)
        self._others = [j for j in self._servers if j != sid]
        # when present, L insertions are checked against the known write values
        self.write_registry = write_registry
        # probe memo: tag vector -> the symbol this server encodes for it
        self._encodings: Dict[TagVec, Value] = {}
        self._enc_dirty = set()
        self._gc_dirty = set()
        self._apply_dirty = False
        self.round_due = True

    # -- small helpers -----------------------------------------------------

    def _highest(self, obj: int) -> Optional[Tuple[Tag, Value]]:
        lx = self.L[obj - 1]
        if not lx:
            return None
        t = max(lx)
        return t, lx[t]

    @property
    def can_apply(self) -> bool:
        """False when ``apply_inqueue`` would return ``(False, [])``: no write
        is queued, or neither the queue nor the clock changed since it last
        found the head not ready."""
        return self._apply_dirty and bool(self.inqueue)

    @property
    def can_encode(self) -> bool:
        """False when ``encoding`` would change nothing."""
        return bool(self._enc_dirty)

    @property
    def can_collect(self) -> bool:
        """False when ``garbage_collection`` would change nothing."""
        return bool(self._gc_dirty)

    def _add_del(self, obj: int, tag: Tag, srv: int) -> None:
        self.round_due = True
        x = obj - 1
        dell = self.dell[x]
        if (tag, srv) in dell:
            return  # a repeated notice changes nothing
        dell[tag, srv] = None
        dmax = self._del_max[x]
        prev = dmax[srv - 1]
        gc = False
        if prev < tag:
            dmax[srv - 1] = tag
            holders = self.code.holders[x]
            # in one pass, whether raising srv's entry from prev moved the minimum
            # over all servers (gc) and over X's holders (held): an entry at
            # most prev keeps it in place
            gc = held = True
            for i, t in enumerate(dmax, 1):
                if t <= prev:
                    gc = False
                    if i in holders:
                        held = False
                        break
            if held and srv in holders:
                if obj in self.objects_here:
                    gc = True
                else:
                    self._enc_dirty.add(obj)
        # GC collects the symbol's version once every server sent it
        if gc or (tag == self.m_tagvec[x] and all((tag, i) in dell for i in self._servers)):
            self._gc_dirty.add(obj)

    def _l_insert(self, obj: int, tag: Tag, value: Value) -> None:
        if self.write_registry is not None and tag != self.zero_tag:
            known = self.write_registry.get(tag)
            if known is None or known[0] != obj or known[1] != value:
                raise ProtocolInvariantViolation(
                    f"server {self.id}: list entry {tag.render()} on X{obj} does not "
                    f"match the write with that tag")
        x = obj - 1
        lx = self.L[x]
        lx[tag] = value
        mt = self.m_tagvec[x]
        held = obj in self.objects_here
        if mt < tag and ((mt in lx or not self._fetching(obj, mt)) if held
                         else tag <= self._per_server_del_max(obj, self.code.holders[x])):
            self._enc_dirty.add(obj)
        tmax = self.tmax[x]
        if tag < tmax or tag == tmax and (tag == mt or not held):
            self._gc_dirty.add(obj)
        self.round_due = True

    def _fetching(self, obj: int, tag: Tag) -> bool:
        """Whether a localhost fetch of obj's version ``tag`` is pending."""
        return any(e.clientid == LOCALHOST and e.obj == obj and e.tagvec[obj - 1] == tag
                   for e in self.readl.values())

    def _readl_add(self, entry: ReadLEntry) -> None:
        if entry.opid in self._readl_opids_seen:
            raise ProtocolInvariantViolation(
                f"server {self.id}: second pending-read tuple for opid {entry.opid}")
        self._readl_opids_seen.add(entry.opid)
        self.readl[entry.opid] = entry
        self.round_due = True

    def _readl_remove(self, opid: OpId) -> None:
        entry = self.readl.pop(opid)
        # the entry may have kept a doomed version from collection, and a
        # localhost fetch blocks a second one
        here = self.objects_here
        self._gc_dirty.update([x for x, t, mt, tm, lx in zip(self.object_indices(), entry.tagvec,
                                                             self.m_tagvec, self.tmax, self.L)
                               if t < mt and t in lx and (t < tm or t == tm and x not in here)])
        if entry.clientid == LOCALHOST:
            self._enc_dirty.add(entry.obj)
        self.round_due = True

    def _answer_reads(self, entries: List[ReadLEntry], value: Value) -> List[Send]:
        """Drop the given pending reads, returning value to each client read;
        an internal (localhost) read has no client to answer."""
        sends = [Send("client", e.clientid, ReadReturn(e.opid, value))
                 for e in entries if e.clientid != LOCALHOST]
        for e in entries:
            self._readl_remove(e.opid)
        return sends

    def _next_internal_opid(self) -> OpId:
        self._opid_counter += 1
        return (-self.id, self._opid_counter)

    def object_indices(self) -> range:
        return range(1, self.k + 1)

    # -- client messages ---------------------------------------------------

    def on_write(self, frm: int, msg: Write) -> List[Send]:
        obj, value = msg.obj, msg.value
        self.vc[self.id - 1] += 1
        self._apply_dirty = True
        t = Tag(tuple(self.vc), frm)
        if self.write_registry is not None:
            self.write_registry[t] = (obj, value)
        self._l_insert(obj, t, value)
        sends = [Send("client", frm, WriteReturnAck(msg.opid))]
        app = App(obj, value, t)
        sends += [Send("server", j, app) for j in self._others]
        sends += self._answer_reads(
            [e for e in self.readl.values() if e.obj == obj and e.clientid != LOCALHOST],
            value)
        return sends

    def on_read(self, frm: int, msg: Read) -> List[Send]:
        opid, obj = msg.opid, msg.obj
        highest = self._highest(obj)
        if highest is not None:
            ht, hv = highest
            if self.variant == EVENTUAL or self.m_tagvec[obj - 1] <= ht:
                return [Send("client", frm, ReadReturn(opid, hv))]
        if self.code.held[self.id - 1] == (obj,):  # this symbol is obj uncoded
            rs = self.code.recovery_set_within(obj, 1 << (self.id - 1))
            v = self.code.decode(obj, rs, {self.id: self.m_val})
            self.notes.append(("decoded", obj, (self.id,), opid))
            return [Send("client", frm, ReadReturn(opid, v))]
        return self._fetch(frm, opid, obj)

    def _fetch(self, clientid: int, opid: OpId, obj: int) -> List[Send]:
        """Start a remote read of obj at the symbol's tag vector: a pending
        read holding this server's symbol, and a value inquiry to every
        other server."""
        tagvec = tuple(self.m_tagvec)
        symbols: List[Optional[Value]] = [None] * self.n
        symbols[self.id - 1] = self.m_val
        self._readl_add(ReadLEntry(clientid, opid, obj, tagvec, symbols))
        msg = ValInq(clientid, opid, obj, tagvec)
        return [Send("server", j, msg) for j in self._others]

    # -- server messages ---------------------------------------------------

    def on_del(self, frm: int, msg: Del) -> None:
        self._add_del(msg.obj, msg.tag, frm)  # a notice sends nothing

    def on_app(self, frm: int, msg: App) -> List[Send]:
        # the channel is FIFO and the origin's own clock entry rises with each
        # of its writes, so every origin's queue is a chain in causal order
        queue = self.inqueue.get(frm)
        last = queue[-1].tag.ts[frm - 1] if queue else self.vc[frm - 1]
        if msg.tag.ts[frm - 1] <= last:
            raise ProtocolInvariantViolation(
                f"server {self.id}: write {msg.tag.render()} from server {frm} out of order")
        self.inqueue.setdefault(frm, deque()).append(msg)
        self._apply_dirty = True
        return []

    def on_val_inq(self, frm: int, msg: ValInq) -> List[Send]:
        clientid, opid, obj, wantedtagvec = msg.clientid, msg.opid, msg.obj, msg.wantedtagvec
        if self.variant == CAUSAL:
            v = self.L[obj - 1].get(wantedtagvec[obj - 1])
            if v is not None:
                return [Send("server", frm,
                             ValResp(obj, v, clientid, opid, wantedtagvec))]
        else:
            if clientid != LOCALHOST and self.L[obj - 1]:
                ht, hv = self._highest(obj)
                return [Send("server", frm, ValResp(obj, hv))]
        resp_val = self.m_val
        resp_tagvec = list(self.m_tagvec)
        zt, zv = self.zero_tag, self.zero_value
        for x in self.code.held[self.id - 1]:
            mt = self.m_tagvec[x - 1]
            if mt == wantedtagvec[x - 1]:
                continue
            cur = self.L[x - 1].get(mt)
            if cur is not None:
                resp_val = self.code.reencode(self.id, x, resp_val, cur, zv)
                resp_tagvec[x - 1] = zt
                wv = self.L[x - 1].get(wantedtagvec[x - 1])
                if wv is not None:
                    resp_val = self.code.reencode(self.id, x, resp_val, zv, wv)
                    resp_tagvec[x - 1] = wantedtagvec[x - 1]
        resp = ValRespEncoded(resp_val, tuple(resp_tagvec), clientid, opid, obj, wantedtagvec)
        return [Send("server", frm, resp)]

    def _answered_read(self, msg) -> Optional[ReadLEntry]:
        """The pending read that a value response (``ValResp`` under causalec,
        or ``ValRespEncoded``) answers: the entry its opid names, when the
        client, the object and the requested tags match it too."""
        entry = self.readl.get(msg.opid)
        if (entry is None or entry.clientid != msg.clientid
                or entry.obj != msg.obj or entry.tagvec != msg.requestedtags):
            return None
        return entry

    def on_val_resp(self, frm: int, msg: ValResp) -> List[Send]:
        if self.variant == CAUSAL:
            entry = self._answered_read(msg)
            if entry is None:
                return []
            if entry.clientid == LOCALHOST:
                self._l_insert(msg.obj, msg.requestedtags[msg.obj - 1], msg.value)
            return self._answer_reads([entry], msg.value)
        # eventual: the response names no operation, so it answers every
        # pending read on the object; localhost tuples are dropped unserved
        return self._answer_reads(
            [e for e in self.readl.values() if e.obj == msg.obj], msg.value)

    def on_val_resp_encoded(self, frm: int, msg: ValRespEncoded) -> List[Send]:
        entry = self._answered_read(msg)
        if entry is None:
            return []
        modified = msg.symbol
        zt, zv = self.zero_tag, self.zero_value
        for x in self.code.held[frm - 1]:
            rt = msg.requestedtags[x - 1]
            mt = msg.tagvec[x - 1]
            if rt == mt:
                continue
            # swap the version the symbol encodes for the requested one; the
            # paper's error flags mark a version missing from L[X], which its
            # proofs rule out
            old = zv if mt == zt else self.L[x - 1].get(mt)
            new = self.L[x - 1].get(rt)
            if old is None or new is None:
                raise ProtocolInvariantViolation(
                    f"server {self.id}: error flag set for X{x}")
            modified = self.code.reencode(frm, x, modified, old, new)
        entry.symbols[frm - 1] = modified
        answered = sum(1 << i for i, w in enumerate(entry.symbols) if w is not None)
        rs = self.code.recovery_set_within(entry.obj, answered)
        if rs is None:
            return []
        v = self.code.decode(entry.obj, rs, {j: entry.symbols[j - 1] for j in rs.members})
        self.notes.append(("decoded", entry.obj, tuple(sorted(rs.members)), entry.opid))
        if entry.clientid == LOCALHOST:
            self._l_insert(entry.obj, self.m_tagvec[entry.obj - 1], v)
        return self._answer_reads([entry], v)

    # -- internal actions ----------------------------------------------------

    def _inqueue_head(self) -> int:
        """The origin whose queue head is applied next: the lowest origin
        whose head no other head precedes.  Each origin's queue is a chain,
        so these heads are exactly the minimal items of the whole queue.  A
        head from origin i can precede ``ts`` only if its own coordinate
        ``i`` is no larger, which is tested before the full comparison."""
        if len(self.inqueue) == 1:
            return next(iter(self.inqueue))
        heads = [(j, self.inqueue[j][0].tag.ts) for j in sorted(self.inqueue)]
        return next(j for j, ts in heads
                    if not any(i != j and other[i - 1] <= ts[i - 1]
                               and vc_compare(other, ts) == LT for i, other in heads))

    def apply_inqueue(self) -> Tuple[bool, List[Send]]:
        if not self.inqueue:
            return False, []
        j = self._inqueue_head()
        queue = self.inqueue[j]
        item = queue[0]
        t = item.tag
        if self.variant == CAUSAL:
            ts, vc = t.ts, self.vc
            ready = (ts[j - 1] == vc[j - 1] + 1 and all(map(le, ts[:j - 1], vc[:j - 1]))
                     and all(map(le, ts[j:], vc[j:])))
            if not ready:
                self._apply_dirty = False
                return False, []
        queue.popleft()
        if not queue:
            del self.inqueue[j]
        self.vc[j - 1] = t.ts[j - 1]
        self._apply_dirty = True
        self._l_insert(item.obj, t, item.value)
        # a client read takes the write if (causal) it asked for no newer
        # version; an internal read waiting for exactly this version is done
        served = [e for e in self.readl.values() if e.obj == item.obj and (
            e.tagvec[item.obj - 1] == t if e.clientid == LOCALHOST
            else self.variant == EVENTUAL or e.tagvec[item.obj - 1] <= t)]
        return True, self._answer_reads(served, item.value)

    def encoding(self) -> Tuple[bool, List[Send]]:
        changed = False
        sends: List[Send] = []
        dirty, self._enc_dirty = self._enc_dirty, set()
        # held objects first, then the others, each in index order
        for x in dirty if len(dirty) == 1 else sorted(
                dirty, key=lambda x: (x not in self.objects_here, x)):
            highest = self._highest(x)
            mt = self.m_tagvec[x - 1]
            if highest is None or not mt < highest[0]:
                continue
            if x in self.objects_here:
                ht, hv = highest
                old = self.L[x - 1].get(mt)
                if old is None:
                    # the symbol's version is gone from L[X]: fetch it once
                    if not self._fetching(x, mt):
                        sends += self._fetch(LOCALHOST, self._next_internal_opid(), x)
                        changed = True
                    continue
                self.m_val = self.code.reencode(self.id, x, self.m_val, old, hv)
                dsts = [j for j in self.code.holders[x - 1] if j != self.id]
            else:
                # the symbol does not depend on X: its tag follows the newest
                # version every holder of X has deleted past
                threshold = self._per_server_del_max(x, self.code.holders[x - 1])
                newer = [t for t in self.L[x - 1] if mt < t <= threshold]
                if not newer:
                    continue
                ht = max(newer)
                dsts = self._others
                # tmax's entry goes once the symbol's tag is above it
                if self.tmax[x - 1] == mt and mt in self.L[x - 1]:
                    self._gc_dirty.add(x)
            self.m_tagvec[x - 1] = ht
            self._add_del(x, ht, self.id)
            notice = Del(x, ht)
            sends += [Send("server", j, notice) for j in dsts]
            changed = True
        return changed, sends

    def _per_server_del_max(self, obj: int, servers: Iterable[int]) -> Tag:
        """max(U): the largest tag every listed server has deleted past.

        The zero tag when some listed server has sent no delete notice yet
        (U empty): no notice carries it, and it collects nothing.
        """
        dmax = self._del_max[obj - 1]
        return min([dmax[i - 1] for i in servers])

    def garbage_collection(self) -> Tuple[bool, List[Send]]:
        changed = False
        sends: List[Send] = []
        all_servers = self._servers
        dirty, self._gc_dirty = self._gc_dirty, set()
        for x in dirty if len(dirty) == 1 else sorted(dirty):
            new_tmax = min(self._del_max[x - 1])  # max(U) over all servers
            if new_tmax != self.tmax[x - 1]:
                self.tmax[x - 1] = new_tmax
                changed = True
            tmax = self.tmax[x - 1]
            mtag = self.m_tagvec[x - 1]
            lx = self.L[x - 1]
            doomed = [t for t in lx if t < tmax]
            # tmax itself goes once every server has deleted past the
            # symbol's version, or when the symbol does not depend on X
            if tmax in lx and (
                    (tmax == mtag and max(lx) <= mtag
                     and all((mtag, i) in self.dell[x - 1] for i in all_servers))
                    or (tmax < mtag and x not in self.objects_here)):
                doomed.append(tmax)
            if doomed:
                protected = {e.tagvec[x - 1] for e in self.readl.values()
                             if e.tagvec[x - 1] < mtag}
                for t in doomed:
                    if t not in protected:
                        del lx[t]
                        changed = True
            if x in self.objects_here:
                max_u = self._per_server_del_max(x, self.code.holders[x - 1])
                if self._gc_del_sent[x - 1] != max_u:
                    # only a new max goes out: re-broadcasting the same
                    # notice would only send repeat messages
                    self._gc_del_sent[x - 1] = max_u
                    notice = Del(x, max_u)
                    sends += [Send("server", j, notice) for j in self._others]
                    changed = True
        # a change is due a confirming round, though a second visit to each
        # object finds nothing left to do
        self.round_due |= changed
        return changed, sends

    # -- probes ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise on any violation of the always-true state conditions."""
        for x in self.object_indices():
            if not self.tmax[x - 1] <= self.m_tagvec[x - 1]:
                raise ProtocolInvariantViolation(
                    f"server {self.id}: tmax {self.tmax[x - 1].render()} exceeds "
                    f"symbol tag {self.m_tagvec[x - 1].render()} for X{x}")
        self.check_symbol_legitimacy(self.m_val, tuple(self.m_tagvec))

    def check_symbol_legitimacy(self, symbol: Value, tagvec: TagVec) -> None:
        """Verify a symbol equals the encoding of the writes its tags name.

        The expected symbol is encoded once per tag vector and kept in
        ``_encodings``; a registry entry is never rewritten once its tag
        exists, so it stays valid for the run.  The comparison with
        ``symbol`` is made on every call, so a corrupted symbol under a known
        tag vector is still caught."""
        if self.write_registry is None:
            return
        expect = self._encodings.get(tagvec)
        if expect is None:
            values = []
            for x, t in enumerate(tagvec, 1):
                if t == self.zero_tag:
                    values.append(self.zero_value)
                    continue
                known = self.write_registry.get(t)
                if known is None or known[0] != x:
                    raise ProtocolInvariantViolation(
                        f"server {self.id}: symbol tag {t.render()} names no write on X{x}")
                values.append(known[1])
            expect = self._encodings[tagvec] = self.code.encode_one(self.id, values)
        if expect != symbol:
            raise ProtocolInvariantViolation(
                f"server {self.id}: stored symbol is not the encoding of its tag vector")

    def digest(self) -> tuple:
        """Compact per-transition snapshot used by traces:
        ``(vc, m_tagvec, history sizes, tmax, inqueue size, pending
        reads)``.  It holds only tuples of ints and (immutable) ``Tag``
        objects, so it stays valid after the server moves on; tags are
        rendered as text only when the trace is serialised."""
        return (
            tuple(self.vc),
            tuple(self.m_tagvec),
            tuple(map(len, self.L)),
            tuple(self.tmax),
            sum(map(len, self.inqueue.values())),
            len(self.readl),
        )


# per message type but Del, the name of its handler ``(frm, msg) -> sends``
# (frm: a client id for Write/Read, else a server id), whose delivery always
# counts as a change; the simulator looks the name up on the server at each
# delivery, so wrappers set on the class see every dispatched message.  It
# delivers a Del straight to ``on_del``, looked up the same way.
_HANDLERS = {
    Write: "on_write",
    Read: "on_read",
    App: "on_app",
    ValInq: "on_val_inq",
    ValResp: "on_val_resp",
    ValRespEncoded: "on_val_resp_encoded",
}
