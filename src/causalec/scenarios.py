"""Scenario model: what to simulate, loaded from JSON.

A scenario bundles the code, the latency graph, the protocol variant, the
client population with their home servers, a workload (a fixed script or a
seeded random generator), message-delay behaviour, a halt schedule, and the
step cap.  Validation errors name the offending field path, an unknown
field at any level included, so the CLI can report them usefully.

``scenario_from_json`` (a dict, or the path of a JSON file) checks what only
a document has: JSON types and unknown, missing and duplicate fields.
``Scenario.__post_init__`` checks every other rule, so a scenario built in
code obeys them too: N >= 2, client ids in 1..``PROBE_CLIENT_BASE - 1`` and
homes, halted servers and channels in 1..N (indexed in insertion order), a
code that recovers every object, the random workload, ``step_cap >= 1``,
``delays`` and, through ``_check_op``, each script op.  It names an op
``workload.ops[client 2][0]``; the loader maps that back to the op's place
in the document, ``workload.ops[3]``.
``Scenario.channel_delays`` gives the per-channel tick bounds the simulator
draws from.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .coding import LinearCode
from .field import Value
from .latency import LatencyGraph, to_ms
from .server import CAUSAL, VARIANTS

DEFAULT_STEP_CAP = 500_000
PROBE_CLIENT_BASE = 1_000_000  # probe clients take the ids above; scenario clients stay below
# jittered delays are computed with float arithmetic on tick counts; these
# bounds keep every product finite
MAX_LATENCY = 1e300
MAX_JITTER = 1e5
TOP_LEVEL_FIELDS = frozenset(["name", "code", "latency_graph", "protocol", "clients",
                              "workload", "delays", "halts", "channel_extra", "step_cap"])
# per kind, the fields a ``workload`` or ``delays`` object may have
WORKLOAD_FIELDS = {"random": frozenset(["kind", "ops", "read_fraction", "think_ms"]),
                   "script": frozenset(["kind", "ops"])}
DELAY_FIELDS = {"graph": frozenset(["kind"]), "jitter": frozenset(["kind", "factor"])}


class ScenarioError(ValueError):
    """Malformed scenario; the message starts with the field path."""


@dataclass
class ScriptOp:
    time_ms: int
    kind: str  # "read" | "write"
    obj: int
    value: Optional[Value] = None


@dataclass
class ClientSpec:
    id: int
    home: int


@dataclass
class RandomWorkload:
    ops: int
    read_fraction: float = 0.5
    think_ms: Tuple[int, int] = (0, 2000)


@dataclass
class Scenario:
    name: str
    code: LinearCode
    graph: LatencyGraph
    protocol: str = CAUSAL
    clients: List[ClientSpec] = field(default_factory=list)
    random_workload: Optional[RandomWorkload] = None
    scripts: Dict[int, List[ScriptOp]] = field(default_factory=dict)  # client -> ops
    delays: dict = field(default_factory=lambda: {"kind": "graph"})
    halts: Dict[int, int] = field(default_factory=dict)  # server -> halt time (ms)
    channel_extra_ms: Dict[Tuple[int, int], int] = field(default_factory=dict)
    step_cap: int = DEFAULT_STEP_CAP

    def __post_init__(self):
        if self.code.n != self.graph.n:
            raise ScenarioError(
                f"latency_graph.n: {self.graph.n} servers but the code has {self.code.n} rows")
        if self.code.n == 1:
            raise ScenarioError("latency_graph.n: a store needs at least 2 servers, got 1")
        try:
            self.code.check_recoverable()
        except ValueError as e:
            raise ScenarioError(f"code: {e}") from e
        if self.protocol not in VARIANTS:
            raise ScenarioError(f"protocol: must be one of {VARIANTS}, got {self.protocol!r}")
        n = self.code.n
        seen = set()
        for i, c in enumerate(self.clients):
            _integer(c.id, f"clients[{i}].id", 1, PROBE_CLIENT_BASE - 1)
            if c.id in seen:
                raise ScenarioError(f"clients[{i}].id: duplicate client id {c.id}")
            seen.add(c.id)
            _integer(c.home, f"clients[{i}].home", 1, n)
        for cid, ops in self.scripts.items():
            if cid not in seen:
                raise ScenarioError(f"workload.ops: script references unknown client {cid}")
            for j, op in enumerate(ops):
                _check_op(op, self.code, f"workload.ops[client {cid}][{j}]")
        for i, srv in enumerate(self.halts):
            _integer(srv, f"halts[{i}].server", 1, n)
        for i, (src, dst) in enumerate(self.channel_extra_ms):
            _integer(src, f"channel_extra[{i}].from", 1, n)
            _integer(dst, f"channel_extra[{i}].to", 1, n)
        rw = self.random_workload
        if rw is not None:
            if not self.clients:
                raise ScenarioError("clients: random workload needs at least one client")
            if type(rw.ops) is not int or rw.ops < 0:
                raise ScenarioError("workload.ops: must be a non-negative integer")
            _number(rw.read_fraction, "workload.read_fraction", 0, 1)
            think = rw.think_ms
            if not isinstance(think, (list, tuple)) or len(think) != 2:
                raise ScenarioError("workload.think_ms: must be a [low, high] pair")
            low = _integer(think[0], "workload.think_ms[0]", 0)
            self.random_workload = replace(
                rw, think_ms=(low, _integer(think[1], "workload.think_ms[1]", low)))
        _integer(self.step_cap, "step_cap", 1)
        _kind_object(self.delays, "delays", DELAY_FIELDS)
        # a graph delay has no factor field, so it reads as 1
        self._jitter = _number(self.delays.get("factor", 1), "delays.factor", 1, MAX_JITTER)

    def channel_delays(self) -> Tuple[bool, Dict[Tuple[int, int], Tuple[int, int]]]:
        """Whether each server message draws its delay (``jitter``) and, per
        server channel, the delay bounds in ticks with the channel's fixed
        extra delay added.  Built for each simulation rather than kept, so a
        scenario holds no per-channel table."""
        jitter = self.delays["kind"] == "jitter"
        bounds = {}
        servers = range(1, self.code.n + 1)
        for src in servers:
            for dst in servers:
                base = self.graph.delay_ms(src, dst)
                hi = max(base, int(base * self._jitter)) if jitter else base
                extra = self.channel_extra_ms.get((src, dst), 0)
                bounds[src, dst] = (base + extra, hi + extra)
        return jitter, bounds

    # -- workload materialisation -------------------------------------------

    def build_scripts(self, seed: int) -> Dict[int, List[ScriptOp]]:
        """Per-client operation scripts; random workloads draw from the seed."""
        if self.random_workload is None:
            return {c.id: list(self.scripts.get(c.id, [])) for c in self.clients}
        rw = self.random_workload
        rng = random.Random(0x5EED ^ (seed * 1_000_003))
        scripts: Dict[int, List[ScriptOp]] = {c.id: [] for c in self.clients}
        clock: Dict[int, int] = {c.id: 0 for c in self.clients}
        p = self.code.field.p
        length = self.code.value_len
        for _ in range(rw.ops):
            c = rng.choice(self.clients).id
            gap = rng.randint(rw.think_ms[0], rw.think_ms[1])
            clock[c] += gap
            obj = rng.randint(1, self.code.k)
            if rng.random() < rw.read_fraction:
                scripts[c].append(ScriptOp(clock[c], "read", obj))
            else:
                value = tuple(rng.randrange(p) for _ in range(length))
                scripts[c].append(ScriptOp(clock[c], "write", obj, value))
        return scripts


def _check_op(op: ScriptOp, code: LinearCode, path: str) -> None:
    """The rules on one script op, named by ``path``: its kind, a write's
    value or a read's none, a time >= 0 and an object in 1..K."""
    value, p = op.value, code.field.p
    if op.kind not in ("read", "write"):
        raise ScenarioError(f"{path}.op: must be 'read' or 'write', got {op.kind!r}")
    if op.kind == "read" and value is not None:
        raise ScenarioError(f"{path}.value: a read has no value, got {value!r}")
    if op.kind == "write" and (
            type(value) is not tuple or len(value) != code.value_len
            or not set(map(type, value)) <= {int} or min(value) < 0 or max(value) >= p):
        raise ScenarioError(f"{path}.value: must be a tuple of value_len {code.value_len} "
                            f"integers in 0..{p - 1}, got {value!r}")
    if type(op.time_ms) is not int or op.time_ms < 0:
        raise ScenarioError(f"{path}.time: must be an integer >= 0, got {op.time_ms!r}")
    if type(op.obj) is not int or not 1 <= op.obj <= code.k:
        raise ScenarioError(f"{path}.object: must be in 1..{code.k}, got {op.obj!r}")


def _expect(doc: dict, key: str, path: str):
    if key not in doc:
        raise ScenarioError(f"{path}{key}: missing required field")
    return doc[key]


def _number(raw, path: str, low: float = 0.0, high: float = float("inf")) -> float:
    """A JSON number within low..high.  The exact type test rejects booleans
    (an ``int`` subclass) and numeric strings (which ``float`` would parse)."""
    if type(raw) not in (int, float) or raw != raw:  # NaN, which JSON text may hold
        raise ScenarioError(f"{path}: must be a number, got {raw!r}")
    try:
        x = float(raw)
    except OverflowError as e:
        raise ScenarioError(f"{path}: must be a number, got {raw!r}") from e
    if not low <= x <= high:
        bound = f">= {low:g}" if high == float("inf") else f"in {low:g}..{high:g}"
        raise ScenarioError(f"{path}: must be {bound}, got {raw!r}")
    return x


def _integer(raw, path: str, low: float = float("-inf"), high: float = float("inf")) -> int:
    x = _number(raw, path, low, high)
    if not x.is_integer():
        raise ScenarioError(f"{path}: must be an integer, got {raw!r}")
    return int(x)


def _list(raw, path: str) -> list:
    if not isinstance(raw, list):
        raise ScenarioError(f"{path}: must be a list, got {raw!r}")
    return raw


def _ticks(raw, path: str) -> int:
    """A time in latency units, at least 0, as integer ticks."""
    x = _number(raw, path)
    try:
        return to_ms(x)
    except (ArithmeticError, ValueError) as e:  # too fine, or infinite
        raise ScenarioError(f"{path}: {e}") from e


def _object(raw, path: str, fields) -> dict:
    """A JSON object with no field outside ``fields``: a misspelt field
    must not leave its default in place unnoticed."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path or 'scenario'}: must be an object, got {raw!r}")
    for key in raw:
        if key not in fields:
            raise ScenarioError(f"{path + '.' if path else ''}{key}: unknown field")
    return raw


def _kind_object(raw, path: str, kinds: dict) -> str:
    """The kind of an object whose ``kind`` field picks the fields it may have."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: must be an object, got {raw!r}")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioError(f"{path}.kind: unknown kind {kind!r}")
    _object(raw, path, kinds[kind])
    return kind


def scenario_from_json(doc) -> Scenario:
    """Parse a scenario document: a dict, or the path of a JSON file, which
    is UTF-8 whatever the locale."""
    if isinstance(doc, str):
        with open(doc, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            # bytes that are not UTF-8 or not JSON, nesting deeper than the
            # recursion limit, an integer longer than int() converts
            except (RecursionError, ValueError) as e:
                raise ScenarioError(f"scenario: {e}") from e
    _object(doc, "", TOP_LEVEL_FIELDS)

    code_doc = _object(_expect(doc, "code", ""), "code", {"field_p", "value_len", "coeffs"})
    try:
        code = LinearCode.from_json(code_doc)
    except ValueError as e:
        raise ScenarioError(f"code.{e}") from e

    graph_doc = _object(_expect(doc, "latency_graph", ""), "latency_graph", {"n", "edges"})
    n = _integer(_expect(graph_doc, "n", "latency_graph."), "latency_graph.n", 1)
    weights = {}
    edges = _list(_expect(graph_doc, "edges", "latency_graph."), "latency_graph.edges")
    for i, e in enumerate(edges):
        path = f"latency_graph.edges[{i}]"
        if not isinstance(e, list) or len(e) != 3:
            raise ScenarioError(f"{path}: must be [i, j, weight], got {e!r}")
        pair = _integer(e[0], path + "[0]", 1), _integer(e[1], path + "[1]", 1)
        if pair in weights or pair[::-1] in weights:
            raise ScenarioError(f"{path}: edge ({pair[0]},{pair[1]}) listed twice")
        weights[pair] = _number(e[2], path + "[2]", high=MAX_LATENCY)
    try:
        graph = LatencyGraph(n, weights)
    except ValueError as e:  # a bad edge set
        raise ScenarioError(f"latency_graph: {e}") from e

    clients = []
    for i, c in enumerate(_list(doc.get("clients", []), "clients")):
        path = f"clients[{i}]"
        _object(c, path, {"id", "home"})
        clients.append(ClientSpec(_integer(_expect(c, "id", path + "."), path + ".id"),
                                  _integer(_expect(c, "home", path + "."), path + ".home")))

    random_workload = None
    scripts: Dict[int, List[ScriptOp]] = {}
    places: Dict[int, List[int]] = {}  # client -> document index of each of its ops
    w = doc.get("workload")
    if w is not None:
        kind = _kind_object(w, "workload", WORKLOAD_FIELDS)
        if kind == "random":
            random_workload = RandomWorkload(_expect(w, "ops", "workload."),
                                             w.get("read_fraction", 0.5),
                                             w.get("think_ms", (0, 2000)))
        else:
            for i, op in enumerate(_list(_expect(w, "ops", "workload."), "workload.ops")):
                path = f"workload.ops[{i}]"
                _object(op, path, {"time", "client", "op", "object", "value"})
                for fld in ("client", "op", "object"):
                    _expect(op, fld, path + ".")
                value = None
                if op["op"] == "write" or "value" in op:  # a read's value is an error
                    value = _expect(op, "value", path + ".")
                    value = tuple(value) if isinstance(value, list) else (value,)
                cid = _integer(op["client"], f"{path}.client")
                scripts.setdefault(cid, []).append(ScriptOp(
                    _ticks(op.get("time", 0), f"{path}.time"), op["op"],
                    _integer(op["object"], f"{path}.object"), value))
                places.setdefault(cid, []).append(i)

    halts = {}
    for i, h in enumerate(_list(doc.get("halts", []), "halts")):
        path = f"halts[{i}]"
        _object(h, path, {"server", "time"})
        srv = _integer(_expect(h, "server", path + "."), path + ".server")
        if srv in halts:
            raise ScenarioError(f"{path}.server: server {srv} already halts")
        halts[srv] = _ticks(_expect(h, "time", path + "."), path + ".time")

    extra = {}
    for i, e in enumerate(_list(doc.get("channel_extra", []), "channel_extra")):
        path = f"channel_extra[{i}]"
        _object(e, path, {"from", "to", "extra"})
        for fld in ("from", "to", "extra"):
            _expect(e, fld, path + ".")
        chan = _integer(e["from"], f"{path}.from"), _integer(e["to"], f"{path}.to")
        if chan in extra:
            raise ScenarioError(f"{path}: channel {chan[0]}->{chan[1]} listed twice")
        extra[chan] = _ticks(e["extra"], f"{path}.extra")

    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError(f"name: must be a string, got {name!r}")

    try:
        return Scenario(
            name=name,
            code=code,
            graph=graph,
            protocol=doc.get("protocol", CAUSAL),
            clients=clients,
            random_workload=random_workload,
            scripts=scripts,
            delays=doc.get("delays", {"kind": "graph"}),
            halts=halts,
            channel_extra_ms=extra,
            step_cap=_integer(doc.get("step_cap", DEFAULT_STEP_CAP), "step_cap"),
        )
    except ScenarioError as e:  # name a script op by its place in the document
        at = re.match(r"workload\.ops\[client (\d+)\]\[(\d+)\]", str(e))
        if at is None:
            raise
        i = places[int(at[1])][int(at[2])]
        raise ScenarioError(f"workload.ops[{i}]{str(e)[at.end():]}") from None
