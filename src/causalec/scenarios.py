"""Scenario model: what to simulate, loaded from JSON.

A scenario bundles the code, the latency graph, the protocol variant, the
client population with their home servers, a workload (a fixed script or a
seeded random generator), message-delay behaviour, a halt schedule, and the
step cap.  Validation errors name the offending field path, an unknown
top-level field included, so the CLI can report them usefully.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .coding import LinearCode
from .field import Value
from .latency import LatencyGraph, to_ms
from .server import CAUSAL, VARIANTS

DEFAULT_STEP_CAP = 500_000
# jittered and uniform delays are drawn with float arithmetic on tick counts;
# these bounds keep every product finite
MAX_LATENCY = 1e300
MAX_JITTER = 1e5
TOP_LEVEL_FIELDS = frozenset(["name", "code", "latency_graph", "protocol", "clients",
                              "workload", "delays", "halts", "channel_extra", "step_cap"])


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
        if self.protocol not in VARIANTS:
            raise ScenarioError(f"protocol: must be one of {VARIANTS}, got {self.protocol!r}")
        seen = set()
        for i, c in enumerate(self.clients):
            if c.id < 1:
                raise ScenarioError(f"clients[{i}].id: must be >= 1")
            if c.id in seen:
                raise ScenarioError(f"clients[{i}].id: duplicate client id {c.id}")
            seen.add(c.id)
            if not 1 <= c.home <= self.code.n:
                raise ScenarioError(
                    f"clients[{i}].home: {c.home} out of range 1..{self.code.n}")
        for cid in self.scripts:
            if cid not in seen:
                raise ScenarioError(f"workload.ops: script references unknown client {cid}")
        for srv in self.halts:
            if not 1 <= srv <= self.code.n:
                raise ScenarioError(f"halts: server {srv} out of range 1..{self.code.n}")
        for src, dst in self.channel_extra_ms:
            if not (1 <= src <= self.code.n and 1 <= dst <= self.code.n):
                raise ScenarioError(
                    f"channel_extra: channel {src}->{dst} out of range 1..{self.code.n}")
        if self.random_workload is not None and not self.clients:
            raise ScenarioError("clients: random workload needs at least one client")

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


def _expect(doc: dict, key: str, path: str):
    if key not in doc:
        raise ScenarioError(f"{path}{key}: missing required field")
    return doc[key]


def _number(raw, path: str, low: float = 0.0, high: float = float("inf")) -> float:
    """A JSON number within low..high.  The exact type test rejects booleans
    (an ``int`` subclass) and numeric strings (which ``float`` would parse)."""
    if type(raw) not in (int, float):
        raise ScenarioError(f"{path}: must be a number, got {raw!r}")
    try:
        x = float(raw)
    except OverflowError as e:
        raise ScenarioError(f"{path}: must be a number, got {raw!r}") from e
    if not low <= x <= high:
        bound = f">= {low:g}" if high == float("inf") else f"in {low:g}..{high:g}"
        raise ScenarioError(f"{path}: must be {bound}, got {raw!r}")
    return x


def _integer(raw, path: str, low: float = 0.0, high: float = float("inf")) -> int:
    x = _number(raw, path, low, high)
    if not x.is_integer():
        raise ScenarioError(f"{path}: must be an integer, got {raw!r}")
    return int(x)


def _list(raw, path: str) -> list:
    if not isinstance(raw, list):
        raise ScenarioError(f"{path}: must be a list, got {raw!r}")
    return raw


def _ticks(raw, path: str) -> int:
    """A non-negative time in latency units, as integer ticks."""
    x = _number(raw, path)
    try:
        return to_ms(x)
    except (ArithmeticError, ValueError) as e:  # too fine, or infinite
        raise ScenarioError(f"{path}: {e}") from e


def scenario_from_json(doc) -> Scenario:
    """Parse a scenario document (dict, JSON text, or file path)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError:
            with open(doc) as fh:
                doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError(": scenario must be a JSON object")
    for key in doc:
        if key not in TOP_LEVEL_FIELDS:
            raise ScenarioError(f"{key}: unknown field")

    code_doc = _expect(doc, "code", "")
    if not isinstance(code_doc, dict):
        raise ScenarioError("code: must be a JSON object")
    try:
        code = LinearCode.from_json(code_doc)
    except ValueError as e:
        raise ScenarioError(f"code.{e}") from e
    try:
        code.check_recoverable()
    except ValueError as e:
        raise ScenarioError(f"code: {e}") from e

    graph_doc = _expect(doc, "latency_graph", "")
    if not isinstance(graph_doc, dict):
        raise ScenarioError(f"latency_graph: must be an object, got {graph_doc!r}")
    n = _integer(_expect(graph_doc, "n", "latency_graph."), "latency_graph.n", 1)
    weights = {}
    edges = _list(_expect(graph_doc, "edges", "latency_graph."), "latency_graph.edges")
    for i, e in enumerate(edges):
        path = f"latency_graph.edges[{i}]"
        if not isinstance(e, list) or len(e) != 3:
            raise ScenarioError(f"{path}: must be [i, j, weight], got {e!r}")
        weights[_integer(e[0], path + "[0]", 1), _integer(e[1], path + "[1]", 1)] = \
            _number(e[2], path + "[2]", high=MAX_LATENCY)
    try:
        graph = LatencyGraph(n, weights)
    except ValueError as e:  # a bad edge set
        raise ScenarioError(f"latency_graph: {e}") from e

    clients = []
    for i, c in enumerate(_list(doc.get("clients", []), "clients")):
        if not isinstance(c, dict) or "id" not in c or "home" not in c:
            raise ScenarioError(f"clients[{i}]: needs fields 'id' and 'home'")
        clients.append(ClientSpec(_integer(c["id"], f"clients[{i}].id", 1),
                                  _integer(c["home"], f"clients[{i}].home", 1)))

    random_workload = None
    scripts: Dict[int, List[ScriptOp]] = {}
    w = doc.get("workload")
    if w is not None:
        if not isinstance(w, dict):
            raise ScenarioError(f"workload: must be an object, got {w!r}")
        kind = _expect(w, "kind", "workload.")
        if kind == "random":
            ops = _expect(w, "ops", "workload.")
            if type(ops) is not int or ops < 0:
                raise ScenarioError("workload.ops: must be a non-negative integer")
            think = w.get("think_ms", [0, 2000])
            if not isinstance(think, (list, tuple)) or len(think) != 2:
                raise ScenarioError("workload.think_ms: must be a [low, high] pair")
            low = _integer(think[0], "workload.think_ms[0]")
            high = _integer(think[1], "workload.think_ms[1]", low)
            random_workload = RandomWorkload(
                ops=ops,
                read_fraction=_number(w.get("read_fraction", 0.5),
                                      "workload.read_fraction", 0, 1),
                think_ms=(low, high),
            )
        elif kind == "script":
            for i, op in enumerate(_list(_expect(w, "ops", "workload."), "workload.ops")):
                path = f"workload.ops[{i}]"
                if not isinstance(op, dict):
                    raise ScenarioError(f"{path}: must be an object")
                for fld in ("client", "op", "object"):
                    if fld not in op:
                        raise ScenarioError(f"{path}.{fld}: missing required field")
                kind_op = op["op"]
                if kind_op not in ("read", "write"):
                    raise ScenarioError(f"{path}.op: must be 'read' or 'write'")
                value = None
                if kind_op == "write":
                    raw = _expect(op, "value", path + ".")
                    if isinstance(raw, int):
                        raw = [raw]
                    if not isinstance(raw, list) or not set(map(type, raw)) <= {int}:
                        raise ScenarioError(
                            f"{path}.value: must be an integer or a list of integers")
                    value = code.field.value(raw)
                    if len(value) != code.value_len:
                        raise ScenarioError(
                            f"{path}.value: length {len(value)} != code value_len {code.value_len}")
                scripts.setdefault(_integer(op["client"], f"{path}.client", 1), []).append(
                    ScriptOp(_ticks(op.get("time", 0), f"{path}.time"), kind_op,
                             _integer(op["object"], f"{path}.object", 1, code.k), value))
        else:
            raise ScenarioError(f"workload.kind: unknown kind {kind!r}")

    delays = doc.get("delays", {"kind": "graph"})
    if not isinstance(delays, dict):
        raise ScenarioError(f"delays: must be an object, got {delays!r}")
    if delays.get("kind") not in ("graph", "jitter", "uniform"):
        raise ScenarioError(f"delays.kind: unknown kind {delays.get('kind')!r}")
    if delays.get("kind") == "jitter":
        _number(delays.get("factor", 1), "delays.factor", 1, MAX_JITTER)
    elif delays.get("kind") == "uniform":
        _number(delays.get("max", 1), "delays.max",
                _number(delays.get("min", 0), "delays.min", high=MAX_LATENCY), MAX_LATENCY)

    halts = {}
    for i, h in enumerate(_list(doc.get("halts", []), "halts")):
        if not isinstance(h, dict) or "server" not in h or "time" not in h:
            raise ScenarioError(f"halts[{i}]: needs fields 'server' and 'time'")
        srv = _integer(h["server"], f"halts[{i}].server", 1, code.n)
        if srv in halts:
            raise ScenarioError(f"halts[{i}].server: server {srv} already halts")
        halts[srv] = _ticks(h["time"], f"halts[{i}].time")

    extra = {}
    for i, e in enumerate(_list(doc.get("channel_extra", []), "channel_extra")):
        path = f"channel_extra[{i}]"
        if not isinstance(e, dict):
            raise ScenarioError(f"{path}: needs fields 'from', 'to' and 'extra'")
        for fld in ("from", "to", "extra"):
            if fld not in e:
                raise ScenarioError(f"{path}.{fld}: missing required field")
        chan = (_integer(e["from"], f"{path}.from", 1, code.n),
                _integer(e["to"], f"{path}.to", 1, code.n))
        if chan in extra:
            raise ScenarioError(f"{path}: channel {chan[0]}->{chan[1]} listed twice")
        extra[chan] = _ticks(e["extra"], f"{path}.extra")

    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError(f"name: must be a string, got {name!r}")

    return Scenario(
        name=name,
        code=code,
        graph=graph,
        protocol=doc.get("protocol", CAUSAL),
        clients=clients,
        random_workload=random_workload,
        scripts=scripts,
        delays=delays,
        halts=halts,
        channel_extra_ms=extra,
        step_cap=_integer(doc.get("step_cap", DEFAULT_STEP_CAP), "step_cap", 1),
    )
