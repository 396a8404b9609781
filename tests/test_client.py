"""Client automaton: one outstanding operation, opid bookkeeping."""

import pytest

from causalec.client import Client, WellFormednessError
from causalec.coding import LinearCode
from causalec.field import PrimeField
from causalec.latency import LatencyGraph
from causalec.messages import Read, ReadReturn, Write, WriteReturnAck
from causalec.scenarios import ClientSpec, Scenario, ScriptOp
from causalec.simnet import run


def test_write_invocation_targets_home():
    c = Client(7, home=1)
    opid, send = c.invoke("write", 1, (5,))
    assert opid == (7, 1) and c.pending == opid
    assert send.kind == "server" and send.dst == 1
    assert send.msg == Write((7, 1), 1, (5,))


def test_double_invocation_rejected():
    c = Client(7, home=1)
    c.invoke("write", 1, (5,))
    with pytest.raises(WellFormednessError):
        c.invoke("read", 1)
    with pytest.raises(WellFormednessError):
        c.invoke("write", 1, (6,))


def test_opid_counter_advances_after_completion():
    c = Client(7, home=1)
    opid, _ = c.invoke("write", 1, (5,))
    assert c.on_server_message(WriteReturnAck(opid)) == opid
    opid2, _ = c.invoke("write", 1, (6,))
    assert opid2 == (7, 2)


def test_read_completion_carries_value():
    # the client only names the completed read; its value travels in the
    # ReadReturn, from which the simulator records it
    c = Client(7, home=2)
    opid, send = c.invoke("read", 3)
    assert send.dst == 2 and send.msg == Read(opid, 3)
    assert c.on_server_message(ReadReturn(opid, (4,))) == opid
    assert c.pending is None
    sc = Scenario(name="t", code=LinearCode(PrimeField(7), [[1], [1]]),
                  graph=LatencyGraph(2, {(1, 2): 1}), clients=[ClientSpec(7, 2)],
                  scripts={7: [ScriptOp(0, "write", 1, (4,)), ScriptOp(1000, "read", 1)]})
    write, read = run(sc, seed=0).operation_list()
    assert (read.kind, read.obj, read.value) == ("read", 1, (4,))
    assert (write.kind, write.value) == ("write", (4,))


def test_stale_response_dropped():
    c = Client(7, home=1)
    opid, _ = c.invoke("read", 1)
    assert c.on_server_message(ReadReturn((7, 99), (1,))) is None
    assert c.pending == opid
    assert c.on_server_message(ReadReturn(opid, (1,))) == opid


def test_client_id_zero_reserved():
    with pytest.raises(ValueError):
        Client(0, home=1)
