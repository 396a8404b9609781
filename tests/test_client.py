"""Client behaviour inside the simulator: invokes go home, opids count per
client, and client id 0 is reserved."""

import pytest

from causalec.coding import LinearCode
from causalec.field import PrimeField
from causalec.latency import LatencyGraph
from causalec.messages import Write
from causalec.scenarios import ClientSpec, Scenario, ScriptOp
from causalec.simnet import run


def _scenario(clients, scripts):
    return Scenario(name="t", code=LinearCode(PrimeField(7), [[1], [1]]),
                    graph=LatencyGraph(2, {(1, 2): 1}), clients=clients, scripts=scripts)


def test_write_invocation_targets_home():
    sc = _scenario([ClientSpec(7, 1)], {7: [ScriptOp(0, "write", 1, (5,))]})
    r = run(sc, seed=0)
    (invoke,) = [rec for rec in r.trace if rec.event[0] == "invoke"]
    assert invoke.node == "c7" and invoke.event == ("invoke", "write", 1, (5,))
    assert invoke.emitted == (("server", 1, Write((7, 1), 1, (5,))),)
    assert r.ops[(7, 1)].completed


def test_opid_counter_advances_after_completion():
    sc = _scenario([ClientSpec(7, 1)], {7: [ScriptOp(0, "write", 1, (5,)),
                                            ScriptOp(0, "write", 1, (6,))]})
    first, second = run(sc, seed=0).operation_list()
    assert (first.opid, first.value) == ((7, 1), (5,))
    assert (second.opid, second.value) == ((7, 2), (6,))
    # the second write is invoked only once the first has its response
    assert first.completed and second.t_invoke >= first.t_response


def test_client_id_zero_reserved():
    with pytest.raises(ValueError):
        _scenario([ClientSpec(0, 1)], {0: [ScriptOp(0, "write", 1, (5,))]})
