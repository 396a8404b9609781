"""Causally consistent cross-object erasure-coded storage, simulated and checked.

Servers store codeword symbols mixing several objects' values; writes return
after purely local steps, reads decode from any live recovery set, and a
garbage-collection protocol drains version history once delete notices prove
it safe.  Everything runs on a deterministic discrete-event network, and
trace checkers verify causal consistency, convergence, storage, and the
state invariants on every run.
"""

from types import ModuleType as _Module

from .checker import (
    Verdict,
    all_passed,
    check_all,
    check_causal,
    check_eventual,
    check_locality_and_liveness,
    check_storage,
    probe_invariants,
    revalidate_witness,
)
from .coding import LinearCode, RecoverySet
from .field import PrimeField, Value
from .latency import (
    LatencyGraph,
    LatencyReport,
    ReplicationReport,
    analyze_latency,
    replication_baseline,
)
from .scenarios import ClientSpec, RandomWorkload, Scenario, ScenarioError, scenario_from_json
from .server import CAUSAL, EVENTUAL, Server
from .simnet import RunResult, Simulation, run
from .tags import LOCALHOST, ProtocolInvariantViolation, Tag, vc_compare, zero_tag

# the public names are the ones imported above; the submodules are not among them
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
