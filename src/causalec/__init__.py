"""Causally consistent cross-object erasure-coded storage, simulated and checked.

Servers store codeword symbols mixing several objects' values; writes return
after purely local steps, reads decode from any live recovery set, and a
garbage-collection protocol drains version history once delete notices prove
it safe.  Everything runs on a deterministic discrete-event network, and
trace checkers verify causal consistency, convergence, storage, and the
state invariants on every run.
"""

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
from .client import Client, WellFormednessError
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

__all__ = [
    "CAUSAL",
    "Client",
    "ClientSpec",
    "EVENTUAL",
    "LOCALHOST",
    "LatencyGraph",
    "LatencyReport",
    "LinearCode",
    "PrimeField",
    "ProtocolInvariantViolation",
    "RandomWorkload",
    "RecoverySet",
    "ReplicationReport",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "Server",
    "Simulation",
    "Tag",
    "Value",
    "Verdict",
    "WellFormednessError",
    "all_passed",
    "analyze_latency",
    "check_all",
    "check_causal",
    "check_eventual",
    "check_locality_and_liveness",
    "check_storage",
    "probe_invariants",
    "replication_baseline",
    "revalidate_witness",
    "run",
    "scenario_from_json",
    "vc_compare",
    "zero_tag",
]
