"""Benchmark workloads: seeded inputs for the checked runs, and the verdict rules.

Each workload turns a workload seed into a fixed list of ``Job``s, one per
checked run.  A checked run is ``simnet.run(..., probes=True)`` followed by
``check_all`` (and ``trace_sha256()`` when the job collects the program's
trace).  ``causalec`` is imported inside the builders, never at module level,
so that set-up can time a fresh import of the package before every build.

Why each workload exists:

* ``fuzz``   -- a fixed block of the acceptance battery's tiny systems, the
  seed varying their traffic and schedules, where per-run fixed cost
  (recovery-set enumeration, server construction, checking) dominates.
* ``scale``  -- fixed N/K = 8/4 and 10/5 random codes with four fixed
  100-op scripts each, the seed driving the network, where delete-notice
  traffic and the internal actions dominate.
* ``coded``  -- dense GF(257) codes with 32-element values and phased
  workloads, so every workload read takes the coded ValInq path.
* ``replay`` -- the bundled scenario files with trace collection on, the only
  workload that exercises digests, message rendering and trace hashing.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import random
from typing import Dict, List, NamedTuple, Optional

CAUSAL = "causalec"
EVENTUAL = "eventualec"

FUZZ_RUNS = 200          # fuzz seeds per workload seed, alternating protocols
SCALE_SIZES = ((8, 4), (10, 5))
SCALE_OPS = 100
SCALE_DRAWS = 4          # fixed traffic scripts per size
CODED_DOCS = 3           # coded scenario documents per workload seed
REPLAY_SEEDS = 8         # run seeds per bundled scenario and protocol


class Job(NamedTuple):
    """One checked run: a parsed scenario, its run seed and protocol."""

    scenario: object
    seed: int
    protocol: str
    collect_trace: bool


def broken_promises(protocol: str, verdicts) -> List[str]:
    """Names of the verdicts a protocol variant promises that failed outright.

    ``causalec`` promises every checker; ``eventualec`` every checker but
    ``causal``, since the eventual variant gives up exactly causal ordering.
    Inconclusive verdicts (a halted server, no quiescence) break no promise.
    """
    return [v.name for v in verdicts
            if not (protocol == EVENTUAL and v.name == "causal")
            and not v.passed and not v.inconclusive]


def fresh(scenario):
    """The scenario with a newly built code object.

    A code caches its minimal recovery sets; users pay that enumeration on
    every run, so each repeated checked run gets an uncached code.
    """
    from causalec.coding import LinearCode

    code = scenario.code
    return dataclasses.replace(
        scenario, code=LinearCode(code.field, code.coeffs, value_len=code.value_len))


# -- builders --------------------------------------------------------------------


def _fuzz(seed: int, root: str) -> List[Job]:
    from causalec import harness

    # The systems are one fixed block of fuzz_scenario draws; the workload
    # seed varies their operation scripts and network schedules.  Which
    # systems are drawn (N from 2 to 5, halts or not) moves the median run
    # time by a fifth from block to block, which would drown the comparison.
    jobs = []
    for i in range(FUZZ_RUNS):
        s = seed * FUZZ_RUNS + i
        sc = harness.fuzz_scenario(i)
        sc.build_scripts(s)
        jobs.append(Job(sc, s, CAUSAL if i % 2 == 0 else EVENTUAL, False))
    return jobs


def _scale(seed: int, root: str) -> List[Job]:
    from causalec import harness
    from causalec.latency import LatencyGraph
    from causalec.scenarios import ClientSpec, RandomWorkload, Scenario

    jobs = []
    for n, k in SCALE_SIZES:
        # The system (code and graph) is one fixed random_code draw per size.
        # Code structure alone moves per-transition cost by up to 2x from
        # draw to draw, which would drown the run-to-run comparison this
        # workload exists for.  Runs are kept under half a second at
        # reference speed, so that the host speed sampled around and during
        # each (see hostspeed.py) fits it; 12/6, whose recovery-set
        # enumeration alone takes a second, is left out for that reason.
        rng = random.Random(0x5CA1E + n)
        code = harness.random_code(rng, n, k)
        edges = {(i, j): rng.randint(500, 5000) / 1000
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        sc = Scenario(
            name=f"scale-{n}-{k}", code=code, graph=LatencyGraph(n, edges),
            protocol=CAUSAL,
            clients=[ClientSpec(i, i) for i in range(1, n + 1)],
            random_workload=RandomWorkload(ops=SCALE_OPS, read_fraction=0.5),
            delays={"kind": "jitter", "factor": 2})
        # The traffic is fixed too, one script draw per job; the workload
        # seed drives the network schedule, which moves a run's transition
        # count far less than a new draw of the traffic does.
        for d in range(SCALE_DRAWS):
            scripted = dataclasses.replace(
                sc, name=f"{sc.name}-{d}", random_workload=None,
                scripts=sc.build_scripts(0x5CA1E + d))
            jobs.append(Job(scripted, seed * SCALE_DRAWS + d, CAUSAL, False))
    return jobs


def coded_doc(rng: random.Random, name: str) -> dict:
    """A phased script over a dense N=8, K=4 code on GF(257), value_len 32.

    Write bursts on every object alternate with read phases that start only
    after history has drained, so reads find empty version lists and go to
    the coded path.  A few writes inside each read phase, on the one object
    that phase does not read, leave the responders' symbols at different
    versions of it, so responses must be re-encoded before decoding.
    """
    n, k, p, length = 8, 4, 257, 32
    coeffs = [[rng.randint(1, p - 1) for _ in range(k)] for _ in range(n)]
    edges = [[i, j, rng.randint(1000, 4000) / 1000]
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    ops = []
    t = 0.0

    def write(time, client, obj):
        ops.append({"time": round(time, 3), "client": client, "op": "write",
                    "object": obj, "value": [rng.randrange(p) for _ in range(length)]})

    for phase in range(6):
        for c in range(1, n + 1):
            for w in range(2):
                write(t + 0.5 * w, c, 1 + (c + w + phase) % k)
        t += 150.0  # enough for delete notices to empty every history list
        skew = 1 + phase % k
        readable = [x for x in range(1, k + 1) if x != skew]
        for c in range(1, n + 1):
            for r in range(4):
                ops.append({"time": round(t + 25.0 * r, 3), "client": c, "op": "read",
                            "object": rng.choice(readable)})
        write(t + 10.0, rng.randint(1, n), skew)
        write(t + 40.0, rng.randint(1, n), skew)
        t += 250.0
    return {
        "name": name,
        "code": {"field_p": p, "value_len": length, "coeffs": coeffs},
        "latency_graph": {"n": n, "edges": edges},
        "protocol": CAUSAL,
        "clients": [{"id": c, "home": c} for c in range(1, n + 1)],
        "workload": {"kind": "script", "ops": ops},
        "delays": {"kind": "jitter", "factor": 2},
        "halts": [],
    }


def _coded(seed: int, root: str) -> List[Job]:
    from causalec import scenarios

    rng = random.Random(0xC0DED ^ (seed * 0x9E3779B1))
    jobs = []
    for d in range(CODED_DOCS):
        sc = scenarios.scenario_from_json(coded_doc(rng, f"coded-{seed}-{d}"))
        sc.code.check_recoverable()
        sc.build_scripts(seed)
        jobs.append(Job(sc, seed, CAUSAL, False))
    return jobs


def _replay(seed: int, root: str) -> List[Job]:
    from causalec import scenarios

    files = sorted(glob.glob(os.path.join(root, "scenarios", "*.json")))
    if not files:
        raise FileNotFoundError(f"no scenario files under {os.path.join(root, 'scenarios')}")
    parsed = [scenarios.scenario_from_json(path) for path in files]
    jobs = []
    for i in range(REPLAY_SEEDS):
        s = seed * REPLAY_SEEDS + i
        for sc in parsed:
            sc.build_scripts(s)
            for protocol in (CAUSAL, EVENTUAL):
                jobs.append(Job(sc, s, protocol, True))
    return jobs


BUILDERS = {"fuzz": _fuzz, "scale": _scale, "coded": _coded, "replay": _replay}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, root: str) -> List[Job]:
    """Every job of one workload seed, generated and parsed up front."""
    return BUILDERS[workload](seed, root)


def differential_split(root: str) -> Optional[str]:
    """None when the crafted ``ev_differential`` schedule splits the checker:
    ``causal`` passes under causalec and fails under eventualec.  Otherwise a
    description of the mismatch.  This catches a checker that passes anything.
    """
    from causalec.checker import check_causal
    from causalec.scenarios import scenario_from_json
    from causalec.simnet import run

    sc = scenario_from_json(os.path.join(root, "scenarios", "ev_differential.json"))
    got: Dict[str, bool] = {
        protocol: check_causal(run(fresh(sc), 0, protocol=protocol,
                                   collect_trace=False, probes=True)).passed
        for protocol in (CAUSAL, EVENTUAL)}
    if got[CAUSAL] and not got[EVENTUAL]:
        return None
    return f"ev_differential causal verdicts {got}, want causalec pass and eventualec fail"
