"""The bundled scenario documents, read from the committed ``scenarios/*.json``.

``NAMES`` lists them by file stem, sorted.  ``doc(name)`` parses the file
afresh on each call, so a test may edit what it gets.  The worked example's
coefficients and edge weights come from ``fig1.json``; the alternate
placement's coefficients from ``appendix_a.json``.
"""

import glob
import json
import os

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "scenarios")
NAMES = sorted(os.path.basename(path)[:-len(".json")]
               for path in glob.glob(os.path.join(SCENARIOS, "*.json")))


def path(name: str) -> str:
    return os.path.join(SCENARIOS, f"{name}.json")


def doc(name: str) -> dict:
    with open(path(name), encoding="utf-8") as fh:
        return json.load(fh)


FIG1_COEFFS = doc("fig1")["code"]["coeffs"]
ALT_COEFFS = doc("appendix_a")["code"]["coeffs"]
FIG1_EDGES = doc("fig1")["latency_graph"]["edges"]
