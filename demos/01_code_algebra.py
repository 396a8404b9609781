"""A tour of the cross-object code algebra on the 5-server example in
``scenarios/fig1.json``.

Symbols mix the values of different objects, so three of the five servers
hold an object plainly while the other two hold sums.  Run with:

    python demos/01_code_algebra.py
"""

import os

from causalec import scenario_from_json

code = scenario_from_json(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                       "..", "scenarios", "fig1.json")).code

print("coefficient matrix (rows = servers, columns = objects):")
for s, row in enumerate(code.coeffs, start=1):
    terms = " + ".join(f"{c if c != 1 else ''}x{k}" for k, c in enumerate(row, 1) if c)
    print(f"  server {s}: {list(row)}   symbol = {terms or '0'}")

x = [(1,), (2,), (3,)]
symbols = code.encode(x)
print(f"\nobject values x = {[v[0] for v in x]} over GF(7)")
print(f"codeword symbols  = {[s[0] for s in symbols]}")

print("\nminimal recovery sets (any one suffices to read the object):")
for obj in range(1, 4):
    sets = [set(rs.members) for rs in code.minimal_recovery_sets(obj)]
    print(f"  X{obj}: {sets}")

print("\ndecoding X3 from servers {3,4}: y3 - y4 =", end=" ")
rs = code.is_recovery_set({3, 4}, 3)
print(code.decode(3, rs, {3: symbols[2], 4: symbols[3]})[0])

print("\nre-encoding: replace x2=2 with x2=5 in server 4's symbol")
new = code.reencode(4, 2, symbols[3], (2,), (5,))
fresh = code.encode([(1,), (5,), (3,)])[3]
print(f"  updated symbol {new[0]}, fresh encoding {fresh[0]} -> match: {new == fresh}")
