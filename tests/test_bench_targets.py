"""Every function ``bench/spans.py`` wraps must exist in the package.

The benchmark patches causalec functions by name from outside; renaming or
deleting one would break it without failing any other test.  The module is
loaded by path with bytecode writing off, so no cache lands in ``bench/``.
"""

import importlib
import importlib.util
import os
import sys

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_span_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for module, owner, fn, _name in targets:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner, None)
        if not callable(getattr(holder, fn, None)):
            missing.append(f"{module}:{owner or ''}.{fn}")
    assert not missing
