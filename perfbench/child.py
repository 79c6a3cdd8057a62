"""One `tridg run` invocation in a fresh process, with its clocks.

    python3 perfbench/child.py '<json spec>'

The spec gives the checkout root, the `tridg run` arguments and whether to
trace the layers. The process calls the user's entry point,
`tridg.cli.main(["run", ...])`, and prints one JSON object: the exit code,
the clock reads relative to the invocation, the peak RSS and, when traced,
the spans and the memory retained by the operator tables.

The invocation starts just before `import tridg`, so the solver's own import
counts in `wall_s` and `setup_s`; numpy is loaded before the clock starts.
"""

import json
import os
import resource
import sys
import time

import numpy as np  # not the solver: imported before the clock starts

from tracer import BOUNDARY, LAYERS, Tracer


def retained_bytes(obj, seen, depth=0):
    """Bytes of the distinct numpy arrays reachable through containers."""
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        if id(base) in seen:
            return 0
        seen.add(id(base))
        return base.nbytes
    if depth > 3:
        return 0
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    else:
        return 0
    return sum(retained_bytes(v, seen, depth + 1) for v in items)


def main(spec):
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    t0 = time.perf_counter()
    import tridg
    import tridg.cli

    tracer = Tracer()
    setup_bytes = []
    if spec["traced"]:
        tracer.install(tridg, BOUNDARY + LAYERS)
        traced_init = tridg.dg.SpatialOperator.__init__

        def init_and_measure(op, *args, **kwargs):
            traced_init(op, *args, **kwargs)
            setup_bytes.append(retained_bytes(vars(op), set()))

        tridg.dg.SpatialOperator.__init__ = init_and_measure
    else:
        tracer.install(tridg, BOUNDARY)

    code = tridg.cli.main(spec["argv"])
    t1 = time.perf_counter()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans = [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]
    return {
        "exit_code": code,
        "wall_s": t1 - t0,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_mb": sum(setup_bytes) / 1e6,
        "spans": spans,
        "tridg_file": tridg.__file__,
    }


if __name__ == "__main__":
    out = main(json.loads(sys.argv[1]))
    sys.stdout.write("\n" + json.dumps(out) + "\n")
