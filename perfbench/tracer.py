"""Span recording around the solver's public calls, from outside its source.

A `Tracer` replaces a function or method with a wrapper that records a span
(name, start, end, parent) per call. Spans stay in memory; the caller writes
them out when the run ends. The solver's source is not edited.

Untraced runs install only the boundary wrappers, so the clock is read only
at the entry into and return from `timestepping.run` and around the output
writers. Traced runs add one wrapper per layer call below.
"""

import functools
import time

# (module under tridg, attribute path, span name). Each entry names the
# binding the run path calls through: `cmd_run` calls `run`, `load_mesh` and
# the writers by their names in `tridg.cli`, `load_mesh` calls `build_mesh`
# and `run` calls `advance` by their module-level names.
BOUNDARY = (
    ("cli", "run", "timestepping.run"),
    ("cli", "_write_snapshot", "cli.snapshot"),
    ("cli", "_write_samples", "cli.samples"),
)
LAYERS = (
    ("cli", "load_mesh", "mesh.load"),
    ("mesh", "build_mesh", "mesh.build"),
    ("dg", "SpatialOperator.__init__", "dg.setup"),
    ("dg", "SpatialOperator.project", "dg.project"),
    ("dg", "SpatialOperator.residual", "dg.residual"),
    ("dg", "SpatialOperator.max_wavespeed", "dg.wavespeed"),
    # every model class that defines its own Lax-Friedrichs flux
    ("physics", "*.lf_flux", "physics.lf_flux"),
    ("oe", "OEFilter.apply", "oe.apply"),
    ("bp", "BPLimiter.apply", "bp.apply"),
    ("timestepping", "advance", "timestepping.advance"),
)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self._stack = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def install(self, package, targets):
        """Wrap every (module, attribute path, span name) target in place.

        A missing target raises AttributeError, so a run whose instrument
        no longer matches the solver fails instead of silently losing spans.
        """
        for module_name, path, name in targets:
            module = getattr(package, module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name == "*":
                owners = [c for c in vars(module).values()
                          if isinstance(c, type) and attr in vars(c)]
                if not owners:
                    raise AttributeError(f"no class in {module_name} "
                                         f"defines {attr}")
            elif owner_name:
                owners = [getattr(module, owner_name)]
            else:
                owners = [module]
            for owner in owners:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))


def self_times(spans):
    """Per span: duration minus the time its direct child spans cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]
