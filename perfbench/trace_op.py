"""Run one `oddtangle` command with spans around each public layer function.

Usage: python3 perfbench/trace_op.py SPANS.json COMMAND [ARGS...]

The package must be importable (PYTHONPATH=src).  Every function named in
LAYERS is replaced, at every oddtangle module attribute that binds it, by
a wrapper that records a span [name, start, end, parent index, work].
`scipy.optimize.minimize` is wrapped too, so the objective calls the roof
passes to it are counted and timed at that boundary.  Spans stay in memory
and are written to SPANS.json when the command returns; the exit code is
the command's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

perf = time.perf_counter

# span name -> (module, attribute path, work function of the call's args)
LAYERS = {
    "cli.main": ("cli", "main", None),
    "io.load_state": ("io", "load_state", lambda path: os.path.getsize(path)),
    "io.load_density": ("io", "load_density", None),
    "qstate.PureState": ("qstate", "PureState.__init__", None),
    "qstate.permute_qubits": ("qstate", "permute_qubits", lambda state, perm: 32 << state.n),
    "qstate.apply_local_operators": ("qstate", "apply_local_operators", None),
    "fast_tangle.n_tangle": ("fast_tangle", "n_tangle", None),
    "fast_tangle.compute_TPQ": ("fast_tangle", "compute_TPQ", lambda state, counter=None: 1 << state.n),
    "naive_tangle.tangle_i_naive": ("naive_tangle", "tangle_i_naive", None),
    "naive_tangle.find_noninvariance_witness": ("naive_tangle", "find_noninvariance_witness", None),
    "residual_forms.residual_parts_defining": ("residual_forms", "residual_parts_defining", None),
    "residual_forms.residual_parts_reduced": ("residual_forms", "residual_parts_reduced", None),
    "slocc_ops.verify_slocc_equation": ("slocc_ops", "verify_slocc_equation", None),
    "slocc_ops.verify_lu_invariance": ("slocc_ops", "verify_lu_invariance", None),
    "three_tangle.ckw_tangle": ("three_tangle", "ckw_tangle", None),
    "stategen.random_pure": ("stategen", "random_pure", None),
    "verify.verify_all": ("verify", "verify_all", None),
    "convex_roof.convex_roof_tangle": ("convex_roof", "convex_roof_tangle", None),
    "convex_roof.eigensystem": ("convex_roof", "MixedState.eigensystem", None),
    "convex_roof.decomposition_from_isometry": ("convex_roof", "decomposition_from_isometry", None),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.objective_calls = 0
        self.objective_s = 0.0

    def record(self, name: str, start: float, end: float, work=0) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, work])

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    work(*args, **kwargs) if work else 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                self.stack.pop()

        return traced

    def wrap_minimize(self, minimize):
        """Count and time each objective call scipy makes, inside a span."""

        def counted_minimize(fun, x0, *args, **kwargs):
            def objective(x, *fargs):
                t0 = perf()
                try:
                    return fun(x, *fargs)
                finally:
                    self.objective_s += perf() - t0
                    self.objective_calls += 1

            return minimize(objective, x0, *args, **kwargs)

        return self.wrap("convex_roof.minimize", counted_minimize)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "objective_calls": self.objective_calls,
                    "objective_s": self.objective_s,
                },
                fh,
            )


def install(tracer: Tracer, package) -> None:
    """Swap each LAYERS function for its traced wrapper wherever bound."""
    replace = {}
    for name, (module, attr, work) in LAYERS.items():
        owner = getattr(package, module)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = tracer.wrap(name, original, work)
        setattr(owner, leaf, wrapper)
        replace[id(original)] = wrapper
    for modname, module in list(sys.modules.items()):
        if modname == package.__name__ or modname.startswith(package.__name__ + "."):
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])


def main(argv) -> int:
    out_path, command = argv[0], argv[1:]
    tracer = Tracer()
    t0 = perf()
    import oddtangle
    import oddtangle.cli

    tracer.record("cli.import", t0, perf())
    if command and command[0] == "roof":
        # the roof imports scipy.optimize on entry; import it here instead
        # so the import is timed on its own and minimize can be wrapped
        t0 = perf()
        import scipy.optimize

        tracer.record("convex_roof.scipy_import", t0, perf())
        scipy.optimize.minimize = tracer.wrap_minimize(scipy.optimize.minimize)
    install(tracer, oddtangle)
    try:
        return oddtangle.cli.main(command)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
