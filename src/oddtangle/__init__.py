"""Tangles of odd-n-qubit pure states: brute-force and reduced evaluations,
residual-entanglement identities, SLOCC checks, and a convex-roof extension
to mixed states.

Importing the package loads none of its submodules.  Each name below
resolves on first use (PEP 562): ``from oddtangle import n_tangle`` or
``oddtangle.n_tangle`` imports the submodule that defines it, and
``oddtangle.verify`` imports that submodule.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_NAMES = {
    "bench": "count_fast_path count_naive_path timing_sweep",
    "convex_roof": "MixedState RoofResult convex_roof_tangle decomposition_from_isometry",
    "fast_tangle": "TPQ TangleReport compute_TPQ n_tangle stack_tangles stack_tpq tangle_i_fast",
    "naive_tangle": "epsilon find_noninvariance_witness tangle_i_naive wong_tangle_naive",
    "qstate": "LocalOperatorChain PureState QubitPermutation apply_local_operators"
    " index_of_bits permute_qubits",
    "residual_forms": "ResidualParts residual_parts_defining residual_parts_reduced residual_tau",
    "slocc_ops": "SloccVerdict random_local_invertible random_local_unitary"
    " verify_lu_invariance verify_slocc_equation",
    "stategen": "basis_product ghz random_pure w",
    "three_tangle": "ckw_tangle",
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names.split()}
_SUBMODULES = frozenset(_NAMES) | {"cli", "io", "verify"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
