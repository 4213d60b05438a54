"""Tangles of odd-n-qubit pure states: brute-force and reduced evaluations,
residual-entanglement identities, SLOCC checks, and a convex-roof extension
to mixed states."""

from .bench import count_fast_path, count_naive_path, timing_sweep
from .convex_roof import (
    MixedState,
    RoofResult,
    convex_roof_tangle,
    decomposition_from_isometry,
)
from .fast_tangle import TPQ, TangleReport, compute_TPQ, n_tangle, tangle_i_fast
from .naive_tangle import (
    epsilon,
    find_noninvariance_witness,
    tangle_i_naive,
    wong_tangle_naive,
)
from .qstate import (
    LocalOperatorChain,
    PureState,
    QubitPermutation,
    apply_local_operators,
    index_of_bits,
    permute_qubits,
)
from .residual_forms import (
    ResidualParts,
    residual_parts_defining,
    residual_parts_reduced,
    residual_tau,
)
from .slocc_ops import (
    SloccVerdict,
    random_local_invertible,
    random_local_unitary,
    verify_lu_invariance,
    verify_slocc_equation,
)
from .stategen import basis_product, ghz, random_pure, w
from .three_tangle import ckw_tangle

__version__ = "0.1.0"
