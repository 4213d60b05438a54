"""Core state representation: bit indexing, qubit permutations, local operators.

Bit convention used everywhere in this package: qubit 1 is the MOST
significant bit, so the basis ket |b1 b2 ... bn> sits at amplitude index
sum_k b_k * 2**(n-k).  Printed kets therefore read left to right.

All objects are value types: every operation returns a fresh state and
never mutates its inputs.
"""

from __future__ import annotations

import numpy as np

# Largest qubit count the state generators and file loaders accept.  A
# state holds 2**n complex doubles (256 MiB at n=24), and the T/P/Q kernel
# needs several more arrays of that length; n=21 takes well under 1 GiB.
# Loading a state file peaks at 2.5x the array (about 640 MiB at n=24):
# io decodes the file in blocks of rows, and PureState copies the result.
MAX_QUBITS = 24

# Bounds on a state's squared norm N: MIN_SQUARED_NORM <= N < MAX_SQUARED_NORM.
# Every quartic form of the package stays below a small multiple of
# N**2 < 2**1000, so no tangle overflows, and a tangle of N**2 >= 2**-1000
# stays a normal double, so none underflows to 0.
MAX_SQUARED_NORM = 2.0**500
MIN_SQUARED_NORM = 2.0**-500


def check_qubit_count(n: int) -> None:
    """Raise ValueError for n above MAX_QUBITS, before anything of size
    2**n is allocated."""
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceed the limit of MAX_QUBITS={MAX_QUBITS}")


def check_odd_n(n: int) -> None:
    """Raise ValueError unless n is odd and at least 3, where the tangle
    formulas are defined."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"need odd n >= 3, got n={n}")


def check_qubit_index(n: int, i: int) -> None:
    """Raise ValueError unless i names one of qubits 1..n."""
    if not 1 <= i <= n:
        raise ValueError(f"qubit {i} out of range 1..{n}")


class PureState:
    """Complex amplitude vector of length 2**n.

    Not required to be normalized (SLOCC images are not); use
    ``is_normalized`` when a formula assumes unit norm.  The squared norm
    must be at least MIN_SQUARED_NORM and below MAX_SQUARED_NORM.
    """

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amplitudes):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        # one C-ordered copy, whatever the layout of the input
        amps = np.array(amplitudes, dtype=np.complex128, order="C").reshape(-1)
        if amps.size != 2**n:
            raise ValueError(
                f"need exactly {2**n} amplitudes for n={n}, got {amps.size}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        self.n = n
        self.amps = amps
        with np.errstate(over="ignore"):
            sq = self.squared_norm()
        if not sq < MAX_SQUARED_NORM:
            raise ValueError("state squared norm must be below MAX_SQUARED_NORM = 2**500")
        if sq < MIN_SQUARED_NORM:
            if not np.any(amps):
                raise ValueError("state must have positive squared norm")
            raise ValueError("state squared norm must be at least MIN_SQUARED_NORM = 2**-500")

    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def is_normalized(self, tol: float) -> bool:
        return abs(self.squared_norm() - 1.0) <= tol

    def __repr__(self) -> str:
        return f"PureState(n={self.n})"


class QubitPermutation:
    """Bijection p on qubit labels {1, ..., n}, stored as p(1..n)."""

    __slots__ = ("n", "map")

    def __init__(self, mapping):
        m = tuple(int(v) for v in mapping)
        n = len(m)
        if sorted(m) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {m}")
        self.n = n
        self.map = m

    def __call__(self, k: int) -> int:
        return self.map[k - 1]

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "QubitPermutation":
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"qubits {i},{j} out of range 1..{n}")
        m = list(range(1, n + 1))
        m[i - 1], m[j - 1] = j, i
        return QubitPermutation(m)

    def __repr__(self) -> str:
        return f"QubitPermutation({self.map})"


class LocalOperatorChain:
    """n two-by-two complex matrices acting as op1 (x) op2 (x) ... (x) opn."""

    __slots__ = ("n", "ops")

    def __init__(self, ops):
        mats = tuple(np.asarray(m, dtype=np.complex128).copy() for m in ops)
        if not mats:
            raise ValueError("empty operator chain")
        for m in mats:
            if m.shape != (2, 2):
                raise ValueError(f"operators must be 2x2, got {m.shape}")
            if not np.all(np.isfinite(m.view(np.float64))):
                raise ValueError("operator entries must be finite")
            m.setflags(write=False)
        self.n = len(mats)
        self.ops = mats

    def dets(self) -> np.ndarray:
        return np.array([np.linalg.det(m) for m in self.ops])

    def abs_det_sq_product(self) -> float:
        return float(np.prod(np.abs(self.dets()) ** 2))

    def assert_invertible(self) -> None:
        for k, d in enumerate(self.dets(), start=1):
            if abs(d) <= 1e-12:
                raise ValueError(f"operator {k} is singular (|det|={abs(d):.3e})")

    def is_unitary(self) -> bool:
        eye = np.eye(2)
        return all(np.max(np.abs(m.conj().T @ m - eye)) <= 1e-10 for m in self.ops)


def index_of_bits(bits) -> int:
    """Index of |b1 b2 ... bn> under the MSB-first convention."""
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        idx = (idx << 1) | b
    return idx


def relabel_axes(perm: QubitPermutation, n: int) -> list[int]:
    """The axes to transpose the (2,)*n amplitude tensor by to relabel its
    qubits by perm: the bit at qubit k moves to qubit perm(k)."""
    if perm.n != n:
        raise ValueError(f"permutation on {perm.n} qubits, state has {n}")
    # axis k-1 of the (2,)*n tensor is qubit k; it becomes axis perm(k)-1
    axes = [0] * n
    for k in range(1, n + 1):
        axes[perm(k) - 1] = k - 1
    return axes


def permute_qubits(state: PureState, perm: QubitPermutation) -> PureState:
    """Relabel qubits: the bit at qubit k moves to qubit perm(k)."""
    n = state.n
    return PureState(n, state.amps.reshape((2,) * n).transpose(relabel_axes(perm, n)))


def apply_local_operators(state: PureState, chain: LocalOperatorChain) -> PureState:
    """Apply op1 (x) ... (x) opn to the amplitudes, qubit by qubit."""
    if chain.n != state.n:
        raise ValueError(f"chain on {chain.n} qubits, state has {state.n}")
    n = state.n
    psi = state.amps.reshape((2,) * n)
    for k in range(n):
        psi = np.moveaxis(np.tensordot(chain.ops[k], psi, axes=([1], [k])), 0, k)
    return PureState(n, psi.reshape(-1))
