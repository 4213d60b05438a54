"""Core state representation: bit indexing, qubit permutations, local operators.

Bit convention used everywhere in this package: qubit 1 is the MOST
significant bit, so the basis ket |b1 b2 ... bn> sits at amplitude index
sum_k b_k * 2**(n-k).  Printed kets therefore read left to right.

All objects are value types: every operation returns a fresh state and
never mutates its inputs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_NORM_TOL = 1e-9

# Largest qubit count the state generators and file loaders accept.  A
# state holds 2**n complex doubles (256 MiB at n=24), and the T/P/Q kernel
# needs several more arrays of that length; n=21 takes well under 1 GiB.
MAX_QUBITS = 24


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
    ``is_normalized`` when a formula assumes unit norm.
    """

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amplitudes):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.size != 2**n:
            raise ValueError(
                f"need exactly {2**n} amplitudes for n={n}, got {amps.size}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        sq = float(np.sum(np.abs(amps) ** 2))
        if not (np.isfinite(sq) and sq > 0.0):
            raise ValueError("state must have positive squared norm")
        amps.setflags(write=False)
        self.n = n
        self.amps = amps

    @property
    def dim(self) -> int:
        return 2**self.n

    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def is_normalized(self, tol: float = DEFAULT_NORM_TOL) -> bool:
        return abs(self.squared_norm() - 1.0) <= tol

    def normalized(self) -> "PureState":
        return PureState(self.n, self.amps / np.sqrt(self.squared_norm()))

    def scaled(self, c: complex) -> "PureState":
        return PureState(self.n, c * self.amps)

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

    def inverse(self) -> "QubitPermutation":
        inv = [0] * self.n
        for k, v in enumerate(self.map, start=1):
            inv[v - 1] = k
        return QubitPermutation(inv)

    def compose(self, other: "QubitPermutation") -> "QubitPermutation":
        """(self o other)(k) = self(other(k))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return QubitPermutation([self(other(k)) for k in range(1, self.n + 1)])

    @staticmethod
    def identity(n: int) -> "QubitPermutation":
        return QubitPermutation(range(1, n + 1))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "QubitPermutation":
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"qubits {i},{j} out of range 1..{n}")
        m = list(range(1, n + 1))
        m[i - 1], m[j - 1] = j, i
        return QubitPermutation(m)

    def __eq__(self, other) -> bool:
        return isinstance(other, QubitPermutation) and self.map == other.map

    def __hash__(self) -> int:
        return hash(self.map)

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

    def is_unitary(self, tol: float = 1e-10) -> bool:
        eye = np.eye(2)
        return all(
            np.max(np.abs(m.conj().T @ m - eye)) <= tol for m in self.ops
        )

    @staticmethod
    def identity(n: int) -> "LocalOperatorChain":
        return LocalOperatorChain([np.eye(2)] * n)


def index_of_bits(bits) -> int:
    """Index of |b1 b2 ... bn> under the MSB-first convention."""
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        idx = (idx << 1) | b
    return idx


def bits_of_index(idx: int, n: int):
    """Inverse of index_of_bits; returns (b1, ..., bn)."""
    if not 0 <= idx < 2**n:
        raise ValueError(f"index {idx} out of range for n={n}")
    return tuple((idx >> (n - k)) & 1 for k in range(1, n + 1))


def popcount_n(l: int, n: int) -> int:
    """Number of 1s in the n-bit binary representation of l."""
    if not 0 <= l < 2**n:
        raise ValueError(f"{l} is not an n-bit value for n={n}")
    return int(l).bit_count()


def permute_qubits(state: PureState, perm: QubitPermutation) -> PureState:
    """Relabel qubits: the bit at qubit k moves to qubit perm(k)."""
    if perm.n != state.n:
        raise ValueError(f"permutation on {perm.n} qubits, state has {state.n}")
    n = state.n
    # axis k-1 of the (2,)*n tensor is qubit k; it becomes axis perm(k)-1
    axes = [0] * n
    for k in range(1, n + 1):
        axes[perm(k) - 1] = k - 1
    return PureState(n, state.amps.reshape((2,) * n).transpose(axes))


def apply_local_operators(state: PureState, chain: LocalOperatorChain) -> PureState:
    """Apply op1 (x) ... (x) opn to the amplitudes, qubit by qubit."""
    if chain.n != state.n:
        raise ValueError(f"chain on {chain.n} qubits, state has {state.n}")
    n = state.n
    psi = state.amps.reshape((2,) * n)
    for k in range(n):
        psi = np.moveaxis(np.tensordot(chain.ops[k], psi, axes=([1], [k])), 0, k)
    return PureState(n, psi.reshape(-1))


def reduced_density_single(state: PureState, qubit: int) -> np.ndarray:
    """Single-qubit reduced density matrix (partial trace over the rest)."""
    check_qubit_index(state.n, qubit)
    if not state.is_normalized():
        raise ValueError(
            f"state is not normalized (|norm^2 - 1| > {DEFAULT_NORM_TOL:g})"
        )
    psi = state.amps.reshape((2,) * state.n)
    m = np.moveaxis(psi, qubit - 1, 0).reshape(2, -1)
    return m @ m.conj().T
