"""Canonical and seeded random test states."""

from __future__ import annotations

import numpy as np

from .qstate import PureState, check_qubit_count, index_of_bits


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError(f"GHZ needs n >= 2, got {n}")
    check_qubit_count(n)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(n, amps)


def w(n: int) -> PureState:
    """Equal superposition of the n single-excitation basis kets."""
    if n < 2:
        raise ValueError(f"W needs n >= 2, got {n}")
    check_qubit_count(n)
    amps = np.zeros(2**n, dtype=np.complex128)
    for k in range(n):
        amps[1 << k] = 1.0 / np.sqrt(n)
    return PureState(n, amps)


def random_pure(n: int, seed: int) -> PureState:
    """Normalized state with i.i.d. complex Gaussian amplitudes.

    Generator: numpy's default_rng (PCG64) seeded with `seed`; real and
    imaginary parts drawn as two standard-normal blocks.  The norm is a
    plain numpy sum, not a BLAS call, so for a given numpy version the bits
    do not depend on the BLAS library or its thread count; they may differ
    between numpy versions or CPUs whose sum takes another vectorized path.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_qubit_count(n)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.sqrt(np.sum(amps.real**2 + amps.imag**2))
    return PureState(n, amps)


def basis_product(n: int, bitstring) -> PureState:
    """Computational basis ket |b1 b2 ... bn>."""
    bits = tuple(bitstring)
    if len(bits) != n:
        raise ValueError(f"bitstring length {len(bits)} != n={n}")
    check_qubit_count(n)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[index_of_bits(bits)] = 1.0
    return PureState(n, amps)
