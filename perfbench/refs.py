"""Benchmark inputs and the references their outputs are checked against.

Everything here is the benchmark's own numpy code, independent of the
package under test: the n=17 states are built by contracting random
single-qubit unitaries into the amplitude tensor directly, and the roof
reference is the closed form of Lohmayer, Osterloh, Siewert & Uhlmann,
PRL 97, 260502 (2006), for p|GHZ3><GHZ3| + (1-p)|W3><W3|.

Bit convention matches the package: qubit 1 is the most significant bit.
"""

from __future__ import annotations

import math

import numpy as np

# |tau_i - reference| allowed on a compute output.  LU images of
# a|0..0> + b|1..1> and of W carry ~1e-15 rounding per amplitude; the
# T/P/Q sums over 2**16 terms keep the error far below this.
TAU_TOL = 1e-9

# A roof value below the closed form by more than this is wrong (the
# program returns an upper bound); above it by more than ROOF_MISS_TOL is
# an optimizer miss, counted but not a failure.
ROOF_LOW_TOL = 1e-9
ROOF_MISS_TOL = 1e-6

ROOF_GRID = (0.5, 0.6, 0.68, 0.8, 0.9)
ROOF_RESTARTS = 4
ROOF_SEED = 0

P0 = 4 * 2 ** (1 / 3) / (3 + 4 * 2 ** (1 / 3))
P1 = 0.5 + 3 * math.sqrt(465) / 310

VERIFY_CHECKS = (
    "ghz_anchor",
    "w_anchor",
    "oracle_equivalence",
    "bridge_identities",
    "residual_equals_fast",
    "average_permutation_invariance",
    "per_qubit_partial_invariance",
    "slocc_equation",
    "lu_invariance",
    "three_tangle_crosscheck",
    "noninvariance_witness",
)


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local_unitaries(amps: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """U_1 (x) ... (x) U_n applied to a 2**n amplitude vector."""
    psi = amps.reshape((2,) * n)
    for k in range(n):
        psi = np.moveaxis(np.tensordot(haar_unitary(rng), psi, axes=([1], [k])), 0, k)
    return np.ascontiguousarray(psi).reshape(-1)


def lu_ghz(n: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """LU image of a|0..0> + b|1..1>; every tau_i equals 4|ab|^2."""
    theta = rng.uniform(0.15, math.pi / 4)
    a = math.cos(theta) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    b = math.sin(theta) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0], amps[-1] = a, b
    return apply_local_unitaries(amps, n, rng), float(4 * abs(a * b) ** 2)


def lu_w(n: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """LU image of W_n; every tau_i is 0."""
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[[1 << k for k in range(n)]] = 1 / math.sqrt(n)
    return apply_local_unitaries(amps, n, rng), 0.0


def ghz_w_density(p: float) -> np.ndarray:
    g = np.zeros(8, dtype=np.complex128)
    g[[0, 7]] = 1 / math.sqrt(2)
    w = np.zeros(8, dtype=np.complex128)
    w[[1, 2, 4]] = 1 / math.sqrt(3)
    return p * np.outer(g, g.conj()) + (1 - p) * np.outer(w, w.conj())


def roof_closed_form(p: float) -> float:
    """Exact convex-roof three-tangle of p|GHZ3><GHZ3| + (1-p)|W3><W3|."""
    if p <= P0:
        return 0.0
    if p <= P1:
        return p * p - 8 * math.sqrt(6) / 9 * math.sqrt(p * (1 - p) ** 3)
    return 1 - (1 - p) * (1.5 + math.sqrt(465) / 18)


def check_compute_csv(text: str, n: int, tau: float) -> str | None:
    """None when the `compute --format csv` output matches tau on every
    qubit and in the average, else a one-line reason."""
    rows = [line.split(",") for line in text.strip().splitlines()]
    if len(rows) != n + 1 or rows[0][:4] != ["n", "i", "tau_i", "tau_avg"]:
        return f"expected a header and {n} rows, got {len(rows)} lines"
    for k, row in enumerate(rows[1:], 1):
        if len(row) != 10 or row[0] != str(n) or row[1] != str(k):
            return f"row {k} malformed: {row[:2]}"
        for label, value in (("tau_i", row[2]), ("tau_avg", row[3])):
            if not abs(float(value) - tau) <= TAU_TOL:
                return f"qubit {k} {label}={value}, expected {tau!r}"
    return None


def check_verify_output(text: str) -> str | None:
    """None when `verify-all` printed one PASS line per expected check."""
    names = []
    for line in text.strip().splitlines():
        if not line.startswith("[PASS] "):
            return f"not a PASS line: {line[:80]}"
        names.append(line.split()[1])
    if tuple(names) != VERIFY_CHECKS:
        return f"checks {names} differ from the expected {len(VERIFY_CHECKS)}"
    return None


def parse_roof_value(text: str) -> float | None:
    for line in text.splitlines():
        if line.startswith("value "):
            return float(line.split()[1])
    return None
