"""State and density-matrix files (JSON on disk).

State file:
    {"format_version": 1, "kind": "state", "n": 3,
     "amplitudes": [[re, im], ...]}        # 2**n entries, index order

Density file:
    {"format_version": 1, "kind": "density", "n": 2,
     "matrix": [[[re, im], ...], ...]}     # 2**n rows of 2**n [re, im]

Floats are written as their shortest round-tripping repr, so amplitudes
round-trip exactly through the text form.
"""

from __future__ import annotations

import json

import numpy as np

from .convex_roof import MixedState
from .qstate import PureState

FORMAT_VERSION = 1


class StateFileError(ValueError):
    """Malformed or inconsistent state/density file."""


def state_to_dict(state: PureState) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "state",
        "n": state.n,
        "amplitudes": [[a.real, a.imag] for a in state.amps],
    }


def density_to_dict(rho: MixedState) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "density",
        "n": rho.n,
        "matrix": [
            [[v.real, v.imag] for v in row] for row in rho.matrix
        ],
    }


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top-level value must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise StateFileError(f"{path}: unsupported format_version {version!r}")
    return doc


def _parse_pair(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        # bool is a subclass of int, so test the exact type
        or not all(type(v) in (int, float) for v in entry)
    ):
        raise StateFileError(f"{where}: expected a [re, im] pair, got {entry!r}")
    return complex(entry[0], entry[1])


def load_state(path: str) -> PureState:
    doc = _load_json(path)
    if doc.get("kind", "state") != "state":
        raise StateFileError(f"{path}: kind is {doc.get('kind')!r}, expected 'state'")
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        raise StateFileError(f"{path}: bad qubit count {n!r}")
    raw = doc.get("amplitudes")
    if not isinstance(raw, list) or len(raw) != 2**n:
        got = len(raw) if isinstance(raw, list) else raw
        raise StateFileError(f"{path}: need {2**n} amplitudes for n={n}, got {got}")
    amps = [_parse_pair(e, f"{path}: amplitude {k}") for k, e in enumerate(raw)]
    try:
        return PureState(n, amps)
    except ValueError as exc:
        raise StateFileError(f"{path}: {exc}") from exc


def save_state(state: PureState, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh)
        fh.write("\n")


def load_density(path: str) -> MixedState:
    doc = _load_json(path)
    if doc.get("kind") != "density":
        raise StateFileError(f"{path}: kind is {doc.get('kind')!r}, expected 'density'")
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        raise StateFileError(f"{path}: bad qubit count {n!r}")
    raw = doc.get("matrix")
    dim = 2**n
    if not isinstance(raw, list) or len(raw) != dim:
        raise StateFileError(f"{path}: matrix must have {dim} rows")
    m = np.zeros((dim, dim), dtype=np.complex128)
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise StateFileError(f"{path}: row {r} must have {dim} entries")
        for c, entry in enumerate(row):
            m[r, c] = _parse_pair(entry, f"{path}: matrix[{r}][{c}]")
    try:
        return MixedState(n, m)
    except ValueError as exc:
        raise StateFileError(f"{path}: {exc}") from exc


def save_density(rho: MixedState, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(density_to_dict(rho), fh)
        fh.write("\n")
