"""State and density-matrix files (JSON on disk).

State file:
    {"format_version": 1, "kind": "state", "n": 3,
     "amplitudes": [[re, im], ...]}        # 2**n entries, index order

Density file:
    {"format_version": 1, "kind": "density", "n": 2,
     "matrix": [[[re, im], ...], ...]}     # 2**n rows of 2**n [re, im]

Floats are written as their shortest round-tripping repr, so amplitudes
round-trip exactly through the text form, signed zeros included.  Both
writers share one path: the bytes are those of one `json.dumps` of the
whole document plus a newline, encoded by json's C encoder in blocks of
whole rows of at most BLOCK_ENTRIES entries, so no Python list of the
whole array is built.  The loaders do build one: `json.load` returns the
whole document as nested Python lists, and loading peaks at about 12x the
array's 16 * 2**n bytes under tracemalloc (24.2 MiB at n=17, so about
3 GiB at MAX_QUBITS).  Both loaders share one path and raise
StateFileError (CLI exit 2) on a file that cannot be opened, is not UTF-8,
is not JSON or nests too deeply to decode; on a wrong version, kind or
shape, an `n` that is not an integer in 1..MAX_QUBITS (`true` included),
or an `re`/`im` that is not a JSON number (booleans, strings, null) or is
an integer beyond float range.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .convex_roof import MixedState
from .qstate import MAX_QUBITS, PureState

FORMAT_VERSION = 1
BLOCK_ENTRIES = 4096  # complex entries per json.dumps call in _save


class StateFileError(ValueError):
    """Malformed or inconsistent state/density file."""


def _pairs(raw, shape: tuple, where: str) -> np.ndarray:
    """Complex array of `shape` from nested lists of JSON [re, im] pairs,
    each entry bit for bit complex(re, im), signed zeros included."""
    try:
        x = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFileError(f"{where}: expected a [re, im] pair of numbers ({exc})") from exc
    if x.shape != shape + (2,):
        raise StateFileError(f"{where}: expected {shape} [re, im] pairs, got shape {x.shape}")
    # numpy also converts bools, None and numeric strings; JSON numbers
    # arrive as int or float (bool is a subclass of int, hence exact types)
    flat = raw
    for _ in shape:
        flat = itertools.chain.from_iterable(flat)
    bad = set(map(type, flat)) - {int, float}
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise StateFileError(f"{where}: expected a [re, im] pair of numbers, found {names}")
    return x.view(np.complex128).reshape(shape)


def _load(path: str, kind: str, key: str, ndim: int, make):
    """make(n, values) for a `kind` file whose `key` holds 2**n x ... (ndim
    axes) [re, im] pairs."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top-level value must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise StateFileError(f"{path}: unsupported format_version {version!r}")
    if doc.get("kind", "state") != kind:
        raise StateFileError(f"{path}: kind is {doc.get('kind')!r}, expected {kind!r}")
    n = doc.get("n")
    # exact type: bool is a subclass of int
    if type(n) is not int or not 1 <= n <= MAX_QUBITS:
        raise StateFileError(f"{path}: bad qubit count {n!r}, need 1..{MAX_QUBITS}")
    values = _pairs(doc.get(key), (2**n,) * ndim, f"{path}: {key}")
    try:
        return make(n, values)
    except ValueError as exc:
        raise StateFileError(f"{path}: {exc}") from exc


def _save(path: str, kind: str, key: str, n: int, values: np.ndarray) -> None:
    """Write values (2**n x ... complex) as the `key` of a `kind` file,
    each entry a [re, im] pair of floats.  The text is that of one
    json.dumps of the document, encoded in blocks of whole rows (at most
    BLOCK_ENTRIES entries, or one row if a row is longer), because
    json.dump never uses the C encoder."""
    head = json.dumps({"format_version": FORMAT_VERSION, "kind": kind, "n": n, key: []})
    pairs = values.view(np.float64).reshape(values.shape + (2,))
    rows = max(1, BLOCK_ENTRIES // (values.size // len(values)))
    with open(path, "w") as fh:
        fh.write(head[:-2])  # up to and including the key's "["
        for start in range(0, len(pairs), rows):
            if start:
                fh.write(", ")
            fh.write(json.dumps(pairs[start:start + rows].tolist())[1:-1])
        fh.write("]}\n")


def load_state(path: str) -> PureState:
    return _load(path, "state", "amplitudes", 1, PureState)


def save_state(state: PureState, path: str) -> None:
    _save(path, "state", "amplitudes", state.n, state.amps)


def load_density(path: str) -> MixedState:
    return _load(path, "density", "matrix", 2, MixedState)


def save_density(rho: MixedState, path: str) -> None:
    _save(path, "density", "matrix", rho.n, rho.matrix)
