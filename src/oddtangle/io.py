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
whole array is built.

Both loaders share one path too, and never hold the whole text or the
whole array as Python lists: the file is read BLOCK_CHARS characters at
a time, every object, at any depth, is walked with json's own string and
value decoders, and every array, at any depth, is decoded by json.loads
in blocks of whole rows, each turned into a float64 array before the
next is read, or entry by entry where a block's cut lies in a nested
value or a string; only JSON scalars are decoded whole.  _KINDS names
each kind's array member, its axes and its class.  Only format_version,
kind, n and the loader's own array are kept, so a file of the other kind
or a bare list peaks at 1.13x (n=9 density to load_state) and 1.27x
(n=17 state to load_density, or a bare list of 2**17 pairs to
load_state) before it is refused, and a value holding a copy of the
amplitudes that the loader does not keep (an extra member, bare, in an
object or in an array, or an `n` that a later `n` overrides) leaves a
load's peak at 2.5x (n = 15 to 17).  They accept and decode every file
that json.load does, to the same values, and refuse every other with
json's message.  Loading a state peaks at 2.5x the array's 16 * 2**n
bytes under tracemalloc at n = 15, 17 and 19 (5.0 MiB at n=17), so about
640 MiB at MAX_QUBITS: 2x while the blocks are joined, then PureState's
copy and checks; a density peaks at about 4x (n = 7 and 9), from
MixedState's checks.  Both raise StateFileError (CLI exit 2) on a file
that cannot be opened, is not UTF-8, is not JSON or nests too deeply to
decode; on a wrong version, kind or shape, an `n` that is not an integer
in 1..MAX_QUBITS (`true` included), or an `re`/`im` that is not a JSON
number (booleans, strings, null) or is an integer beyond float range.
"""

from __future__ import annotations

import itertools
import json
import re
from json.decoder import scanstring

import numpy as np

from .convex_roof import MixedState
from .qstate import MAX_QUBITS, PureState

FORMAT_VERSION = 1
BLOCK_ENTRIES = 4096  # complex entries per json.dumps call in _save
BLOCK_CHARS = 1 << 16  # characters read at a time, and least text per json.loads, in _load
# kind: (array member, axes of [re, im] pairs, class)
_KINDS = {"state": ("amplitudes", 1, PureState), "density": ("matrix", 2, MixedState)}
_NDIMS = {key: ndim for key, ndim, _ in _KINDS.values()}
# the other members _load reads; _document drops every member but these and
# the kind's array, so _load may read no member not named here
_SCALARS = ("format_version", "kind", "n")
_PAIR = "expected a [re, im] pair of numbers"


class StateFileError(ValueError):
    """Malformed or inconsistent state/density file."""


_DECODER = json.JSONDecoder()
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's, as json.decoder skips it
# where a top-level row of an ndim-axis array of [re, im] pairs may end:
# ndim closing brackets and a comma
_ROW_ENDS = {
    ndim: re.compile(r"[ \t\n\r]*".join([r"\]"] * ndim + [","])) for ndim in (1, 2)
}


class _Text:
    """The text of an open file, read in chunks as decoding moves on: `buf`
    holds it from the position `pos` on, so the whole text is never held."""

    def __init__(self, fh, path: str):
        self.fh, self.path = fh, path
        self.buf, self.pos, self.eof = "", 0, False
        # characters and newlines before buf[0], and the start of its line
        self.offset = self.lines = self.line_start = 0

    def more(self) -> bool:
        """Drop the text before pos and append the next chunk: BLOCK_CHARS,
        or as much as is left in buf, so a value that spans chunks is
        re-decoded only O(log) times.  False at end of file."""
        if self.eof:
            return False
        newlines = self.buf.count("\n", 0, self.pos)
        if newlines:
            self.lines += newlines
            self.line_start = self.offset + self.buf.rindex("\n", 0, self.pos) + 1
        self.offset += self.pos
        chunk = self.fh.read(max(BLOCK_CHARS, len(self.buf) - self.pos))
        self.buf, self.pos, self.eof = self.buf[self.pos:] + chunk, 0, not chunk
        return not self.eof

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at end of file."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return self.buf[self.pos:self.pos + 1]

    def value(self, decode):
        """decode(buf, pos) -> (value, end) at the next character, read on
        until the value is whole.  A number cut short by the end of buf still
        decodes ("1." of "1.5e+7" as 1), so 3 characters must follow it."""
        self.peek()
        while True:
            try:
                value, end = decode(self.buf, self.pos)
                if end + 2 < len(self.buf) or self.eof:
                    self.pos = end
                    return value
            except json.JSONDecodeError as exc:
                if self.eof:
                    raise self.error(exc.msg, exc.pos) from None
            self.more()

    def row_end(self, pattern):
        """The first match of pattern at or after pos + BLOCK_CHARS, or None."""
        while True:
            match = pattern.search(self.buf, self.pos + BLOCK_CHARS)
            if match or not self.more():
                return match

    def error(self, msg: str, at: int) -> StateFileError:
        """The error at buf[at], placed in the file as json places it."""
        line = self.lines + self.buf.count("\n", 0, at) + 1
        newline = self.buf.rfind("\n", 0, at)
        column = at - newline if newline >= 0 else self.offset + at - self.line_start + 1
        where = f"line {line} column {column} (char {self.offset + at})"
        return StateFileError(f"cannot read {self.path}: {msg}: {where}")


def _block(rows: list, ndim: int) -> np.ndarray:
    """float64 array of decoded rows, each entry bit for bit float(re) or
    float(im), signed zeros included; ValueError if an entry is not a
    number."""
    try:
        x = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{_PAIR} ({exc})") from None
    if x.ndim == ndim + 1:  # otherwise _values refuses the shape
        # numpy also converts bools, None and numeric strings; JSON numbers
        # arrive as int or float (bool is a subclass of int, hence exact types)
        flat = rows
        for _ in range(ndim):
            flat = itertools.chain.from_iterable(flat)
        bad = set(map(type, flat)) - {int, float}
        if bad:
            names = ", ".join(sorted(t.__name__ for t in bad))
            raise ValueError(f"{_PAIR}, found {names}")
    return x


def _piece(text: _Text, pattern) -> tuple:
    """The rows of the array from text.pos to the first row end at least
    BLOCK_CHARS on, or to the end of the text if no row end follows, in one
    decode: (rows, where the next piece starts, False) for whole rows,
    (rows, where the array ends, True) if it ends in the piece, or (None,
    where the next piece starts, False) if the piece decodes as neither,
    which is past the end of the text if no row end follows."""
    match = text.row_end(pattern)
    end = match.end() if match else len(text.buf) + 1
    piece = text.buf[text.pos:end - 1]  # without the row end's ","
    try:
        rows, stop = _DECODER.raw_decode("[" + piece + "]")
    except json.JSONDecodeError:
        return None, end, False
    if stop < len(piece) + 2:
        return rows, text.pos + stop - 1, True
    return rows if match else None, end, False


def _close(text: _Text, bracket: str) -> bool:
    """Past the "," or closing bracket after a value; True at the bracket."""
    sep = text.peek()
    if sep not in (",", bracket):
        raise text.error("Expecting ',' delimiter", text.pos)
    text.pos += 1
    return sep == bracket


def _rows(text: _Text, ndim: int) -> tuple:
    """Decode the array at text.pos in blocks of whole top-level rows, as
    (float64 blocks, None), or ([], message) if an entry is not a number
    pair.  A block is cut at a row end only; with rows of number pairs no
    other text matches.  A piece that does not decode, or is empty after a
    ",", is read entry by entry up to its end (an array by _rows, any other
    value by _value), then blocks go on: every file decodes as json.loads
    decodes it, and a syntax error is raised where json.loads raises it."""
    pattern = _ROW_ENDS[ndim]
    blocks, problem, first = [], None, True
    text.pos += 1  # past "["
    while True:
        rows, after, last = _piece(text, pattern)
        if rows is None or not (rows or first):  # "[..., ]" raises below
            blocks, problem, first = [], problem or _PAIR, False
            end = text.offset + after
            while text.offset + text.pos < end:
                # an array by _rows, as _value would add a frame per level
                (_rows if text.peek() == "[" else _value)(text, ndim)
                if _close(text, "]"):
                    return blocks, problem
            continue
        if problem is None:
            try:
                blocks.append(_block(rows, ndim))
            except ValueError as exc:
                blocks, problem = [], str(exc)
        del rows  # before the next piece is decoded
        text.pos, first = after, False
        if last:
            return blocks, problem


def _value(text: _Text, ndim: int, keep: tuple = ()):
    """The JSON value at text.pos as json.loads gives it, but an array is
    decoded by _rows (rows of ndim axes) and an object keeps only the members
    in keep, each read by _value."""
    if text.peek() == "[":
        return _rows(text, ndim)
    if text.peek() != "{":
        return text.value(_DECODER.raw_decode)
    doc = {}
    text.pos += 1
    if text.peek() == "}":
        text.pos += 1
        return doc
    while True:
        if text.peek() != '"':
            raise text.error("Expecting property name enclosed in double quotes", text.pos)
        name = text.value(lambda s, i: scanstring(s, i + 1))
        if text.peek() != ":":
            raise text.error("Expecting ':' delimiter", text.pos)
        text.pos += 1
        value = _value(text, _NDIMS.get(name, 1))
        if name in keep:
            doc[name] = value
        del value  # an unread member's blocks, before the next member
        if _close(text, "}"):
            return doc


def _document(text: _Text, key: str):
    """The file's JSON value; a top-level object keeps `key` and _SCALARS."""
    if text.peek() == "\ufeff":
        raise text.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
    doc = _value(text, 1, (key, *_SCALARS))
    if text.peek():
        raise text.error("Extra data", text.pos)
    return doc


def _values(rows, shape: tuple, where: str) -> np.ndarray:
    """Complex array of `shape` from what _rows returned."""
    if not isinstance(rows, tuple):
        raise StateFileError(f"{where}: expected an array of [re, im] pairs")
    blocks, problem = rows
    if problem:
        raise StateFileError(f"{where}: {problem}")
    try:
        x = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    except ValueError:
        raise StateFileError(f"{where}: expected {shape} [re, im] pairs, got rows of unequal shapes") from None
    if x.shape != shape + (2,):
        raise StateFileError(f"{where}: expected {shape} [re, im] pairs, got shape {x.shape}")
    return x.view(np.complex128).reshape(shape)


def _shown(value) -> str:
    """A member's value in a message: a JSON scalar's repr, else its type."""
    return {tuple: ": an array", dict: ": an object"}.get(type(value), f" {value!r}")


def _load(path: str, kind: str):
    """make(n, values) for a `kind` file whose array member holds 2**n x ...
    (ndim axes) [re, im] pairs, as _KINDS gives them."""
    key, ndim, make = _KINDS[kind]
    try:
        with open(path, encoding="utf-8") as fh:
            doc = _document(_Text(fh, path), key)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top-level value must be an object")
    version = doc.get("format_version")
    # exact type: True and 1.0 both equal 1
    if type(version) is not int or version != FORMAT_VERSION:
        raise StateFileError(f"{path}: unsupported format_version{_shown(version)}")
    if doc.get("kind", "state") != kind:
        raise StateFileError(f"{path}: kind is{_shown(doc.get('kind'))}, expected {kind!r}")
    n = doc.get("n")
    # exact type: bool is a subclass of int
    if type(n) is not int or not 1 <= n <= MAX_QUBITS:
        raise StateFileError(f"{path}: bad qubit count{_shown(n)}, need 1..{MAX_QUBITS}")
    # the blocks are dropped here, so make's copy is the only other array
    values = _values(doc.pop(key, None), (2**n,) * ndim, f"{path}: {key}")
    try:
        return make(n, values)
    except ValueError as exc:
        raise StateFileError(f"{path}: {exc}") from exc


def _save(path: str, kind: str, n: int, values: np.ndarray) -> None:
    """Write values (2**n x ... complex) as the array member of a `kind`
    file, each entry a [re, im] pair of floats.  The text is that of one
    json.dumps of the document, encoded in blocks of whole rows (at most
    BLOCK_ENTRIES entries, or one row if a row is longer), because
    json.dump never uses the C encoder."""
    key = _KINDS[kind][0]
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
    return _load(path, "state")


def save_state(state: PureState, path: str) -> None:
    _save(path, "state", state.n, state.amps)


def load_density(path: str) -> MixedState:
    return _load(path, "density")


def save_density(rho: MixedState, path: str) -> None:
    _save(path, "density", rho.n, rho.matrix)
