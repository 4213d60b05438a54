import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oddtangle
import oddtangle.bench
from oddtangle.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from oddtangle.convex_roof import MixedState
from oddtangle.qstate import MAX_SQUARED_NORM, MIN_SQUARED_NORM, PureState
from oddtangle.io import (
    StateFileError,
    load_density,
    load_state,
    save_density,
    save_state,
)
from oddtangle.stategen import basis_product, ghz, random_pure, w


# ---------------------------------------------------------------- file I/O


def test_state_roundtrip_exact(tmp_path):
    path = str(tmp_path / "s.json")
    signed_zeros = PureState(3, [complex(-0.0, -0.0), complex(-0.0, 0.5), 1.0] + [0.0] * 5)
    for s in (random_pure(5, seed=3), signed_zeros):
        save_state(s, path)
        back = load_state(path)
        assert back.n == s.n
        assert back.amps.tobytes() == s.amps.tobytes()  # bits, so -0.0 != 0.0


def test_density_roundtrip(tmp_path):
    path = str(tmp_path / "rho.json")
    rho = MixedState.from_ensemble(3, [(0.5, ghz(3)), (0.5, w(3))])
    save_density(rho, path)
    back = load_density(path)
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-16)


def _one_json_dumps(kind, key, n, values):
    """The file text as one json.dumps of the whole document gives it
    (json's C encoder, no blocks)."""
    pairs = values.view(np.float64).reshape(values.shape + (2,)).tolist()
    return json.dumps({"format_version": 1, "kind": kind, "n": n, key: pairs}) + "\n"


@pytest.mark.parametrize("n", [1, 3, 13])  # 2**13 entries fill two blocks
def test_saved_state_text_is_one_json_dumps(tmp_path, n):
    state = random_pure(n, seed=n)
    path = tmp_path / "s.json"
    save_state(state, str(path))
    assert path.read_text() == _one_json_dumps("state", "amplitudes", n, state.amps)


@pytest.mark.parametrize("n", [1, 3, 7])  # 2**7 rows of 2**7 entries fill four blocks
def test_saved_density_text_is_one_json_dumps(tmp_path, n):
    rho = MixedState.from_ensemble(n, [(0.25, random_pure(n, seed=n)), (0.75, random_pure(n, seed=n + 1))])
    path = tmp_path / "rho.json"
    save_density(rho, str(path))
    assert path.read_text() == _one_json_dumps("density", "matrix", n, rho.matrix)


def test_saved_state_golden_text(tmp_path):
    path = tmp_path / "s.json"
    save_state(PureState(1, [complex(-0.0, 1e-05), complex(1e16, 0.5)]), str(path))
    assert path.read_text() == (
        '{"format_version": 1, "kind": "state", "n": 1, "amplitudes": [[-0.0, 1e-05], [1e+16, 0.5]]}\n'
    )


def test_save_state_memory_stays_bounded(tmp_path):
    state = random_pure(16, seed=1)
    tracemalloc.start()
    try:
        save_state(state, str(tmp_path / "s.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * state.amps.nbytes  # 2 x 16 * 2**16 bytes


def test_load_state_memory_stays_bounded(tmp_path):
    # the file's text and its nested lists (12x when json.load built them)
    # are never held whole
    state = random_pure(16, seed=1)
    path = str(tmp_path / "s.json")
    save_state(state, path)
    tracemalloc.start()
    try:
        load_state(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * state.amps.nbytes


def _write_wrong_kind_or_bare_list(path: str, case: str) -> tuple:
    """Write the case's file; (its loader, its array's bytes, the message
    that loader raises on it)."""
    if case == "density_as_state":
        rho = MixedState.from_ensemble(9, [(1.0, random_pure(9, seed=1))])
        save_density(rho, path)
        return load_state, rho.matrix.nbytes, f"{path}: kind is 'density', expected 'state'"
    state = random_pure(16, seed=1)
    if case == "state_as_density":
        save_state(state, path)
        return load_density, state.amps.nbytes, f"{path}: kind is 'state', expected 'density'"
    with open(path, "w") as fh:  # as json.dump writes a bare list of pairs
        json.dump(state.amps.view(np.float64).reshape(-1, 2).tolist(), fh)
    return load_state, state.amps.nbytes, f"{path}: top-level value must be an object"


@pytest.mark.parametrize("case", ["density_as_state", "state_as_density", "bare_list"])
def test_wrong_kind_or_bare_list_memory_stays_bounded(tmp_path, case):
    # either kind's array, and a top-level array, is decoded in row blocks
    # before it is refused (21x the array when it was decoded whole)
    path = str(tmp_path / "f.json")
    load, nbytes, message = _write_wrong_kind_or_bare_list(path, case)
    tracemalloc.start()
    try:
        with pytest.raises(StateFileError) as caught:
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == message
    assert peak <= 2 * nbytes


def test_state_file_with_a_matrix_member_loads_the_same_values(tmp_path):
    # a density's member, before and after the amplitudes, over several blocks
    state = random_pure(13, seed=13)
    path = tmp_path / "s.json"
    save_state(state, str(path))
    text = path.read_text()
    matrix = '"matrix": [[[1, 2], [3, 4]],\n [[5, 6], [7, 8]]]'
    path.write_text(text.replace('"n": 13,', f'"n": 13, {matrix},').replace("]]}\n", f"]], {matrix}}}\n"))
    assert len(path.read_text()) > 4 * oddtangle.io.BLOCK_CHARS
    assert load_state(str(path)).amps.tobytes() == state.amps.tobytes()


@pytest.mark.parametrize(
    "shape",
    ["array", "object-before", "object-after", "array-of-arrays", "array-of-object", "nested-n", "duplicate-n"],
)
def test_state_file_with_an_extra_array_member_loads_in_bounded_memory(tmp_path, shape):
    # an unread value holding a copy of the pairs, as an array, in an object
    # or in an array, before or after the amplitudes, or as an `n` that a
    # later `n` overrides, is decoded in row blocks and dropped (17.5x,
    # 17.0x, 22.1x, 23.1x, 23.1x, 17.0x and 17.0x the array when decoded whole)
    state = random_pure(16, seed=1)
    path = tmp_path / "s.json"
    save_state(state, str(path))
    text = path.read_text()
    doc = json.loads(text)
    pairs = doc["amplitudes"]
    doc = {
        "array": {"extra": pairs, **doc},
        "object-before": {"extra": {"copy": pairs}, **doc},
        "object-after": {**doc, "extra": {"copy": pairs}},
        "array-of-arrays": {"extra": [pairs], **doc},
        "array-of-object": {"extra": [{"copy": pairs}], **doc},
        "nested-n": {"extra": {"n": pairs}, **doc},
    }.get(shape)
    path.write_text(json.dumps(doc) if doc else '{"n": ' + json.dumps(pairs) + ", " + text[1:])
    del doc, pairs, text
    tracemalloc.start()
    try:
        loaded = load_state(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.amps.tobytes() == state.amps.tobytes()
    assert peak <= 3 * state.amps.nbytes


# Files that span several of the loaders' blocks (oddtangle.io.BLOCK_CHARS
# characters): a state of 2**13 entries and a density of 2**7 x 2**7.


def _number(x: float, k: int) -> str:
    """x as an integer where it is one (but -0.0), else in one of three
    forms by k: repr, or 17 digits with a lower- or upper-case exponent."""
    if x.is_integer() and not (x == 0 and str(x).startswith("-")):
        return str(int(x))
    return (repr(x), format(x, ".16e"), format(x, ".16E"))[k % 3]


@functools.cache
def _many_blocks(kind):
    """(key, n, values, top-level rows of the key array as JSON text)."""
    if kind == "state":
        key, values = "amplitudes", random_pure(13, seed=13).amps.copy()
        values[::97] = [complex(k % 3 - 1, k % 5) for k in range(len(values[::97]))]
        values[5] = complex(-0.0, -0.0)
    else:
        key, psi = "matrix", random_pure(7, seed=7).amps
        values = 0.75 * np.outer(psi, psi.conj()) + 0.25 * np.outer(ghz(7).amps, ghz(7).amps)
    pairs = values.view(np.float64).reshape(-1, 2).tolist()
    entries = [
        f"[{_number(re, 2 * k)},{' ' * (k % 3)}{_number(im, 2 * k + 1)}]"
        for k, (re, im) in enumerate(pairs)
    ]
    if kind == "density":
        width = len(values)
        entries = ["[" + ", ".join(entries[i:i + width]) + "]" for i in range(0, len(entries), width)]
    return key, int(np.log2(len(values))), values, entries


_LOAD = {
    "state": (lambda p: load_state(p).amps, "compute --state"),
    "density": (lambda p: load_density(p).matrix, "roof --density"),
}


@pytest.mark.parametrize("form", ["indent", "keys_reordered_and_extra", "duplicate_key", "number_forms"])
@pytest.mark.parametrize("kind", ["state", "density"])
def test_loaders_match_json_on_files_of_several_blocks(tmp_path, kind, form):
    key, n, values, rows = _many_blocks(kind)
    head = f'"format_version": 1, "kind": "{kind}", "n": {n}'
    body = ",\n ".join(rows)
    pairs = values.view(np.float64).reshape(values.shape + (2,)).tolist()
    text = {
        "indent": json.dumps({"format_version": 1, "kind": kind, "n": n, key: pairs}, indent=1),
        # the extra array after `key` holds row ends too
        "keys_reordered_and_extra": (
            f'{{"note": "x], y]],", "{key}": [{body}], "extra": [[1, 2], [3, 4]],'
            f' "n": {n}, "kind": "{kind}", "format_version": 1, "more": {{"a": [[0]]}}}}'
        ),
        "duplicate_key": f'{{"{key}": [[[1, 0]]], {head}, "{key}": [{body}]}}',
        "number_forms": f'{{{head},\r\n\t"{key}" :\t[ {body} ] }}\n',
    }[form]
    assert len(text) > 4 * oddtangle.io.BLOCK_CHARS
    path = tmp_path / "f.json"
    path.write_text(text)
    expected = np.asarray(json.loads(text)[key], dtype=np.float64)
    assert _LOAD[kind][0](str(path)).tobytes() == expected.tobytes()  # bits, so -0.0 != 0.0


_SMALL_FILES = {
    "state": (
        '{"amplitudes": [[9, 9]], "extra": [[1, 2], [3e0, -4.5E-1]], "amplitudes" :'
        ' [ [0.5, -0.0] ,[1e-1,0],\n [-2, 0.25], [1.5e+0, 3]], "note": "a], b]],",'
        ' "n": 2, "kind": "state", "format_version": 1, "z": 1.5e+3}\n'
    ),
    "density": (
        '{"format_version": 1, "n": 1, "matrix": [[[0.5, 0], [0.25, -0.125]],\r\n'
        ' [[0.25, 0.125] , [0.5, -0.0]] ], "kind": "density", "w": -1.25e-2}'
    ),
}
_SMALL_FAULTS = [
    ("[0.5, -0.0] ,", "[[0.5, -0.0], [1, 0]] ,"),  # a nested row
    ("[1e-1,0],", "[1e-1,0]"),  # a missing comma
    ("[1.5e+0, 3]]", "[1.5e+0, 3], ]"),  # a trailing comma
    ("1.5e+3}", "1.5e+}"),  # a bad number after the array
    ("[0.25, -0.125]],", "[0.25, -0.125]]]"),  # the density's array ends early
]


@pytest.mark.parametrize("kind", ["state", "density"])
def test_loaders_decode_alike_wherever_blocks_and_chunks_end(tmp_path, monkeypatch, kind):
    # every block size from 1 character to the whole text, so that a chunk
    # or a block ends at every place once
    key = "amplitudes" if kind == "state" else "matrix"
    load = _LOAD[kind][0]
    text = _SMALL_FILES[kind]
    expected = np.asarray(json.loads(text)[key], dtype=np.float64).tobytes()
    broken = [text.replace(a, b) for a, b in _SMALL_FAULTS if a in text]
    path = tmp_path / "f.json"
    messages = []
    for t in broken:
        path.write_text(t)
        with pytest.raises(StateFileError) as caught:
            load(str(path))
        # a syntax error is placed alike; what an entry error says of its
        # shape depends on the rows decoded with it
        message = str(caught.value)
        messages.append(message if "cannot read" in message else f"{path}: {key}: expected")
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(oddtangle.io, "BLOCK_CHARS", size)
        path.write_text(text)
        assert load(str(path)).tobytes() == expected, size
        for t, message in zip(broken, messages):
            path.write_text(t)
            with pytest.raises(StateFileError, match=re.escape(message)):
                load(str(path))


def test_deeply_nested_unread_array_loads_in_small_blocks(tmp_path, monkeypatch):
    # a block that cuts through a nested array is read entry by entry, one
    # frame per level, so small blocks accept the nesting json.loads does
    monkeypatch.setattr(oddtangle.io, "BLOCK_CHARS", 16)
    deep = "[" * 800 + "0" + ", 0]" * 800
    path = tmp_path / "s.json"
    path.write_text(f'{{"format_version": 1, "kind": "state", "n": 1, "extra": {deep}, "amplitudes": [[1, 0], [0, 0]]}}')
    assert load_state(str(path)).amps.tolist() == [1, 0]


_MUTATED = (
    '{"format_version": 1, "kind": "state", "extra": [{"copy": [[1, 2]]}, [5, 6]],'
    ' "n": 1, "amplitudes": [[0.5, -0.0], [1e-1, 0]], "note": "a], b"}\n'
)


@pytest.mark.parametrize("size", [1, 7, 65536])
def test_loaders_place_every_syntax_error_as_json_does(tmp_path, monkeypatch, size):
    # every one-character replacement by "]", "," or "x": where json.loads
    # refuses the text, the loader gives its message; where it accepts it,
    # the loader raises no read error
    monkeypatch.setattr(oddtangle.io, "BLOCK_CHARS", size)
    path = tmp_path / "m.json"
    prefix = f"cannot read {path}: "
    mutants = {_MUTATED[:i] + c + _MUTATED[i + 1:] for i in range(len(_MUTATED)) for c in "],x"}
    for text in sorted(mutants - {_MUTATED}):
        path.write_text(text)
        try:
            json.loads(text)
            expected = None
        except json.JSONDecodeError as exc:
            expected = prefix + str(exc)
        try:
            load_state(str(path))
            message = None
        except StateFileError as exc:
            message = str(exc)
        if expected is None:
            assert message is None or not message.startswith(prefix), text
        else:
            assert message == expected, text


_BAD_ENTRIES = {
    "true": "[true, 0]",
    "null": "[null, 0]",
    "string": '["x", 0]',
    "bracket_in_string": '["a]", 0]',
    "three_entries": "[1, 0, 0]",
    "nested": "[[1, 0], [0, 0]]",
}


@pytest.mark.parametrize("fault", [*_BAD_ENTRIES, "missing_comma", "unterminated"])
@pytest.mark.parametrize("kind", ["state", "density"])
def test_loaders_reject_a_bad_entry_after_the_first_block(tmp_path, capsys, kind, fault):
    key, n, _, rows = _many_blocks(kind)
    k = 3 * len(rows) // 4  # the faulty row
    assert len(", ".join(rows[:k])) > oddtangle.io.BLOCK_CHARS
    head = f'{{"format_version": 1, "kind": "{kind}", "n": {n}, "{key}": ['
    if fault in _BAD_ENTRIES:
        entry = rows[k] if kind == "state" else rows[k][1:rows[k].index("]") + 1]
        rows = rows[:k] + [rows[k].replace(entry, _BAD_ENTRIES[fault], 1)] + rows[k + 1:]
    elif fault == "missing_comma":
        rows = rows[:k] + [rows[k] + " " + rows[k + 1]] + rows[k + 2:]
    text = head + ", ".join(rows) + "]}\n"
    if fault == "unterminated":
        text = head + ", ".join(rows[:k])
    path = tmp_path / "bad.json"
    path.write_text(text)
    load, command = _LOAD[kind]
    with pytest.raises(StateFileError):
        load(str(path))
    assert main([*command.split(), str(path)]) == EXIT_INPUT_ERROR
    # a syntax error is placed in the file; an entry error names the array
    syntax = fault in ("missing_comma", "unterminated")
    prefix = f"error: cannot read {path}: " if syntax else f"error: {path}: {key}: "
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"format_version": 2, "kind": "state", "n": 1, "amplitudes": [[1,0],[0,0]]}',
        '{"format_version": 1, "kind": "state", "n": 2, "amplitudes": [[1,0]]}',
        '{"format_version": 1, "kind": "state", "n": 1, "amplitudes": [[1,0],["x",0]]}',
        '{"format_version": 1, "kind": "state", "n": 1, "amplitudes": [[1,0],["1",0]]}',
        '{"format_version": 1, "kind": "state", "n": 1, "amplitudes": [[1,0],[null,0]]}',
        '{"format_version": 1, "kind": "density", "n": 1, "amplitudes": [[1,0],[0,0]]}',
        '{"format_version": 1, "kind": "state", "n": 1, "amplitudes": [[0,0],[0,0]]}',
    ],
)
def test_malformed_state_files(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(StateFileError):
        load_state(str(path))


def test_missing_file():
    with pytest.raises(StateFileError):
        load_state("/nonexistent/state.json")


def test_malformed_density(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1, "kind": "density", "n": 1, "matrix": [[[1,0]]]}')
    with pytest.raises(StateFileError):
        load_density(str(path))


@pytest.mark.parametrize("pair", ["[true, 0]", "[0, false]"])
def test_boolean_amplitudes_rejected(tmp_path, capsys, pair):
    amps = [pair] + ["[0, 0]"] * 6 + ["[1, 0]"]
    path = tmp_path / "bool.json"
    path.write_text(
        '{"format_version": 1, "kind": "state", "n": 3, "amplitudes": [%s]}'
        % ", ".join(amps)
    )
    with pytest.raises(StateFileError):
        load_state(str(path))
    assert main(["compute", "--state", str(path)]) == EXIT_INPUT_ERROR
    assert "expected a [re, im] pair" in capsys.readouterr().err


_STATE_DOC = '{"format_version": 1, "kind": "state", "n": %s, "amplitudes": [[%s, 0], [0, 0]]}'
_DENSITY_DOC = (
    '{"format_version": 1, "kind": "density", "n": %s,'
    ' "matrix": [[[%s, 0], [0, 0]], [[0, 0], [0, 0]]]}'
)


@pytest.mark.parametrize(
    "n, entry, message",
    [
        ("true", "1", "bad qubit count"),
        ("1", str(10**400), "expected a [re, im] pair"),
        ("40", "1", "bad qubit count 40, need 1..24"),
        ("[3]", "1", "bad qubit count: an array, need 1..24"),
        ('{"a": 1}', "1", "bad qubit count: an object, need 1..24"),
    ],
    ids=["bool_n", "int_beyond_float", "n_above_cap", "array_n", "object_n"],
)
@pytest.mark.parametrize(
    "command, doc",
    [("compute --state", _STATE_DOC), ("roof --density", _DENSITY_DOC)],
    ids=["state", "density"],
)
def test_bad_count_or_huge_integer_is_an_input_error(
    tmp_path, capsys, command, doc, n, entry, message
):
    path = tmp_path / "bad.json"
    path.write_text(doc % (n, entry))
    assert main([*command.split(), str(path)]) == EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, shown",
    [
        ("false", " False"), ("true", " True"), ("1.0", " 1.0"), ('"x"', " 'x'"), ("40", " 40"),
        ("[1]", ": an array"), ('{"a": [1]}', ": an object"),
    ],
)
@pytest.mark.parametrize(
    "member, message",
    [
        ("format_version", "unsupported format_version{}"),
        ("kind", "kind is{}, expected 'state'"),
    ],
)
def test_a_bad_version_or_kind_is_shown_by_value_or_json_type(tmp_path, member, message, value, shown):
    doc = {"format_version": "1", "kind": '"state"', "n": "1", member: value}
    path = tmp_path / "bad.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + ', "amplitudes": [[1, 0], [0, 0]]}')
    with pytest.raises(StateFileError) as caught:
        load_state(str(path))
    assert str(caught.value) == f"{path}: " + message.format(shown)


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_compute_refuses_a_version_that_only_equals_1(tmp_path, capsys, version):
    # True == 1.0 == 1 in Python; the loader takes only the integer 1
    path = tmp_path / "bad.json"
    path.write_text(_STATE_DOC.replace('"format_version": 1', f'"format_version": {version}') % (1, 1))
    assert main(["compute", "--state", str(path)]) == EXIT_INPUT_ERROR
    shown = {"true": "True", "1.0": "1.0"}[version]
    assert capsys.readouterr() == ("", f"error: {path}: unsupported format_version {shown}\n")


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize(
    "matrix",
    ["[[[0.5, 0], [%s, 0]], [[%s, 0], [0.5, 0]]]", "[[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]"],
    ids=["off_diagonal", "diagonal"],
)
def test_non_finite_density_is_an_input_error(tmp_path, capsys, matrix, value):
    path = tmp_path / "nan.json"
    doc = '{"format_version": 1, "kind": "density", "n": 1, "matrix": %s}'
    path.write_text(doc % (matrix.replace("%s", value)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["roof", "--density", str(path)]) == EXIT_INPUT_ERROR
    assert caught == []
    assert "matrix entries must be finite" in capsys.readouterr().err


def test_density_entry_above_one_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    doc = '{"format_version": 1, "kind": "density", "n": 1, "matrix": %s}'
    path.write_text(doc % "[[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["roof", "--density", str(path)]) == EXIT_INPUT_ERROR
    assert caught == []
    message = "matrix entries must have magnitude at most 1"
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


_STATE_COMMANDS = ["compute", "oracle", "residual", "tangle3", "perm-check"]


@pytest.mark.parametrize("command", _STATE_COMMANDS)
@pytest.mark.parametrize(
    "value, message",
    [
        (1e100, "state squared norm must be below MAX_SQUARED_NORM = 2**500"),
        (1e200, "state squared norm must be below MAX_SQUARED_NORM = 2**500"),
        (1e-90, "state squared norm must be at least MIN_SQUARED_NORM = 2**-500"),
        (1e-200, "state squared norm must be at least MIN_SQUARED_NORM = 2**-500"),
        (0.0, "state must have positive squared norm"),
    ],
)
def test_state_norm_out_of_double_range_is_an_input_error(
    tmp_path, capsys, command, value, message
):
    # amplitude `value` on |000> and |111>
    path = tmp_path / "s.json"
    pairs = ", ".join(["[%r, 0]" % value] + ["[0, 0]"] * 6 + ["[%r, 0]" % value])
    path.write_text('{"format_version": 1, "kind": "state", "n": 3, "amplitudes": [%s]}' % pairs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--state", str(path)]) == EXIT_INPUT_ERROR
    assert caught == []
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("command", _STATE_COMMANDS)
def test_state_just_under_the_norm_bound_gives_finite_output(tmp_path, capsys, command):
    path = str(tmp_path / "s.json")
    state = random_pure(3, seed=4)
    save_state(PureState(3, np.sqrt(0.999999 * MAX_SQUARED_NORM) * state.amps), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--state", path]) == EXIT_OK
    assert caught == []
    out = capsys.readouterr().out
    assert "inf" not in out and "nan" not in out


def test_state_at_the_norm_floor_keeps_its_tangle(tmp_path, capsys):
    # GHZ(3) in the Hadamard basis has amplitude 1/2 on the four even-weight
    # kets, so at scale 2**-250 both its squared norm and its tangle are exact
    h = 2.0**-251
    state = PureState(3, [h, 0, 0, h, 0, h, h, 0])
    assert state.squared_norm() == MIN_SQUARED_NORM == 2.0**-500
    path = str(tmp_path / "s.json")
    save_state(state, path)
    assert main(["compute", "--state", path]) == EXIT_OK
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[0] == "tau_avg" and float(last[1]) == 2.0**-1000


# ---------------------------------------------------------------- CLI


def _gen(tmp_path, name, *args):
    path = str(tmp_path / name)
    assert main(["gen", "--out", path, *args]) == EXIT_OK
    return path


@pytest.mark.parametrize("kind", ["ghz", "w", "random", "basis"])
def test_cli_gen_above_qubit_cap_is_an_input_error(tmp_path, monkeypatch, capsys, kind):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the qubit cap was checked")

    monkeypatch.setattr(np, "zeros", no_alloc)
    monkeypatch.setattr(np.random, "default_rng", no_alloc)
    out = str(tmp_path / "big.json")
    bits = ["--bits", "0" * 40] if kind == "basis" else []
    argv = ["gen", "--type", kind, "--n", "40", *bits, "--out", out]
    assert main(argv) == EXIT_INPUT_ERROR
    assert "40 qubits exceed the limit of MAX_QUBITS=24" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_gen_and_compute_text(tmp_path, capsys):
    path = _gen(tmp_path, "ghz.json", "--type", "ghz", "--n", "3")
    assert main(["compute", "--state", path]) == EXIT_OK
    out = capsys.readouterr().out
    avg_line = [l for l in out.splitlines() if l.startswith("tau_avg ")]
    assert len(avg_line) == 1
    assert float(avg_line[0].split()[1]) == pytest.approx(1.0, abs=1e-12)
    assert out.count("tau_") == 4  # three qubits + the average


def test_cli_compute_csv(tmp_path, capsys):
    path = _gen(tmp_path, "w.json", "--type", "w", "--n", "5")
    assert main(["compute", "--state", path, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,i,tau_i,tau_avg,T_re,T_im,P_re,P_im,Q_re,Q_im"
    assert len(lines) == 6
    assert all(row.startswith("5,") for row in lines[1:])


def test_cli_gen_basis(tmp_path):
    path = _gen(tmp_path, "b.json", "--type", "basis", "--n", "3", "--bits", "101")
    s = load_state(path)
    assert s.amps[5] == 1.0


def test_cli_gen_basis_without_bits_fails(tmp_path):
    path = str(tmp_path / "b.json")
    assert main(["gen", "--type", "basis", "--n", "3", "--out", path]) == EXIT_INPUT_ERROR


def test_cli_oracle_matches_compute(tmp_path, capsys):
    path = _gen(tmp_path, "r.json", "--type", "random", "--n", "5", "--seed", "4")
    assert main(["oracle", "--state", path, "--qubit", "2"]) == EXIT_OK
    oracle_val = float(capsys.readouterr().out.split()[1])
    from oddtangle.fast_tangle import tangle_i_fast

    assert oracle_val == pytest.approx(tangle_i_fast(load_state(path), 2), rel=1e-10)


def test_cli_oracle_even_n_uses_wong(tmp_path, capsys):
    path = _gen(tmp_path, "g4.json", "--type", "ghz", "--n", "4")
    assert main(["oracle", "--state", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("wong_tangle ")
    assert float(out.split()[1]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "flags", [["--qubit", "1"], ["--qubit", "9", "--full-sum"], ["--full-sum"]]
)
def test_cli_oracle_even_n_rejects_the_odd_n_flags(tmp_path, capsys, flags):
    path = _gen(tmp_path, "w4.json", "--type", "w", "--n", "4")
    assert main(["oracle", "--state", path, *flags]) == EXIT_INPUT_ERROR
    assert f"error: {flags[0]} applies only to odd n, got n=4" in capsys.readouterr().err


def test_cli_oracle_cap(tmp_path, capsys):
    path = _gen(tmp_path, "r7.json", "--type", "random", "--n", "7", "--seed", "0")
    assert main(["oracle", "--state", path]) == EXIT_OK
    path = _gen(tmp_path, "r9.json", "--type", "random", "--n", "9", "--seed", "0")
    assert main(["oracle", "--state", path]) == EXIT_INPUT_ERROR
    assert "oracle limit of 7 qubits" in capsys.readouterr().err


def test_cli_tangle3(tmp_path, capsys):
    path = _gen(tmp_path, "g3.json", "--type", "ghz", "--n", "3")
    assert main(["tangle3", "--state", path]) == EXIT_OK
    out = capsys.readouterr().out
    values = {
        line.split()[0]: float(line.split()[1])
        for line in out.strip().splitlines()
        if line.startswith("tau_")
    }
    assert values["tau_coefficients"] == pytest.approx(1.0, abs=1e-12)
    assert values["tau_oracle"] == pytest.approx(1.0, abs=1e-12)
    assert values["tau_fast"] == pytest.approx(1.0, abs=1e-12)


def test_cli_tangle3_rejects_wrong_n(tmp_path):
    path = _gen(tmp_path, "g5.json", "--type", "ghz", "--n", "5")
    assert main(["tangle3", "--state", path]) == EXIT_INPUT_ERROR


def test_cli_residual(tmp_path, capsys):
    path = _gen(tmp_path, "r.json", "--type", "random", "--n", "5", "--seed", "6")
    assert main(["residual", "--state", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "I_bar_defining" in out and "I_bar_reduced" in out
    tail = {
        line.split()[0]: float(line.split()[1])
        for line in out.strip().splitlines()
        if line.startswith(("residual_tau", "tau_1_fast"))
    }
    assert tail["residual_tau"] == pytest.approx(tail["tau_1_fast"], rel=1e-11)


def test_cli_slocc_check(capsys):
    assert main(["slocc-check", "--n", "3", "--trials", "5"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "trial,lhs,rhs,rel_error,passed"
    assert len(lines) == 6
    assert all(row.endswith("True") for row in lines[1:])


def test_cli_slocc_check_unitary(capsys):
    assert main(["slocc-check", "--n", "5", "--trials", "3", "--unitary"]) == EXIT_OK


def test_cli_perm_check(capsys):
    assert main(["perm-check", "--n", "3", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "permutations 6" in out and "PASS" in out


def test_cli_perm_check_from_file(tmp_path, capsys):
    path = _gen(tmp_path, "r.json", "--type", "random", "--n", "7", "--seed", "2")
    assert main(["perm-check", "--state", path, "--trials", "5"]) == EXIT_OK
    assert "permutations 5" in capsys.readouterr().out


def test_cli_perm_check_empty_state_is_a_path(capsys):
    # an empty --state is read as a path, as compute reads it, not dropped
    assert main(["compute", "--state", ""]) == EXIT_INPUT_ERROR
    compute = capsys.readouterr()
    assert compute == ("", "error: cannot read : [Errno 2] No such file or directory: ''\n")
    assert main(["perm-check", "--state", ""]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == compute
    assert main(["perm-check", "--state", "", "--n", "3"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", "error: --n applies only without --state\n")


@pytest.mark.parametrize(
    "command, message",
    [
        ("gen --type ghz --n 3 --bits 0101", "--bits applies only to --type basis"),
        ("perm-check --state r5.json --n 9", "--n applies only without --state"),
        ("perm-check --state r5.json --n 5", "--n applies only without --state"),
        ("gen --type ghz --n 3 --seed 0", "--seed applies only to --type random"),
        ("gen --type basis --n 3 --bits 010 --seed 1", "--seed applies only to --type random"),
        ("perm-check --trials 50", "--trials applies only above n=5"),
        ("perm-check --n 3 --trials 5", "--trials applies only above n=5"),
        ("perm-check --state r5.json --trials 5", "--trials applies only above n=5"),
        ("perm-check --state r5.json --seed 7", "--seed applies only without --state or above n=5"),
        ("roof --density rho.json --restarts 0 --seed 9", "--seed applies only with --restarts above 0"),
    ],
)
def test_cli_flag_the_command_would_ignore_is_an_input_error(
    tmp_path, monkeypatch, capsys, command, message
):
    monkeypatch.chdir(tmp_path)
    save_state(random_pure(5, seed=0), "r5.json")
    assert main(command.split() + ["--out", "out"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # refused before any work: nothing is written
    assert os.listdir(tmp_path) == ["r5.json"]


def test_cli_flags_left_unset_keep_their_defaults(tmp_path, capsys):
    # gen --type random draws seed 0; perm-check tries 50 relabellings above n=5
    unset = _gen(tmp_path, "a.json", "--type", "random", "--n", "5")
    zero = _gen(tmp_path, "b.json", "--type", "random", "--n", "5", "--seed", "0")
    assert open(unset).read() == open(zero).read()
    assert main(["perm-check", "--n", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("permutations 50 ")
    # perm-check and roof draw seed 0 if --seed is not given
    assert main(["perm-check", "--n", "7", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out == out
    rho = str(tmp_path / "rho.json")
    save_density(MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))]), rho)
    roof = ["roof", "--density", rho, "--restarts", "1"]
    assert main(roof) == EXIT_OK
    out = capsys.readouterr().out
    assert main(roof + ["--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out == out


def test_cli_perm_check_scales_with_the_state(tmp_path, capsys):
    # an unnormalized state: the tangle grows as the fourth power of the scale
    path = str(tmp_path / "r100.json")
    save_state(PureState(5, 100.0 * random_pure(5, seed=3).amps), path)
    assert main(["perm-check", "--state", path]) == EXIT_OK
    assert capsys.readouterr().out.endswith(" tol 1e-10 PASS\n")


def test_cli_roof(tmp_path, capsys):
    rho_path = str(tmp_path / "rho.json")
    save_density(MixedState.from_ensemble(3, [(1.0, ghz(3))]), rho_path)
    assert main(["roof", "--density", rho_path, "--restarts", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split()[1])
    assert value == pytest.approx(1.0, abs=1e-6)
    lines = out.splitlines()
    assert lines[1].startswith("restarts 2 converged ")
    assert lines[2].startswith("evaluations ") and int(lines[2].split()[1]) > 2


@pytest.mark.parametrize("restarts", ["-3", "-1"])
def test_cli_roof_negative_restarts_is_an_input_error(tmp_path, capsys, restarts):
    rho_path = str(tmp_path / "rho.json")
    save_density(MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))]), rho_path)
    assert main(["roof", "--density", rho_path, "--restarts", restarts]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "restarts" in err


def test_cli_roof_zero_restarts_reports_the_eigendecomposition(tmp_path, capsys):
    rho_path = str(tmp_path / "rho.json")
    save_density(MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))]), rho_path)
    assert main(["roof", "--density", rho_path, "--restarts", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "restarts 0 converged False"
    assert lines[2] == "evaluations 1"


def test_cli_roof_seed_goes_unused_when_the_eigendecomposition_is_already_zero(tmp_path, capsys):
    # the ignored-flag rule is checked on the arguments: an equal mixture of
    # |000> and |111> is at ROOF_ZERO_TOL before any restart runs
    rho_path = str(tmp_path / "sep.json")
    mixture = [(0.5, basis_product(3, (0, 0, 0))), (0.5, basis_product(3, (1, 1, 1)))]
    save_density(MixedState.from_ensemble(3, mixture), rho_path)
    outputs = []
    for seed in ("0", "5"):
        assert main(["roof", "--density", rho_path, "--restarts", "4", "--seed", seed]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1] == "restarts 0 converged False"


def test_cli_roof_does_not_import_scipy(tmp_path):
    rho_path = str(tmp_path / "rho.json")
    save_density(MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))]), rho_path)
    src = os.path.dirname(os.path.dirname(oddtangle.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from oddtangle.cli import main\n"
        f"assert main(['roof', '--density', {rho_path!r}, '--restarts', '2']) == 0\n"
        "assert 'scipy' not in sys.modules, 'roof imported scipy'\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)


def test_cli_bench(capsys):
    assert main(["bench", "--n-list", "3", "--repetitions", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,method,mult_count,paper_count,median_seconds"
    assert lines[1].startswith("3,fast,8,11,")
    assert lines[2].startswith("3,naive_pruned,192,12288,")


@pytest.mark.parametrize(
    "n_list, message",
    [
        ("7,7,7,9", "n=9 exceeds the oracle limit of 7 qubits"),
        ("3,4", "need odd n >= 3, got n=4"),
    ],
)
def test_cli_bench_refuses_a_bad_n_list_before_timing(monkeypatch, capsys, n_list, message):
    def no_timing(fn, repetitions):
        raise AssertionError("timed an n before the whole list was checked")

    monkeypatch.setattr(oddtangle.bench, "_median_seconds", no_timing)
    assert main(["bench", "--n-list", n_list]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_verify_all(capsys):
    assert main(["verify-all"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_cli_verify_all_reports_a_failed_check(monkeypatch, capsys):
    import oddtangle.verify

    fast = oddtangle.verify.tangle_i_fast
    monkeypatch.setattr(oddtangle.verify, "tangle_i_fast", lambda s, i: fast(s, i) + 1e-6)
    assert main(["verify-all"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith("[FAIL] oracle_equivalence ") for l in lines)
    assert any(l.startswith("[PASS] ghz_anchor ") for l in lines)


def test_cli_verify_all_fails_a_nan_error(monkeypatch, capsys):
    import oddtangle.verify

    monkeypatch.setattr(oddtangle.verify, "tangle_i_fast", lambda s, i: float("nan"))
    assert main(["verify-all"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith("[FAIL] oracle_equivalence worst_error=nan ") for l in lines)


def test_cli_malformed_state_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["compute", "--state", str(path)]) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


_DEEP = b"[" * 100000 + b"]" * 100000


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--state", _DEEP),
        ("--state", b'{"format_version": 1, "kind": "state", "n": 1, "amplitudes": ' + _DEEP + b"}"),
        ("--density", b'{"format_version": 1, "kind": "density", "n": 1, "matrix": ' + _DEEP + b"}"),
        ("--state", b"\xff\xfe\x00garbage"),
        ("--density", b"\xff\xfe\x00garbage"),
        ("--state", b'\xef\xbb\xbf{"format_version": 1, "kind": "state", "n": 1, "amplitudes": [[1, 0], [0, 0]]}'),
    ],
    ids=["deep-state", "deep-amplitudes", "deep-matrix", "not-utf8-state", "not-utf8-density", "bom"],
)
def test_cli_undecodable_file_is_an_input_error(tmp_path, capsys, flag, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    command = "compute" if flag == "--state" else "roof"
    assert main([command, flag, str(path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_cli_out_file(tmp_path):
    state_path = _gen(tmp_path, "g.json", "--type", "ghz", "--n", "3")
    out_path = tmp_path / "report.txt"
    assert main(["compute", "--state", state_path, "--out", str(out_path)]) == EXIT_OK
    text = out_path.read_text()
    avg = float(text.splitlines()[-1].split()[1])
    assert avg == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv, out",
    [
        (["gen", "--type", "ghz", "--n", "3"], "{tmp}/missing/o.txt"),
        (["compute", "--state", "{g3}"], "{tmp}/missing/o.txt"),
        (["gen", "--type", "ghz", "--n", "3"], ""),
        (["compute", "--state", "{g3}"], ""),
    ],
    ids=["gen", "compute", "gen_empty_out", "compute_empty_out"],
)
def test_cli_unwritable_out_is_an_input_error(tmp_path, capsys, argv, out):
    g3 = _gen(tmp_path, "g3.json", "--type", "ghz", "--n", "3")
    out = out.format(tmp=tmp_path)
    assert main([a.format(g3=g3) for a in argv] + ["--out", out]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv, work",
    [(["verify-all"], "verify.verify_all"), (["compute", "--state", "s.json"], "io.load_state")],
    ids=["verify_all", "compute"],
)
def test_cli_out_in_a_missing_directory_is_refused_before_any_work(
    tmp_path, monkeypatch, capsys, argv, work
):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(f"oddtangle.{work}", no_work)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "missing/x.txt"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", "error: cannot write missing/x.txt: No such file or directory\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [["gen", "--type", "ghz", "--n", "3"], ["compute", "--state", "g3.json"], ["verify-all"]],
    ids=["gen", "compute", "verify_all"],
)
def test_cli_out_under_a_regular_file_is_an_input_error(tmp_path, monkeypatch, capsys, argv):
    # os.stat of "report.txt/sub" fails with NotADirectoryError, not FileNotFoundError
    monkeypatch.chdir(tmp_path)
    _gen(tmp_path, "g3.json", "--type", "ghz", "--n", "3")
    (tmp_path / "report.txt").write_text("kept\n")
    out = "report.txt/sub/x.txt"
    assert main(argv + ["--out", out]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: cannot write {out}: Not a directory\n")
    assert sorted(os.listdir(tmp_path)) == ["g3.json", "report.txt"]
    assert (tmp_path / "report.txt").read_text() == "kept\n"


@pytest.mark.parametrize(
    "command",
    [
        "slocc-check --n 3 --trials 0",
        "slocc-check --n 3 --trials -2",
        "perm-check --n 7 --trials 0",
        "perm-check --n 7 --trials -1",
        "bench --n-list 3 --repetitions 0",
        "bench --n-list 3 --repetitions -1",
    ],
)
def test_cli_count_below_one_is_an_input_error(capsys, command):
    *_, flag, value = argv = command.split()
    assert main(argv) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and flag.lstrip("-") in err
    assert f"must be >= 1, got {value}" in err


@pytest.mark.parametrize(
    "command, message",
    [
        ("gen --type basis --n 3 --bits 0a0", "--bits must be a string of 0s and 1s, got '0a0'"),
        ("gen --type basis --n 3 --bits 0-1", "--bits must be a string of 0s and 1s, got '0-1'"),
        ("bench --n-list 3,x", "--n-list must be comma-separated integers, got '3,x'"),
        ("bench --n-list 3,,5", "--n-list must be comma-separated integers, got '3,,5'"),
    ],
)
def test_cli_unparsable_value_names_its_flag(tmp_path, capsys, command, message):
    # gen needs --out; the parse fails before anything is written there
    assert main(command.split() + ["--out", str(tmp_path / "out")]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "command",
    [
        "oracle --state s.json --cap-override",
        "slocc-check --n 3 --tol 1",
        "perm-check --n 3 --tol 1",
        "roof --density rho.json --tol 1",
        "roof --density rho.json --m-max 3",
        "verify-all --quick",
        "bench --n-list 3 --seed 0",
    ],
)
def test_cli_has_no_limit_or_tolerance_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "unrecognized arguments: --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, message",
    [
        ("compute --state s.json --format json", "invalid choice: 'json'"),
        ("verify-all --format json", "unrecognized arguments: --format json"),
    ],
)
def test_cli_has_no_json_output(capsys, command, message):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        "gen --type ghz --n 3 --seed -1",
        "slocc-check --n 3 --seed -5",
        "perm-check --n 7 --seed -5",
        "roof --density rho.json --seed -2",
        "verify-all --seed -5",
    ],
)
def test_cli_negative_seed_is_an_input_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    argv = command.split() + ["--out", "out"]
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: --seed must be >= 0, got {argv[-3]}\n")
    # refused before any work: nothing is read or written
    assert os.listdir(tmp_path) == []


def _readme(name="README.md"):
    with open(os.path.join(os.path.dirname(__file__), "..", name), encoding="utf-8") as fh:
        return fh.read()


def test_readme_quick_tour_runs():
    block = _readme().split("\n## Library quick tour\n", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(block.split("```", 1)[0], namespace)
    assert abs(namespace["report"].average - 1.0) <= 1e-12


def _quick_tour_bullets(name):
    """The "- `module` — ..." bullets under a document's Library quick tour."""
    section = _readme(name).split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    return section[section.index("\n- `"):]


def test_paper_quick_tour_bullets_match_the_readme():
    assert _quick_tour_bullets("PAPER.md") == _quick_tour_bullets("README.md")


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    block = _readme().split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("oddtangle ")]
    assert commands, "no oddtangle lines in the README's CLI block"
    monkeypatch.chdir(tmp_path)
    # the two input files the block names but does not write
    save_state(random_pure(3, seed=0), "some3qubit.json")
    save_density(MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))]), "rho.json")
    for argv in commands:
        assert main(argv) == EXIT_OK, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--state", "{r5}"],
        ["compute", "--state", "{r5}", "--format", "csv"],
        ["oracle", "--state", "{r3}"],
        ["tangle3", "--state", "{r3}"],
        ["residual", "--state", "{r5}"],
        ["slocc-check", "--n", "3", "--trials", "2"],
        ["perm-check", "--n", "3"],
        ["roof", "--density", "{rho}", "--restarts", "1"],
        ["bench", "--n-list", "3", "--repetitions", "1"],
        ["verify-all"],
    ],
    ids=[
        "compute-text", "compute-csv", "oracle", "tangle3", "residual",
        "slocc-check", "perm-check-failing", "roof", "bench", "verify-all-text",
    ],
)
def test_cli_out_gets_the_stdout_bytes(tmp_path, monkeypatch, capsysbinary, argv):
    files = {
        "r5": _gen(tmp_path, "r5.json", "--type", "random", "--n", "5", "--seed", "3"),
        "r3": _gen(tmp_path, "r3.json", "--type", "random", "--n", "3", "--seed", "1"),
        "rho": str(tmp_path / "rho.json"),
    }
    save_density(MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))]), files["rho"])
    # bench prints median wall times; a stopped clock makes two runs agree
    monkeypatch.setattr(oddtangle.bench, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    # a tolerance below every delta makes perm-check fail, so exit 1 is covered
    monkeypatch.setattr(oddtangle.verify, "PERMUTATION_TOL", -1.0)
    argv = [a.format(**files) for a in argv]
    code = main(argv)
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == code
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == stdout != b""


def test_cli_output_deterministic(tmp_path):
    state_path = _gen(tmp_path, "r.json", "--type", "random", "--n", "5", "--seed", "11")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["compute", "--state", state_path, "--out", str(a)])
    main(["compute", "--state", state_path, "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_cli_compute_n15_identical_bytes_across_runs_and_blas_threads(tmp_path):
    state_path = str(tmp_path / "r15.json")
    save_state(random_pure(15, seed=15), state_path)
    src = os.path.dirname(os.path.dirname(oddtangle.__file__))

    def run(**extra_env):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(extra_env)
        cmd = [sys.executable, "-m", "oddtangle.cli", "compute", "--state", state_path]
        return subprocess.run(cmd, env=env, capture_output=True, check=True).stdout

    first = run()
    assert first.splitlines()[0] == b"n 15" and len(first.splitlines()) == 17
    assert run() == first
    assert run(OPENBLAS_NUM_THREADS="1") == first


def test_cli_gen_random_n17_identical_bytes_across_blas_threads(tmp_path):
    src = os.path.dirname(os.path.dirname(oddtangle.__file__))

    def run(name, **extra_env):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(extra_env)
        out = tmp_path / name
        cmd = [sys.executable, "-m", "oddtangle.cli", "gen", "--type", "random",
               "--n", "17", "--seed", "0", "--out", str(out)]
        subprocess.run(cmd, env=env, capture_output=True, check=True)
        return out.read_bytes()

    first = run("default.json")
    assert run("one_thread.json", OPENBLAS_NUM_THREADS="1") == first
