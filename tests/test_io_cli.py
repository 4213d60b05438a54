import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oddtangle
import oddtangle.bench
from oddtangle.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from oddtangle.convex_roof import MixedState
from oddtangle.qstate import PureState
from oddtangle.io import (
    StateFileError,
    load_density,
    load_state,
    save_density,
    save_state,
)
from oddtangle.stategen import ghz, random_pure, w


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
    ],
    ids=["bool_n", "int_beyond_float", "n_above_cap"],
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
    argv = ["gen", "--type", kind, "--n", "40", "--bits", "0" * 40, "--out", out]
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


def test_cli_compute_json(tmp_path, capsys):
    path = _gen(tmp_path, "r.json", "--type", "random", "--n", "3", "--seed", "9")
    assert main(["compute", "--state", path, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3
    assert len(doc["per_qubit"]) == 3
    assert doc["average"] == pytest.approx(sum(doc["per_qubit"]) / 3, rel=1e-12)


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


def test_cli_perm_check_scales_with_the_state(tmp_path, capsys):
    # an unnormalized state: the tangle grows as the fourth power of the scale
    path = str(tmp_path / "r100.json")
    save_state(random_pure(5, seed=3).scaled(100.0), path)
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


def test_cli_verify_all_quick(capsys):
    assert main(["verify-all", "--quick"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_cli_verify_all_reports_a_failed_check(monkeypatch, capsys):
    import oddtangle.verify

    fast = oddtangle.verify.tangle_i_fast
    monkeypatch.setattr(oddtangle.verify, "tangle_i_fast", lambda s, i: fast(s, i) + 1e-6)
    assert main(["verify-all", "--quick"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith("[FAIL] oracle_equivalence ") for l in lines)
    assert any(l.startswith("[PASS] ghz_anchor ") for l in lines)


def test_cli_verify_all_fails_a_nan_error(monkeypatch, capsys):
    import oddtangle.verify

    monkeypatch.setattr(oddtangle.verify, "tangle_i_fast", lambda s, i: float("nan"))
    assert main(["verify-all", "--quick"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith("[FAIL] oracle_equivalence worst_error=nan ") for l in lines)


def test_cli_verify_all_json(capsys):
    assert main(["verify-all", "--quick", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert all(entry["passed"] for entry in doc)
    names = {entry["name"] for entry in doc}
    assert "ghz_anchor" in names


def test_cli_malformed_state_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["compute", "--state", str(path)]) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


def test_cli_out_file(tmp_path):
    state_path = _gen(tmp_path, "g.json", "--type", "ghz", "--n", "3")
    out_path = tmp_path / "report.txt"
    assert main(["compute", "--state", state_path, "--out", str(out_path)]) == EXIT_OK
    text = out_path.read_text()
    avg = float(text.splitlines()[-1].split()[1])
    assert avg == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--type", "ghz", "--n", "3"],
        ["compute", "--state", "{g3}"],
    ],
    ids=["gen", "compute"],
)
def test_cli_unwritable_out_is_an_input_error(tmp_path, capsys, argv):
    g3 = _gen(tmp_path, "g3.json", "--type", "ghz", "--n", "3")
    out = str(tmp_path / "missing" / "o.txt")
    assert main([a.format(g3=g3) for a in argv] + ["--out", out]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


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
    ],
)
def test_cli_has_no_limit_or_tolerance_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "unrecognized arguments: --" in capsys.readouterr().err


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
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
        ["compute", "--state", "{r5}", "--format", "json"],
        ["oracle", "--state", "{r3}"],
        ["tangle3", "--state", "{r3}"],
        ["residual", "--state", "{r5}"],
        ["slocc-check", "--n", "3", "--trials", "2"],
        ["perm-check", "--n", "3"],
        ["roof", "--density", "{rho}", "--restarts", "1"],
        ["bench", "--n-list", "3", "--repetitions", "1"],
        ["verify-all", "--quick"],
        ["verify-all", "--quick", "--format", "json"],
    ],
    ids=[
        "compute-text", "compute-csv", "compute-json", "oracle", "tangle3", "residual",
        "slocc-check", "perm-check-failing", "roof", "bench", "verify-all-text",
        "verify-all-json",
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
    monkeypatch.setattr(oddtangle.cli, "PERMUTATION_TOL", -1.0)
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
