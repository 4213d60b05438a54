"""verify_all's two halves and the stacked permutation checks.

Where os.fork exists, verify_all runs half of each check's samples in a
forked child.  Its results must equal a one-process run, an exception in
either half must reach the caller, and no child may outlive the call.
"""

import os

import pytest

import oddtangle.verify as verify
from oddtangle.cli import EXIT_INPUT_ERROR, EXIT_INTERNAL, main
from oddtangle.fast_tangle import n_tangle
from oddtangle.qstate import QubitPermutation, permute_qubits
from oddtangle.stategen import random_pure

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [0, 3])
def test_two_processes_give_the_results_of_one(monkeypatch, seed):
    forked = verify.verify_all(seed)
    _no_child_left()
    monkeypatch.delattr(os, "fork")
    assert verify.verify_all(seed) == forked
    assert [r.name for r in forked] == [
        "ghz_anchor", "w_anchor", "oracle_equivalence", "bridge_identities",
        "residual_equals_fast", "average_permutation_invariance",
        "per_qubit_partial_invariance", "slocc_equation", "lu_invariance",
        "three_tangle_crosscheck", "noninvariance_witness",
    ]


def _raise_in(monkeypatch, in_child: bool, exc: Exception):
    """Make oracle_error raise exc in the child's half only, or in the
    caller's half only."""
    caller, oracle_error = os.getpid(), verify.oracle_error

    def failing(states):
        if (os.getpid() != caller) == in_child:
            raise exc
        return oracle_error(states)

    monkeypatch.setattr(verify, "oracle_error", failing)


@pytest.mark.parametrize("in_child", [True, False], ids=["child", "caller"])
@pytest.mark.parametrize("exc", [ValueError("bad sample"), ZeroDivisionError("bad sum")], ids=repr)
def test_an_exception_in_either_half_reaches_the_caller(monkeypatch, in_child, exc):
    _raise_in(monkeypatch, in_child, exc)
    with pytest.raises(type(exc)) as caught:
        verify.verify_all(0)
    assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
    _no_child_left()


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (ValueError("bad sample"), EXIT_INPUT_ERROR, "error: bad sample\n"),
        (ZeroDivisionError("bad sum"), EXIT_INTERNAL, "internal error: bad sum\n"),
    ],
    ids=["input_error", "internal_error"],
)
def test_an_exception_in_the_child_keeps_its_exit_code(monkeypatch, capsys, exc, code, err):
    _raise_in(monkeypatch, True, exc)
    assert main(["verify-all"]) == code
    assert capsys.readouterr() == ("", err)
    _no_child_left()


def test_a_child_that_ends_without_a_result_is_an_internal_error(monkeypatch):
    caller, oracle_error = os.getpid(), verify.oracle_error

    def dying(states):
        if os.getpid() != caller:
            os._exit(7)
        return oracle_error(states)

    monkeypatch.setattr(verify, "oracle_error", dying)
    with pytest.raises(RuntimeError, match="exited with code 7 and no result"):
        verify.verify_all(0)
    _no_child_left()


def test_the_halves_draw_the_samples_of_one_process_between_them(monkeypatch, tmp_path):
    # each process appends the states it draws to a file named by its pid
    drawn_by = {}
    random_pure_of = verify.random_pure

    def recording(n, seed):
        with open(tmp_path / drawn_by["run"] / f"{os.getpid()}.txt", "a") as fh:
            fh.write(f"{n} {seed}\n")
        return random_pure_of(n, seed=seed)

    def run(name):
        drawn_by["run"] = name
        (tmp_path / name).mkdir()
        verify.verify_all(0)
        return [p.read_text().splitlines() for p in (tmp_path / name).iterdir()]

    monkeypatch.setattr(verify, "random_pure", recording)
    halves = run("forked")
    monkeypatch.delattr(os, "fork")
    (whole,) = run("serial")
    assert len(halves) == 2
    assert sorted(halves[0] + halves[1]) == sorted(whole)
    assert len(whole) == 2 + 20 + 40 + 10 + 30 + 20 + 50
    assert abs(len(halves[0]) - len(halves[1])) <= 2
    # each check draws from its own block of seeds: no (n, seed) repeats
    assert len(set(whole)) == len(whole)


def test_small_stacks_give_the_same_deltas(monkeypatch):
    s = random_pure(5, seed=1)
    perms = verify.all_permutations(5)
    fixing = [p for p in perms if p(2) == 2]
    whole = verify.permutation_delta(s, perms), verify.partial_permutation_delta(s, 2, fixing)
    monkeypatch.setattr(verify, "STACK_AMPS", 3 * 32)
    small = verify.permutation_delta(s, iter(perms)), verify.partial_permutation_delta(s, 2, fixing)
    assert small == whole


def test_stacked_copies_score_as_the_per_copy_route(monkeypatch):
    s = random_pure(5, seed=2)
    perms = verify.all_permutations(5)
    monkeypatch.setattr(verify, "STACK_AMPS", 50 * 32)
    stacks = list(verify._relabelled_tangles(s, perms))
    assert [len(taus) for taus in stacks] == [50, 50, 20]
    for taus, p in zip((row for taus in stacks for row in taus), perms):
        assert taus == pytest.approx(n_tangle(permute_qubits(s, p)).per_qubit, rel=1e-14)
    assert verify.permutation_delta(s, [QubitPermutation([1, 2, 3, 4, 5])]) == 0.0


def test_the_permutation_checks_refuse_a_bad_qubit_or_permutation():
    s = random_pure(5, seed=3)
    with pytest.raises(ValueError, match="qubit 6 out of range 1..5"):
        verify.partial_permutation_delta(s, 6, [])
    with pytest.raises(ValueError, match="permutation on 3 qubits, state has 5"):
        verify.permutation_delta(s, [QubitPermutation([2, 1, 3])])
