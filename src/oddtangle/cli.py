"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 check failure, 2 input error,
3 internal error.  Numeric fields print with 17 significant digits.  With
one numpy build on one machine, tangles and T/P/Q values are identical
whatever the BLAS thread count; across machines their last digits can
differ with the CPU's SIMD dispatch level, and ``roof`` and the SLOCC
checks are same-machine only.  The last digits of T/P/Q, and those of
the d2 line of tangle3, differ from release 0.1.0.

Each ``_cmd_*`` returns ``(text, exit_code)``; ``main`` writes the text to
``--out`` or to stdout.  ``gen`` writes its state file itself and returns
no text.  Each ``_cmd_*`` imports the package modules it runs, and no
others are loaded: ``compute`` and ``roof`` load ``io``, ``convex_roof``,
``fast_tangle`` and ``qstate``, and ``verify-all`` loads every module but
``io``, ``convex_roof`` and ``bench``.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import os
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


def _g(x: float) -> str:
    return f"{x:.17g}"


def _c(z: complex) -> str:
    return f"{_g(z.real)} {_g(z.imag)}"


def _csv(header: list[str], rows) -> str:
    buf = _io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(header)
    wr.writerows(rows)
    return buf.getvalue()


def _cannot_write(path: str, exc: OSError) -> ValueError:
    return ValueError(f"cannot write {path}: {exc.strerror}")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")


def _cmd_gen(args):
    from .io import save_state
    from .stategen import basis_product, ghz, random_pure, w

    if args.bits is not None and args.type != "basis":
        raise ValueError("--bits applies only to --type basis")
    if args.seed is not None and args.type != "random":
        raise ValueError("--seed applies only to --type random")
    if args.type == "ghz":
        state = ghz(args.n)
    elif args.type == "w":
        state = w(args.n)
    elif args.type == "random":
        state = random_pure(args.n, seed=0 if args.seed is None else args.seed)
    else:
        if args.bits is None:
            raise ValueError("basis states need --bits")
        if not set(args.bits) <= set("01"):
            raise ValueError(f"--bits must be a string of 0s and 1s, got {args.bits!r}")
        state = basis_product(args.n, [int(ch) for ch in args.bits])
    try:
        save_state(state, args.out)
    except OSError as exc:
        raise _cannot_write(args.out, exc) from exc
    return None, EXIT_OK


def _cmd_compute(args):
    from .fast_tangle import n_tangle
    from .io import load_state

    state = load_state(args.state)
    report = n_tangle(state)
    qubits = list(enumerate(zip(report.per_qubit, report.tpq_per_qubit), 1))
    if args.format == "csv":
        header = ["n", "i", "tau_i", "tau_avg", "T_re", "T_im", "P_re", "P_im", "Q_re", "Q_im"]
        rows = (
            [report.n, i, _g(tau), _g(report.average)]
            + [_g(v) for z in (t.T, t.P, t.Q) for v in (z.real, z.imag)]
            for i, (tau, t) in qubits
        )
        return _csv(header, rows), EXIT_OK
    lines = [f"n {report.n}"]
    lines += [f"tau_{i} {_g(tau)} T {_c(t.T)} P {_c(t.P)} Q {_c(t.Q)}" for i, (tau, t) in qubits]
    lines.append(f"tau_avg {_g(report.average)}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_oracle(args):
    from .io import load_state
    from .naive_tangle import tangle_i_naive, wong_tangle_naive

    state = load_state(args.state)
    if state.n % 2 == 0:
        for flag, given in (("--qubit", args.qubit is not None), ("--full-sum", args.full_sum)):
            if given:
                raise ValueError(f"{flag} applies only to odd n, got n={state.n}")
        value = wong_tangle_naive(state)
        return f"wong_tangle {_g(value)}\n", EXIT_OK
    qubit = 1 if args.qubit is None else args.qubit
    value = tangle_i_naive(state, qubit, full_sum=args.full_sum)
    return f"tau_{qubit}_oracle {_g(value)}\n", EXIT_OK


def _cmd_tangle3(args):
    from .fast_tangle import tangle_i_fast
    from .io import StateFileError, load_state
    from .naive_tangle import tangle_i_naive
    from .three_tangle import ckw_tangle, ckw_terms

    state = load_state(args.state)
    if state.n != 3:
        raise StateFileError(f"tangle3 needs a 3-qubit state, got n={state.n}")
    lines = [f"d{k} {_c(d)}" for k, d in enumerate(ckw_terms(state), 1)]
    lines += [
        f"tau_coefficients {_g(ckw_tangle(state))}",
        f"tau_oracle {_g(tangle_i_naive(state, 1))}",
        f"tau_fast {_g(tangle_i_fast(state, 1))}",
    ]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_residual(args):
    from .fast_tangle import compute_TPQ, tangle_i_fast
    from .io import load_state
    from .residual_forms import residual_parts_defining, residual_parts_reduced, residual_tau

    state = load_state(args.state)
    lines = [
        f"I_bar_{label} {_c(parts.I_bar)} I_star_{label} {_c(parts.I_star)}"
        f" I_star_shift_{label} {_c(parts.I_star_shift)}"
        for label, parts in (
            ("defining", residual_parts_defining(state)),
            ("reduced", residual_parts_reduced(state)),
        )
    ]
    tpq = compute_TPQ(state)
    lines += [
        f"T {_c(tpq.T)} P {_c(tpq.P)} Q {_c(tpq.Q)}",
        f"residual_tau {_g(residual_tau(state))}",
        f"tau_1_fast {_g(tangle_i_fast(state, 1))}",
    ]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_slocc_check(args):
    from .slocc_ops import (
        random_local_invertible,
        random_local_unitary,
        verify_lu_invariance,
        verify_slocc_equation,
    )
    from .stategen import random_pure

    _check_trials(args.trials)
    rows = []
    all_pass = True
    for t in range(args.trials):
        state = random_pure(args.n, seed=args.seed + 2 * t)
        if args.unitary:
            chain = random_local_unitary(args.n, seed=args.seed + 2 * t + 1)
            verdict = verify_lu_invariance(state, chain)
        else:
            chain = random_local_invertible(args.n, seed=args.seed + 2 * t + 1)
            verdict = verify_slocc_equation(state, chain)
        all_pass &= verdict.passed
        rows.append([t, _g(verdict.lhs), _g(verdict.rhs), _g(verdict.rel_error), verdict.passed])
    text = _csv(["trial", "lhs", "rhs", "rel_error", "passed"], rows)
    return text, EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _cmd_perm_check(args):
    import numpy as np

    from .io import load_state
    from .qstate import QubitPermutation
    from .stategen import random_pure
    from .verify import PERMUTATION_TOL, all_permutations, permutation_delta

    if args.trials is not None:
        _check_trials(args.trials)
    if args.state is not None and args.n is not None:
        raise ValueError("--n applies only without --state")
    n = 5 if args.n is None else args.n
    seed = 0 if args.seed is None else args.seed
    state = load_state(args.state) if args.state is not None else random_pure(n, seed=seed)
    if state.n <= 5:
        if args.trials is not None:
            raise ValueError("--trials applies only above n=5")
        if args.state is not None and args.seed is not None:
            raise ValueError("--seed applies only without --state or above n=5")
        perms = all_permutations(state.n)
    else:
        trials = 50 if args.trials is None else args.trials
        rng = np.random.default_rng(seed)
        perms = [QubitPermutation(1 + rng.permutation(state.n)) for _ in range(trials)]
    worst = permutation_delta(state, perms)
    ok = worst <= PERMUTATION_TOL
    text = (
        f"permutations {len(perms)} worst_delta {_g(worst)} tol {_g(PERMUTATION_TOL)} "
        f"{'PASS' if ok else 'FAIL'}\n"
    )
    return text, EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_roof(args):
    from .convex_roof import convex_roof_tangle
    from .io import load_density

    if args.restarts == 0 and args.seed is not None:
        raise ValueError("--seed applies only with --restarts above 0")
    rho = load_density(args.density)
    seed = 0 if args.seed is None else args.seed
    result = convex_roof_tangle(rho, restarts=args.restarts, seed=seed)
    lines = [
        f"value {_g(result.value)}",
        f"restarts {result.restarts_used} converged {result.converged}",
        f"evaluations {result.evaluations}",
        f"members {len(result.best)}",
    ]
    for k, (p, psi) in enumerate(result.best):
        amps = " ".join(_c(v) for v in psi.amps)
        lines.append(f"member {k} weight {_g(p)} amplitudes {amps}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_bench(args):
    from .bench import timing_sweep

    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        msg = f"--n-list must be comma-separated integers, got {args.n_list!r}"
        raise ValueError(msg) from None
    sweep = timing_sweep(n_list, repetitions=args.repetitions)
    header = ["n", "method", "mult_count", "paper_count", "median_seconds"]
    rows = ([r.n, r.method, r.mult_count, r.paper_count, _g(r.median_seconds)] for r in sweep)
    return _csv(header, rows), EXIT_OK


def _cmd_verify_all(args):
    from .verify import verify_all

    results = verify_all(seed=args.seed)
    code = EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        extra = f"  # {r.detail}" if r.detail else ""
        lines.append(
            f"[{mark}] {r.name} worst_error={_g(r.worst_error)} tol={_g(r.tolerance)}{extra}"
        )
    return "\n".join(lines) + "\n", code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddtangle", description="Tangles of odd-n-qubit states"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a state file")
    p.add_argument("--type", choices=["ghz", "w", "random", "basis"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)  # 0 for --type random; not allowed otherwise
    p.add_argument("--bits", help="bitstring for --type basis, e.g. 010")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("compute", help="per-qubit tangles and their average")
    p.add_argument("--state", required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("oracle", help="brute-force tangle evaluation")
    p.add_argument("--state", required=True)
    p.add_argument("--qubit", type=int)  # 1 at odd n; not allowed at even n
    p.add_argument("--full-sum", action="store_true", dest="full_sum")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("tangle3", help="3-qubit formula comparison")
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_tangle3)

    p = sub.add_parser("residual", help="residual sums next to T, P, Q")
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("slocc-check", help="scaling-law verification trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unitary", action="store_true")
    p.set_defaults(func=_cmd_slocc_check)

    p = sub.add_parser("perm-check", help="permutation invariance of the average")
    p.add_argument("--state")
    p.add_argument("--n", type=int)  # 5 without --state; not allowed with it
    p.add_argument("--seed", type=int)  # 0; not allowed with --state at n <= 5
    p.add_argument("--trials", type=int)  # 50 above n=5; not allowed at n <= 5
    p.set_defaults(func=_cmd_perm_check)

    p = sub.add_parser("roof", help="convex-roof upper bound for a mixed state")
    p.add_argument("--density", required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int)  # 0; not allowed with --restarts 0
    p.set_defaults(func=_cmd_roof)

    p = sub.add_parser("bench", help="multiplication counts and timings")
    p.add_argument("--n-list", default="3,5", dest="n_list")
    p.add_argument("--repetitions", type=int, default=5)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify-all", help="run the full identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_all)

    # added last so it stays last in each --help; gen writes its state file there
    for name, p in sub.choices.items():
        p.add_argument("--out", required=name == "gen")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's default_rng rejects a negative seed; refuse it before any work
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        # so is an --out whose directory cannot be reached: opening a file in
        # it fails the same way; other write errors show on writing
        if args.out:
            try:
                os.stat(os.path.dirname(args.out) or os.curdir)
            except OSError as exc:
                raise _cannot_write(args.out, exc) from exc
        text, code = args.func(args)
        if text is not None and args.out is not None:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise _cannot_write(args.out, exc) from exc
        elif text is not None:
            sys.stdout.write(text)
        return code
    except ValueError as exc:  # StateFileError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
