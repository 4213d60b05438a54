"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 check failure, 2 input error,
3 internal error.  Numeric fields print with 17 significant digits.  With
one numpy build, tangles and T/P/Q values are identical whatever the BLAS
thread count.  Their last digits, and those of the d2 line of tangle3,
differ from release 0.1.0.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys

import numpy as np

from . import bench as bench_mod
from .convex_roof import MixedState, convex_roof_tangle
from .fast_tangle import compute_TPQ, n_tangle, tangle_1_fast
from .io import StateFileError, load_density, load_state, save_state
from .naive_tangle import tangle_i_naive, wong_tangle_naive
from .qstate import QubitPermutation
from .residual_forms import residual_parts_defining, residual_parts_reduced, residual_tau
from .slocc_ops import (
    random_local_invertible,
    random_local_unitary,
    verify_lu_invariance,
    verify_slocc_equation,
)
from .stategen import basis_product, ghz, random_pure, w
from .three_tangle import ckw_tangle, ckw_terms
from .verify import all_permutations, permutation_delta, verify_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


def _g(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.type == "ghz":
        state = ghz(args.n)
    elif args.type == "w":
        state = w(args.n)
    elif args.type == "random":
        state = random_pure(args.n, seed=args.seed)
    else:
        if args.bits is None:
            raise StateFileError("basis states need --bits")
        bits = [int(ch) for ch in args.bits]
        state = basis_product(args.n, bits)
    save_state(state, args.out)
    return EXIT_OK


def _report_lines(report) -> list[str]:
    lines = [f"n {report.n}"]
    for i, (tau, tpq) in enumerate(zip(report.per_qubit, report.tpq_per_qubit), 1):
        lines.append(
            f"tau_{i} {_g(tau)} T {_g(tpq.T.real)} {_g(tpq.T.imag)}"
            f" P {_g(tpq.P.real)} {_g(tpq.P.imag)}"
            f" Q {_g(tpq.Q.real)} {_g(tpq.Q.imag)}"
        )
    lines.append(f"tau_avg {_g(report.average)}")
    return lines


def _cmd_compute(args) -> int:
    state = load_state(args.state)
    report = n_tangle(state)
    if args.format == "csv":
        buf = _io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(
            ["n", "i", "tau_i", "tau_avg", "T_re", "T_im", "P_re", "P_im", "Q_re", "Q_im"]
        )
        for i, (tau, tpq) in enumerate(zip(report.per_qubit, report.tpq_per_qubit), 1):
            wr.writerow(
                [report.n, i, _g(tau), _g(report.average)]
                + [_g(v) for v in (tpq.T.real, tpq.T.imag, tpq.P.real, tpq.P.imag, tpq.Q.real, tpq.Q.imag)]
            )
        _emit(buf.getvalue(), args.out)
    elif args.format == "json":
        doc = {
            "n": report.n,
            "per_qubit": list(report.per_qubit),
            "average": report.average,
            "tpq": [
                {k: [getattr(t, k).real, getattr(t, k).imag] for k in "TPQ"}
                for t in report.tpq_per_qubit
            ],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(_report_lines(report)) + "\n", args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    state = load_state(args.state)
    if state.n % 2 == 0:
        value = wong_tangle_naive(state, cap_override=args.cap_override)
        _emit(f"wong_tangle {_g(value)}\n", args.out)
    else:
        value = tangle_i_naive(
            state, args.qubit, cap_override=args.cap_override, full_sum=args.full_sum
        )
        _emit(f"tau_{args.qubit}_oracle {_g(value)}\n", args.out)
    return EXIT_OK


def _cmd_tangle3(args) -> int:
    state = load_state(args.state)
    if state.n != 3:
        raise StateFileError(f"tangle3 needs a 3-qubit state, got n={state.n}")
    d1, d2, d3 = ckw_terms(state)
    lines = [
        f"d1 {_g(d1.real)} {_g(d1.imag)}",
        f"d2 {_g(d2.real)} {_g(d2.imag)}",
        f"d3 {_g(d3.real)} {_g(d3.imag)}",
        f"tau_coefficients {_g(ckw_tangle(state))}",
        f"tau_oracle {_g(tangle_i_naive(state, 1))}",
        f"tau_fast {_g(tangle_1_fast(state))}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_residual(args) -> int:
    state = load_state(args.state)
    parts_d = residual_parts_defining(state)
    parts_r = residual_parts_reduced(state)
    tpq = compute_TPQ(state)
    lines = []
    for label, parts in (("defining", parts_d), ("reduced", parts_r)):
        lines.append(
            f"I_bar_{label} {_g(parts.I_bar.real)} {_g(parts.I_bar.imag)}"
            f" I_star_{label} {_g(parts.I_star.real)} {_g(parts.I_star.imag)}"
            f" I_star_shift_{label} {_g(parts.I_star_shift.real)} {_g(parts.I_star_shift.imag)}"
        )
    lines.append(
        f"T {_g(tpq.T.real)} {_g(tpq.T.imag)} P {_g(tpq.P.real)} {_g(tpq.P.imag)}"
        f" Q {_g(tpq.Q.real)} {_g(tpq.Q.imag)}"
    )
    lines.append(f"residual_tau {_g(residual_tau(state))}")
    lines.append(f"tau_1_fast {_g(tangle_1_fast(state))}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_slocc_check(args) -> int:
    rows = []
    all_pass = True
    for t in range(args.trials):
        state = random_pure(args.n, seed=args.seed + 2 * t)
        if args.unitary:
            chain = random_local_unitary(args.n, seed=args.seed + 2 * t + 1)
            verdict = verify_lu_invariance(state, chain, tol=args.tol)
        else:
            chain = random_local_invertible(args.n, seed=args.seed + 2 * t + 1)
            verdict = verify_slocc_equation(state, chain, tol=args.tol)
        all_pass &= verdict.passed
        rows.append((t, verdict.lhs, verdict.rhs, verdict.rel_error, verdict.passed))
    buf = _io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["trial", "lhs", "rhs", "rel_error", "passed"])
    for t, lhs, rhs, rel, ok in rows:
        wr.writerow([t, _g(lhs), _g(rhs), _g(rel), ok])
    _emit(buf.getvalue(), args.out)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _cmd_perm_check(args) -> int:
    state = load_state(args.state) if args.state else random_pure(args.n, seed=args.seed)
    if state.n <= 5:
        perms = all_permutations(state.n)
    else:
        rng = np.random.default_rng(args.seed)
        perms = [QubitPermutation(1 + rng.permutation(state.n)) for _ in range(args.trials)]
    worst = permutation_delta(state, perms)
    ok = worst <= args.tol
    _emit(
        f"permutations {len(perms)} worst_delta {_g(worst)} tol {_g(args.tol)} "
        f"{'PASS' if ok else 'FAIL'}\n",
        args.out,
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_roof(args) -> int:
    rho = load_density(args.density)
    result = convex_roof_tangle(
        rho, m_max=args.m_max, restarts=args.restarts, seed=args.seed, tol=args.tol
    )
    lines = [
        f"value {_g(result.value)}",
        f"restarts {result.restarts_used} converged {result.converged}",
        f"evaluations {result.evaluations}",
        f"members {len(result.best.members)}",
    ]
    for k, (p, psi) in enumerate(result.best.members):
        amps = " ".join(f"{_g(v.real)} {_g(v.imag)}" for v in psi.amps)
        lines.append(f"member {k} weight {_g(p)} amplitudes {amps}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",")]
    rows = bench_mod.timing_sweep(n_list, repetitions=args.repetitions, seed=args.seed)
    buf = _io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["n", "method", "mult_count", "paper_count", "median_seconds"])
    for r in rows:
        wr.writerow([r.n, r.method, r.mult_count, r.paper_count, _g(r.median_seconds)])
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_verify_all(args) -> int:
    results = verify_all(seed=args.seed, quick=args.quick)
    if args.format == "json":
        doc = [
            {
                "name": r.name,
                "passed": r.passed,
                "worst_error": r.worst_error,
                "tolerance": r.tolerance,
                "detail": r.detail,
            }
            for r in results
        ]
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = []
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            extra = f"  # {r.detail}" if r.detail else ""
            lines.append(
                f"[{mark}] {r.name} worst_error={_g(r.worst_error)} tol={_g(r.tolerance)}{extra}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddtangle", description="Tangles of odd-n-qubit states"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a state file")
    p.add_argument("--type", choices=["ghz", "w", "random", "basis"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", help="bitstring for --type basis, e.g. 010")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("compute", help="per-qubit tangles and their average")
    p.add_argument("--state", required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("oracle", help="brute-force tangle evaluation")
    p.add_argument("--state", required=True)
    p.add_argument("--qubit", type=int, default=1)
    p.add_argument("--full-sum", action="store_true", dest="full_sum")
    p.add_argument("--cap-override", action="store_true", dest="cap_override")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("tangle3", help="3-qubit formula comparison")
    p.add_argument("--state", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tangle3)

    p = sub.add_parser("residual", help="residual sums next to T, P, Q")
    p.add_argument("--state", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("slocc-check", help="scaling-law verification trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--unitary", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_slocc_check)

    p = sub.add_parser("perm-check", help="permutation invariance of the average")
    p.add_argument("--state")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_perm_check)

    p = sub.add_parser("roof", help="convex-roof upper bound for a mixed state")
    p.add_argument("--density", required=True)
    p.add_argument("--m-max", type=int, dest="m_max")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_roof)

    p = sub.add_parser("bench", help="multiplication counts and timings")
    p.add_argument("--n-list", default="3,5", dest="n_list")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify-all", help="run the full identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StateFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
