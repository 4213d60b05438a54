"""oddtangle benchmark: closed-loop workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ../src beside this directory.
One client runs one `oddtangle` process at a time and waits for it to exit,
so import time and cold caches are paid on every op, as a user pays them.
Every output is checked against a reference from refs.py.  The schedule
runs in whole cycles (a cycle is one pass over a workload's inputs) and
starts a cycle only while one as long as the last still ends within
--seconds; the first cycle always runs.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice,
plain and under trace_op.py, and reports per-layer metrics from the spans
plus the tracing overhead.  The last stdout line is the JSON result; the
lines before it are the same figures for people, with the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import refs
import stats
from trace_op import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3
CLI = [sys.executable, "-c", "import sys\nfrom oddtangle.cli import main\nsys.exit(main())"]
TRACED = [sys.executable, str(HERE / "trace_op.py")]
# loads what every op loads, so the first timed op does not pay for a
# cold page cache or for writing bytecode
WARMUP = [sys.executable, "-c", "import oddtangle.cli, scipy.optimize"]

perf = time.perf_counter


@dataclass
class Op:
    latency_s: float
    rss_kb: int
    error: str | None
    p: float | None = None
    gap: float | None = None
    trace: dict | None = None


class ComputeN17:
    """compute --format csv on LU images of a|0..0>+b|1..1> and of W_17."""

    name = "compute_n17"
    n = 17

    def write_inputs(self, work: Path, rng, io) -> None:
        from oddtangle.qstate import PureState

        self.inputs = []
        for kind, make in (("ghz", refs.lu_ghz), ("w", refs.lu_w)):
            amps, tau = make(self.n, rng)
            path = work / f"lu_{kind}_{self.n}.json"
            io.save_state(PureState(self.n, amps), str(path))
            self.inputs.append((path, tau))

    def cycle(self, c: int, rng, work: Path):
        out = work / "out.csv"
        for path, tau in self.inputs:
            def check(stdout, tau=tau):
                if not out.exists():
                    return "no output file"
                text = out.read_text()
                out.unlink()
                return refs.check_compute_csv(text, self.n, tau)

            yield ["compute", "--state", str(path), "--format", "csv", "--out", str(out)], check


class VerifyAll:
    """verify-all in full mode at a fresh seed per op."""

    name = "verify_all"

    def write_inputs(self, work: Path, rng, io) -> None:
        pass

    def cycle(self, c: int, rng, work: Path):
        yield ["verify-all", "--seed", str(int(rng.integers(0, 2**31)))], refs.check_verify_output


class RoofGhzW3:
    """roof on p|GHZ3><GHZ3| + (1-p)|W3><W3| over the closed-form grid.

    Every cycle solves each grid point once with the CLI's default solver
    seed 0, in an order drawn from the workload seed.  The solver seed does
    not follow the workload seed: at 4 restarts one solve takes 2.5-13 s
    and a cycle 18-36 s depending on it (seeds 0-9), so seed-dependent
    solves would change the work per run by up to 2x.
    """

    name = "roof_ghzw3"

    def __init__(self, grid=refs.ROOF_GRID):
        self.grid = grid

    def write_inputs(self, work: Path, rng, io) -> None:
        from oddtangle.convex_roof import MixedState

        self.paths = {}
        for p in self.grid:
            self.paths[p] = work / f"ghzw3_{p}.json"
            io.save_density(MixedState(3, refs.ghz_w_density(p)), str(self.paths[p]))

    def cycle(self, c: int, rng, work: Path):
        for p in rng.permutation(self.grid):
            p = float(p)
            argv = ["roof", "--density", str(self.paths[p]),
                    "--restarts", str(refs.ROOF_RESTARTS), "--seed", str(refs.ROOF_SEED)]
            yield argv, RoofCheck(p)


class RoofCheck:
    def __init__(self, p: float):
        self.p = p
        self.gap = None

    def __call__(self, stdout: str) -> str | None:
        value = refs.parse_roof_value(stdout)
        if value is None:
            return "no value line"
        self.gap = value - refs.roof_closed_form(self.p)
        if self.gap < -refs.ROOF_LOW_TOL:
            return f"p={self.p}: value {value!r} is below the closed form by {-self.gap:.3g}"
        return None


WORKLOADS = {w.name: w for w in (ComputeN17, VerifyAll, RoofGhzW3)}


def launch(cmd, env, work: Path):
    """Run cmd to completion; (latency s, exit code, max RSS KiB, stdout, stderr)."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = perf()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        latency = perf() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, proc.returncode, usage.ru_maxrss, out_path.read_text(), err_path.read_text()


def run_op(cmd, check, env, work: Path) -> Op:
    latency, code, rss, stdout, stderr = launch(cmd, env, work)
    if code != 0:
        error = f"exit {code}: {stderr.strip()[-300:]}"
    else:
        error = check(stdout)
    op = Op(latency, rss, error)
    if isinstance(check, RoofCheck):
        op.p, op.gap = check.p, check.gap
    return op


def set_up(workload, work: Path, seed: int, env, io) -> list[float]:
    """Write the inputs and warm up, SETUP_REPS times; the times of each."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf()
        workload.write_inputs(work, np.random.default_rng(seed), io)
        _, code, _, _, stderr = launch(WARMUP, env, work)
        if code != 0:
            raise RuntimeError(f"warm-up failed: {stderr.strip()[-300:]}")
        times.append(perf() - t0)
    return times


def measure(workload, work: Path, seed: int, seconds: float, trace: bool, env):
    """Untraced ops and, with trace, a traced twin of each; elapsed s."""
    rng = np.random.default_rng([seed, 1])
    plain, traced = [], []
    spans_path = work / "spans.json"
    t0 = perf()
    c = 0
    last = 0.0
    # start a cycle only when one as long as the last still ends in time
    while c == 0 or perf() - t0 + last <= seconds:
        started = perf()
        for argv, check in workload.cycle(c, rng, work):
            plain.append(run_op(CLI + argv, check, env, work))
            if trace:
                op = run_op(TRACED + [str(spans_path)] + argv, check, env, work)
                op.trace = json.loads(spans_path.read_text())
                spans_path.unlink()
                traced.append(op)
        last = perf() - started
        c += 1
    return plain, traced, perf() - t0


def end_to_end(ops, elapsed: float, setup_times) -> tuple[dict, list[str]]:
    latencies = [op.latency_s for op in ops]
    label, tail_value = stats.tail(latencies)
    correct = sum(op.error is None for op in ops)
    metrics = {
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.tail": (tail_value, "s"),
        "ops_per_s": (correct / elapsed, "1/s"),
        "peak_rss_mb": (max(op.rss_kb for op in ops) / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = [
        f"samples {len(ops)} ops in {elapsed:.3f} s",
        f"latency_s.tail is {label}",
        f"error_rate {(len(ops) - correct) / len(ops)!r} 1",
    ]
    roof = [op for op in ops if op.p is not None]
    if roof:
        notes.append(f"miss_rate {miss_rate(roof)!r} 1")
    return metrics, notes


def miss_rate(ops) -> float:
    return sum(op.gap is not None and op.gap > refs.ROOF_MISS_TOL for op in ops) / len(ops)


CALL_LAYERS = (
    "io.load_state",
    "io.load_density",
    "qstate.PureState",
    "qstate.permute_qubits",
    "qstate.apply_local_operators",
    "fast_tangle.n_tangle",
    "fast_tangle.compute_TPQ",
    "naive_tangle.tangle_i_naive",
    "naive_tangle.find_noninvariance_witness",
    "residual_forms.residual_parts_defining",
    "residual_forms.residual_parts_reduced",
    "slocc_ops.verify_slocc_equation",
    "slocc_ops.verify_lu_invariance",
    "three_tangle.ckw_tangle",
    "stategen.random_pure",
    "convex_roof.convex_roof_tangle",
)
SETUP_LAYERS = ("io.save_state", "io.save_density")


def layer_totals(rows_by_op):
    """name -> [calls, busy s, self s, work] summed over ops."""
    totals = {}
    for rows in rows_by_op:
        for name, dur, self_s, outermost, work in rows:
            t = totals.setdefault(name, [0, 0.0, 0.0, 0])
            t[0] += 1
            t[1] += dur if outermost else 0.0
            t[2] += self_s
            t[3] += work
    return totals


def per_layer(plain, traced, setup_spans, setup_reps: int) -> dict:
    """Per-op means of every per-layer metric; zero where a layer is idle."""
    n = len(traced)
    totals = layer_totals(stats.span_table(op.trace["spans"]) for op in traced)
    setup = layer_totals([stats.span_table(setup_spans)])

    def get(name, k):
        return totals.get(name, [0, 0.0, 0.0, 0])[k]

    metrics = {}
    for group, source, reps, per in ((CALL_LAYERS, totals, n, "op"),
                                     (SETUP_LAYERS, setup, setup_reps, "setup")):
        for name in group:
            calls, busy, self_s, _ = source.get(name, [0, 0.0, 0.0, 0])
            metrics[f"{name}.calls"] = (calls / reps, f"calls/{per}")
            metrics[f"{name}.s"] = (busy / reps, f"s/{per}")
            metrics[f"{name}.self_s"] = (self_s / reps, f"s/{per}")
    amp_products = get("fast_tangle.compute_TPQ", 3)
    objective_calls = sum(op.trace["objective_calls"] for op in traced)
    objective_s = sum(op.trace["objective_s"] for op in traced)
    plain_p50 = statistics.median(op.latency_s for op in plain)
    overhead = statistics.median(op.latency_s for op in traced) - plain_p50
    roof = [op for op in plain + traced if op.p is not None]
    metrics.update({
        "cli.import_s": (get("cli.import", 1) / n, "s/op"),
        "cli.main.s": (get("cli.main", 1) / n, "s/op"),
        "cli.main.self_s": (get("cli.main", 2) / n, "s/op"),
        "io.load_state.bytes": (get("io.load_state", 3) / n, "B/op"),
        "qstate.permute_qubits.bytes": (get("qstate.permute_qubits", 3) / n, "B/op"),
        "fast_tangle.amp_products": (amp_products / n, "count/op"),
        "fast_tangle.ns_per_amp_product": (
            get("fast_tangle.compute_TPQ", 1) / amp_products * 1e9 if amp_products else 0.0, "ns"),
        "verify.verify_all.self_s": (get("verify.verify_all", 2) / n, "s/op"),
        "convex_roof.scipy_import_s": (get("convex_roof.scipy_import", 1) / n, "s/op"),
        "convex_roof.objective_calls": (objective_calls / n, "calls/op"),
        "convex_roof.objective_us_per_call": (
            objective_s / objective_calls * 1e6 if objective_calls else 0.0, "us"),
        "convex_roof.optimizer_self_s": ((get("convex_roof.minimize", 2) - objective_s) / n, "s/op"),
        "convex_roof.restarts_used": (get("convex_roof.minimize", 0) / n, "count/op"),
        "convex_roof.eigensystem.s": (get("convex_roof.eigensystem", 1) / n, "s/op"),
        "convex_roof.decomposition_from_isometry.s": (
            get("convex_roof.decomposition_from_isometry", 1) / n, "s/op"),
        "convex_roof.miss_rate": (miss_rate(roof) if roof else 0.0, "1"),
        "trace.overhead_s": (overhead, "s/op"),
        "trace.overhead_pct": (100 * overhead / plain_p50, "%"),
    })
    for p in refs.ROOF_GRID:
        gaps = [op.gap for op in traced if op.p == p and op.gap is not None]
        metrics[f"convex_roof.value_gap.p{p}"] = (statistics.mean(gaps) if gaps else 0.0, "tangle")
    return metrics


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    sys.path.insert(0, str(SRC))
    import oddtangle.io as io

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer()
    saves = io.save_state, io.save_density
    if trace:
        io.save_state = tracer.wrap("io.save_state", io.save_state)
        io.save_density = tracer.wrap("io.save_density", io.save_density)
    try:
        setup_times = set_up(workload, work, seed, env, io)
        plain, traced, elapsed = measure(workload, work, seed, seconds, trace, env)
    finally:
        io.save_state, io.save_density = saves
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    ops = plain + traced
    failed = [op for op in ops if op.error is not None]
    for op in failed[:5]:
        print(f"FAILED {op.error}")
    e2e, notes = end_to_end(plain, elapsed, setup_times)
    for line in notes:
        print(line)
    if trace:
        metrics = per_layer(plain, traced, tracer.spans, SETUP_REPS)
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print("environment " + json.dumps(environment()))
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oddtangle" / "cli.py").is_file():
        print(f"error: no oddtangle package under {SRC}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
