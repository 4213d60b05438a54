"""Tests of the benchmark's own pieces.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refs
import run
import stats
from oddtangle import bench, io
from oddtangle.naive_tangle import tangle_i_naive
from oddtangle.qstate import PureState

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("make", [refs.lu_ghz, refs.lu_w])
@pytest.mark.parametrize("seed", [0, 1])
def test_generators_match_oracle_at_n5(make, seed):
    amps, tau = make(5, np.random.default_rng(seed))
    state = PureState(5, amps)
    assert state.is_normalized(1e-12)
    for i in range(1, 6):
        assert abs(tangle_i_naive(state, i) - tau) <= 1e-12


def test_lu_ghz_tangle_is_not_trivial():
    taus = [refs.lu_ghz(5, np.random.default_rng(s))[1] for s in range(20)]
    assert min(taus) > 0.05 and max(taus) <= 1.0


def test_roof_closed_form_branches():
    assert refs.roof_closed_form(0.5) == refs.roof_closed_form(0.6) == 0.0
    assert refs.P0 < 0.68 <= refs.P1 < 0.8
    # the three branches meet at p0 and p1
    middle = lambda p: p * p - 8 * math.sqrt(6) / 9 * math.sqrt(p * (1 - p) ** 3)
    upper = lambda p: 1 - (1 - p) * (1.5 + math.sqrt(465) / 18)
    assert abs(middle(refs.P0)) < 1e-12
    assert abs(middle(refs.P1) - upper(refs.P1)) < 1e-12
    assert abs(refs.roof_closed_form(0.7) - 0.1906674) < 1e-7
    assert abs(refs.roof_closed_form(0.9) - 0.7302008) < 1e-7


def test_ghz_w_density_is_a_rank_two_state():
    rho = refs.ghz_w_density(0.68)
    assert abs(np.trace(rho) - 1) < 1e-15
    assert np.sum(np.linalg.eigvalsh(rho) > 1e-12) == 2


def test_checks_reject_wrong_outputs():
    header = "n,i,tau_i,tau_avg,T_re,T_im,P_re,P_im,Q_re,Q_im\n"
    good = header + "".join(f"3,{i},0.5,0.5,0,0,0,0,0,0\n" for i in (1, 2, 3))
    assert refs.check_compute_csv(good, 3, 0.5) is None
    assert refs.check_compute_csv(good, 3, 0.5 + 2e-9) is not None
    assert refs.check_compute_csv(header + "3,1,0.5,0.5,0,0,0,0,0,0\n", 3, 0.5) is not None
    lines = [f"[PASS] {name} worst_error=0 tol=1" for name in refs.VERIFY_CHECKS]
    assert refs.check_verify_output("\n".join(lines)) is None
    assert refs.check_verify_output("\n".join(lines[:-1])) is not None
    assert refs.check_verify_output("\n".join(lines).replace("[PASS] w_", "[FAIL] w_")) is not None
    exact = refs.roof_closed_form(0.8)
    assert run.RoofCheck(0.8)(f"value {exact!r}\n") is None
    assert run.RoofCheck(0.8)(f"value {exact - 1e-8!r}\n") is not None


@pytest.mark.parametrize(
    "count,q", [(5, None), (10, None), (11, 9), (20, 50), (36, 72), (100, 90), (1000, 99)]
)
def test_tail_percentile_leaves_ten_samples_beyond(count, q):
    assert stats.tail_percentile(count) == q
    if q is not None:
        assert count - math.ceil(q * count / 100) >= 10
        assert count - math.ceil((q + 1) * count / 100) < 10 or q == 99


def test_tail_value():
    assert stats.tail(range(1, 101)) == ("p90", 90)
    assert stats.tail([3.0, 1.0, 2.0]) == ("p100", 3.0)


def test_self_time_on_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 7.0, 0, 0],
        ["a", 5.5, 6.0, 3, 7],
    ]
    rows = stats.span_table(spans)
    assert [r[0] for r in rows] == ["a", "b", "c", "d", "a"]
    assert [r[2] for r in rows] == pytest.approx([5.0, 2.0, 1.0, 1.5, 0.5])
    assert [r[3] for r in rows] == [True, True, True, True, False]
    totals = run.layer_totals([rows])
    assert totals["a"] == [2, 10.0, 5.5, 7]


def test_covered_merges_overlaps():
    assert stats.covered([(1, 3), (2, 5), (7, 12)], 0, 10) == 7


def test_amp_products_follow_count_fast_path(tmp_path):
    state = PureState(5, refs.lu_ghz(5, np.random.default_rng(3))[0])
    path = tmp_path / "s.json"
    io.save_state(state, str(path))
    spans = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(run.SRC)}
    cmd = run.TRACED + [str(spans), "compute", "--state", str(path), "--out", str(tmp_path / "o")]
    subprocess.run(cmd, check=True, env=env)
    rows = stats.span_table(json.loads(spans.read_text())["spans"])
    amp_products = sum(r[4] for r in rows if r[0] == "fast_tangle.compute_TPQ")
    assert amp_products == 5 * bench.count_fast_path(state)
    names = {r[0] for r in rows}
    assert {"cli.import", "cli.main", "io.load_state", "fast_tangle.n_tangle",
            "qstate.PureState", "qstate.permute_qubits"} <= names


def _names(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize(
    "workload", [run.ComputeN17(), run.VerifyAll(), run.RoofGhzW3(grid=(0.9,))],
    ids=lambda w: w.name,
)
def test_smoke_every_workload(workload):
    result = run.run(workload, seed=5, seconds=0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * {"compute_n17": 2, "verify_all": 1, "roof_ghzw3": 1}[workload.name]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names("per_layer")
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_smoke_end_to_end_metrics():
    result = run.run(run.VerifyAll(), seed=5, seconds=0, trace=False)
    assert result["correct"] and result["attempted"] == 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_the_package(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in Path(run.HERE).glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
