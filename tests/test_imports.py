"""Each command imports only the package modules it runs, and the package
resolves its exported names and submodules on first use.

Only ``oddtangle.*`` entries of ``sys.modules`` are compared: which numpy
submodules ``import numpy`` loads differs between numpy releases.
"""

import os
import subprocess
import sys

import pytest

import oddtangle
from oddtangle.convex_roof import MixedState
from oddtangle.io import save_density, save_state
from oddtangle.stategen import ghz, random_pure, w

SRC = os.path.dirname(os.path.dirname(oddtangle.__file__))

# every name the package exported when it imported all of its submodules
EXPORTED = {
    "bench": ["count_fast_path", "count_naive_path", "timing_sweep"],
    "convex_roof": ["MixedState", "RoofResult", "convex_roof_tangle", "decomposition_from_isometry"],
    "fast_tangle": [
        "TPQ", "TangleReport", "compute_TPQ", "n_tangle", "stack_tangles", "stack_tpq",
        "tangle_i_fast",
    ],
    "naive_tangle": ["epsilon", "find_noninvariance_witness", "tangle_i_naive", "wong_tangle_naive"],
    "qstate": [
        "LocalOperatorChain", "PureState", "QubitPermutation", "apply_local_operators",
        "index_of_bits", "permute_qubits",
    ],
    "residual_forms": [
        "ResidualParts", "residual_parts_defining", "residual_parts_reduced", "residual_tau",
    ],
    "slocc_ops": [
        "SloccVerdict", "random_local_invertible", "random_local_unitary",
        "verify_lu_invariance", "verify_slocc_equation",
    ],
    "stategen": ["basis_product", "ghz", "random_pure", "w"],
    "three_tangle": ["ckw_tangle"],
}

ROOF_SET = ["cli", "convex_roof", "fast_tangle", "io", "qstate"]
VERIFY_SET = [
    "cli", "fast_tangle", "naive_tangle", "qstate", "residual_forms", "slocc_ops", "stategen",
    "three_tangle", "verify",
]


def _run(code: str, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )
    return done.stdout


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["compute", "--state", "r5.json"], ROOF_SET),
        (["roof", "--density", "rho.json", "--restarts", "2"], ROOF_SET),
        (["verify-all"], VERIFY_SET),
    ],
    ids=["compute", "roof", "verify-all"],
)
def test_each_command_imports_only_the_modules_it_runs(tmp_path, argv, loaded):
    save_state(random_pure(5, seed=1), str(tmp_path / "r5.json"))
    save_density(MixedState.from_ensemble(3, [(0.8, ghz(3)), (0.2, w(3))]), str(tmp_path / "rho.json"))
    code = (
        "import sys\n"
        "from oddtangle.cli import main\n"
        f"assert main({argv + ['--out', 'out.txt']!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('oddtangle.')))\n"
    )
    assert _run(code, tmp_path).split() == [f"oddtangle.{m}" for m in loaded]
    assert (tmp_path / "out.txt").read_text() != ""


def test_every_exported_name_imports_from_the_package():
    names = {}
    exec(f"from oddtangle import __version__, {', '.join(sum(EXPORTED.values(), []))}", names)
    assert names["__version__"] == "0.1.0"
    for module, exported in EXPORTED.items():
        for name in exported:
            assert names[name] is getattr(sys.modules[f"oddtangle.{module}"], name)
    assert sorted(oddtangle.__all__) == sorted(sum(EXPORTED.values(), []))
    with pytest.raises(AttributeError, match="module 'oddtangle' has no attribute 'nope'"):
        oddtangle.nope


def test_the_package_imports_a_submodule_on_first_use(tmp_path):
    code = (
        "import sys\n"
        "import oddtangle\n"
        "print(*sorted(m for m in sys.modules if m.startswith('oddtangle.')))\n"
        "verify = getattr(oddtangle, 'verify')\n"
        "assert verify is sys.modules['oddtangle.verify']\n"
        "assert oddtangle.io is sys.modules['oddtangle.io']\n"
        "from oddtangle import n_tangle\n"
        "assert n_tangle is sys.modules['oddtangle.fast_tangle'].n_tangle\n"
        "assert 'oddtangle.bench' not in sys.modules\n"
    )
    assert _run(code, tmp_path) == "\n"
