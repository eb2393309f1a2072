"""Importing ergobound defers numpy's not yet imported submodules until their first use,
and loads ``scipy.special`` only for the non-centered noise moments that need it.

Each check runs in a fresh interpreter with warnings as errors: the test session has
imported scipy before ergobound, and then the deferral has nothing left to do.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_numpys_unused_submodules_unexecuted():
    out = run(
        "import sys\n"
        "import ergobound.cli\n"
        "print(sorted(k for k in ('numpy.f2py.crackfortran', 'numpy.testing._private',"
        " 'numpy.ma.core') if k in sys.modules))\n"
    )
    assert out == "[]"


def test_deferred_submodules_load_on_first_use():
    out = run(
        "import sys, types\n"
        "import numpy as np\n"
        "import ergobound.cli\n"
        "np.testing.assert_allclose([1.0, 2.0], [1.0, 2.0])\n"
        "from numpy.testing import assert_array_equal\n"
        "assert_array_equal([1, 2], [1, 2])\n"
        "assert np.testing is sys.modules['numpy.testing']\n"
        "assert type(np.testing) is types.ModuleType\n"
        "assert 'numpy.testing._private' in sys.modules\n"
        "assert np.ma.masked_array([1, 2, 3], mask=[0, 1, 0]).sum() == 4\n"
        "assert callable(np.f2py.run_main)\n"
        "print('ok')\n"
    )
    assert out == "ok"


def test_scipy_imported_first_leaves_every_numpy_module_as_it_was():
    out = run(
        "import sys, types\n"
        "import numpy, scipy.linalg\n"
        "before = {k: m for k, m in sys.modules.items() if k.startswith('numpy')}\n"
        "bound = dict(vars(numpy))\n"
        "import ergobound.cli\n"
        "assert all(sys.modules[k] is m for k, m in before.items())\n"
        "assert all(vars(numpy)[k] is v for k, v in bound.items())\n"
        "assert 'numpy.f2py.crackfortran' in sys.modules\n"
        "print(sorted(k for k, m in sys.modules.items()"
        " if k.startswith('numpy') and type(m) is not types.ModuleType))\n"
    )
    assert out == "[]"


# what neither an import nor the package's usual work executes
UNUSED = "('scipy.special', 'numpy.polynomial.legendre', 'numpy.polynomial.polynomial')"


def test_import_leaves_scipy_special_and_numpy_polynomial_unexecuted():
    out = run(
        "import sys\n"
        "import ergobound, ergobound.cli\n"
        f"print(sorted(k for k in {UNUSED} if k in sys.modules))\n"
    )
    assert out == "[]"


def test_centered_moments_constants_and_bounds_leave_scipy_special_out():
    out = run(
        "import sys\n"
        "import numpy as np\n"
        "import ergobound as eb\n"
        "specs = [eb.NoiseSpec.gaussian(0.0, 2.0), eb.NoiseSpec.laplace(0.0, 1.5),\n"
        "         eb.NoiseSpec.student_t(3.5, 1.0), eb.NoiseSpec.uniform(0.7),\n"
        "         eb.NoiseSpec.point_mass(0.3), eb.NoiseSpec.laplace_d([0.0, 0.0], [1.0, 2.0]),\n"
        "         eb.NoiseSpec.uniform_d([1.0, 0.5]), eb.NoiseSpec.student_t_d(4.0, [1.0, 2.0])]\n"
        "for spec in specs:\n"
        "    for p in (1.0, 1.5, 2.0, 3.0):\n"
        "        spec.abs_moment_sigma(np.eye(spec.dim), p)\n"
        "assert eb.sphere_moment_ratio(3, 1.0) > 0 and eb.gaussian_abs_moment(3, 1.5) > 0\n"
        "m = eb.ar_state_space([1.2, -0.5])\n"
        "eb.sliced_gauss_bounds(m, np.array([2.0, 0.0]), 1.0, 5)\n"
        "eb.gaussian_affine_bounds(m, None, np.array([2.0, 0.0]), 2.0, 5)\n"
        "eb.sliced_empirical(np.zeros((20, 2)), np.ones((20, 2)), r=1.0, n_directions=8, seed=0)\n"
        f"print(sorted(k for k in {UNUSED} if k in sys.modules))\n"
    )
    assert out == "[]"


@pytest.mark.parametrize("spec", ["gaussian(0.5, 2.0)", "laplace(0.5, 1.5)"])
def test_non_centered_moment_loads_scipy_special_on_first_use(spec):
    out = run(
        "import sys\n"
        "import numpy as np\n"
        "import ergobound as eb\n"
        f"spec = eb.NoiseSpec.{spec}\n"
        "before = 'scipy.special' in sys.modules\n"
        "value, _ = spec.abs_moment_sigma(np.eye(1), 1.5)\n"
        "print(before, 'scipy.special' in sys.modules, value > 0)\n"
    )
    assert out == "False True True"
