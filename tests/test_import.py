"""Importing ergobound defers numpy's not yet imported submodules until their first use.

Each check runs in a fresh interpreter with warnings as errors: the test session has
imported scipy before ergobound, and then the deferral has nothing left to do.
"""

import os
import subprocess
import sys
from pathlib import Path

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
