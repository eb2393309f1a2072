"""The package runs on the oldest NumPy that pyproject.toml admits (1.24).

No NumPy 1.x install is at hand to run the suite on, so this walks the
package's source for names that NumPy added in 2.0 instead.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ergobound"

# top-level functions added in NumPy 2.0 or later
NUMPY2_TOP = {
    "vecdot", "matvec", "vecmat", "matrix_transpose", "unstack", "concat", "permute_dims",
    "astype", "isdtype", "cumulative_sum", "cumulative_prod", "trapezoid", "bitwise_count",
    "acos", "asin", "atan", "atan2", "acosh", "asinh", "atanh", "pow", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift",
}
# numpy.linalg functions added in NumPy 2.0 or later
NUMPY2_LINALG = {
    "vector_norm", "matrix_norm", "svdvals", "vecdot", "matrix_transpose", "diagonal",
    "trace", "outer", "cross", "matmul", "tensordot",
}
# ndarray attributes added in NumPy 2.0 or later
NUMPY2_ARRAY = {"mT", "device", "to_device"}


def numpy2_names(source: str, filename: str = "<source>") -> list[str]:
    """``file:line expression`` of each use in ``source`` of a name that NumPy 1.x lacks."""
    tree = ast.parse(source, filename)
    numpy_names, linalg_names = {"numpy"}, {"numpy.linalg"}
    for node in ast.walk(tree):  # the names numpy and numpy.linalg are bound to
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.linalg" and alias.asname:
                    linalg_names.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name == "linalg":
                    linalg_names.add(alias.asname or "linalg")

    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    linalg_paths = linalg_names | {f"{n}.linalg" for n in numpy_names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            bad = (
                (base in numpy_names and node.attr in NUMPY2_TOP)
                or (base in linalg_paths and node.attr in NUMPY2_LINALG)
                or node.attr in NUMPY2_ARRAY
            )
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            names = NUMPY2_TOP if node.module == "numpy" else NUMPY2_LINALG
            bad = any(alias.name in names for alias in node.names)
        else:
            continue
        if bad:
            found.append(f"{filename}:{node.lineno} {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy2_only_names(path):
    assert numpy2_names(path.read_text(), path.name) == []


@pytest.mark.parametrize("snippet", [
    "import numpy as np\nnp.vecdot(a, b)",
    "import numpy as np\nnp.linalg.vector_norm(a)",
    "import numpy\nnumpy.trapezoid(y)",
    "from numpy import linalg as la\nla.matrix_norm(a)",
    "from numpy import concat",
    "x.mT",
    "import numpy as np\nnp.astype(a, float)",
])
def test_the_walk_sees_numpy2_names(snippet):
    assert len(numpy2_names(snippet)) == 1


@pytest.mark.parametrize("snippet", [
    "import numpy as np\na.astype(float)",
    "import numpy as np\nnp.trace(a) + np.outer(a, b) + np.linalg.norm(a)",
    "import scipy.linalg\nscipy.linalg.solve(a, b)",
])
def test_the_walk_passes_numpy1_names(snippet):
    assert numpy2_names(snippet) == []
