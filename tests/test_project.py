"""Checks on the project's promises outside the numerics.

* README's Library example runs as printed.
* An offline stand-in for the Python 3.10 floor of ``requires-python`` and
  of the CI matrix, and for README's "Dependencies: numpy".
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    rep = namespace["rep"]
    measures = (rep.concurrence, rep.mutual_information, rep.classical_correlation, rep.quantum_discord)
    assert all(type(x) is float and math.isfinite(x) for x in measures)
    assert 0.0 <= rep.concurrence <= 1.0
    assert 0.0 <= rep.mutual_information <= 2.0
    assert 0.0 <= rep.classical_correlation <= rep.mutual_information
    assert 0.0 <= rep.quantum_discord <= rep.mutual_information
    assert namespace["rho_t"].shape == (4, 4)


def test_sources_parse_as_python_3_10():
    """Best effort: the grammar of 3.10 as the running parser emulates it.

    ``feature_version=(3, 10)`` rejects ``except*`` and PEP 695 syntax, but
    it accepts ``a[*b]`` (PEP 646), so a clean parse here is no proof that
    3.10 runs the code; only the CI matrix is.
    """
    files = sorted((ROOT / "src" / "qcorr").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_numpy_is_the_only_dependency_loaded():
    # a fresh interpreter, so no module another test imported counts
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qcorr, qcorr.cli\n"
        "print(json.dumps(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    loaded = set(json.loads(out)) - set(sys.stdlib_module_names)
    assert loaded == {"numpy", "qcorr"}
