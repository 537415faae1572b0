"""How the package is versioned, imported, and run from the command line.

Each check starts a fresh interpreter, so no module an earlier test
imported can hide what a cold ``import repro`` or ``python -m`` does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _python(*args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_setup_py_reports_the_package_version():
    result = _python("setup.py", "--version")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == repro.__version__


#: Third-party top-level packages a cold import may load: the optional
#: ``batch`` and ``numba`` extras.  The cost model is plain ``math``, so no
#: computer-algebra system belongs here.
RUNTIME_DEPENDENCIES = {"numpy", "numba", "llvmlite"}


def test_public_packages_import_nothing_beyond_their_dependencies():
    result = _python(
        "-c",
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.analysis, repro.service, repro.stabilization\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))",
    )
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert loaded - {"repro"} <= RUNTIME_DEPENDENCIES


def test_costmodel_cli_runs_without_runtime_warnings():
    # runpy warns when the package import already loaded the module it is
    # about to execute as __main__; -W error turns that into a failure.
    result = _python(
        "-W",
        "error::RuntimeWarning",
        "-m",
        "repro.analysis.costmodel",
        "benchmarks",
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert "within their declared classes" in result.stdout
