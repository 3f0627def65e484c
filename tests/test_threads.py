"""``import rydsim`` starts numpy with one OpenBLAS thread, unless the
environment or an earlier ``import numpy`` has already decided; each case
runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
REPORT = (
    "import json, os\n"
    "before = dict(os.environ)\n"
    "{imports}\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
    "added = sorted(set(os.environ) - set(before))\n"
    "print(json.dumps({{'value': os.environ.get('OPENBLAS_NUM_THREADS'), 'tasks': tasks, "
    "'added': added}}))\n"
)


def fresh(imports: str, **preset) -> dict:
    """What a fresh interpreter reports after ``imports``, with neither
    thread variable set unless ``preset`` sets it."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", REPORT.format(imports=imports)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_rydsim_starts_one_openblas_thread():
    report = fresh("import rydsim")
    assert report["value"] == "1" and report["added"] == ["OPENBLAS_NUM_THREADS"]
    if sys.platform.startswith("linux"):
        assert report["tasks"] == 1


@pytest.mark.parametrize("var", THREAD_VARS)
def test_a_preset_thread_variable_wins(var):
    report = fresh("import rydsim", **{var: "2"})
    assert report["added"] == []
    assert report["value"] == ("2" if var == "OPENBLAS_NUM_THREADS" else None)


def test_numpy_imported_first_is_left_as_it_is():
    assert fresh("import numpy\nimport rydsim")["added"] == []
