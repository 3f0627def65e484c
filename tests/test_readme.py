"""The README's Python API sketch runs as written (with fewer shots)."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_api_sketch_prints_a_finite_positive_tau():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    assert "n_shots=500" in blocks[0]
    code = blocks[0].replace("n_shots=500", "n_shots=20")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    tau = float(proc.stdout.strip().splitlines()[-1])
    assert math.isfinite(tau) and tau > 0
