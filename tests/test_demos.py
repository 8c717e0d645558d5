"""Every demo script, and the README's quickstart, runs against the library in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["end_to_end", "secrecy_check", "straggler_latency", "tradeoff_sweep"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs():
    # the first python block of README.md is the encode / worker_compute /
    # decode example; it asserts its own product
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
