"""Every ``examples/*.py`` script runs to completion.

Each script runs in its own interpreter, as a user would start it, with
``src`` on ``PYTHONPATH``; it must exit 0 and print no traceback.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = completed.stdout + completed.stderr
    assert completed.returncode == 0, output
    assert "Traceback" not in output, output
