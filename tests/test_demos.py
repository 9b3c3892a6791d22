"""Each demo prints exactly its recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(
        g.stem.removeprefix("demo_") for g in (ROOT / "tests" / "data").glob("demo_*.txt")
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "data" / f"demo_{demo.stem}.txt").read_text()
