import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


@pytest.fixture(scope="session")
def eqdomain_cli():
    """Run `python3 -m eqdomain ARGS...` from src/ and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(*args: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "eqdomain", *args],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return proc.stdout

    return run
