import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def _run_cli(args, stdin="", env_extra=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("CHROMA_BUDGET", None)
    if env_extra:
        env.update(env_extra)
    # bytes in, bytes out: for input that is not text
    return subprocess.run(
        [sys.executable, "-m", "chromaconn", *args],
        input=stdin, capture_output=True,
        text=not isinstance(stdin, bytes), env=env)


@pytest.fixture
def run_cli():
    return _run_cli
