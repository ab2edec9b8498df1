"""Each demo runs as a script and prints exactly its pinned output.

The demos draw from fixed seeds, so their stdout is deterministic; the
digests below pin it, which also pins every value they print.
"""

import hashlib
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of each demo's stdout (Python 3.11, numpy 2.4)
GOLDEN_DEMO_SHA256 = {
    "chsh_tour.py": "5b7ffa6a209eb5ad78807ebba5d7c163e7d92a85a78d08a89b8feb73aaeaa640",
    "correlation_curves.py": "82aab86520a3cfc22dc0e2a0434f096d6f90bd88cba0197501a1033aa4836e84",
    "field_equivalence.py": "7a797d65b6b7b595a81989af141c57b3bd41b590e277a66d0aa3a59543e34875",
    "wigner_story.py": "1e8fa6723925281a0c217b8ad8305cfc75cbfb0df06b9d01e1fc4c0406331350",
}


def test_every_demo_is_pinned():
    demos = [f for f in os.listdir(os.path.join(REPO_ROOT, "demos")) if f.endswith(".py")]
    assert sorted(demos) == sorted(GOLDEN_DEMO_SHA256)


@pytest.mark.parametrize("demo", sorted(GOLDEN_DEMO_SHA256))
def test_demo_stdout_sha256(demo):
    # pytest's filterwarnings does not reach a subprocess: turn its warnings into errors here
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src"), "PYTHONWARNINGS": "error"}
    done = subprocess.run(
        [sys.executable, os.path.join("demos", demo)],
        cwd=REPO_ROOT, env=env, capture_output=True, timeout=120, check=True,
    )
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN_DEMO_SHA256[demo]
