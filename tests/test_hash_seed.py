"""`softgamma suite` output does not depend on the string hash seed.

Verdicts and counterexample bytes are part of the determinism contract, so
no set or dict iteration order may leak into them.  Each command runs in
fresh interpreters under PYTHONHASHSEED 0 and 3; stdout bytes and exit
codes must agree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _suite(argv, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "softgamma", *argv], cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    return proc.stdout, proc.returncode


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "--trials", "40", "--seed", "0"],
        ["suite", "--drop-hypothesis", "--trials", "100", "--seed", "0"],
    ],
)
def test_suite_is_byte_identical_across_hash_seeds(argv):
    out0, code0 = _suite(argv, 0)
    assert out0, f"no verdicts on stdout (exit {code0})"
    assert _suite(argv, 3) == (out0, code0)
