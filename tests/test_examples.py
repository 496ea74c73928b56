"""Every script under ``examples/`` runs to completion.

The examples are the user-facing tour of the package surface: each one
imports through the package re-exports and drives a deployment end to end.
Each runs in a fresh interpreter and must exit 0.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "examples", "*.py")))


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_example_exits_zero(script, tmp_path):
    done = subprocess.run(
        [sys.executable, script], cwd=tmp_path, capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr[-2000:]
