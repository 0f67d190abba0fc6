"""The package's public surface: every exported name resolves, once."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import nilschouten

SRC = Path(__file__).resolve().parent.parent / "src"


def test_all_names_resolve_without_duplicates():
    names = nilschouten.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(nilschouten, name)] == []


def test_package_imports_only_the_standard_library():
    # dependencies = [] in pyproject.toml; -S keeps site-packages and its .pth
    # hooks (such as _distutils_hack) out of the interpreter
    script = (
        "import sys, nilschouten, nilschouten.cli\n"
        "print(*sorted({name.partition('.')[0] for name in sys.modules}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "nilschouten" in out
    outside = set(out) - set(sys.stdlib_module_names) - {"nilschouten", "__main__"}
    assert outside == set()
