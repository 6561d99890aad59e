"""The README's classify and enclosure examples under every other Python.

pyproject.toml declares `requires-python >=3.10`.  Each of python3.10 to
python3.13 found on PATH that starts and is not the running interpreter's
version runs the examples with `-m enclosures` from the checkout's `src`,
and must print the same stdout and exit with the same code as the running
interpreter.  A name that is missing, or whose probe fails (a version
manager's shim for an inactive version exits 127), is skipped.
"""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_readme import EXAMPLES, INPUTS

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = [shlex.split(c) for c, _ in EXAMPLES if c.split()[0] in ("classify", "enclosure")]
PROBE = "import sys; print(sys.version_info[:2])"


def _run(python: str, args: list[str], cwd: Path) -> tuple[str, int]:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [python, "-m", "enclosures", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.stdout, done.returncode


def test_examples_cover_both_commands():
    assert sorted(c[0] for c in COMMANDS) == ["classify", "enclosure"]


@pytest.mark.parametrize("name", [f"python3.{minor}" for minor in range(10, 14)])
def test_examples_match_running_interpreter(tmp_path, name):
    python = shutil.which(name)
    if python is None:
        pytest.skip(f"{name} is not on PATH")
    probe = subprocess.run(
        [python, "-c", PROBE], capture_output=True, text=True, timeout=60
    )
    if probe.returncode != 0:
        pytest.skip(f"{name} does not start (exit {probe.returncode})")
    if probe.stdout.strip() == str(sys.version_info[:2]):
        pytest.skip(f"{name} is the running interpreter's version")
    for file, text in INPUTS.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    for args in COMMANDS:
        expected = _run(sys.executable, args, tmp_path)
        assert expected[1] == 0 and expected[0], args
        assert _run(python, args, tmp_path) == expected, args
