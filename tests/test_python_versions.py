"""The README's classify and enclosure examples under every other Python.

pyproject.toml declares `requires-python >=3.10`.  For each of python3.10
to python3.13, the first candidate that starts runs the examples with
`-m enclosures` from the checkout's `src`, unless it is the running
interpreter's version, and must print the same stdout and exit with the
same code as the running interpreter.  The candidates are the name on
PATH, then pyenv's installs of that version under `$PYENV_ROOT` (default
`~/.pyenv`), since pyenv's shim for a version it has not activated exits
127.  A version with no candidate that starts is skipped.
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


def _candidates(name: str) -> list[str]:
    """Executables for name: the one on PATH, then pyenv's installs of its version."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    installed = sorted(map(str, root.glob(f"versions/{name[len('python'):]}.*/bin/{name}")))
    return [python for python in (shutil.which(name), *installed) if python is not None]


def _probe(python: str) -> str | None:
    """The version python prints, or None when it does not start."""
    done = subprocess.run([python, "-c", PROBE], capture_output=True, text=True, timeout=60)
    return done.stdout.strip() if done.returncode == 0 else None


@pytest.mark.parametrize("name", [f"python3.{minor}" for minor in range(10, 14)])
def test_examples_match_running_interpreter(tmp_path, name):
    started = ((python, version) for python in _candidates(name) if (version := _probe(python)))
    python, version = next(started, (None, None))
    if python is None:
        pytest.skip(f"no {name} starts, on PATH or under pyenv")
    if version == str(sys.version_info[:2]):
        pytest.skip(f"{name} is the running interpreter's version")
    for file, text in INPUTS.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    for args in COMMANDS:
        expected = _run(sys.executable, args, tmp_path)
        assert expected[1] == 0 and expected[0], args
        assert _run(python, args, tmp_path) == expected, args
