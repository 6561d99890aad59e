"""The README's examples under every supported Python, and with warnings as errors.

pyproject.toml declares `requires-python >=3.10`.  Each of the README's six
examples runs with `-m enclosures` from the checkout's `src`, and must give
the same stdout, stderr and exit code as a plain run under the running
interpreter:

- under the running interpreter with `-W error -X dev`, so that each CI
  leg checks its own Python for warnings;
- for each of python3.10 to python3.13, unless it is the running
  interpreter's version, under the first candidate that starts.  The
  candidates are the name on PATH, then pyenv's installs of that version
  under `$PYENV_ROOT` (default `~/.pyenv`), since pyenv's shim for a
  version it has not activated exits 127.  A version with no candidate
  that starts is skipped.
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
COMMANDS = [shlex.split(c) for c, _ in EXAMPLES]
PROBE = "import sys; print(sys.version_info[:2])"


def _run(python: list[str], args: list[str], cwd: Path) -> tuple[str, str, int]:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [*python, "-m", "enclosures", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.stdout, done.stderr, done.returncode


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("examples")
    for file, text in INPUTS.items():
        (path / file).write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def plain(workdir) -> list[tuple[str, str, int]]:
    """Each example's stdout, stderr and exit code under the running interpreter."""
    runs = [_run([sys.executable], args, workdir) for args in COMMANDS]
    for args, (stdout, _, code) in zip(COMMANDS, runs):
        assert code == 0 and stdout, args
    return runs


def test_examples_cover_both_commands():
    assert len(COMMANDS) == 6
    assert {"classify", "enclosure"} <= {args[0] for args in COMMANDS}


def test_examples_run_clean_with_warnings_as_errors(workdir, plain):
    strict = [sys.executable, "-W", "error", "-X", "dev"]
    for args, expected in zip(COMMANDS, plain):
        assert _run(strict, args, workdir) == expected, args


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
def test_examples_match_running_interpreter(workdir, plain, name):
    started = ((python, version) for python in _candidates(name) if (version := _probe(python)))
    python, version = next(started, (None, None))
    if python is None:
        pytest.skip(f"no {name} starts, on PATH or under pyenv")
    if version == str(sys.version_info[:2]):
        pytest.skip(f"{name} is the running interpreter's version")
    for args, expected in zip(COMMANDS, plain):
        assert _run([python], args, workdir) == expected, args
