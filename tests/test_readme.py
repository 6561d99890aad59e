"""The README's command-line examples, run and compared byte for byte.

Every fenced block that opens with `$ enclosures ...` is one example: the
command goes through `cli.main` in a directory holding the input files
the README names, and its stdout must equal the rest of the block.
"""

import re
import shlex
from pathlib import Path

import pytest

from enclosures.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# The files the examples read, as the README describes them.
INPUTS = {
    "same.expr": "meas(t,[2,5],d) - meas(t,[2,5],d)\n",
    "distinct.expr": "meas(t1,[2,5],d) - meas(t2,[2,5],d)\n",
    "zero.expr": "exact(0,d)\n",
    "vals.env": "t1 = 5\nt2 = 2\n",
}

EXAMPLE = re.compile(r"^```sh\n\$ enclosures (.*)\n((?:(?!```).*\n)*)```$", re.MULTILINE)
EXAMPLES = EXAMPLE.findall(README.read_text(encoding="utf-8"))


def test_readme_has_examples():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(tmp_path, monkeypatch, capsys, command, expected):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected
