"""The README's examples, run and compared byte for byte.

Every fenced block that opens with `$ enclosures ...` is one example: the
command goes through `cli.main` in a directory holding the input files
the README names, and its stdout must equal the rest of the block.  Each
```python block runs as written, and each `print(...)  # text` line in it
must print `text`.
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

TEXT = README.read_text(encoding="utf-8")
EXAMPLE = re.compile(r"^```sh\n\$ enclosures (.*)\n((?:(?!```).*\n)*)```$", re.MULTILINE)
EXAMPLES = EXAMPLE.findall(TEXT)
LIBRARY = re.findall(r"^```python\n((?:(?!```).*\n)*)```$", TEXT, re.MULTILINE)
PRINTED = re.compile(r"^\s*print\(.*\)  +# (.*)$", re.MULTILINE)


def test_readme_has_examples():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(tmp_path, monkeypatch, capsys, command, expected):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_block(capsys):
    counts = []
    for block in LIBRARY:
        expected = PRINTED.findall(block)
        exec(compile(block, str(README), "exec"), {})
        assert capsys.readouterr().out.splitlines() == expected
        counts.append(len(expected))
    assert counts == [4, 3]
