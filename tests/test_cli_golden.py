"""Golden `--pretty` reports and `--help` texts, byte for byte.

Each case pins one rendering branch that the other CLI tests reach only
loosely or not at all: every enclosure outcome shape, each verdict line
form, the empty environment, blind comparison against each other, two
demos, and the help text of the top level and of every subcommand.
"""

import pytest

from enclosures.cli import main

EXPRS = {
    "SAME_DIFF": "meas(t,[2,5],d) - meas(t,[2,5],d)",
    "DIST_DIFF": "meas(t1,[2,5],d) - meas(t2,[2,5],d)",
    "DIST_DIV": "meas(t1,[1,2],d) / meas(t2,[1,2],d)",
    "INFEASIBLE": "meas(t,[0,1],d) + meas(t,[2,3],d)",
    "UNDET_SRC": "meas(u1,[0,2],d) * meas(u2,[0,2],d)",
    "UNDET_TGT": "meas(u3,[1,2],d) * meas(u4,[1,2],d)",
    "POLE": "meas(t,[1,2],d) / meas(u,[-1,1],d)",
}

# (id, argv with EXPRS keys standing for files, exit code, stdout)
PRETTY = [
    (
        "enclosure-exact",
        ["enclosure", "--pretty", "SAME_DIFF"],
        0,
        """\
expr: meas(t,[2,5],d) - meas(t,[2,5],d)
result: exact interval [0,0]
""",
    ),
    (
        "enclosure-empty",
        ["enclosure", "--pretty", "INFEASIBLE"],
        0,
        """\
expr: meas(t,[0,1],d) + meas(t,[2,3],d)
result: empty (token t has no possible value)
""",
    ),
    (
        "enclosure-unbounded-over",
        ["enclosure", "--pretty", "--grid", "2", "POLE"],
        0,
        """\
expr: meas(t,[1,2],d) / meas(u,[-1,1],d)
result: unknown
over: unbounded
under samples: 4
  t = 1, u = -1 -> -1
  t = 1, u = 1 -> 1
  t = 2, u = -1 -> -2
  t = 2, u = 1 -> 2
""",
    ),
    (
        "enclosure-truncated",
        ["enclosure", "--pretty", "--budget", "3", "DIST_DIV"],
        4,
        """\
expr: meas(t1,[1,2],d) / meas(t2,[1,2],d)
result: unknown
over: [1/2,2]
under samples: 3 (truncated by budget)
  t1 = 1, t2 = 1 -> 1
  t1 = 1, t2 = 2 -> 1/2
  t1 = 2, t2 = 1 -> 2
""",
    ),
    (
        "enclosure-more-samples",
        ["enclosure", "--pretty", "DIST_DIV"],
        0,
        """\
expr: meas(t1,[1,2],d) / meas(t2,[1,2],d)
result: unknown
over: [1/2,2]
under samples: 25
  t1 = 1, t2 = 1 -> 1
  t1 = 1, t2 = 2 -> 1/2
  t1 = 2, t2 = 1 -> 2
  t1 = 2, t2 = 2 -> 1
  t1 = 1, t2 = 5/4 -> 4/5
  t1 = 1, t2 = 3/2 -> 2/3
  t1 = 1, t2 = 7/4 -> 4/7
  t1 = 5/4, t2 = 1 -> 5/4
  t1 = 5/4, t2 = 5/4 -> 1
  t1 = 5/4, t2 = 3/2 -> 5/6
  t1 = 5/4, t2 = 7/4 -> 5/7
  t1 = 5/4, t2 = 2 -> 5/8
  t1 = 3/2, t2 = 1 -> 3/2
  t1 = 3/2, t2 = 5/4 -> 6/5
  t1 = 3/2, t2 = 3/2 -> 1
  t1 = 3/2, t2 = 7/4 -> 6/7
  t1 = 3/2, t2 = 2 -> 3/4
  t1 = 7/4, t2 = 1 -> 7/4
  t1 = 7/4, t2 = 5/4 -> 7/5
  t1 = 7/4, t2 = 3/2 -> 7/6
  ... 5 more
""",
    ),
    (
        "classify-undecided",
        ["classify", "--pretty", "UNDET_SRC", "UNDET_TGT"],
        3,
        """\
source: meas(u1,[0,2],d) * meas(u2,[0,2],d)
target: meas(u3,[1,2],d) * meas(u4,[1,2],d)
class: undetermined
forward: undecided
backward: fails (value 0 under u1 = 0, u2 = 0 is outside over-approx [1,4])
audit: true
""",
    ),
    (
        "classify-fails-empty",
        ["classify", "--pretty", "SAME_DIFF", "INFEASIBLE"],
        0,
        """\
source: meas(t,[2,5],d) - meas(t,[2,5],d)
target: meas(t,[0,1],d) + meas(t,[2,3],d)
class: one-way-only-forward
forward: holds (empty-target) {'infeasible_token': 't'}
backward: fails (value 0 under t = 2 is outside empty)
audit: true
""",
    ),
    (
        "classify-same-expression",
        ["classify", "--pretty", "SAME_DIFF", "SAME_DIFF"],
        0,
        """\
source: meas(t,[2,5],d) - meas(t,[2,5],d)
target: meas(t,[2,5],d) - meas(t,[2,5],d)
class: interchangeable
forward: holds (same-expression)
backward: holds (same-expression)
audit: true
""",
    ),
    (
        "classify-membership-witness",
        ["classify", "--pretty", "SAME_DIFF", "UNDET_SRC"],
        0,
        """\
source: meas(t,[2,5],d) - meas(t,[2,5],d)
target: meas(u1,[0,2],d) * meas(u2,[0,2],d)
class: one-way-only-backward
forward: fails (value 4 under u1 = 2, u2 = 2 is outside exact-interval [0,0])
backward: holds (membership-witness) {'env': {'u1': '0', 'u2': '0'}, 'value': '0'}
audit: true
""",
    ),
    (
        "eval-infeasible",
        ["eval", "--pretty", "INFEASIBLE"],
        0,
        """\
expr: meas(t,[0,1],d) + meas(t,[2,3],d)
env: (none)
value: 0
consistent: false
effective intervals: infeasible token t
""",
    ),
    (
        "eval-empty-env",
        ["eval", "--pretty", "SAME_DIFF"],
        0,
        """\
expr: meas(t,[2,5],d) - meas(t,[2,5],d)
env: (none)
value: 0
consistent: false
effective intervals:
  t: [2,5]
""",
    ),
    (
        "blind-each-other",
        ["blind", "--pretty", "SAME_DIFF", "DIST_DIFF"],
        0,
        """\
expr1: meas(t,[2,5],d) - meas(t,[2,5],d)
expr2: meas(t1,[2,5],d) - meas(t2,[2,5],d)
target: (each other)
blind1: meas([2,5],d) - meas([2,5],d)
blind2: meas([2,5],d) - meas([2,5],d)
erased equal: true
bounds: [-3,3] vs [-3,3] (equal: true)
classes: one-way-only-backward vs one-way-only-forward
classes differ: true
demonstrates insufficiency: true
audit: true
""",
    ),
    (
        "demo-background",
        ["demo", "--pretty", "--family", "background", "--mode", "distinct", "--signal-interval", "[10,11]", "--background-interval", "[1,2]"],
        0,
        """\
family: background
mode: distinct
signal: [10,11]
background: [1,2]
source: meas(ts,[10,11],d) + meas(tb1,[1,2],d) - meas(tb2,[1,2],d)
target: meas(ts,[10,11],d)
expected: one-way-only-forward
computed: one-way-only-forward
match: true
blind erased equal: true
blind bounds equal: true
blind classes: interchangeable vs one-way-only-forward
blind classes differ: true
audit: true
""",
    ),
    (
        "demo-division",
        ["demo", "--pretty", "--family", "division", "--mode", "same", "--interval", "[1,2]"],
        0,
        """\
family: division
mode: same
interval: [1,2]
source: meas(t,[1,2],d) / meas(t,[1,2],d)
target: exact(1,d)
expected: interchangeable
computed: interchangeable
match: true
blind erased equal: true
blind bounds equal: true
blind classes: interchangeable vs one-way-only-forward
blind classes differ: true
audit: true
""",
    ),
]

HELP = {
    "top": """\
usage: enclosures [-h] {eval,enclosure,classify,blind,demo,oracle} ...

Token-sensitive enclosures and rewrite classification for measurement-bearing
arithmetic.

positional arguments:
  {eval,enclosure,classify,blind,demo,oracle}
    eval                evaluate under an environment
    enclosure           compute the enclosure
    classify            classify a rewrite pair
    blind               compare two expressions after token erasure
    demo                run a rewrite-family demonstration
    oracle              dump sampled (environment, value) rows

options:
  -h, --help            show this help message and exit
""",
    "eval": """\
usage: enclosures eval [-h] [--grid N] [--budget N] [--json | --pretty]
                       [--dim-lint]
                       expr_file [env_file]

positional arguments:
  expr_file   file with one expression
  env_file    file with token bindings (optional)

options:
  -h, --help  show this help message and exit
  --grid N    grid points per token for sampling (default 5)
  --budget N  max sampled environments (default 100000)
  --json      line-delimited JSON output (default)
  --pretty    human-readable output
  --dim-lint  warn on stderr when expressions mix dimension tags
""",
    "enclosure": """\
usage: enclosures enclosure [-h] [--grid N] [--budget N] [--json | --pretty]
                            [--dim-lint]
                            expr_file

positional arguments:
  expr_file   file with one expression

options:
  -h, --help  show this help message and exit
  --grid N    grid points per token for sampling (default 5)
  --budget N  max sampled environments (default 100000)
  --json      line-delimited JSON output (default)
  --pretty    human-readable output
  --dim-lint  warn on stderr when expressions mix dimension tags
""",
    "classify": """\
usage: enclosures classify [-h] [--grid N] [--budget N] [--json | --pretty]
                           [--dim-lint]
                           source_file target_file

positional arguments:
  source_file  file with the source expression
  target_file  file with the target expression

options:
  -h, --help   show this help message and exit
  --grid N     grid points per token for sampling (default 5)
  --budget N   max sampled environments (default 100000)
  --json       line-delimited JSON output (default)
  --pretty     human-readable output
  --dim-lint   warn on stderr when expressions mix dimension tags
""",
    "blind": """\
usage: enclosures blind [-h] [--grid N] [--budget N] [--json | --pretty]
                        [--dim-lint]
                        expr1_file expr2_file [target_file]

positional arguments:
  expr1_file   file with the first expression
  expr2_file   file with the second expression
  target_file  optional file with a shared rewrite target

options:
  -h, --help   show this help message and exit
  --grid N     grid points per token for sampling (default 5)
  --budget N   max sampled environments (default 100000)
  --json       line-delimited JSON output (default)
  --pretty     human-readable output
  --dim-lint   warn on stderr when expressions mix dimension tags
""",
    "demo": """\
usage: enclosures demo [-h] [--grid N] [--budget N] [--json | --pretty]
                       [--dim-lint] --family
                       {cancellation,background,division} --mode
                       {same,distinct} [--interval [LO,HI]]
                       [--signal-interval [LO,HI]]
                       [--background-interval [LO,HI]] [--dim TAG]

options:
  -h, --help            show this help message and exit
  --grid N              grid points per token for sampling (default 5)
  --budget N            max sampled environments (default 100000)
  --json                line-delimited JSON output (default)
  --pretty              human-readable output
  --dim-lint            warn on stderr when expressions mix dimension tags
  --family {cancellation,background,division}
  --mode {same,distinct}
  --interval [LO,HI]    interval for cancellation/division
  --signal-interval [LO,HI]
                        signal interval for background
  --background-interval [LO,HI]
                        background interval for background
  --dim TAG             dimension tag
""",
    "oracle": """\
usage: enclosures oracle [-h] [--grid N] [--budget N] [--json | --pretty]
                         [--dim-lint]
                         expr_file

positional arguments:
  expr_file   file with one expression

options:
  -h, --help  show this help message and exit
  --grid N    grid points per token for sampling (default 5)
  --budget N  max sampled environments (default 100000)
  --json      line-delimited JSON output (default)
  --pretty    human-readable output
  --dim-lint  warn on stderr when expressions mix dimension tags
""",
}


def call(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code, out", [case[1:] for case in PRETTY], ids=[case[0] for case in PRETTY]
)
def test_pretty_report(tmp_path, capsys, argv, code, out):
    for name, text in EXPRS.items():
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    resolved = [str(tmp_path / arg) if arg in EXPRS else arg for arg in argv]
    assert call(capsys, resolved) == (code, out, "")


@pytest.mark.parametrize("command", list(HELP))
def test_help_text(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ([] if command == "top" else [command]) + ["--help"]
    assert call(capsys, argv) == (0, HELP[command], "")
