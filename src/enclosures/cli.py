"""Command-line front end.

Subcommands: eval, enclosure, classify, blind, demo, oracle.  Each builds
one JSON payload with a stable field order and prints it as one line
(oracle prints one object per sampled row), so reports can be diffed
byte for byte; --pretty renders that same payload as plain text.  Exit
codes: 0 success/decided, 2 bad input or a result with a number too long
to print, 3 an undetermined classification, 4 enumeration budget exceeded,
141 stdout closed early.  `run()`, not `main()`, is the process entry.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from .blind import ComparisonReport, blind_compare, format_blind
from .enclosure import (
    DEFAULT_ENV_BUDGET,
    DEFAULT_GRID_POINTS,
    GRID_TOO_SMALL,
    BudgetExceededError,
    EmptySet,
    EnclosureOutcome,
    ExactInterval,
    Unknown,
    enclosure,
    under_approx_samples,
)
from .expr import (
    Bounds,
    Dim,
    Expr,
    InfeasibleTokenError,
    Interval,
    IntervalOrderError,
    Unbounded,
    dims_of,
    effective_intervals,
    format_expr,
)
from .families import (
    FAMILIES,
    MODES,
    FamilySpec,
    FamilySpecError,
    build_variants,
    expected_class,
)
from .parser import ParseError, parse, parse_env, parse_interval
from .rewrite import (
    Classification,
    EmptyTarget,
    Fails,
    Holds,
    IntervalContainment,
    MembershipWitness,
    RewriteClass,
    SameExpression,
    Undecided,
    Verdict,
    audit_classification,
    classify,
)
from .semantics import EMPTY_ENV, TokenEnv, evaluate, token_consistent

PRETTY_SAMPLE_LIMIT = 20


# --- payloads (field order here is the output contract) -----------------------


def _interval_json(iv: Interval) -> list[str]:
    return [str(iv.lo), str(iv.hi)]


def _bounds_json(b: Bounds):
    return "unbounded" if isinstance(b, Unbounded) else _interval_json(b)


def _env_json(env: TokenEnv) -> dict:
    return {t.name: str(v) for t, v in env.sorted_items()}


def _sample_json(env: TokenEnv, value: Fraction) -> dict:
    return {"env": _env_json(env), "value": str(value)}


def _outcome_json(out: EnclosureOutcome, with_samples: bool = True) -> dict:
    if isinstance(out, EmptySet):
        return {"outcome": "empty", "infeasible_token": out.token.name}
    if isinstance(out, ExactInterval):
        return {"outcome": "exact-interval", "interval": _interval_json(out.interval)}
    payload = {
        "outcome": "unknown",
        "over": _bounds_json(out.over),
        "truncated": out.truncated,
        "under_count": len(out.under),
    }
    if with_samples:
        payload["under"] = [_sample_json(env, v) for env, v in out.under]
    return payload


def _evidence_json(evidence) -> dict:
    match evidence:
        case SameExpression():
            return {"kind": "same-expression"}
        case EmptyTarget(token_name):
            return {"kind": "empty-target", "infeasible_token": token_name}
        case IntervalContainment(source, target, target_kind, witness, value):
            return {
                "kind": "interval-containment",
                "source": _interval_json(source),
                "target": _interval_json(target),
                "target_kind": target_kind,
                "witness": None if witness is None else _env_json(witness),
                "witness_value": None if value is None else str(value),
            }
        case MembershipWitness(env, value):
            return {"kind": "membership-witness", "env": _env_json(env), "value": str(value)}
    raise TypeError(f"not holds evidence: {evidence!r}")


def _verdict_json(verdict: Verdict) -> dict:
    match verdict:
        case Holds(evidence):
            return {"verdict": "holds", "evidence": _evidence_json(evidence)}
        case Fails(env, value, certificate):
            bounds = certificate.bounds
            return {
                "verdict": "fails",
                "env": _env_json(env),
                "value": str(value),
                "certificate": {
                    "kind": certificate.kind,
                    "bounds": None if bounds is None else _interval_json(bounds),
                },
            }
        case Undecided(source_outcome, target_outcome):
            return {
                "verdict": "undecided",
                "source_outcome": _outcome_json(source_outcome, with_samples=False),
                "target_outcome": _outcome_json(target_outcome, with_samples=False),
            }
    raise TypeError(f"not a verdict: {verdict!r}")


def _classification_json(cls: Classification) -> dict:
    return {
        "class": cls.kind.value,
        "forward": _verdict_json(cls.forward),
        "backward": _verdict_json(cls.backward),
    }


def _blind_json(report: ComparisonReport) -> dict:
    """The comparison, with an audit of both classifications it made."""
    # Each side is classified against the shared target, else the other side.
    target = report.target
    others = (report.expr2, report.expr1) if target is None else (target, target)
    return {
        "expr1": format_expr(report.expr1),
        "expr2": format_expr(report.expr2),
        "target": None if target is None else format_expr(target),
        "blind1": format_blind(report.blind1),
        "blind2": format_blind(report.blind2),
        "erased_equal": report.erased_equal,
        "bounds1": _bounds_json(report.bounds1),
        "bounds2": _bounds_json(report.bounds2),
        "bounds_equal": report.bounds_equal,
        "class1": _classification_json(report.class1),
        "class2": _classification_json(report.class2),
        "classes_differ": report.classes_differ,
        "demonstrates_insufficiency": report.demonstrates_insufficiency,
        "audit": audit_classification(report.class1, report.expr1, others[0])
        and audit_classification(report.class2, report.expr2, others[1]),
    }


# --- pretty text, rendered from a payload alone --------------------------------


def _text(v) -> str:
    """One payload value as text: an interval as [lo,hi], an env as bindings."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, list):
        return f"[{v[0]},{v[1]}]"
    if isinstance(v, dict):
        bindings = ", ".join(f"{name} = {value}" for name, value in v.items())
        return bindings or "(none)"
    return str(v)


def _outcome_text(out: dict) -> list[str]:
    if out["outcome"] == "empty":
        token = out["infeasible_token"]
        return [f"result: empty (token {token} has no possible value)"]
    if out["outcome"] == "exact-interval":
        return [f"result: exact interval {_text(out['interval'])}"]
    count = out["under_count"]
    truncated = " (truncated by budget)" if out["truncated"] else ""
    lines = ["result: unknown", f"over: {_text(out['over'])}"]
    lines.append(f"under samples: {count}{truncated}")
    for s in out["under"][:PRETTY_SAMPLE_LIMIT]:
        lines.append(f"  {_text(s['env'])} -> {s['value']}")
    if count > PRETTY_SAMPLE_LIMIT:
        lines.append(f"  ... {count - PRETTY_SAMPLE_LIMIT} more")
    return lines


def _verdict_text(label: str, verdict: dict) -> str:
    if verdict["verdict"] == "holds":
        detail = dict(verdict["evidence"])
        kind = detail.pop("kind")
        extra = f" {detail}" if detail else ""
        return f"{label}: holds ({kind}){extra}"
    if verdict["verdict"] == "fails":
        cert = verdict["certificate"]
        bounds = "" if cert["bounds"] is None else f" {_text(cert['bounds'])}"
        return (
            f"{label}: fails (value {verdict['value']} under {_text(verdict['env'])} "
            f"is outside {cert['kind']}{bounds})"
        )
    return f"{label}: undecided"


def _fields(p: dict, *keys: str, prefix: str = "") -> list[str]:
    """One `key: value` line per key, with spaces for the key's underscores."""
    return [f"{prefix}{key.replace('_', ' ')}: {_text(p[key])}" for key in keys]


def _pretty(p: dict) -> list[str]:
    """The --pretty report of one command's payload."""
    command = p["command"]
    if command == "eval":
        lines = _fields(p, "expr", "env", "value", "consistent")
        if p["effective_intervals"] is None:
            token = p["infeasible_token"]
            return lines + [f"effective intervals: infeasible token {token}"]
        return lines + ["effective intervals:"] + [
            f"  {name}: {_text(iv)}" for name, iv in p["effective_intervals"].items()
        ]
    if command == "enclosure":
        return _fields(p, "expr") + _outcome_text(p["result"])
    if command == "classify":
        cls = p["classification"]
        return [
            *_fields(p, "source", "target"),
            f"class: {cls['class']}",
            _verdict_text("forward", cls["forward"]),
            _verdict_text("backward", cls["backward"]),
            *_fields(p, "audit"),
        ]
    if command == "blind":
        return [
            *_fields(p, "expr1", "expr2"),
            f"target: {'(each other)' if p['target'] is None else p['target']}",
            *_fields(p, "blind1", "blind2", "erased_equal"),
            f"bounds: {_text(p['bounds1'])} vs {_text(p['bounds2'])}"
            f" (equal: {_text(p['bounds_equal'])})",
            f"classes: {p['class1']['class']} vs {p['class2']['class']}",
            *_fields(p, "classes_differ", "demonstrates_insufficiency", "audit"),
        ]
    blind = p["blind"]  # demo
    return [
        *_fields(p, "family", "mode"),
        *_fields(p["params"], *(key for key in p["params"] if key != "dim")),
        *_fields(p, "source", "target"),
        f"expected: {p['expected_class']}",
        f"computed: {p['computed_class']}",
        *_fields(p, "match"),
        *_fields(blind, "erased_equal", "bounds_equal", prefix="blind "),
        f"blind classes: {blind['class1']['class']} vs {blind['class2']['class']}",
        *_fields(blind, "classes_differ", prefix="blind "),
        *_fields(p, "audit"),
    ]


def _emit(args, payload: dict) -> None:
    print("\n".join(_pretty(payload)) if args.fmt == "pretty" else json.dumps(payload))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as ex:
        raise ParseError(f"{path} is not UTF-8 text", ex.start) from None


def _lint_dims(args, exprs: list[Expr]) -> None:
    if not args.dim_lint:
        return
    tags = sorted({d.tag for e in exprs for d in dims_of(e)})
    if len(tags) > 1:
        print(f"warning: mixed dimension tags: {', '.join(tags)}", file=sys.stderr)


# --- command handlers ---------------------------------------------------------


def _cmd_eval(args) -> int:
    expr = parse(_read(args.expr_file))
    env = parse_env(_read(args.env_file)) if args.env_file else EMPTY_ENV
    _lint_dims(args, [expr])
    payload = {
        "command": "eval",
        "expr": format_expr(expr),
        "env": _env_json(env),
        "value": str(evaluate(env, expr)),
        "consistent": token_consistent(env, expr),
    }
    try:
        effective = effective_intervals(expr)
        payload["effective_intervals"] = {
            t.name: _interval_json(iv)
            for t, iv in sorted(effective.items(), key=lambda kv: kv[0].name)
        }
    except InfeasibleTokenError as ex:
        payload["effective_intervals"] = None
        payload["infeasible_token"] = ex.token.name
    _emit(args, payload)
    return 0


def _cmd_enclosure(args) -> int:
    expr = parse(_read(args.expr_file))
    _lint_dims(args, [expr])
    out = enclosure(expr, args.grid, args.budget)
    payload = {
        "command": "enclosure",
        "expr": format_expr(expr),
        "grid": args.grid,
        "budget": args.budget,
        "result": _outcome_json(out),
    }
    _emit(args, payload)
    return 4 if isinstance(out, Unknown) and out.truncated else 0


def _cmd_classify(args) -> int:
    src = parse(_read(args.source_file))
    tgt = parse(_read(args.target_file))
    _lint_dims(args, [src, tgt])
    cls = classify(src, tgt, args.grid, args.budget)
    payload = {
        "command": "classify",
        "source": format_expr(src),
        "target": format_expr(tgt),
        "grid": args.grid,
        "budget": args.budget,
        "classification": _classification_json(cls),
        "audit": audit_classification(cls, src, tgt),
    }
    _emit(args, payload)
    return 3 if cls.kind is RewriteClass.UNDETERMINED else 0


def _cmd_blind(args) -> int:
    e1 = parse(_read(args.expr1_file))
    e2 = parse(_read(args.expr2_file))
    tgt = parse(_read(args.target_file)) if args.target_file else None
    _lint_dims(args, [e1, e2] + ([tgt] if tgt is not None else []))
    report = blind_compare(e1, e2, tgt, grid_points=args.grid, budget=args.budget)
    _emit(args, {"command": "blind", **_blind_json(report)})
    return 0


def _cmd_demo(args) -> int:
    intervals = {}
    for field, _, _ in _INTERVAL_FLAGS:
        if getattr(args, field) is not None:
            intervals[field] = parse_interval(getattr(args, field))
    spec = FamilySpec(args.family, args.mode, **intervals, dim=Dim(args.dim))
    same, distinct, tgt = build_variants(spec)
    src = same if spec.mode == "same" else distinct
    _lint_dims(args, [src, tgt])
    report = blind_compare(
        same, distinct, tgt, grid_points=args.grid, budget=args.budget
    )
    # The comparison classified the spec's pair against tgt; its audit covers it.
    cls = report.class1 if spec.mode == "same" else report.class2
    blind = _blind_json(report)
    expected = expected_class(spec.mode)
    params = {field: _interval_json(iv) for field, iv in intervals.items()}
    payload = {
        "command": "demo",
        "family": spec.family,
        "mode": spec.mode,
        "params": {**params, "dim": spec.dim.tag},
        "source": format_expr(src),
        "target": format_expr(tgt),
        "expected_class": expected.value,
        "computed_class": cls.kind.value,
        "match": cls.kind is expected,
        "classification": _classification_json(cls),
        "blind": blind,
        "audit": blind["audit"],
    }
    _emit(args, payload)
    return 3 if cls.kind is RewriteClass.UNDETERMINED else 0


def _cmd_oracle(args) -> int:
    expr = parse(_read(args.expr_file))
    _lint_dims(args, [expr])
    code = 0
    try:
        samples = under_approx_samples(expr, args.grid, args.budget)
    except BudgetExceededError as ex:
        samples = ex.partial
        print(f"warning: budget exceeded: {ex}", file=sys.stderr)
        code = 4
    for env, value in samples:
        row = _sample_json(env, value)
        pretty = f"{_text(row['env'])} -> {row['value']}"
        print(pretty if args.fmt == "pretty" else json.dumps(row))
    return code


# --- argument parsing ----------------------------------------------------------


def _grid_arg(text: str) -> int:
    return _int_arg(text, 2, GRID_TOO_SMALL)


def _budget_arg(text: str) -> int:
    return _int_arg(text, 0, "budget must be nonnegative")


def _int_arg(text: str, least: int, too_small: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(too_small)
    return value


_EXPR_FILE = ("expr_file", "file with one expression", None)

# (name, help, positionals as (name, help, nargs), handler)
_COMMANDS = (
    (
        "eval",
        "evaluate under an environment",
        [_EXPR_FILE, ("env_file", "file with token bindings (optional)", "?")],
        _cmd_eval,
    ),
    ("enclosure", "compute the enclosure", [_EXPR_FILE], _cmd_enclosure),
    (
        "classify",
        "classify a rewrite pair",
        [
            ("source_file", "file with the source expression", None),
            ("target_file", "file with the target expression", None),
        ],
        _cmd_classify,
    ),
    (
        "blind",
        "compare two expressions after token erasure",
        [
            ("expr1_file", "file with the first expression", None),
            ("expr2_file", "file with the second expression", None),
            ("target_file", "optional file with a shared rewrite target", "?"),
        ],
        _cmd_blind,
    ),
    ("demo", "run a rewrite-family demonstration", [], _cmd_demo),
    ("oracle", "dump sampled (environment, value) rows", [_EXPR_FILE], _cmd_oracle),
)

# demo's interval flags: (FamilySpec field, flag, help)
_INTERVAL_FLAGS = (
    ("interval", "--interval", "interval for cancellation/division"),
    ("signal", "--signal-interval", "signal interval for background"),
    ("background", "--background-interval", "background interval for background"),
)


def _build_parser(command) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--grid",
        type=_grid_arg,
        default=DEFAULT_GRID_POINTS,
        metavar="N",
        help="grid points per token for sampling (default %(default)s)",
    )
    common.add_argument(
        "--budget",
        type=_budget_arg,
        default=DEFAULT_ENV_BUDGET,
        metavar="N",
        help="max sampled environments (default %(default)s)",
    )
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json",
        dest="fmt",
        action="store_const",
        const="json",
        default="json",
        help="line-delimited JSON output (default)",
    )
    fmt.add_argument(
        "--pretty",
        dest="fmt",
        action="store_const",
        const="pretty",
        help="human-readable output",
    )
    common.add_argument(
        "--dim-lint",
        action="store_true",
        help="warn on stderr when expressions mix dimension tags",
    )

    parser = argparse.ArgumentParser(
        prog="enclosures",
        description="Token-sensitive enclosures and rewrite classification "
        "for measurement-bearing arithmetic.",
    )
    names = "{" + ",".join(c[0] for c in _COMMANDS) + "}"  # for the top-level usage line
    built = [c for c in _COMMANDS if c[0] == command]
    sub = parser.add_subparsers(dest="command", required=True, metavar=names if built else None)
    for name, help_text, positionals, handler in built or _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg, arg_help, nargs in positionals:
            p.add_argument(arg, nargs=nargs, help=arg_help)
        p.set_defaults(handler=handler)
        if name == "demo":
            p.add_argument("--family", required=True, choices=FAMILIES)
            p.add_argument("--mode", required=True, choices=MODES)
            for field, flag, help_text in _INTERVAL_FLAGS:
                p.add_argument(flag, dest=field, metavar="[LO,HI]", help=help_text)
            p.add_argument("--dim", default="d", metavar="TAG", help="dimension tag")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code is None else int(ex.code)
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise  # a closed stdout is not bad input; run() ends the call quietly
    except (ParseError, IntervalOrderError, FamilySpecError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except ValueError as ex:
        if "integer string conversion" not in str(ex):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a number has more than {limit} digits, too many to print", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry: main(), then gc.freeze() to spare the collection at exit."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout goes to /dev/null, so the exit's flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
