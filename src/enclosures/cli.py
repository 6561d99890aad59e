"""Command-line front end.

Subcommands: eval, enclosure, classify, blind, demo, oracle.  Output is
line-delimited JSON by default (one object per line, stable field order)
so reports can be diffed byte for byte; --pretty switches to a plain
text rendering.  Exit codes: 0 success/decided, 2 bad input, 3 an
undetermined classification, 4 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .blind import ComparisonReport, blind_compare, format_blind
from .enclosure import (
    DEFAULT_ENV_BUDGET,
    DEFAULT_GRID_POINTS,
    BudgetExceededError,
    EmptySet,
    EnclosureOutcome,
    ExactInterval,
    ExclusionCertificate,
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
    build_pair,
    build_variants,
    expected_class,
)
from .parser import ParseError, parse, parse_interval
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
from .semantics import EMPTY_ENV, TokenEnv, evaluate, parse_env, token_consistent

PRETTY_SAMPLE_LIMIT = 20


# --- serialization (field order here is the output contract) -----------------


def _interval_json(iv: Interval) -> list[str]:
    return [str(iv.lo), str(iv.hi)]


def _bounds_json(b: Bounds):
    return "unbounded" if isinstance(b, Unbounded) else _interval_json(b)


def _bounds_text(b: Bounds) -> str:
    return "unbounded" if isinstance(b, Unbounded) else str(b)


def _env_json(env: TokenEnv) -> dict:
    return {t.name: str(v) for t, v in env.sorted_items()}


def _env_text(env: TokenEnv) -> str:
    items = env.sorted_items()
    if not items:
        return "(none)"
    return ", ".join(f"{t.name} = {v}" for t, v in items)


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


def _certificate_json(cert: ExclusionCertificate) -> dict:
    return {
        "kind": cert.kind,
        "bounds": None if cert.bounds is None else _interval_json(cert.bounds),
    }


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
            return {
                "verdict": "fails",
                "env": _env_json(env),
                "value": str(value),
                "certificate": _certificate_json(certificate),
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


def _emit(args, payload: dict, pretty_lines: list[str]) -> None:
    if args.fmt == "pretty":
        print("\n".join(pretty_lines))
    else:
        print(json.dumps(payload))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


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
    value = evaluate(env, expr)
    consistent = token_consistent(env, expr)
    infeasible = None
    try:
        effective = effective_intervals(expr)
        intervals_json = {
            t.name: _interval_json(iv)
            for t, iv in sorted(effective.items(), key=lambda kv: kv[0].name)
        }
    except InfeasibleTokenError as ex:
        intervals_json = None
        infeasible = ex.token.name
    payload = {
        "command": "eval",
        "expr": format_expr(expr),
        "env": _env_json(env),
        "value": str(value),
        "consistent": consistent,
        "effective_intervals": intervals_json,
    }
    if infeasible is not None:
        payload["infeasible_token"] = infeasible
    lines = [
        f"expr: {payload['expr']}",
        f"env: {_env_text(env)}",
        f"value: {value}",
        f"consistent: {str(consistent).lower()}",
    ]
    if intervals_json is None:
        lines.append(f"effective intervals: infeasible token {infeasible}")
    else:
        lines.append("effective intervals:")
        lines += [f"  {name}: [{lo},{hi}]" for name, (lo, hi) in intervals_json.items()]
    _emit(args, payload, lines)
    return 0


def _outcome_pretty(out: EnclosureOutcome) -> list[str]:
    if isinstance(out, EmptySet):
        return [f"result: empty (token {out.token.name} has no possible value)"]
    if isinstance(out, ExactInterval):
        return [f"result: exact interval {out.interval}"]
    lines = [
        "result: unknown",
        f"over: {_bounds_text(out.over)}",
        f"under samples: {len(out.under)}"
        + (" (truncated by budget)" if out.truncated else ""),
    ]
    for env, value in out.under[:PRETTY_SAMPLE_LIMIT]:
        lines.append(f"  {_env_text(env)} -> {value}")
    if len(out.under) > PRETTY_SAMPLE_LIMIT:
        lines.append(f"  ... {len(out.under) - PRETTY_SAMPLE_LIMIT} more")
    return lines


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
    lines = [f"expr: {payload['expr']}"] + _outcome_pretty(out)
    _emit(args, payload, lines)
    return 4 if isinstance(out, Unknown) and out.truncated else 0


def _verdict_pretty(label: str, verdict: Verdict) -> str:
    match verdict:
        case Holds(evidence):
            detail = _evidence_json(evidence)
            kind = detail.pop("kind")
            extra = f" {detail}" if detail else ""
            return f"{label}: holds ({kind}){extra}"
        case Fails(env, value, certificate):
            bounds = "" if certificate.bounds is None else f" {certificate.bounds}"
            return (
                f"{label}: fails (value {value} under {_env_text(env)} "
                f"is outside {certificate.kind}{bounds})"
            )
        case _:
            return f"{label}: undecided"


def _cmd_classify(args) -> int:
    src = parse(_read(args.source_file))
    tgt = parse(_read(args.target_file))
    _lint_dims(args, [src, tgt])
    cls = classify(src, tgt, args.grid, args.budget)
    audit = audit_classification(cls, src, tgt)
    payload = {
        "command": "classify",
        "source": format_expr(src),
        "target": format_expr(tgt),
        "grid": args.grid,
        "budget": args.budget,
        "classification": _classification_json(cls),
        "audit": audit,
    }
    lines = [
        f"source: {payload['source']}",
        f"target: {payload['target']}",
        f"class: {cls.kind.value}",
        _verdict_pretty("forward", cls.forward),
        _verdict_pretty("backward", cls.backward),
        f"audit: {str(audit).lower()}",
    ]
    _emit(args, payload, lines)
    return 3 if cls.kind is RewriteClass.UNDETERMINED else 0


def _blind_report_json(report: ComparisonReport, audit: bool) -> dict:
    return {
        "expr1": format_expr(report.expr1),
        "expr2": format_expr(report.expr2),
        "target": None if report.target is None else format_expr(report.target),
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
        "audit": audit,
    }


def _audit_report(report: ComparisonReport) -> bool:
    if report.target is not None:
        return audit_classification(
            report.class1, report.expr1, report.target
        ) and audit_classification(report.class2, report.expr2, report.target)
    return audit_classification(
        report.class1, report.expr1, report.expr2
    ) and audit_classification(report.class2, report.expr2, report.expr1)


def _blind_pretty(report: ComparisonReport, audit: bool) -> list[str]:
    return [
        f"expr1: {format_expr(report.expr1)}",
        f"expr2: {format_expr(report.expr2)}",
        f"target: {'(each other)' if report.target is None else format_expr(report.target)}",
        f"blind1: {format_blind(report.blind1)}",
        f"blind2: {format_blind(report.blind2)}",
        f"erased equal: {str(report.erased_equal).lower()}",
        f"bounds: {_bounds_text(report.bounds1)} vs {_bounds_text(report.bounds2)}"
        f" (equal: {str(report.bounds_equal).lower()})",
        f"classes: {report.class1.kind.value} vs {report.class2.kind.value}",
        f"classes differ: {str(report.classes_differ).lower()}",
        f"demonstrates insufficiency: {str(report.demonstrates_insufficiency).lower()}",
        f"audit: {str(audit).lower()}",
    ]


def _cmd_blind(args) -> int:
    e1 = parse(_read(args.expr1_file))
    e2 = parse(_read(args.expr2_file))
    tgt = parse(_read(args.target_file)) if args.target_file else None
    _lint_dims(args, [e1, e2] + ([tgt] if tgt is not None else []))
    report = blind_compare(
        e1, e2, tgt, grid_points=args.grid, budget=args.budget
    )
    audit = _audit_report(report)
    payload = {"command": "blind", **_blind_report_json(report, audit)}
    _emit(args, payload, _blind_pretty(report, audit))
    return 0


def _cmd_demo(args) -> int:
    spec = FamilySpec(
        family=args.family,
        mode=args.mode,
        interval=_parse_flag_interval(args.interval),
        signal=_parse_flag_interval(args.signal_interval),
        background=_parse_flag_interval(args.background_interval),
        dim=Dim(args.dim),
    )
    src, tgt = build_pair(spec)
    _lint_dims(args, [src, tgt])
    cls = classify(src, tgt, args.grid, args.budget)
    audit = audit_classification(cls, src, tgt)
    same_src, distinct_src, variant_tgt = build_variants(spec)
    report = blind_compare(
        same_src, distinct_src, variant_tgt, grid_points=args.grid, budget=args.budget
    )
    report_audit = _audit_report(report)
    expected = expected_class(spec.mode)
    params: dict = {}
    if spec.interval is not None:
        params["interval"] = _interval_json(spec.interval)
    if spec.signal is not None:
        params["signal"] = _interval_json(spec.signal)
    if spec.background is not None:
        params["background"] = _interval_json(spec.background)
    params["dim"] = spec.dim.tag
    payload = {
        "command": "demo",
        "family": spec.family,
        "mode": spec.mode,
        "params": params,
        "source": format_expr(src),
        "target": format_expr(tgt),
        "expected_class": expected.value,
        "computed_class": cls.kind.value,
        "match": cls.kind is expected,
        "classification": _classification_json(cls),
        "blind": _blind_report_json(report, report_audit),
        "audit": audit and report_audit,
    }
    lines = [
        f"family: {spec.family}",
        f"mode: {spec.mode}",
    ]
    if spec.interval is not None:
        lines.append(f"interval: {spec.interval}")
    if spec.signal is not None:
        lines.append(f"signal: {spec.signal}")
    if spec.background is not None:
        lines.append(f"background: {spec.background}")
    lines += [
        f"source: {payload['source']}",
        f"target: {payload['target']}",
        f"expected: {expected.value}",
        f"computed: {cls.kind.value}",
        f"match: {str(payload['match']).lower()}",
        f"blind erased equal: {str(report.erased_equal).lower()}",
        f"blind bounds equal: {str(report.bounds_equal).lower()}",
        f"blind classes: {report.class1.kind.value} vs {report.class2.kind.value}",
        f"blind classes differ: {str(report.classes_differ).lower()}",
        f"audit: {str(payload['audit']).lower()}",
    ]
    _emit(args, payload, lines)
    return 3 if cls.kind is RewriteClass.UNDETERMINED else 0


def _parse_flag_interval(text: str | None) -> Interval | None:
    return None if text is None else parse_interval(text)


def _cmd_oracle(args) -> int:
    expr = parse(_read(args.expr_file))
    _lint_dims(args, [expr])
    code = 0
    try:
        samples = under_approx_samples(expr, args.grid, args.budget)
    except BudgetExceededError as ex:
        samples = ex.partial
        print(
            f"warning: budget exceeded: grid needs {ex.required} environments,"
            f" budget is {ex.budget}",
            file=sys.stderr,
        )
        code = 4
    for env, value in samples:
        if args.fmt == "pretty":
            print(f"{_env_text(env)} -> {value}")
        else:
            print(json.dumps(_sample_json(env, value)))
    return code


# --- argument parsing ----------------------------------------------------------


def _grid_arg(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points per token")
    return value


def _budget_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("budget must be nonnegative")
    return value


def _build_parser() -> argparse.ArgumentParser:
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate under an environment")
    p.add_argument("expr_file", help="file with one expression")
    p.add_argument("env_file", nargs="?", help="file with token bindings (optional)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("enclosure", parents=[common], help="compute the enclosure")
    p.add_argument("expr_file", help="file with one expression")
    p.set_defaults(handler=_cmd_enclosure)

    p = sub.add_parser("classify", parents=[common], help="classify a rewrite pair")
    p.add_argument("source_file", help="file with the source expression")
    p.add_argument("target_file", help="file with the target expression")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "blind", parents=[common], help="compare two expressions after token erasure"
    )
    p.add_argument("expr1_file", help="file with the first expression")
    p.add_argument("expr2_file", help="file with the second expression")
    p.add_argument(
        "target_file", nargs="?", help="optional file with a shared rewrite target"
    )
    p.set_defaults(handler=_cmd_blind)

    p = sub.add_parser(
        "demo", parents=[common], help="run a rewrite-family demonstration"
    )
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument(
        "--interval", metavar="[LO,HI]", help="interval for cancellation/division"
    )
    p.add_argument(
        "--signal-interval", metavar="[LO,HI]", help="signal interval for background"
    )
    p.add_argument(
        "--background-interval",
        metavar="[LO,HI]",
        help="background interval for background",
    )
    p.add_argument("--dim", default="d", metavar="TAG", help="dimension tag")
    p.set_defaults(handler=_cmd_demo)

    p = sub.add_parser(
        "oracle", parents=[common], help="dump sampled (environment, value) rows"
    )
    p.add_argument("expr_file", help="file with one expression")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code is None else int(ex.code)
    try:
        return args.handler(args)
    except (ParseError, IntervalOrderError, FamilySpecError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
