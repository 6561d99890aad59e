"""The package's public names, `enclosures.__all__`, pinned to a literal list.

A change to the list is a change to the package's API: make it here, and
state it in CHANGES.md with what to use instead of any name removed.
"""

import enclosures

PUBLIC = [
    "Add", "AffineForm", "BlindExact", "BlindExpr", "BlindMeas", "Bounds",
    "BudgetExceededError", "Classification", "ComparisonReport", "DEFAULT_ENV_BUDGET",
    "DEFAULT_GRID_POINTS", "Dim", "Div", "EMPTY_ENV", "EmptySet", "EmptyTarget",
    "EnclosureOutcome", "Exact", "ExactInterval", "ExclusionCertificate", "Expr",
    "FAMILIES", "Fails", "FamilySpec", "FamilySpecError", "FrozenInstanceError",
    "Holds", "HoldsEvidence", "Inconclusive", "InfeasibleTokenError", "Interval",
    "IntervalContainment", "IntervalOrderError", "MODES", "Meas", "Member",
    "MembershipResult", "MembershipWitness", "Mul", "Neg", "NonMember",
    "NotAffineError", "NotExactError", "ParseError", "RewriteClass", "SameExpression",
    "Sub", "Token", "TokenEnv", "UNBOUNDED", "Unbounded", "Undecided", "Unknown",
    "Verdict", "affine_witness", "audit_classification", "audit_verdict",
    "blind_compare", "blind_enclosure", "build_pair", "build_variants", "classify",
    "dims_of", "effective_intervals", "enclosure", "evaluate", "exact_value",
    "expected_class", "fields", "forget_tokens", "format_blind", "format_expr",
    "is_exact", "licensed", "meas_leaves", "membership", "over_approx", "parse",
    "parse_env", "parse_interval", "parse_rational", "replace", "source_expr",
    "split_token", "target_expr", "to_affine", "token_consistent", "tokens_of",
    "under_approx_samples", "__version__",
]


def test_all_is_the_pinned_list():
    assert enclosures.__all__ == PUBLIC


def test_every_public_name_resolves_once():
    assert len(set(enclosures.__all__)) == len(enclosures.__all__)
    for name in enclosures.__all__:
        assert hasattr(enclosures, name), name
