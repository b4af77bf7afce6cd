"""Command line front end.

Commands: build, simulate, verify, bounds, reduce-stats, synth, update.
Exit codes: 0 success, 1 verification failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence, TextIO

from .account import Money, Rule, negative_count
from .bounds import (
    high_medium_count,
    nk_exact,
    nk_worst_case_optimal,
    nk_worst_case_optimal_rounded,
    reference_table,
)
from .builder import BuildConfig, build_account, reduction_stats
from .errors import InputError, ShopstructError
from .keywords import Keyword, normalize
from .rules_io import load_keywords, load_rules, save_keywords, save_rules
from .simulate import Blocked, Simulator, Trajectory
from .snapshot import parse_account, render_account
from .synth import SyntheticCatalogue, SyntheticSpec, generate
from .updates import UpdateOutcome, add_rule, remove_item, remove_rule
from .verify import VerificationReport, describe_disposition, verify_account


def _read_account(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_account(fh.read())


def _write_account(path: str, account) -> None:
    text = render_account(account)
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_catalogue(args) -> tuple[tuple[Rule, ...], tuple[Keyword, ...], tuple[Keyword, ...]]:
    rules = load_rules(args.rules)
    brands = load_keywords(args.brands) if args.brands else ()
    non_brands = load_keywords(args.non_brands) if args.non_brands else ()
    return rules, brands, non_brands


def _build_config(args, **build_only) -> BuildConfig:
    return BuildConfig(target_size=args.target_size, limit=args.limit, **build_only)


def _cmd_build(args) -> int:
    rules, brands, non_brands = _load_catalogue(args)
    config = _build_config(args, mode=args.mode, default_bid=Money(args.default_bid_micros))
    account = build_account(rules, brands, non_brands, config=config)
    _write_account(args.out, account)
    if args.out != "-":
        print(
            f"built {args.mode} account: {len(account.campaigns)} campaigns,"
            f" {negative_count(account)} negatives,"
            f" {len(rules)} keywords in {len(account.partition)} groups"
            f" -> {args.out}"
        )
    return 0


def _trajectory_doc(t: Trajectory) -> dict:
    steps = []
    for step in t.steps:
        if isinstance(step.outcome, Blocked):
            steps.append(
                {
                    "campaign": step.campaign,
                    "blocked_by": {
                        "keyword": step.outcome.by.keyword.text,
                        "match": step.outcome.by.match.value,
                    },
                }
            )
        else:
            steps.append(
                {
                    "campaign": step.campaign,
                    "open_adgroups": list(step.outcome.open_adgroups),
                }
            )
    d = t.disposition
    disposition: dict = {"kind": d.kind}
    if d.kind == "landed":
        disposition.update(campaign=d.campaign, adgroup=d.adgroup)
    elif d.kind == "dead_end":
        disposition.update(campaign=d.campaign)
    elif d.kind == "ambiguous":
        disposition.update(campaigns=list(d.campaigns), adgroups=list(d.adgroups))
    return {"query": t.query.text, "steps": steps, "disposition": disposition}


def _cmd_simulate(args) -> int:
    account = _read_account(args.account)
    query = normalize(args.query)
    t = Simulator(account).run(query)
    if args.json:
        print(json.dumps(_trajectory_doc(t), indent=2))
        return 0
    print(f"query: {query.text}")
    for step in t.steps:
        if isinstance(step.outcome, Blocked):
            print(f"  campaign {step.campaign}: blocked by {step.outcome.by.describe()}")
        else:
            names = ", ".join(repr(n) for n in step.outcome.open_adgroups) or "none"
            print(f"  campaign {step.campaign}: entered (open ad groups: {names})")
    print(f"-> {describe_disposition(t.disposition)}")
    return 0


def _report_doc(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "properties": [
            {
                "name": p.name,
                "checked": p.checked,
                "failures": [
                    {"query": f.query.text, "expected": f.expected, "actual": f.actual}
                    for f in p.failures
                ],
                "note": p.note,
            }
            for p in report.properties
        ],
        "findings": [
            {"kind": f.kind, "detail": f.detail} for f in report.findings
        ],
    }


def _cmd_verify(args) -> int:
    account = _read_account(args.account)
    rules = load_rules(args.rules) if args.rules else None
    report = verify_account(account, probes=args.probes, seed=args.seed, rules=rules)
    if args.json:
        print(json.dumps(_report_doc(report), indent=2))
        return 0 if report.passed else 1
    for p in report.properties:
        status = "pass" if p.passed else "FAIL"
        print(f"{p.name}: {p.checked} checked, {len(p.failures)} failures [{status}]")
        if p.note:
            print(f"  note: {p.note}")
        for f in p.failures[:10]:
            print(f"  query {f.query.text!r}: expected {f.expected}; got {f.actual}")
        if len(p.failures) > 10:
            print(f"  ... and {len(p.failures) - 10} more")
    for f in report.findings:
        print(f"finding [{f.kind}]: {f.detail}")
    print("verification passed" if report.passed else "verification FAILED")
    return 0 if report.passed else 1


def _parse_group_sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InputError(f"bad group sizes {text!r}: {exc}") from exc
    if not sizes:
        raise InputError("group sizes must not be empty")
    return sizes


def _cmd_bounds(args) -> int:
    if args.sites:
        for row in reference_table():
            s = row.site
            line = (
                f"n={s.n} m={s.m} m'={s.mprime}:"
                f" computed {row.computed} (quoted {s.printed})"
            )
            print(line)
            if row.note:
                print(f"  note: {row.note}")
        return 0
    if args.n is None or args.m is None or args.mprime is None:
        raise InputError("bounds needs N M MPRIME, or --sites")
    if args.groups:
        sizes = _parse_group_sizes(args.groups)
        value = nk_exact(args.n, args.m, args.mprime, sizes)
        print(f"negatives for the given partition: {value}")
    else:
        exact_value = nk_worst_case_optimal(args.n, args.m, args.mprime)
        rounded = nk_worst_case_optimal_rounded(args.n, args.m, args.mprime)
        print(f"worst case optimal negatives: {rounded} (exact {exact_value:.2f})")
    print(
        "high and medium tiers alone:"
        f" {high_medium_count(args.n, args.m, args.mprime)}"
    )
    return 0


def _cmd_reduce_stats(args) -> int:
    rules, brands, non_brands = _load_catalogue(args)
    stats = reduction_stats(rules, brands, non_brands, config=_build_config(args))
    if args.json:
        print(
            json.dumps(
                {
                    "keywords": stats.n,
                    "candidates": stats.candidate_count,
                    "conflict_edges": stats.conflict_edges,
                    "covered": stats.covered,
                    "groups": stats.group_count,
                    "group_sizes": list(stats.group_sizes),
                    "naive_negatives": stats.naive_negatives,
                    "reduced_negatives": stats.reduced_negatives,
                    "ratio": stats.ratio,
                },
                indent=2,
            )
        )
        return 0
    print(f"keywords: {stats.n}")
    print(f"candidate erasers: {stats.candidate_count}")
    print(f"conflict edges: {stats.conflict_edges}")
    print(f"keywords covered by the chosen class: {stats.covered}")
    sizes = ", ".join(str(s) for s in stats.group_sizes)
    print(f"groups: {stats.group_count} (sizes: {sizes})")
    print(f"naive negatives: {stats.naive_negatives}")
    print(f"reduced negatives: {stats.reduced_negatives}")
    print(f"ratio: {stats.ratio:.3f}")
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n=args.n,
        vocab_size=args.vocab_size,
        min_words=args.min_words,
        max_words=args.max_words,
        brand_count=args.brands,
        non_brand_count=args.non_brands,
        brand_fraction=args.brand_fraction,
        item_pool=args.item_pool,
        seed=args.seed,
        shuffle_spellings=args.shuffle_spellings,
    )
    catalogue: SyntheticCatalogue = generate(spec)
    save_rules(args.rules_out, catalogue.rules)
    if args.brands_out:
        save_keywords(args.brands_out, catalogue.brands)
    if args.non_brands_out:
        save_keywords(args.non_brands_out, catalogue.non_brands)
    print(
        f"wrote {len(catalogue.rules)} rules to {args.rules_out}"
        f" ({len(catalogue.brands)} brands, {len(catalogue.non_brands)} blocked)"
    )
    return 0


def _print_outcome(outcome: UpdateOutcome, as_json: bool, file: TextIO) -> None:
    if as_json:
        print(
            json.dumps(
                {
                    "changes": [c.describe() for c in outcome.changes],
                    "balance": {
                        "keywords": outcome.balance.keyword_count,
                        "groups": outcome.balance.group_count,
                        "max_group_size": outcome.balance.max_group_size,
                        "threshold": outcome.balance.threshold,
                        "recommended": outcome.balance.recommended,
                        "reasons": list(outcome.balance.reasons),
                    },
                },
                indent=2,
            ),
            file=file,
        )
        return
    if not outcome.changes:
        print("no changes", file=file)
    for c in outcome.changes:
        print(c.describe(), file=file)
    if outcome.balance.recommended:
        print("rebalance recommended:", file=file)
        for reason in outcome.balance.reasons:
            print(f"  {reason}", file=file)
    else:
        print("group shapes are balanced", file=file)


def _run_update(args, update, revise_rules) -> int:
    """Read the account and the ``--rules`` catalogue when given, apply
    ``update(account, rules)``, then write the snapshot and the catalogue
    ``revise_rules(rules, outcome)``.  Nothing is written unless every input
    was read and the update succeeded.  The outcome goes to stderr when the
    snapshot goes to stdout, which then holds the snapshot alone."""
    account = _read_account(args.account)
    rules = load_rules(args.rules) if args.rules else None
    outcome = update(account, rules)
    out = args.out or args.account
    _write_account(out, outcome.account)
    if rules is not None:
        save_rules(getattr(args, "rules_out", None) or args.rules, revise_rules(rules, outcome))
    _print_outcome(outcome, args.json, sys.stderr if out == "-" else sys.stdout)
    return 0


def _cmd_add_rule(args) -> int:
    items = frozenset(part.strip() for part in args.items.split(",") if part.strip())
    rule = Rule(
        keyword=normalize(args.keyword), cpc=Money(args.cpc_micros), items=items
    )
    return _run_update(
        args,
        lambda account, _: add_rule(account, rule),
        lambda rules, _: rules + (rule,),
    )


def _cmd_rm_rule(args) -> int:
    keyword = normalize(args.keyword)
    return _run_update(
        args,
        lambda account, _: remove_rule(account, keyword),
        lambda rules, _: tuple(r for r in rules if r.keyword != keyword),
    )


def _cmd_rm_item(args) -> int:
    return _run_update(
        args,
        lambda account, rules: remove_item(account, rules, args.item),
        lambda _, outcome: outcome.rules,
    )


def _add_build_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target-size", type=int, default=None)
    p.add_argument("--limit", type=int, default=20000)


def _add_catalogue_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rules", required=True, help="rule catalogue (JSON lines)")
    p.add_argument("--brands", help="brand list, one per line")
    p.add_argument("--non-brands", help="blocked brand list, one per line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shopstruct",
        description=(
            "Compile keyword rule catalogues into a three-priority shopping"
            " account structure with few negative keywords."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="compile rules into an account snapshot")
    _add_catalogue_options(p)
    _add_build_options(p)
    p.add_argument("--mode", choices=["naive", "reduced"], default="reduced")
    p.add_argument("--default-bid-micros", type=int, default=10_000)
    p.add_argument("--out", default="-", help="snapshot path ('-' for stdout)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("simulate", help="trace one query through an account")
    p.add_argument("--account", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="check the routing properties by simulation")
    p.add_argument("--account", required=True)
    p.add_argument("--probes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--rules",
        help="rule catalogue the account was built from; each keyword missing"
        " on either side is a catalogue finding",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="closed-form negative keyword counts")
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("m", nargs="?", type=int, default=None)
    p.add_argument("mprime", nargs="?", type=int, default=None)
    p.add_argument("--groups", help="comma separated group sizes for the exact count")
    p.add_argument("--sites", action="store_true", help="recompute the reference sizing table")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("reduce-stats", help="compare naive and reduced negative counts")
    _add_catalogue_options(p)
    _add_build_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce_stats)

    p = sub.add_parser("synth", help="generate a deterministic synthetic catalogue")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--vocab-size", type=int, default=None)
    p.add_argument("--min-words", type=int, default=2)
    p.add_argument("--max-words", type=int, default=4)
    p.add_argument("--brands", type=int, default=3)
    p.add_argument("--non-brands", type=int, default=2)
    p.add_argument("--brand-fraction", type=float, default=0.3)
    p.add_argument("--item-pool", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--shuffle-spellings",
        action="store_true",
        help="spell the vocabulary in a seeded random order, not by word frequency",
    )
    p.add_argument("--rules-out", required=True)
    p.add_argument("--brands-out")
    p.add_argument("--non-brands-out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("update", help="incremental account maintenance")
    usub = p.add_subparsers(dest="update_command", required=True)

    q = usub.add_parser("add-rule", help="add one rule to a built account")
    q.add_argument("--account", required=True)
    q.add_argument("--keyword", required=True)
    q.add_argument("--cpc-micros", type=int, required=True)
    q.add_argument("--items", required=True, help="comma separated item ids")
    q.add_argument("--out", help="snapshot output (default: rewrite --account)")
    q.add_argument("--rules", help="rule catalogue to append the rule to")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_add_rule)

    q = usub.add_parser("rm-rule", help="remove one rule from a built account")
    q.add_argument("--account", required=True)
    q.add_argument("--keyword", required=True)
    q.add_argument("--out", help="snapshot output (default: rewrite --account)")
    q.add_argument("--rules", help="rule catalogue to drop the rule from")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_rm_rule)

    q = usub.add_parser("rm-item", help="retire a shop item everywhere")
    q.add_argument("--account", required=True)
    q.add_argument("--item", required=True)
    q.add_argument("--rules", required=True, help="rule catalogue holding the items")
    q.add_argument("--rules-out", help="catalogue output (default: rewrite --rules)")
    q.add_argument("--out", help="snapshot output (default: rewrite --account)")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_rm_item)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShopstructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
