"""The benchmark's workloads: set-up, the timed user operations, and the gates.

Every workload builds its inputs with ``synth.generate`` from the seed, times
only the public calls a user makes, one after another in this process, and
checks what they return outside the timed region.

A workload's *pass* runs its operations once: one compile, one verify, or
the whole update sequence.  Passes repeat, identical each time, until the
workload's minimum count and ``seconds`` of measured time are both reached.
Every time is scaled to the nominal host speed over the interval it was
taken in (see hostspeed.py), and an operation's latency is the median of its
scaled times across passes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from hostspeed import Unscaled
from tracer import text_bytes

synth = importlib.import_module("shopstruct.synth")
rules_io = importlib.import_module("shopstruct.rules_io")
builder = importlib.import_module("shopstruct.builder")
snapshot = importlib.import_module("shopstruct.snapshot")
simulate = importlib.import_module("shopstruct.simulate")
verify = importlib.import_module("shopstruct.verify")
updates = importlib.import_module("shopstruct.updates")
account_mod = importlib.import_module("shopstruct.account")
keywords = importlib.import_module("shopstruct.keywords")
erasers = importlib.import_module("shopstruct.erasers")
errors = importlib.import_module("shopstruct.errors")

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())
SETUP_REPEATS = 3
PROBES = 1000  # seeded probes per probe property, as `shopstruct verify` defaults
ROUTE_SAMPLE = 16  # catalogue keywords routed as the compile workload's spot check
# Update mix in percent.  With 10% slow campaign-opening adds, p95 (nearest
# rank 190 of 200) sits in the middle of the slow mode and ten samples lie
# beyond it.
UPDATE_MIX = (("add_admitted", 40), ("add_open", 10), ("remove_rule", 35), ("remove_item", 15))
UPDATE_OPS = 200


class WorkloadError(Exception):
    """The benchmark could not build the inputs its workload promises."""


@dataclass
class Context:
    workload: str
    n: int
    seed: int
    seconds: float
    min_passes: int
    tracer: object | None = None  # tracer.Tracer when this run is traced
    setup_repeats: int = SETUP_REPEATS
    speed: object = field(default_factory=Unscaled)  # hostspeed.HostSpeed when scaling

    def step(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()


@dataclass
class Outcome:
    setup_s: list[float]
    op_ms: list[float]  # per operation, median over passes
    peak_rss_mb: float
    negatives: int
    snapshot_bytes: int
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(ctx: Context, call: Callable[[], object]) -> tuple[object, float]:
    """``call()`` and its time in seconds, less the time the sampler took."""
    spent, t0 = ctx.speed.spent, time.perf_counter()
    result = call()
    return result, time.perf_counter() - t0 - (ctx.speed.spent - spent)


def _setup(ctx: Context, make: Callable[[], object]) -> tuple[object, list[float]]:
    times = []
    value = None
    for _ in range(ctx.setup_repeats):
        value = None  # let the previous copy go before building the next
        with ctx.step("bench.setup"):
            start = time.perf_counter()
            value, seconds = _measure(ctx, make)
            times.append(seconds * ctx.speed.factor(start, time.perf_counter()))
    return value, times


def _passes(
    ctx: Context, run_pass: Callable[[int], tuple[object, list[float]]]
) -> tuple[object, list[float], int]:
    """Repeat ``run_pass`` until ``ctx.min_passes`` ran and ``ctx.seconds``
    were measured.  A pass returns its result and the latency of each of its
    operations; the operations are the same in every pass, so each gets the
    median of its latencies, each scaled to the host speed of its pass."""
    passes: list[list[float]] = []
    measured = 0.0
    result = None
    while len(passes) < ctx.min_passes or measured < ctx.seconds * 1000:
        result = None
        with ctx.step("bench.pass"):
            start = time.perf_counter()
            result, op_ms = run_pass(len(passes))
            factor = ctx.speed.factor(start, time.perf_counter())
        measured += sum(op_ms)
        passes.append([ms * factor for ms in op_ms])
    return result, [statistics.median(column) for column in zip(*passes)], len(passes)


def _timed(ctx: Context, call: Callable[[], object]) -> tuple[object, list[float]]:
    result, seconds = _measure(ctx, call)
    return result, [seconds * 1000]


def _catalogue(ctx: Context):
    return synth.generate(synth.SyntheticSpec(n=ctx.n, seed=ctx.seed))


def _build_from_text(catalogue, rules_text: str):
    rules = rules_io.loads_rules(rules_text)
    config = builder.BuildConfig(mode="reduced")
    return builder.build_account(rules, catalogue.brands, catalogue.non_brands, config=config)


def _landed_on_own_adgroup(account, trajectory, keyword) -> bool:
    d = trajectory.disposition
    if d.kind != "landed":
        return False
    own = account.group_campaigns()[account.group_of(keyword)]
    return d.campaign == own.name and any(
        g.name == d.adgroup and g.tag == account_mod.RuleTag(keyword) for g in own.adgroups
    )


# --- compile --------------------------------------------------------------


def run_compile(ctx: Context) -> Outcome:
    """`shopstruct build`: rules text to account snapshot, no simulation."""

    def make():
        catalogue = _catalogue(ctx)
        return catalogue, rules_io.dumps_rules(catalogue.rules)

    (catalogue, rules_text), setup_s = _setup(ctx, make)
    digests: list[str] = []

    def compile_text():
        account = _build_from_text(catalogue, rules_text)
        return account, snapshot.render_account(account)

    def run_pass(_):
        (account, text), op_ms = _timed(ctx, compile_text)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        return (account, text), op_ms

    (account, text), op_ms, passes = _passes(ctx, run_pass)
    rss = peak_rss_mb()
    out = Outcome(
        setup_s=setup_s,
        op_ms=op_ms,
        peak_rss_mb=rss,
        negatives=account_mod.negative_count(account),
        snapshot_bytes=text_bytes(text),
        attempted=passes,
        notes={"sha256": digests[0]},
    )
    del text
    if len(set(digests)) != 1:
        out.problems.append("repeated compiles rendered different snapshots")
    pin = PINS.get(ctx.workload, {}).get(str(ctx.seed))
    if pin and pin["n"] == ctx.n:
        if digests[0] != pin["sha256"]:
            out.problems.append(f"snapshot sha256 {digests[0]} != pinned {pin['sha256']}")
        if out.negatives != pin["negatives"]:
            out.problems.append(f"negatives {out.negatives} != pinned {pin['negatives']}")
        out.notes["pinned"] = True
    with ctx.step("bench.gate"):
        _check_compiled(ctx, catalogue, account, out)
    return out


def _check_compiled(ctx: Context, catalogue, account, out: Outcome) -> None:
    """Exact cover of the catalogue plus routing of a seeded keyword sample.

    Full verification at this size takes minutes, so the compile gate routes
    a sample; the verify workload checks every property exhaustively."""
    placed = [kw for group in account.partition for kw in group]
    if len(placed) != len(catalogue.rules) or set(placed) != {r.keyword for r in catalogue.rules}:
        out.problems.append("partition is not an exact cover of the catalogue")
        return
    sim = simulate.Simulator(account)
    sample = random.Random(f"route:{ctx.seed}").sample(sorted(placed), min(ROUTE_SAMPLE, len(placed)))
    for kw in sample:
        if not _landed_on_own_adgroup(account, sim.run(kw), kw):
            out.problems.append(f"catalogue keyword {kw.text!r} missed its own ad group")


# --- verify ---------------------------------------------------------------


def run_verify(ctx: Context) -> Outcome:
    """`shopstruct verify`: snapshot text to verdict with seeded probes."""

    def make():
        catalogue = _catalogue(ctx)
        account = _build_from_text(catalogue, rules_io.dumps_rules(catalogue.rules))
        return snapshot.render_account(account)

    text, setup_s = _setup(ctx, make)
    reports = []

    def parse_and_verify():
        account = snapshot.parse_account(text)
        reports.append(verify.verify_account(account, probes=PROBES, seed=ctx.seed))
        return account

    account, op_ms, passes = _passes(ctx, lambda _: _timed(ctx, parse_and_verify))
    rss = peak_rss_mb()
    out = Outcome(
        setup_s=setup_s,
        op_ms=op_ms,
        peak_rss_mb=rss,
        negatives=account_mod.negative_count(account),
        snapshot_bytes=text_bytes(text),
        attempted=passes,
    )
    for report in reports:
        if not report.passed:
            out.failed += 1
            out.problems.append(f"verification failed: {_report_summary(report)}")
        elif report.properties[0].checked != ctx.n:
            out.problems.append(f"property 1 checked {report.properties[0].checked} of {ctx.n}")
    return out


def _report_summary(report) -> str:
    parts = [f"{p.name}: {len(p.failures)} failures" for p in report.properties if p.failures]
    parts += [f"finding [{f.kind}] {f.detail}" for f in report.findings[:3]]
    return "; ".join(parts)


# --- maintain -------------------------------------------------------------


def _negative_blocks(negative, words: tuple[str, ...], distinct: frozenset[str]) -> bool:
    """Platform match semantics, kept here so op classification does not lean
    on the matching code the benchmark measures."""
    neg = negative.keyword.words
    kind = negative.match.value
    if kind == "exact":
        return neg == words
    if kind == "phrase":
        k = len(neg)
        return any(words[i : i + k] == neg for i in range(len(words) - k + 1))
    return set(neg) <= distinct


def _blocked_by(campaign, kw) -> bool:
    distinct = frozenset(kw.words)
    return any(_negative_blocks(neg, kw.words, distinct) for neg in campaign.negatives)


class UpdateMaker:
    """Draws seeded update ops that fit the mix; runs outside the timed region."""

    def __init__(self, seed: int, catalogue) -> None:
        self.rng = random.Random(f"maintain:{seed}")
        special = {w for b in catalogue.brands + catalogue.non_brands for w in b.words}
        self.vocab = sorted({w for r in catalogue.rules for w in r.keyword.words} - special)
        self.items = sorted({i for r in catalogue.rules for i in r.items})

    def schedule(self, ops: int) -> list[str]:
        kinds: list[str] = []
        for kind, share in UPDATE_MIX:
            kinds += [kind] * (ops * share // 100)
        self.rng.shuffle(kinds)
        return kinds

    def _rule(self, kw):
        rng = self.rng
        items = frozenset(rng.choice(self.items) for _ in range(rng.randint(1, 3)))
        return account_mod.Rule(kw, account_mod.Money(rng.randint(50_000, 5_000_000)), items)

    def add_admitted(self, account):
        present = account.keywords()
        camps = account.group_campaigns()
        for _ in range(2000):
            words = self.rng.sample(self.vocab, self.rng.randint(2, 3))
            kw = keywords.normalize(" ".join(words))
            if kw not in present and any(not _blocked_by(c, kw) for c in camps):
                return self._rule(kw)
        raise WorkloadError("found no keyword that a group campaign admits")

    def add_open(self, account):
        """A keyword holding large erasers of two different groups, so every
        group campaign blocks it and the add must open a campaign."""
        present = account.keywords()
        camps = account.group_campaigns()
        larges = [
            (pos, sorted(e.words))
            for pos, group in enumerate(account.erasers)
            for e in group
            if isinstance(e, erasers.LargeEraser)
        ]
        for _ in range(2000):
            (g1, w1), (g2, w2) = self.rng.sample(larges, 2)
            if g1 == g2:
                continue
            words = w1 + [w for w in w2 if w not in w1]
            self.rng.shuffle(words)
            kw = keywords.normalize(" ".join(words))
            if kw not in present and all(_blocked_by(c, kw) for c in camps):
                return self._rule(kw)
        raise WorkloadError("found no keyword that every group campaign blocks")

    def remove_rule(self, account):
        return self.rng.choice(sorted(account.keywords()))

    def remove_item(self, rules):
        sole = sorted({next(iter(r.items)) for r in rules if len(r.items) == 1})
        return self.rng.choice(sole or sorted({i for r in rules for i in r.items}))


def run_maintain(ctx: Context) -> Outcome:
    """A single caller applying seeded updates in a closed loop."""

    def make():
        catalogue = _catalogue(ctx)
        return catalogue, _build_from_text(catalogue, rules_io.dumps_rules(catalogue.rules))

    (catalogue, start), setup_s = _setup(ctx, make)
    state = {"failed": 0, "problems": [], "changes": 0, "opened": 0}

    def run_pass(index):
        maker = UpdateMaker(ctx.seed, catalogue)
        account, rules = start, list(catalogue.rules)
        op_ms: list[float] = []
        for kind in maker.schedule(UPDATE_OPS):
            # The program is deterministic, so later passes only re-time.
            account, rules = _one_update(ctx, maker, kind, account, rules, op_ms, state, index == 0)
        return account, op_ms

    final, op_ms, passes = _passes(ctx, run_pass)
    rss = peak_rss_mb()
    out = Outcome(
        setup_s=setup_s,
        op_ms=op_ms,
        peak_rss_mb=rss,
        negatives=account_mod.negative_count(final),
        snapshot_bytes=0,
        attempted=UPDATE_OPS * passes,
        failed=state["failed"],
        problems=state["problems"],
        notes={"changes": state["changes"], "campaigns_opened": state["opened"]},
    )
    with ctx.step("bench.gate"):
        text = snapshot.render_account(final)
        out.snapshot_bytes = text_bytes(text)
        if snapshot.parse_account(text) != final:
            out.problems.append("final account does not survive a snapshot round trip")
        report = verify.verify_account(final, probes=PROBES, seed=ctx.seed)
        if not report.passed:
            out.problems.append(f"final account fails verification: {_report_summary(report)}")
    return out


def _one_update(ctx: Context, maker: UpdateMaker, kind: str, account, rules, op_ms, state, check):
    if kind in ("add_admitted", "add_open"):
        rule = getattr(maker, kind)(account)
        call, args = updates.add_rule, (account, rule)
    elif kind == "remove_rule":
        kw = maker.remove_rule(account)
        call, args = updates.remove_rule, (account, kw)
    else:
        item = maker.remove_item(rules)
        call, args = updates.remove_item, (account, rules, item)

    def attempt():
        try:
            return call(*args), None
        except errors.ShopstructError as exc:
            return None, exc

    with ctx.step(f"bench.op.{kind}"):
        (outcome, error), seconds = _measure(ctx, attempt)
    op_ms.append(seconds * 1000)
    if outcome is None:
        state["failed"] += 1
        state["problems"].append(f"{kind} raised {type(error).__name__}: {error}")
        return account, rules
    if check:
        with ctx.step("bench.replay"):
            replayed = updates.apply_changes(account, outcome.changes)
        if replayed != outcome.account:
            state["problems"].append(f"{kind}: replaying the change log does not give the new account")
        opened = len(outcome.account.group_campaigns()) - len(account.group_campaigns())
        if kind == "add_admitted" and opened != 0 or kind == "add_open" and opened != 1:
            state["problems"].append(f"{kind} changed the group campaign count by {opened}")
        state["changes"] += len(outcome.changes)
        if kind == "add_open":
            state["opened"] += opened
    if kind in ("add_admitted", "add_open"):
        rules = rules + [rule]
    elif kind == "remove_rule":
        rules = [r for r in rules if r.keyword != kw]
    else:
        rules = list(outcome.rules)
    return outcome.account, rules


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    min_passes: int
    run: Callable[[Context], Outcome]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compile-10k", 10_000, 1, run_compile),
        Workload("verify-1000", 1_000, 3, run_verify),
        Workload("maintain-600", 600, 2, run_maintain),
    )
}
