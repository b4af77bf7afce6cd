"""shopstruct benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload compile-10k --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics, timed
with tracing off and scaled to a nominal host speed (see hostspeed.py).
With ``--trace 1`` the run does one set-up and one pass with spans around
every public call into the package, and the last line carries the per-layer
metrics derived from the spans, including the time the tracer itself added.
Per-layer times are raw wall-clock times.
Lines before the last are for people: every metric with its unit, the
provenance of the run and, when traced, self time per span.  The full result
(and the spans, when traced) is written to ``--out``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("negatives", "count"),
    ("snapshot_mb", "MB"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("synth.generate_s", "s"),
    ("rules_io.loads_s", "s"),
    ("erasers.enumerate_s", "s"),
    ("erasers.graph_s", "s"),
    ("erasers.color_s", "s"),
    ("erasers.select_s", "s"),
    ("erasers.pack_s", "s"),
    ("erasers.candidates", "count"),
    ("erasers.conflict_edges", "count"),
    ("erasers.covered", "count"),
    ("erasers.groups", "count"),
    ("erasers.group_size_max", "count"),
    ("builder.build_s", "s"),
    ("builder.emit_s", "s"),
    ("builder.negatives_high", "count"),
    ("builder.negatives_medium", "count"),
    ("builder.negatives_low", "count"),
    ("builder.limit_headroom", "count"),
    ("snapshot.render_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.parse_s", "s"),
    ("simulate.setup_s", "s"),
    ("simulate.route_p50_us", "us"),
    ("simulate.route_p95_us", "us"),
    ("simulate.queries", "count"),
    ("verify.p1_s", "s"),
    ("verify.p2_s", "s"),
    ("verify.p3_s", "s"),
    ("verify.structure_s", "s"),
    ("verify.checked", "count"),
    ("verify.probe_yield", "ratio"),
    ("updates.add_admitted_ms", "ms"),
    ("updates.add_open_ms", "ms"),
    ("updates.remove_rule_ms", "ms"),
    ("updates.remove_item_ms", "ms"),
    ("updates.replay_ms", "ms"),
    ("updates.changes_per_op", "count"),
    ("updates.campaigns_opened", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(out) -> dict[str, float]:
    return {
        "setup_s": median(out.setup_s),
        "op_p50_ms": median(out.op_ms),
        "op_p95_ms": p95(out.op_ms),
        "ops_per_s": len(out.op_ms) / (sum(out.op_ms) / 1000.0),
        "negatives": out.negatives,
        "snapshot_mb": out.snapshot_bytes / 1e6,
        "peak_rss_mb": out.peak_rss_mb,
    }


def per_layer(tracer, traced, probes: int) -> dict[str, float]:
    by_name: dict[str, list] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in tracer.spans}
    own = tracer.self_seconds()

    def secs(name: str) -> float:
        return median([s.seconds for s in by_name[name]])

    def count(name: str, key: str) -> float:
        return by_name[name][0].attrs.get(key, 0) if by_name[name] else 0

    def op_ms(kind: str) -> float:
        return 1000 * median(
            [c.seconds for c in tracer.spans
             if c.parent is not None and by_id[c.parent].name == f"bench.op.{kind}"]
        )

    routes = [s.seconds * 1e6 for s in by_name["simulate.Simulator.run"]]
    replays = [s.seconds for s in by_name["updates.apply_changes"]
               if s.parent is not None and by_id[s.parent].name == "bench.replay"]
    ops = len(traced.op_ms)
    metrics = {
        "synth.generate_s": secs("synth.generate"),
        "rules_io.loads_s": secs("rules_io.loads_rules"),
        "erasers.enumerate_s": secs("erasers.enumerate_candidates"),
        "erasers.graph_s": secs("erasers.build_graph"),
        "erasers.color_s": secs("erasers.welsh_powell"),
        "erasers.select_s": secs("erasers.select_color_class"),
        "erasers.pack_s": secs("erasers.make_group_plan"),
        "erasers.candidates": count("erasers.enumerate_candidates", "candidates"),
        "erasers.conflict_edges": count("erasers.build_graph", "conflict_edges"),
        "erasers.covered": count("erasers.select_color_class", "covered"),
        "erasers.groups": count("erasers.make_group_plan", "groups"),
        "erasers.group_size_max": count("erasers.make_group_plan", "group_size_max"),
        "builder.build_s": secs("builder.build_account"),
        "builder.emit_s": median([own[s.id] for s in by_name["builder.build_account"]]),
        "builder.negatives_high": count("builder.build_account", "negatives_high"),
        "builder.negatives_medium": count("builder.build_account", "negatives_medium"),
        "builder.negatives_low": count("builder.build_account", "negatives_low"),
        "builder.limit_headroom": count("builder.build_account", "limit_headroom"),
        "snapshot.render_s": secs("snapshot.render_account"),
        "snapshot.bytes": count("snapshot.render_account", "bytes"),
        "snapshot.parse_s": secs("snapshot.parse_account"),
        "simulate.setup_s": secs("simulate.Simulator.__init__"),
        "simulate.route_p50_us": median(routes),
        "simulate.route_p95_us": p95(routes) if routes else 0.0,
        "simulate.queries": len(routes),
        "verify.p1_s": secs("verify.verify_property1"),
        "verify.p2_s": secs("verify.verify_property2"),
        "verify.p3_s": secs("verify.verify_property3"),
        "verify.structure_s": secs("verify.verify_structure"),
        "verify.checked": count("verify.verify_account", "checked"),
        "verify.probe_yield": count("verify.verify_account", "probe_checked") / (2 * probes),
        "updates.add_admitted_ms": op_ms("add_admitted"),
        "updates.add_open_ms": op_ms("add_open"),
        "updates.remove_rule_ms": op_ms("remove_rule"),
        "updates.remove_item_ms": op_ms("remove_item"),
        "updates.replay_ms": 1000 * median(replays),
        "updates.changes_per_op": traced.notes.get("changes", 0) / ops,
        "updates.campaigns_opened": traced.notes.get("campaigns_opened", 0),
        "trace.overhead_s": tracer.overhead_seconds(),
        "trace.spans": len(tracer.spans),
    }
    return metrics


def self_time_table(tracer) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total seconds, self seconds), most self time first."""
    own = tracer.self_seconds()
    rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in tracer.spans:
        row = rows[s.name]
        row[0] += 1
        row[1] += s.seconds
        row[2] += own[s.id]
    return sorted(((k, int(v[0]), v[1], v[2]) for k, v in rows.items()), key=lambda r: -r[3])


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shopstruct").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, n: int, run_id: str) -> dict[str, object]:
    return {
        "run_id": run_id,
        "workload": args.workload,
        "n": n,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the workload's passes until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, help="catalogue size (default: the workload's)")
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for the result file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shopstruct" / "__init__.py").is_file():
        print(f"no shopstruct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    n = args.n or workload.n
    run_id = uuid.uuid4().hex
    started = time.perf_counter()

    def context(**kw):
        return workloads.Context(workload=workload.name, n=n, seed=args.seed, **kw)

    spans = None
    if args.trace:
        tracer = tracing.Tracer(run_id)
        tracer.install()
        try:
            traced = workload.run(context(seconds=0, min_passes=1, setup_repeats=1, tracer=tracer))
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, workloads.PROBES)
        units = dict(PER_LAYER)
        outcomes = (traced,)
        spans = tracer.document()
    else:
        with hostspeed.HostSpeed() as speed:
            outcome = workload.run(
                context(seconds=args.seconds, min_passes=workload.min_passes, speed=speed)
            )
        outcome.notes["host_reference_ms"] = {
            "median": median(speed.ms), "min": min(speed.ms, default=0.0), "samples": len(speed.ms)
        }
        metrics = end_to_end(outcome)
        units = dict(END_TO_END)
        outcomes = (outcome,)

    problems = [p for o in outcomes for p in o.problems]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    info = provenance(args, n, run_id)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    print(f"workload {workload.name}: n={n} seed={args.seed} trace={args.trace}"
          f" git={info['git_sha'] or '-'} src={info['source_sha256'][:12]}"
          f" python={info['python']} nproc={info['nproc']}")
    for key, unit in units.items():
        value = metrics[key]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {key:<26} {shown} {unit}")
    print(f"  {'failed_share':<26} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    for key, value in outcomes[-1].notes.items():
        print(f"  note {key}: {value}")
    if spans is not None:
        spans["self_time"] = self_time_table(tracer)
        print("  self time per span (calls, total s, self s):")
        for name, calls, total, own in spans["self_time"]:
            print(f"    {name:<36} {calls:>7} {total:>12.4f} {own:>12.4f}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(f"  wall {time.perf_counter() - started:.1f} s")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {**result, "provenance": info, "problems": problems, "notes": outcomes[-1].notes,
              "failed_share": failed / attempted}
    if spans is not None:
        record["trace"] = spans
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
