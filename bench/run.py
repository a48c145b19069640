"""semistab benchmark: one workload per run, result as the last stdout line.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 36 --trace 0

The package is imported from the checkout's ``src/``; no install is needed.
With ``--trace 0`` the workload runs untraced in a closed loop for about
``--seconds`` and the end-to-end metrics are reported; operation times are
scaled to a reference host speed sampled during each operation (see
bench/NOTES.md). With
``--trace 1`` a fixed, seeded amount of the workload runs twice, untraced and
then traced, and the per-layer metrics of the traced pass are reported; the
two passes must produce byte-identical outputs. The metric names and units
come from BENCHMARK.json. See bench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import COUNTED, SPANNED, Tracer
from workloads import (
    WORKLOADS, Session, SpeedProbe, Tally, import_fresh, latency_summary, op_times, rate,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# Set-ups timed before each pass; setup_s is the median of all set-ups.
SETUP_PER_PASS = 3

# How strongly set-up time follows the speed probe (see SpeedProbe): import
# reads files, so the host's slow state hurts it less than the probe.
SETUP_SPEED_EXPONENT = 0.65

# Per-operation costs seen while sizing the workloads (2-core x86_64 VM,
# CPython 3.11.7), kept so that a later run can tell whether it is on
# comparable hardware.
SIZING = {
    "sweep_record_ms": 1.4,
    "curve_large_call_ms": 9.0,
    "random_closure_s": 0.14,
    "lattice_S4_s": 0.24,
    "lattice_A5_s": 3.2,
    "lattice_S4xC2_s": 9.8,
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(nproc: int) -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": gil,
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
        "sizing": SIZING,
    }


def metric_specs(kind: str) -> dict[str, str]:
    """{name: unit} of the BENCHMARK.json metrics of one kind."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec[kind]}


def untraced_run(workload, seconds: float) -> tuple[dict, dict, int, list[str]]:
    """Run the workload for about ``seconds``: a first pass of
    ``workload.rounds_per_pass`` rounds, or when that is None of as many
    rounds as fit in ``seconds / workload.passes``, then the same rounds
    again, at least ``workload.passes`` passes in all and more, up to
    ``workload.max_passes`` if it has one, while the next pass is expected
    to end in time."""
    session = Session(probe=SpeedProbe({"interpreter": SETUP_SPEED_EXPONENT}))
    tally = Tally(SpeedProbe(workload.speed_exponents))
    for _ in range(SETUP_PER_PASS):
        session.reload()
    rounds, digests = [], []
    start = perf_counter()
    while True:
        rounds.append(workload.next_round(session.modules))
        digests.append(tally.run_round(workload, session, len(rounds) - 1, rounds[-1], True))
        elapsed = perf_counter() - start
        if workload.rounds_per_pass is not None:
            if len(rounds) == workload.rounds_per_pass:
                break
        elif elapsed * (len(rounds) + 1) / len(rounds) > seconds / workload.passes:
            break
    passes, last_pass = 1, elapsed
    max_passes = getattr(workload, "max_passes", None)
    while passes < workload.passes or (
        passes != max_passes and perf_counter() - start + last_pass <= seconds
    ):
        pass_start = perf_counter()
        for _ in range(SETUP_PER_PASS):
            session.reload()
        for number, inputs in enumerate(rounds):
            digest = tally.run_round(workload, session, number, inputs, False)
            tally.expect(
                digest == digests[number], ("round", number),
                f"round {number}: outputs differ between passes",
            )
        passes, last_pass = passes + 1, perf_counter() - pass_start
    if not op_times(tally, workload.main_kinds):
        fail(f"no operation completed: {list(tally.failures.values())[:5]}")
    measured = latency_summary(op_times(tally, workload.main_kinds))
    latency = latency_summary(op_times(tally, workload.main_kinds, scaled=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(session.setup_scaled),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": rate(tally, workload.main_kinds, workload.units_per_op, scaled=True),
        "op_p50_ms": latency["p50_ms"],
        "op_tail_ms": latency["tail_ms"],
    }
    named = {
        "setup_s": (statistics.median(session.setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        **workload.named(tally),
    }
    details = {
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "measured": {
            "ops_per_s": rate(tally, workload.main_kinds, workload.units_per_op),
            "op_p50_ms": measured["p50_ms"],
            "op_tail_ms": measured["tail_ms"],
        },
        "probe_samples": tally.probe.count + session.probe.count,
        "rounds": len(rounds),
        "passes": passes,
        "op_tail_percentile": latency["tail_percentile"],
        "op_tail_samples_beyond": latency["tail_samples_beyond"],
        "op_samples": latency["samples"],
        "setup_samples": len(session.setup_samples),
        "refusals": dict(tally.refusals),
        "output_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
    }
    return metrics, details, tally.attempted, list(tally.failures.values())


def traced_run(workload, label: str) -> tuple[dict, dict, int, list[str]]:
    """Run ``workload.trace_rounds`` rounds untraced with every check, then
    the same rounds traced; the outputs must match byte for byte."""
    session = Session()
    session.reload()
    rounds = [workload.next_round(session.modules) for _ in range(workload.trace_rounds)]
    plain = Tally()
    plain_digests = [
        plain.run_round(workload, session, number, inputs, True)
        for number, inputs in enumerate(rounds)
    ]

    tracer = Tracer()
    traced_session = Session(tracer)
    traced_session.reload()
    traced = Tally()
    traced_digests = [
        traced.run_round(workload, traced_session, number, inputs, False)
        for number, inputs in enumerate(rounds)
    ]

    totals = tracer.layer_totals()
    metrics = {}
    for short, fn_name in SPANNED:
        calls, self_s = totals.get(f"{short}.{fn_name}", (0, 0.0))
        metrics[f"{short}.{fn_name}.calls"] = calls
        metrics[f"{short}.{fn_name}.self_s"] = self_s
    for short, fn_name in COUNTED:
        metrics[f"{short}.{fn_name}.calls"] = tracer.count(f"{short}.{fn_name}")
    for reason in ("v2", "v3", "general"):
        metrics[f"monodromy.refusals.{reason}"] = plain.refusals[reason]
    metrics["galois.subgroups"] = (
        statistics.mean(plain.subgroups) if plain.subgroups else 0
    )
    metrics["trace.overhead_s"] = traced.wall - plain.wall

    spans_file = OUT / f"spans-{label}.csv.gz"
    tracer.write(spans_file)
    plain_sha = hashlib.sha256("".join(plain_digests).encode()).hexdigest()
    traced_sha = hashlib.sha256("".join(traced_digests).encode()).hexdigest()
    details = {
        "untraced_wall_s": plain.wall,
        "traced_wall_s": traced.wall,
        "outputs_identical": plain_sha == traced_sha,
        "output_sha256": [plain_sha, traced_sha],
        "spans": len(tracer.begin),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    failures = list(plain.failures.values()) + list(traced.failures.values())
    if plain_sha != traced_sha:
        failures.append("traced outputs differ from untraced outputs")
    return metrics, details, plain.attempted + traced.attempted, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is the checkout's own source, never an
    # installed copy.
    sys.path.insert(0, str(SRC))
    try:
        package_file = Path(import_fresh()["semistab"].__file__).resolve()
    except ImportError as exc:
        fail(f"cannot import semistab from {SRC}: {exc}")
    if SRC.resolve() not in package_file.parents:
        fail(f"semistab was imported from {package_file}, not from {SRC}")

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](random.Random(args.seed), nproc, OUT)
    label = f"{args.workload}-seed{args.seed}"
    if args.trace:
        specs = metric_specs("per_layer")
        metrics, details, attempted, failures = traced_run(workload, label)
    else:
        specs = metric_specs("end_to_end")
        metrics, details, attempted, failures = untraced_run(workload, args.seconds)
    for path in OUT.glob("sweep-*.jsonl"):
        path.unlink()
    if set(metrics) != set(specs):
        fail(f"metrics {sorted(set(metrics) ^ set(specs))} disagree with BENCHMARK.json")
    for message in failures[:20]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(nproc),
        **details,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
