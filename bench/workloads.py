"""The three benchmark workloads, their seeded inputs and their checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. The only extra threads are the ones
``semistab sweep --threads`` starts itself. Inputs are made from the
workload's ``random.Random``; the program sees only the generated values.

A workload runs in rounds of operations. A timed run makes several passes
over the same rounds and takes each operation's median time over the passes
(see NOTES.md for why); a round's outputs must be the same on every pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import signal
import statistics
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter, process_time

PACKAGE = "semistab"
MODULES = ("arith", "curves", "monodromy", "cover", "galois", "cli", "errors")


# ---------------------------------------------------------------------------
# loading the program


def import_fresh() -> dict[str, object]:
    """Import the package as a new process would: no module, no cache kept."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
    modules[PACKAGE] = sys.modules[PACKAGE]
    return modules


def warm(modules: dict[str, object]) -> None:
    """The rest of a CLI run's set-up: cover enumeration, the prime sieve,
    parser construction."""
    modules["cover"].enumerate_cover(2, (0, 2))
    modules["cover"].enumerate_cover(3, (0, 4))
    # factorize builds its trial-division table on first use.
    modules["arith"].factorize(1)
    modules["cli"].build_parser()


class Session:
    """The loaded program, its set-up times and, in a traced pass, the tracer."""

    def __init__(self, tracer=None, probe: SpeedProbe | None = None) -> None:
        self.tracer = tracer
        self.probe = probe
        # measured (wall) and, with a probe, scaled (CPU) set-up times
        self.setup_samples: list[float] = []
        self.setup_scaled: list[float] = []
        self.modules: dict[str, object] = {}

    def reload(self) -> dict[str, object]:
        with self.probe or contextlib.nullcontext():
            wall, cpu = perf_counter(), process_time()
            modules = import_fresh()
            if self.tracer is not None:
                paused = perf_counter()
                self.tracer.install(modules)
                wall += perf_counter() - paused
            warm(modules)
            wall, cpu = perf_counter() - wall, process_time() - cpu
        if self.probe is not None:
            wall -= self.probe.busy_wall
            self.setup_scaled.append(self.probe.scale(cpu - self.probe.busy))
        self.setup_samples.append(wall)
        self.modules = modules
        return modules


def call_main(modules: dict[str, object], argv: list[str]) -> tuple[int, str]:
    """Run the CLI's main() in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = modules["cli"].main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# accounting


def refusal_reason(provenance: str) -> str:
    """Classify a 'not tabulated' provenance string."""
    if provenance.startswith("v2(s)"):
        return "v2"
    if provenance.startswith("v3(s)"):
        return "v3"
    return "general"


# While an operation runs, the host's speed is sampled this often (seconds of
# wall time) by timing a probe kernel from a SIGALRM handler.
PROBE_EVERY_S = 0.01


def interpreter_kernel() -> float:
    """CPU seconds taken by a small fixed piece of work shaped like most of the
    program: permutation composition into a set, Fraction arithmetic,
    JSON. It is benchmark code, so no change to the program moves it."""
    t0 = process_time()
    gens = ((1, 2, 3, 0), (1, 0, 2, 3))
    seen = {(0, 1, 2, 3)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[x[i]] for i in range(4))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    total = Fraction(0)
    for i in range(1, 12):
        total += Fraction(i, 7) ** 2 - Fraction(1, i)
    json.dumps({str(i): [i, str(total)] for i in range(15)}, sort_keys=True)
    return process_time() - t0


def bigint_kernel() -> float:
    """CPU seconds taken by a small fixed piece of work shaped like Pollard rho:
    modular squaring and gcd on a 62-bit number."""
    t0 = process_time()
    n = 3 * 1152921504606846883
    x = y = 2
    for _ in range(40):
        x = (x * x + 1) % n
        y = (y * y + 1) % n
        y = (y * y + 1) % n
        math.gcd(abs(x - y), n)
    return process_time() - t0


# name: (kernel, the time it is scaled to)
PROBES = {
    "interpreter": (interpreter_kernel, 0.00025),
    "bigint": (bigint_kernel, 0.00008),
}


class SpeedProbe:
    """Times every probe kernel just before an operation, every
    PROBE_EVERY_S while it runs and just after it.

    The host's speed changes within milliseconds (see NOTES.md), so a probe
    taken far from an operation says little about it. ``scale(cpu,
    exponents)`` turns the CPU time of an operation into about the time it
    would take on a host where each kernel takes its reference time: cpu
    times, for each kernel, (its mean rate × its reference time) raised to
    its exponent. CPU time, because the hypervisor also takes whole slices
    of time from the VM, which no probe sees but CPU time leaves out. The
    mean of rates, not of times, because work done is time multiplied by
    speed. An exponent is how strongly the measured code slows down, in
    logarithms, when that kernel does. The time spent in the handler,
    ``busy`` (CPU) and ``busy_wall``, is not part of what the caller
    measures."""

    def __init__(self, exponents: dict[str, float]) -> None:
        self.exponents = exponents
        self.samples: dict[str, list[float]] = {name: [] for name in PROBES}
        self.count = 0
        # time spent in the handler: CPU and wall
        self.busy = self.busy_wall = 0.0
        self._inside = False

    def _time_kernels(self) -> None:
        for name, (kernel, _) in PROBES.items():
            self.samples[name].append(kernel())

    def _sample(self, *_) -> None:
        if self._inside:  # a signal that arrives during a sample
            return
        self._inside = True
        wall, cpu = perf_counter(), process_time()
        self._time_kernels()
        self.busy += process_time() - cpu
        self.busy_wall += perf_counter() - wall
        self._inside = False

    def __enter__(self) -> SpeedProbe:
        for samples in self.samples.values():
            samples.clear()
        self._time_kernels()
        self.busy = self.busy_wall = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, cpu: float, exponents: dict[str, float] | None = None) -> float:
        self._time_kernels()
        self.count += len(self.samples["interpreter"])
        for name, exponent in (exponents or self.exponents).items():
            rate = statistics.fmean(1 / p for p in self.samples[name])
            cpu *= (rate * PROBES[name][1]) ** exponent
        return cpu


class Tally:
    """Operations, failures, times and output checksums of a run. With a
    ``probe`` each operation's time is also scaled by it."""

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        self.attempted = 0
        self.failures: dict[object, str] = {}
        # kind -> {(round, position): seconds, one entry per pass}, measured
        # (wall) and scaled (CPU)
        self.times: dict[str, dict[tuple[int, int], list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.scaled: dict[str, dict[tuple[int, int], list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.wall = 0.0
        self.refusals: Counter = Counter()
        self.subgroups: list[int] = []
        self._round = 0
        self._position = 0
        self._digest = hashlib.sha256()
        self.probe = probe

    def run_round(self, workload, session, number: int, inputs, check: bool) -> str:
        """Run round ``number``; returns the SHA-256 of its outputs."""
        self._round, self._position = number, 0
        self._digest = hashlib.sha256()
        workload.run_round(session, inputs, self, check)
        return self._digest.hexdigest()

    def op(self, kind: str, fn, exponents: dict[str, float] | None = None):
        """Run one timed operation; returns (op id, result or None). Its
        time is scaled with ``exponents``, or the probe's own."""
        key = (self._round, self._position)
        self._position += 1
        self.attempted += 1
        probe = self.probe or contextlib.nullcontext()
        with probe:
            wall, cpu = perf_counter(), process_time()
            try:
                result = fn()
            except Exception as exc:  # an exception escaping the program fails the op
                self.fail(key, f"{kind}: {type(exc).__name__}: {exc}")
                return key, None
            elapsed, cpu = perf_counter() - wall, process_time() - cpu
        if self.probe is not None:
            elapsed -= self.probe.busy_wall
            self.scaled[kind][key].append(self.probe.scale(cpu - self.probe.busy, exponents))
        self.wall += elapsed
        self.times[kind][key].append(elapsed)
        return key, result

    def fail(self, key, message: str) -> None:
        self.failures.setdefault(key, message)

    def expect(self, ok: bool, key, message: str) -> bool:
        if not ok:
            self.fail(key, message)
        return ok

    def record(self, *parts) -> None:
        """Add outputs to the round's checksum."""
        for part in parts:
            self._digest.update(part if isinstance(part, bytes) else repr(part).encode())


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) at the highest whole percentile
    with at least ten samples beyond it. With fewer than 20 samples no such
    percentile lies above the median, and the maximum is used instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100, 0
    percentile = (100 * (n - 10)) // n
    rank = -(-percentile * n // 100)  # nearest rank, ceil(p * n / 100)
    return ordered[rank - 1], percentile, n - rank


def latency_summary(samples: list[float]) -> dict:
    value, percentile, beyond = tail(samples)
    return {
        "p50_ms": statistics.median(samples) * 1e3,
        "tail_ms": value * 1e3,
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "samples": len(samples),
    }


def named_latency(prefix: str, samples: list[float]) -> dict:
    """Per-workload latency names for the detail line: {name: (value, unit)}."""
    latency = latency_summary(samples)
    units = {"p50_ms": "ms", "tail_ms": "ms", "tail_percentile": "percentile"}
    return {
        f"{prefix}_{key}": (value, units.get(key, "count"))
        for key, value in latency.items()
    }


def op_times(tally: Tally, kinds, scaled: bool = False) -> list[float]:
    """Every operation's median time over the passes, for the given kinds,
    as measured or scaled."""
    times = tally.scaled if scaled else tally.times
    return [statistics.median(t) for kind in kinds for t in times[kind].values()]


def rate(tally: Tally, kinds, units_per_op: int = 1, scaled: bool = False) -> float:
    """Work units per second of operation time."""
    times = op_times(tally, kinds, scaled)
    return units_per_op * len(times) / sum(times)


# ---------------------------------------------------------------------------
# workloads


class SweepSmall:
    """`semistab sweep` over contiguous small integers, at --threads 1 and
    --threads nproc on the same range."""

    name = "sweep-small"
    # See SpeedProbe and NOTES.md.
    speed_exponents = {"interpreter": 0.45, "bigint": 0.65}
    block = 100
    passes = 8
    rounds_per_pass = None
    trace_rounds = 20
    main_kinds = ("serial",)
    units_per_op = block

    def __init__(self, rng, nproc: int, workdir) -> None:
        self.rng = rng
        self.nproc = nproc
        self.workdir = workdir
        self.next_start = None

    def next_round(self, modules):
        """The next block of one contiguous range from a seeded offset. The
        offset lies in the upper half below 10^6: a record's cost grows with
        the size of s, by about a quarter from 10^4 to 10^6, and seeds should
        change the numbers swept, not their size."""
        if self.next_start is None:
            self.next_start = self.rng.randrange(5 * 10**5, 10**6 - 10**4)
        start = self.next_start
        self.next_start += self.block
        return start

    def run_round(self, session, start: int, tally: Tally, check: bool) -> None:
        modules = session.modules
        stop = start + self.block - 1
        outputs = {}
        for kind, threads in (("serial", 1), ("threads", self.nproc)):
            path = self.workdir / f"sweep-{kind}.jsonl"
            path.unlink(missing_ok=True)
            argv = [
                "--plain", "sweep", "--from", str(start), "--to", str(stop),
                "--threads", str(threads), "--out", str(path),
            ]
            key, result = tally.op(kind, lambda: call_main(modules, argv))
            if result is None:
                return
            code, stdout = result
            body = path.read_bytes() if path.exists() else b""
            tally.record(argv, code, stdout, body)
            outputs[kind] = (key, body)
            if check and tally.expect(code == 0, key, f"sweep {start}..{stop}: exit {code}"):
                records = json.loads(stdout)["records"]
                tally.expect(
                    records == self.block == len(body.splitlines()), key,
                    f"sweep {start}..{stop}: {records} records",
                )
        if check:
            self._check(modules, start, stop, outputs, tally)

    def _check(self, modules, start: int, stop: int, outputs: dict, tally: Tally) -> None:
        (serial_key, serial_body), (threads_key, threads_body) = (
            outputs["serial"], outputs["threads"]
        )
        tally.expect(
            serial_body == threads_body, threads_key,
            f"sweep {start}..{stop}: --threads {self.nproc} output differs from --threads 1",
        )
        degree_of = modules["monodromy"].semistability_degree
        for line in serial_body.decode().splitlines():
            record = json.loads(line)
            s = int(record["s"])
            if record["degree"] is None:
                refused = [m for m in record["locals"] if m["group"] is None]
                tally.expect(bool(refused), serial_key, f"s={s}: no degree and no refusal")
                for entry in refused:
                    tally.refusals[refusal_reason(entry["provenance"])] += 1
                continue
            expected = degree_of(s).degree
            tally.expect(
                record["degree"] == expected and 24 % record["degree"] == 0,
                serial_key, f"s={s}: sweep degree {record['degree']}, library {expected}",
            )

    def named(self, tally: Tally) -> dict:
        return {
            "sweep_records_per_s": (rate(tally, ["serial"], self.block), "records/s"),
            "sweep_threads_records_per_s": (rate(tally, ["threads"], self.block), "records/s"),
        }


class CurveLarge:
    """One `semistab curve --json` call per input, on large parameters."""

    name = "curve-large"
    # See SpeedProbe and NOTES.md: typical calls follow the interpreter
    # kernel, and calls with at least RHO_BOUND_WORK of rho work, where rho
    # takes as long as the rest of the call, the big-integer one.
    speed_exponents = {"interpreter": 0.8}
    rho_bound_exponents = {"bigint": 1.0}
    RHO_BOUND_WORK = 2**17
    passes = 3
    # Every run has the same ten rounds of fixed composition (see below), so
    # that the tail is read at the same rank on every seed.
    rounds_per_pass = 10
    trace_rounds = 3
    main_kinds = ("call",)
    units_per_op = 1
    # Call time is dominated by Pollard rho on the number the program
    # factorizes: the numerator of s, twice per call, or the discriminant of
    # a short-form curve, once. An input's rho work is rho_work of that
    # number times those factorizations, and its band is
    # floor(2 log2(work)), so that the work within a band differs by at most
    # a factor of sqrt(2); band 0 means no rho at all, bands below 24 count
    # as 24, and 41 holds everything from 2^20.5 up to RHO_WORK_LIMIT.
    # A run of 1000 calls holds exactly these numbers of each (input kind,
    # band), in the proportions the generator draws them (from 30,000
    # draws), except that band 41 gets ten calls instead of six and that
    # the short-form call of band 40 moves to 41. Then the tail, the
    # eleventh-slowest call, is the slowest call of band 40 on every seed,
    # and a family call: short-form calls take about 15% longer for the
    # same work. A seed changes the numbers but not the cost profile.
    run_quota = {
        "int": {
            0: 324, 24: 13, 25: 12, 26: 17, 27: 24, 28: 28, 29: 27, 30: 25, 31: 25,
            32: 21, 33: 17, 34: 15, 35: 12, 36: 11, 37: 8, 38: 6, 39: 5, 40: 5,
            41: 5,
        },
        "frac": {
            0: 103, 24: 5, 25: 4, 26: 6, 27: 8, 28: 9, 29: 9, 30: 8, 31: 8, 32: 7,
            33: 7, 34: 6, 35: 4, 36: 4, 37: 3, 38: 3, 39: 2, 40: 1, 41: 3,
        },
        "short": {
            0: 105, 24: 14, 25: 8, 26: 9, 27: 9, 28: 8, 29: 8, 30: 8, 31: 6, 32: 5,
            33: 5, 34: 4, 35: 3, 36: 2, 37: 2, 38: 1, 39: 1, 40: 0, 41: 2,
        },
    }
    factorizations = {"int": 2, "frac": 2, "short": 1}
    run_size = sum(sum(quota.values()) for quota in run_quota.values())
    round_size = run_size // rounds_per_pass
    # Inputs with more rho work than this (about 1 in 10,000 draws) are
    # drawn again, so that no single call sets a run's throughput.
    RHO_WORK_LIMIT = 2**22

    def __init__(self, rng, nproc: int, workdir) -> None:
        self.rng = rng
        self.pending: list = []

    def _sign(self) -> int:
        return self.rng.choice((-1, 1))

    def _input(self):
        """(kind, argv, (num, den) or None, the number the program factorizes):
        20% short-form curves, 20% num/den, 60% integers."""
        rng = self.rng
        r = rng.random()
        if r < 0.2:
            while True:
                a4 = self._sign() * rng.randrange(1, 10**6)
                a6 = self._sign() * rng.randrange(1, 10**9)
                if 4 * a4**3 + 27 * a6**2 != 0:
                    break
            delta = -16 * (4 * a4**3 + 27 * a6**2)
            return "short", ["curve", "--a", f"0,0,0,{a4},{a6}", "--json"], None, delta
        if r < 0.4:
            den = rng.randrange(2, 1000)
            num = self._sign() * rng.randrange(10**15 * den, 10**18 + 1)
            # "--s=-N" because argparse reads "--s -N" as an option.
            argv = ["curve", f"--s={num}/{den}", "--json"]
            return "frac", argv, (num, den), Fraction(num, den).numerator
        num = self._sign() * rng.randrange(10**15, 10**18 + 1)
        return "int", ["curve", f"--s={num}", "--json"], (num, 1), num

    @staticmethod
    def rho_work(factorize, n: int, limit: int) -> int | None:
        """The rho work of factorizing n, a property of n alone, or None
        when it passes ``limit``. For a prime p, x -> x^2 + 1 mod p from
        x = 2 meets itself at twice the speed after k(p) steps; Floyd's
        cycle finding (the program's rho) then splits p off the product of
        the primes still joined, starting afresh on each split. So
        splitting the prime factors above 10^4 takes, for all of them but
        the one with the largest k(p), k(p) steps on that product. A step
        on a number of b bits is counted as min(b, 64) units: big-integer
        steps cost about that, give or take 15%, between 30 and 90 bits."""
        large = [p for p, e in factorize(n).items() for _ in range(e) if p > 10**4]
        x = dict.fromkeys(large, 2)
        y = dict(x)
        total = 0
        step = 0
        while len(x) > 1:
            step += 1
            size = min(math.prod(x).bit_length(), 64)
            for p in list(x):
                x[p] = (x[p] * x[p] + 1) % p
                y[p] = ((y[p] * y[p] + 1) ** 2 + 1) % p
                if x[p] == y[p]:
                    del x[p]
                    total += step * size
            # Two primes above 10^4 make at least 27 bits.
            if total > limit or step * 27 > limit:
                return None
        return total

    def _draw_run(self, factorize) -> list:
        """A run's inputs, drawn until every (kind, band) quota is met."""
        left = {kind: dict(quota) for kind, quota in self.run_quota.items()}
        chosen = []
        while len(chosen) < self.run_size:
            kind, argv, s, n = self._input()
            times = self.factorizations[kind]
            work = self.rho_work(factorize, n, self.RHO_WORK_LIMIT // times)
            if work is None:
                continue
            work *= times
            band = min(max(int(2 * math.log2(work)), 24), 41) if work else 0
            if left[kind].get(band):
                left[kind][band] -= 1
                rho_bound = work >= self.RHO_BOUND_WORK
                chosen.append((argv, s, self.rho_bound_exponents if rho_bound else None))
        self.rng.shuffle(chosen)
        return chosen

    def next_round(self, modules):
        if not self.pending:
            self.pending = self._draw_run(modules["arith"].factorize)
        chosen = self.pending[:self.round_size]
        del self.pending[:self.round_size]
        return chosen

    def run_round(self, session, inputs, tally: Tally, check: bool) -> None:
        modules = session.modules
        for argv, s, exponents in inputs:
            key, result = tally.op("call", lambda: call_main(modules, argv), exponents)
            if result is None:
                continue
            code, stdout = result
            tally.record(argv, code, stdout)
            if not check or not tally.expect(
                code in (0, 3), key, f"{' '.join(argv)}: exit {code}"
            ):
                continue
            data = json.loads(stdout)
            refused = [m for m in data["monodromy"] if m["group"] is None]
            tally.expect(
                bool(refused) == (code == 3), key,
                f"{' '.join(argv)}: exit {code} with {len(refused)} refused primes",
            )
            for entry in refused:
                tally.refusals[refusal_reason(entry["provenance"])] += 1
            if code == 0 and s is not None:
                expected = modules["monodromy"].semistability_degree(Fraction(*s)).degree
                tally.expect(
                    data["degree"] == expected and 24 % data["degree"] == 0, key,
                    f"{' '.join(argv)}: degree {data['degree']}, library {expected}",
                )

    def named(self, tally: Tally) -> dict:
        return {
            "curve_calls_per_s": (rate(tally, ["call"]), "calls/s"),
            **named_latency("curve", op_times(tally, ["call"])),
        }


def relabel(cycles: str, perm: list[int]) -> str:
    """Rename the 1-based points of cycle notation by a 0-based permutation."""
    return re.sub(r"\d+", lambda m: str(perm[int(m.group()) - 1] + 1), cycles)


class GaloisLattice:
    """The `semistab galois --check-all` pipeline on three fixed groups."""

    name = "galois-lattice"
    # See SpeedProbe and NOTES.md.
    speed_exponents = {"bigint": 1.25}
    # Exactly two passes: peak memory grows with the number of passes.
    passes = max_passes = 2
    rounds_per_pass = 1
    trace_rounds = 1
    # name: (degree, generators, group order, subgroup count)
    groups = {
        "S4": (4, "(1 2);(1 2 3 4)", 24, 30),
        "A5": (5, "(1 2 3);(1 2 3 4 5)", 60, 59),
        "S4xC2": (6, "(1 2);(1 3 5)(2 4 6);(1 3)(2 4)", 48, 98),
    }
    main_kinds = tuple(groups)
    units_per_op = 1

    def __init__(self, rng, nproc: int, workdir) -> None:
        self.rng = rng

    def next_round(self, modules):
        inputs = []
        for name, (degree, gens, _, _) in self.groups.items():
            perm = list(range(degree))
            self.rng.shuffle(perm)
            inputs.append((name, relabel(gens, perm)))
        return inputs

    def run_round(self, session, inputs, tally: Tally, check: bool) -> None:
        for name, gens in inputs:
            degree, _, order, subgroups = self.groups[name]
            # A fresh import empties the library's lru_caches, as for a CLI user.
            modules = session.reload()
            argv = ["galois", "--degree", str(degree), "--gens", gens, "--check-all", "--json"]
            key, result = tally.op(name, lambda: call_main(modules, argv))
            if result is None:
                continue
            code, stdout = result
            tally.record(argv, code, stdout)
            if not check or not tally.expect(code == 0, key, f"galois {name} {gens}: exit {code}"):
                continue
            data = json.loads(stdout)
            tally.subgroups.append(data["subgroup_count"])
            tally.expect(
                data["orbit_size"] == data["deck_group_order"] == order
                and data["subgroup_count"] == subgroups
                and data.get("classified_subgroups") == subgroups,
                key, f"galois {name} {gens}: order {data['deck_group_order']}, "
                f"{data['subgroup_count']} subgroups, "
                f"{data.get('classified_subgroups')} classified",
            )

    def named(self, tally: Tally) -> dict:
        return {
            f"lattice_{name}_s": (statistics.median(op_times(tally, [name])), "s")
            for name in self.groups
        }


WORKLOADS = {w.name: w for w in (SweepSmall, CurveLarge, GaloisLattice)}
