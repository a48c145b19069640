"""Command-line interface: minkowski, curve, cover, sweep, galois, verify.

Exit codes: 0 ok, 1 verification failure, 2 invalid input (also input over
a size limit: SizeLimitError), 3 not-tabulated (valid input outside the
2-adic table's range, or off the family with bad reduction at 2 or 3),
4 internal error (a built-in cross-check failed; a bug, never expected),
141 stdout closed early by its reader (e.g. piped into `head`; no traceback).
All data output is deterministic for fixed flags; the only non-data line is
a version header, suppressible with --plain.

The per-prime monodromy and the degree come from monodromy.family_report and
monodromy.curve_report; this module only serializes them, and writes
`sweep`'s ball labels center+p^k of the balls on those results at 2 and 3.
`curve` prints a dict through json.dumps; `sweep` formats each record's line
straight from its report, in the bytes json.dumps would give it. At 2 and 3
one builder, _ball_fragments, writes an entry's ball label and its entry; it
runs once per table ball at import, so a table ball's result has both looked
up. At p >= 5 an entry is a fragment built once per (group, provenance).
`sweep` computes its records serially: --threads is accepted, with no effect.

main parses the command that argv names (argv[0], or argv[1] after an
exact --plain) with one parser of its own, which reads the tokens after the
command. Any other argv, such as help, no command, an abbreviation or an
unknown word, and one with a token that parser leaves over, gets the full
parser with all six, built from the same declarations. Nothing is kept
between calls.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .arith import parse_rational
from .cover import CoverReport, enumerate_cover
from .curves import WeierstrassCurve, compute_invariants, family_curve
from .errors import (
    InvalidInputError,
    NotTabulatedError,
    SemistabError,
    SizeLimitError,
    TheoremViolationError,
)
from .galois import (
    FiniteCover,
    Subgroup,
    check_degree,
    classify_point,
    enumerate_subgroups,
    format_cycles,
    galois_closure,
    parse_cycles,
)
from .minkowski import (
    MinkowskiReport,
    _decimal_digits,
    gl_cardinality,
    minkowski_bound,
    to_scientific,
)
from .monodromy import (
    _FAMILY_RESULTS,
    LocalMonodromyResult,
    MonodromyGroup,
    curve_report,
    family_report,
    semistability_degree,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NOT_TABULATED = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

# Records a sweep computes before it writes their lines with one write call.
# In a process that runs many sweeps (the benchmark's sweep-small),
# alternating record by record measured about 4% slower and up to 1.5 MiB
# higher in peak RSS than computing a block and then writing it.
SWEEP_BLOCK = 100

# The escaper of json.dumps's default (ASCII) output, for _ball_fragments's
# refusal texts; the line of s = 0, the singular curve, which has no report.
_escape = json.encoder.encode_basestring_ascii
_SINGULAR_LINE = (
    '{"ball_ids": null, "degree": null, "locals": [], "note": "singular", "s": "0"}\n'
)

# An entry with a group, as a format string of its prime p: one per (group
# label, provenance) that LocalMonodromyResult admits with a group, so 7 x 4
# keys, each `fmt % p` the bytes json.dumps gives local_data. sweep_record
# formats a tame prime's entry with it, and _ball_fragments an entry with a
# group at 2 and 3. Keyed by the label, a str, because an Enum member hashes
# in Python code.
_ENTRY_FORMATS = {
    (group.label, provenance): (
        '{"group": %s, "order": %d, "p": %%d, "provenance": %s}'
        % (_escape(group.label), group.order, _escape(provenance))
    )
    for group in MonodromyGroup
    for provenance in (
        "family-table-2", "family-table-3", "tame-rule", "good-reduction"
    )
}


def _ball_fragments(entry: LocalMonodromyResult) -> tuple[str, str]:
    """An entry's ball_ids item at p in {2, 3}, its ball's label center+p^k
    (no escaping needed) or null, and its entry under "locals": the
    _ENTRY_FORMATS fragment of its group, else its refusal text, escaped."""
    p, group, ball = entry.p, entry.group, entry.ball
    item = '"%d": "%d+%d^%d"' % (p, ball[0], p, ball[1]) if ball else '"%d": null' % p
    if group is None:
        return item, '{"group": null, "order": null, "p": %d, "provenance": %s}' % (
            p, _escape(entry.provenance)
        )
    return item, _ENTRY_FORMATS[group.label, entry.provenance] % p


# _ball_fragments of each result built once per table ball (_FAMILY_RESULTS),
# per p in {2, 3}: its ball maps to (result, ball_ids item, "locals" entry),
# which sweep_record takes for that very result (`is`). 5 balls at 2, 20 at 3.
_TABLE_FRAGMENTS = {
    p: {
        result.ball: (result, *_ball_fragments(result))
        for _, results in rows
        for result in results.values()
    }
    for p, rows in _FAMILY_RESULTS.items()
}


def _header(args) -> None:
    if not args.plain:
        print(f"# semistab {__version__}")


# ---------------------------------------------------------------------------
# serialization


def _check_str_digits(n: int, what: str) -> None:
    """Raise SizeLimitError, naming the integer by `what`, for an n >= 1 that
    str() would refuse: one over the interpreter's limit of integer string
    conversion (4300 digits by default). Callers check before they print."""
    # 0: no limit; Python < 3.10.7 has no limit and no getter.
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = _decimal_digits(n)
    if max_digits and digits > max_digits:
        raise SizeLimitError(
            f"{what} holds a {digits}-digit integer, over the "
            f"{max_digits}-digit limit of integer string conversion"
        )


def local_data(entry: LocalMonodromyResult) -> dict:
    """One prime's entry as `curve --json` prints it; sweep_record writes
    the same shape."""
    group = entry.group
    return {
        "group": None if group is None else group.label,
        "order": None if group is None else group.order,
        "p": entry.p,
        "provenance": entry.provenance,
    }


def degree_report_data(s: Fraction) -> tuple[dict, int]:
    """JSON payload for the family member y^2 = x^3 + s, with exit code."""
    return general_report_data(family_curve(s))


def general_report_data(curve: WeierstrassCurve) -> tuple[dict, int]:
    """JSON payload for a curve's report, with exit code.

    Refused primes carry their reason as provenance; the degree is present
    only when every prime resolves. divides_minkowski is given for family
    members only (the library refuses a degree that does not divide 24).
    """
    delta = curve.invariants.delta
    _check_str_digits(
        max(abs(delta.numerator), delta.denominator), "curve: delta"
    )
    report = curve_report(curve)
    degree = report.degree
    data = {
        "s": None if report.s is None else str(report.s),
        "delta": str(delta),
        "bad_primes": [entry.p for entry in report.locals],
        "monodromy": [local_data(entry) for entry in report.locals],
        "degree": degree,
        "divides_minkowski": None if report.s is None or degree is None else True,
    }
    return data, EXIT_OK if degree is not None else EXIT_NOT_TABULATED


def cover_report_data(report: CoverReport) -> dict:
    return {
        "p": report.p,
        "valuation_range": list(report.valuation_range),
        "balls": [
            {
                "p": b.p,
                "valuation": b.stratum,
                "center": b.center,
                "modulus": f"{b.p}^{b.modulus_exponent}",
                "group": b.group.label,
                "order": b.group.order,
            }
            for b in report.balls
        ],
        "classes": [
            {"group": g.label, "order": g.order, "count": c}
            for g, c in report.classes()
        ],
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_minkowski(args) -> int:
    if args.g < 1:
        raise InvalidInputError("--g must be >= 1")
    reports = []
    for g in range(1, args.g + 1):
        report = MinkowskiReport.build(g, args.gl_mod)
        _check_str_digits(
            max(report.bound, report.gl12_card), f"minkowski: row g = {g}"
        )
        reports.append(report)
    if args.format == "json":
        payload = [
            {
                "g": r.g,
                "bound": str(r.bound),
                "bound_approx": to_scientific(r.bound),
                "exponents": {str(p): e for p, e in r.exponents.items()},
                f"gl_mod_{args.gl_mod}": str(r.gl12_card),
                f"gl_mod_{args.gl_mod}_approx": to_scientific(r.gl12_card),
            }
            for r in reports
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _header(args)
        print("g\tM(2g)\tCardGL(2g)")
        for r in reports:
            print(f"{r.g}\t{r.bound}\t{r.gl12_card}")
    return EXIT_OK


def cmd_curve(args) -> int:
    if args.s is not None:
        s = parse_rational(args.s)
        data, code = degree_report_data(s)
    else:
        coeffs = [parse_rational(tok) for tok in args.a.split(",")]
        if len(coeffs) != 5:
            raise InvalidInputError("--a expects a1,a2,a3,a4,a6")
        data, code = general_report_data(WeierstrassCurve(*coeffs))
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        _header(args)
        print(f"s = {data['s']}  delta = {data['delta']}")
        for m in data["monodromy"]:
            group = m["group"] if m["group"] else f"not tabulated ({m['provenance']})"
            print(f"  p = {m['p']}: {group}")
        degree = data["degree"] if data["degree"] is not None else "undetermined"
        print(f"degree d(E) = {degree}")
    return code


def cmd_cover(args) -> int:
    report = enumerate_cover(args.p, (args.min_val, args.max_val))
    if args.format == "json":
        print(json.dumps(cover_report_data(report), sort_keys=True))
    else:
        _header(args)
        print("p\tvaluation\tcenter\tmodulus\tgroup\torder")
        for b in report.balls:
            print(
                f"{b.p}\t{b.stratum}\t{b.center}\t{b.p}^{b.modulus_exponent}"
                f"\t{b.group.label}\t{b.group.order}"
            )
    return EXIT_OK


def sweep_record(s: int) -> tuple[str, int | None]:
    """family_report(s) as one sweep line, with its newline, and d(E_s)
    (None where a prime is refused, and for s = 0, the singular curve).

    The line is formatted from the report, with no record dict: its keys in
    sorted order, ints by %d and None as null, so it is the bytes of
    json.dumps(record, sort_keys=True) for the record of the README. Its
    entries under "locals" have the shape local_data gives `curve`. Two
    cases: at 2 and 3 an entry's ball_ids item and entry are
    _ball_fragments's, looked up in _TABLE_FRAGMENTS for a table ball's own
    result; at p >= 5, where every _FAMILY_TAME row has a group, its
    _ENTRY_FORMATS fragment % p. TestSweep's byte tests check both."""
    if s == 0:
        return _SINGULAR_LINE, None
    report = family_report(s)
    degree = report.degree
    balls = []
    entries = []
    for entry in report.locals:
        p = entry.p
        if p in _TABLE_FRAGMENTS:
            known = _TABLE_FRAGMENTS[p].get(entry.ball)
            if known is not None and known[0] is entry:
                _, ball_item, text = known
            else:
                ball_item, text = _ball_fragments(entry)
            balls.append(ball_item)
            entries.append(text)
        else:
            entries.append(_ENTRY_FORMATS[entry.group.label, entry.provenance] % p)
    line = '{"ball_ids": {%s}, "degree": %s, "locals": [%s], %s"s": "%d"}\n' % (
        ", ".join(balls),
        "null" if degree is None else "%d" % degree,
        ", ".join(entries),
        '"note": "not-tabulated", ' if degree is None else "",
        s,
    )
    return line, degree


def cmd_sweep(args) -> int:
    """Write one JSON record per s in the range to --out, then the summary.

    Records for range(--from, --to + 1, --step) are computed a block of
    SWEEP_BLOCK at a time, in ascending s (a negative step keeps the stop
    --to + 1: --from 10 --to 1 --step -1 writes s = 3..10, --step -3 writes
    4, 7, 10). sweep_record formats each record's line straight from its
    report; a block's lines go out in one write, and the summary is counted
    from their degrees as they go, so memory does not grow with the range.
    --out is opened before any record is computed: an
    unwritable path exits 2 with no work done, but a record that raises
    later (exit 2 over a size limit, exit 4 on an internal error) leaves the
    blocks before it in the file.
    """
    if args.step == 0:
        raise InvalidInputError("--step must not be 0")
    values = range(args.start, args.stop + 1, args.step)
    pending = iter(values if args.step > 0 else reversed(values))
    records = 0
    degree_counts: dict[str, int] = {}
    all_divide = True
    try:
        with open(args.out, "w") as fh:
            while block := [
                sweep_record(s) for s in itertools.islice(pending, SWEEP_BLOCK)
            ]:
                fh.write("".join([line for line, _ in block]))
                for _, degree in block:
                    key = str(degree) if degree else "not-tabulated"
                    degree_counts[key] = degree_counts.get(key, 0) + 1
                    all_divide = all_divide and (degree is None or 24 % degree == 0)
                records += len(block)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    summary = {
        "records": records,
        "degree_counts": dict(sorted(degree_counts.items())),
        "all_degrees_divide_24": all_divide,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_galois(args) -> int:
    check_degree(args.degree)
    gens = [
        parse_cycles(part, args.degree)
        for part in args.gens.split(";")
        if part.strip()
    ]
    cover = FiniteCover(degree=args.degree, generators=tuple(gens))
    closure = galois_closure(cover)
    deck = closure.deck_group
    subs = enumerate_subgroups(deck)
    # Insertion order is first occurrence in subs, so classes keep that order.
    by_class: dict[int, list[Subgroup]] = {}
    for sub in subs:
        by_class.setdefault(sub.isomorphism_class, []).append(sub)
    reps = [members[0] for members in by_class.values()]
    classes = [
        {"order": members[0].order, "subgroups": len(members)}
        for members in by_class.values()
    ]
    checked = None
    if args.check_all:
        for sub in subs:
            classify_point(closure, sub, reps)
        checked = len(subs)
    data = {
        "degree": args.degree,
        "generators": [format_cycles(g) for g in cover.generators],
        "orbit_size": len(closure.orbit),
        "deck_group_order": deck.order,
        "subgroup_count": len(subs),
        "classes": classes,
    }
    if checked is not None:
        data["classified_subgroups"] = checked
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        _header(args)
        print(f"degree {data['degree']}  generators {' '.join(data['generators'])}")
        print(f"orbit size {data['orbit_size']}  deck group order {data['deck_group_order']}")
        print(f"subgroups {data['subgroup_count']} in {len(classes)} isomorphism classes")
        for cls in classes:
            print(f"  order {cls['order']}: {cls['subgroups']} subgroup(s)")
        if checked is not None:
            print(f"classified {checked} subgroups; both routes agree")
    return EXIT_OK


def _verify_checks() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []

    def add(label: str, fn) -> None:
        try:
            checks.append((label, bool(fn())))
        except SemistabError:
            checks.append((label, False))

    add(
        "bound table g=1..4 is 24, 5760, 2903040, 1393459200",
        lambda: [minkowski_bound(g) for g in (1, 2, 3, 4)]
        == [24, 5760, 2903040, 1393459200],
    )
    add("gl cardinality: GL_2(Z/12) has 4608 elements", lambda: gl_cardinality(2, 12) == 4608)
    add(
        "gl cardinality mod 12 rounds to 3.2e16, 1.2e38, 1.9e68",
        lambda: [to_scientific(gl_cardinality(n, 12)) for n in (4, 6, 8)]
        == ["3.2e+16", "1.2e+38", "1.9e+68"],
    )
    add(
        "family invariants at s=1: c4=0, delta=-432, j=0",
        lambda: (
            lambda inv: inv.c4 == 0 and inv.delta == -432 and inv.j == 0
        )(compute_invariants(family_curve(1))),
    )
    def group_at(p: int, s: int) -> MonodromyGroup | None:
        return family_report(s).local_at(p).group

    add(
        "monodromy at 3: C4 for s=1,8,10,17,216; Dic3 for s=2,9,81,54",
        lambda: all(
            group_at(3, s) is MonodromyGroup.C4 for s in (1, 8, 10, 17, 216)
        )
        and all(group_at(3, s) is MonodromyGroup.DIC3 for s in (2, 9, 81, 54)),
    )
    add(
        "monodromy at 2: C3/C6/C2/SL2(F3) cases",
        lambda: all(group_at(2, s) is MonodromyGroup.C3 for s in (1, 5, 12))
        and all(group_at(2, s) is MonodromyGroup.C6 for s in (3, 7))
        and all(group_at(2, s) is MonodromyGroup.C2 for s in (2, 6))
        and all(group_at(2, s) is MonodromyGroup.SL2F3 for s in (4, 20)),
    )
    add(
        "curve s=4 has maximal monodromy at 2 and 3, degree 24",
        lambda: (
            lambda report: report.degree == 24
            and report.local_at(2).group is MonodromyGroup.SL2F3
            and report.local_at(3).group is MonodromyGroup.DIC3
        )(semistability_degree(4)),
    )
    add(
        "3-adic cover lists the four C4 balls 1+9, 8+9, 27+3^5, 216+3^5",
        lambda: {
            (b.center, b.modulus_exponent)
            for b in enumerate_cover(3, (0, 4)).balls
            if b.group is MonodromyGroup.C4
        }
        >= {(1, 2), (8, 2), (27, 5), (216, 5)},
    )
    return checks


def cmd_verify(args) -> int:
    _header(args)
    ok = True
    for label, passed in _verify_checks():
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
        ok = ok and passed
    print("verification OK" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


# Each command and its one-line help in the full parser's list.
COMMANDS = {
    "minkowski": "Minkowski bound table",
    "curve": "monodromy and degree of one curve",
    "cover": "p-adic ball decomposition",
    "sweep": "batch-evaluate integer parameters",
    "galois": "Galois closure of a finite cover",
    "verify": "run the pinned regression checks",
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Declare command's arguments and its func on parser: a sub-parser of
    build_parser's, or the standalone parser main builds for that command."""
    if command == "minkowski":
        parser.add_argument("--g", type=int, required=True, help="max dimension g")
        parser.add_argument("--gl-mod", type=int, default=12, dest="gl_mod")
        parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
        parser.set_defaults(func=cmd_minkowski)
    elif command == "curve":
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--s",
            help="family parameter (integer or num/den); a negative num/den "
            "needs '=', as in --s=-1/2",
        )
        group.add_argument(
            "--a",
            help="a1,a2,a3,a4,a6 of a Weierstrass equation; a list that starts "
            "with '-' needs '=', as in --a=-1,0,0,0,1",
        )
        parser.add_argument("--json", action="store_true")
        parser.set_defaults(func=cmd_curve)
    elif command == "cover":
        parser.add_argument("--p", type=int, required=True)
        parser.add_argument("--min-val", type=int, required=True, dest="min_val")
        parser.add_argument("--max-val", type=int, required=True, dest="max_val")
        parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
        parser.set_defaults(func=cmd_cover)
    elif command == "sweep":
        parser.add_argument("--from", type=int, required=True, dest="start")
        parser.add_argument("--to", type=int, required=True, dest="stop")
        parser.add_argument("--step", type=int, default=1)
        parser.add_argument("--out", required=True)
        parser.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; records are computed serially",
        )
        parser.set_defaults(func=cmd_sweep)
    elif command == "galois":
        parser.add_argument("--degree", type=int, required=True)
        parser.add_argument(
            "--gens", required=True, help="generators in cycle notation, ';'-separated"
        )
        parser.add_argument("--check-all", action="store_true", dest="check_all")
        parser.add_argument("--json", action="store_true")
        parser.set_defaults(func=cmd_galois)
    else:  # verify takes no arguments
        parser.set_defaults(func=cmd_verify)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser and all six subcommand parsers.

    main parses with it only when argv names no command, or when the named
    command's own parser leaves a token over: help, errors and abbreviations
    at the top level, and "unrecognized arguments" under its usage.
    """
    parser = argparse.ArgumentParser(
        prog="semistab",
        description=(
            "Finite monodromy groups and semi-stability degrees of "
            "y^2 = x^3 + s, Minkowski bounds, p-adic monodromy covers, and "
            "Galois closures of finite covers"
        ),
    )
    parser.add_argument(
        "--plain", action="store_true", help="suppress the version header line"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_line in COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_line), command)
    return parser


def named_command(argv: list[str]) -> str | None:
    """The command argparse will read from argv: argv[0], or argv[1] after
    an exact --plain. None for anything else (help, no command, an
    abbreviation, '--', an unknown word)."""
    i = 1 if argv[:1] == ["--plain"] else 0
    return argv[i] if i < len(argv) and argv[i] in COMMANDS else None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), building less of it.

    A command that named_command finds gets one standalone parser with the
    prog that add_parser gives its sub-parser, "semistab <command>", so its
    help and its errors in its own arguments are the sub-parser's. It reads
    the tokens after the command, as the sub-parser would, into a namespace
    that already holds plain and command. A token it leaves over is an
    error only the top-level parser prints, under its own usage, so that
    argv, like one that names no command, goes to the full parser.
    """
    command = named_command(argv)
    if command is not None:
        plain = argv[0] == "--plain"
        parser = argparse.ArgumentParser(prog=f"semistab {command}")
        _add_arguments(parser, command)
        args, rest = parser.parse_known_args(
            argv[1 + plain:], argparse.Namespace(plain=plain, command=command)
        )
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    try:
        return args.func(args)
    except NotTabulatedError as exc:
        print(f"not tabulated: {exc}", file=sys.stderr)
        return EXIT_NOT_TABULATED
    except (InvalidInputError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except TheoremViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. `| head`). Point stdout at devnull so
        # that the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
