import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semistab.cli
import semistab.curves
import semistab.galois
import semistab.monodromy
from semistab import __version__
from semistab.cli import local_data, main
from semistab.errors import SizeLimitError, TheoremViolationError
from semistab.monodromy import (
    DegreeReport,
    LocalMonodromyResult,
    MonodromyGroup,
    family_report,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMinkowski:
    def test_tsv_table(self, capsys):
        code, out, _ = run(capsys, "--plain", "minkowski", "--g", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g\tM(2g)\tCardGL(2g)"
        assert lines[1].split("\t") == ["1", "24", "4608"]
        assert lines[4].split("\t")[1] == "1393459200"

    def test_header_toggle(self, capsys):
        _, out, _ = run(capsys, "minkowski", "--g", "1")
        assert out.splitlines()[0] == f"# semistab {__version__}"
        _, out, _ = run(capsys, "--plain", "minkowski", "--g", "1")
        assert not out.startswith("#")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "minkowski", "--g", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["bound"] == "24"
        assert payload[1]["bound"] == "5760"
        assert payload[0]["gl_mod_12"] == "4608"

    def test_invalid_g(self, capsys):
        code, _, err = run(capsys, "minkowski", "--g", "0")
        assert code == 2
        assert "error" in err

    def test_g9_beyond_float_range(self, capsys):
        # |GL_18(Z/12)| is about 7e348, past the largest float.
        code, out, _ = run(capsys, "minkowski", "--g", "9", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[8]["gl_mod_12_approx"] == "7.3e+348"
        assert payload[1]["gl_mod_12_approx"] == "3.2e+16"

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("g", [31, 32, 1_000_000])
    def test_int_str_digit_limit(self, g, fmt):
        # |GL_64(Z/12)|, in row 32, has 4,420 digits: more than str() prints
        # under the default limit of 4,300.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "semistab", "minkowski", "--g", str(g), "--format", fmt],
            capture_output=True, env=env, timeout=30,
        )
        assert b"Traceback" not in proc.stderr
        if g == 31:
            assert (proc.returncode, proc.stderr) == (0, b"")
            return
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (
            b"error: minkowski: row g = 32 holds a 4420-digit integer, over the "
            b"4300-digit limit of integer string conversion\n"
        )


class TestCurve:
    def test_family_maximal(self, capsys):
        code, out, _ = run(capsys, "curve", "--s", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 24
        assert data["bad_primes"] == [2, 3]
        assert data["divides_minkowski"] is True
        groups = {m["p"]: m["group"] for m in data["monodromy"]}
        assert groups == {2: "SL2(F3)", 3: "Dic3"}

    def test_family_with_tame_prime(self, capsys):
        code, out, _ = run(capsys, "curve", "--s", "5/7", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["bad_primes"] == [2, 3, 5, 7]
        assert data["degree"] % 6 == 0

    def test_not_tabulated_partial_report(self, capsys):
        code, out, _ = run(capsys, "curve", "--s", "8", "--json")
        assert code == 3
        data = json.loads(out)
        assert data["degree"] is None
        by_p = {m["p"]: m for m in data["monodromy"]}
        assert by_p[2]["group"] is None
        assert by_p[3]["group"] == "C4"  # 8 = -1 mod 9

    def test_singular_is_invalid(self, capsys):
        code, _, err = run(capsys, "curve", "--s", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("coeffs", ["0,0,0,0,0", "0,0,0,-3/4,1/4"])
    def test_singular_model_in_input_form(self, capsys, coeffs):
        code, out, err = run(capsys, "curve", "--a", coeffs)
        assert (code, out, err) == (2, "", f"error: singular curve: {coeffs}\n")

    def test_general_curve(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--a", "0,0,0,-1,0", "--json"
        )
        assert code == 3  # delta = 64, bad at 2, outside the family tables
        data = json.loads(out)
        assert data["s"] is None

    def test_general_family_form_dispatches(self, capsys):
        code, out, _ = run(capsys, "curve", "--a", "0,0,0,0,4", "--json")
        assert code == 0
        assert json.loads(out)["degree"] == 24

    def test_human_readable(self, capsys):
        code, out, _ = run(capsys, "--plain", "curve", "--s", "1")
        assert code == 0
        assert "degree d(E) = 12" in out

    def test_non_integral_model_is_invalid(self, capsys):
        # delta = -433 is integral, the coefficient 1/4 is not
        code, out, err = run(capsys, "curve", "--a", "0,0,0,1/4,1", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_bad_coefficient_count(self, capsys):
        code, _, _ = run(capsys, "curve", "--a", "1,2,3")
        assert code == 2

    def test_negative_fraction_attached_with_equals(self, capsys):
        code, out, _ = run(capsys, "curve", "--s=-1/2", "--json")
        assert code == 3  # v2(s) = -1 is outside the 2-adic table
        assert json.loads(out)["s"] == "-1/2"

    def test_negative_first_coefficient_attached_with_equals(self, capsys):
        # Not argparse's "expected one argument": the long-form model is read
        # and answered. delta = -433, and the reduction at 433 is
        # multiplicative, so no prime has nontrivial monodromy.
        code, out, err = run(capsys, "curve", "--a=-1,0,0,0,1", "--json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["delta"], data["monodromy"], data["degree"]) == ("-433", [], 1)


class TestCurveDigitLimit:
    # Delta = -432 s^2 of s = 2^9000 has 5,422 digits, that of s = 1/2^9000
    # a 5,418-digit denominator, and the short-form Delta of a4 = 2^5000 has
    # 4,518 digits: more than str() prints under the default limit of 4,300,
    # though each input has fewer.
    @pytest.mark.parametrize("fmt", [["--json"], []], ids=["json", "text"])
    @pytest.mark.parametrize(
        "arg, digits",
        [
            (f"--s={2**9000}", 5422),
            (f"--s=1/{2**9000}", 5418),
            (f"--a=0,0,0,{2**5000},0", 4518),
        ],
        ids=["s", "1/s", "a4"],
    )
    def test_int_str_digit_limit(self, capsys, fmt, arg, digits):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, "--plain", "curve", arg, *fmt)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err == (
            f"error: curve: delta holds a {digits}-digit integer, over the "
            "4300-digit limit of integer string conversion\n"
        )


class TestInvariantsOncePerCurve:
    @staticmethod
    def curves_seen(monkeypatch, *argv):
        """The curve objects compute_invariants ran on during main(argv)."""
        seen = []
        original = semistab.curves.compute_invariants

        def counting(curve):
            seen.append(curve)
            return original(curve)

        monkeypatch.setattr(semistab.curves, "compute_invariants", counting)
        monkeypatch.setattr(semistab.cli, "compute_invariants", counting)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            # 3: the general curve below is refused at 2 and 3
            assert main(list(argv)) in (0, 3)
        return seen

    @pytest.mark.parametrize("s", ["5", "-3/7", "1000000000000000003"])
    def test_family_call_computes_once(self, monkeypatch, s):
        assert len(self.curves_seen(monkeypatch, "curve", f"--s={s}", "--json")) == 1

    def test_general_call_computes_once_per_curve_object(self, monkeypatch):
        # Not minimal at 5 or at 7: the tame rule reads the input's own
        # valuations, so no minimal model is built.
        seen = self.curves_seen(
            monkeypatch, "curve", "--a", f"0,0,0,{-(35**4)},{2 * 35**6}", "--json"
        )
        assert len(seen) == 1
        assert len({id(curve) for curve in seen}) == 1


class TestSizeLimit:
    # Their discriminants leave a 142- and a 110-bit composite after trial
    # division; splitting either takes far more than factorize's rho budget.
    @pytest.mark.parametrize(
        "coefficients",
        [
            "0,0,0,40933768130512491098956,19577537304",
            "0,0,0,-5569395,102778844094555363365035808",
        ],
    )
    def test_unsplit_discriminant_exits_2(self, coefficients):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "semistab", "curve", "--a", coefficients, "--json"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: factorize: a ")
        assert b"Pollard rho iterations" in proc.stderr
        assert b"Traceback" not in proc.stderr

    # psi_12 and psi_13 of OEIS A014233, the least strong pseudoprimes to the
    # bases 2..37 and to 2..41: the first is split, the second, where no
    # Miller-Rabin base set is proven, refused.
    def test_strong_pseudoprime_is_split(self, capsys):
        code, out, _ = run(capsys, "curve", "--s", "318665857834031151167461", "--json")
        assert code == 0
        assert json.loads(out)["bad_primes"] == [2, 3, 399165290221, 798330580441]

    def test_unproven_prime_exits_2(self, capsys):
        code, out, err = run(capsys, "curve", "--s", "3317044064679887385961981", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: is_prime: a 82-bit number passes Miller-Rabin")


class TestCover:
    def test_tsv(self, capsys):
        code, out, _ = run(
            capsys, "--plain", "cover", "--p", "2", "--min-val", "0",
            "--max-val", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p\tvaluation\tcenter\tmodulus\tgroup\torder"
        assert len(lines) == 6
        assert lines[1].split("\t") == ["2", "0", "1", "2^2", "C3", "3"]

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "cover", "--p", "3", "--min-val", "0", "--max-val", "4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["p"] == 3
        assert len(data["balls"]) == 18
        c4 = [
            (b["center"], b["modulus"])
            for b in data["balls"]
            if b["group"] == "C4"
        ]
        assert set(c4) >= {(1, "3^2"), (8, "3^2"), (27, "3^5"), (216, "3^5")}

    def test_untabulated_prime(self, capsys):
        code, _, err = run(
            capsys, "cover", "--p", "5", "--min-val", "0", "--max-val", "1"
        )
        assert code == 3
        assert "not tabulated" in err

    def test_untabulated_range_text(self, capsys):
        code, out, err = run(
            capsys, "cover", "--p", "2", "--min-val", "-1", "--max-val", "1"
        )
        assert code == 3
        assert out == ""
        assert err == (
            "not tabulated: valuation range -1..1 outside tabulated 0..2\n"
        )

    @pytest.mark.parametrize("p", ["2", "5"])
    def test_reversed_range_exit_2(self, capsys, p):
        code, out, err = run(
            capsys, "cover", "--p", p, "--min-val", "2", "--max-val", "1"
        )
        assert (code, out, err) == (2, "", "error: empty valuation range 2..1\n")

    @pytest.mark.parametrize("p", ["4", "1", "0", "-2"])
    def test_non_prime_exit_2(self, capsys, p):
        code, out, err = run(
            capsys, "cover", "--p", p, "--min-val", "0", "--max-val", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not prime" in err


class TestMissingUnitClass:
    """A table row without one of its unit classes is an internal error
    (exit 4) at the first s that lands in it, not a traceback."""

    @pytest.fixture
    def gap_at_4(self, monkeypatch):
        # s = 4 has v3 = 0 and 4 mod 9 = 4: drop that class from row 0 at 3,
        # and the result of its ball 4 + 3^2 Z_3, built from the row at
        # import, which the lookup reads.
        rows = semistab.monodromy.FAMILY_TABLES[3]
        d, groups = rows[0]
        gap = {u: group for u, group in groups.items() if u != 4}
        monkeypatch.setitem(
            semistab.monodromy.FAMILY_TABLES, 3, ((d, gap),) + rows[1:]
        )
        monkeypatch.delitem(semistab.monodromy._FAMILY_RESULTS[3][0][1], 4)

    def test_curve(self, capsys, gap_at_4):
        code, out, err = run(capsys, "curve", "--s", "4")
        assert (code, out) == (4, "")
        assert err == "internal error: 4 escaped every ball of the cover at 3\n"

    def test_sweep(self, capsys, gap_at_4, tmp_path):
        out_file = tmp_path / "gap.jsonl"
        code, out, err = run(
            capsys, "sweep", "--from", "4", "--to", "4", "--out", str(out_file)
        )
        assert (code, out) == (4, "")
        assert err.startswith("internal error: ")


def oracle_local(entry):
    """One entry of a sweep record's "locals", without the cli's code."""
    return {
        "p": entry.p,
        "group": None if entry.group is None else entry.group.label,
        "order": None if entry.group is None else entry.group.order,
        "provenance": entry.provenance,
    }


def oracle_ball_id(entry):
    """A sweep record's "ball_ids" value at entry.p in {2, 3}, without the
    cli's code: the label center+p^k of the entry's ball, None without one."""
    if entry.ball is None:
        return None
    return f"{entry.ball[0]}+{entry.p}^{entry.ball[1]}"


def table_results(p):
    """The results that monodromy builds once per table ball at p."""
    return [
        result
        for _, row in semistab.monodromy._FAMILY_RESULTS[p]
        for result in row.values()
    ]


def sweep_oracle(s, report):
    """The README's sweep record of s as a dict, built from report =
    family_report(s) (None for s = 0) without the cli's code."""
    if s == 0:
        return {
            "s": "0", "degree": None, "locals": [], "ball_ids": None,
            "note": "singular",
        }
    record = {
        "s": str(s),
        "degree": report.degree,
        "locals": [oracle_local(entry) for entry in report.locals],
        "ball_ids": {
            str(entry.p): oracle_ball_id(entry)
            for entry in report.locals
            if entry.p in (2, 3)
        },
    }
    if report.degree is None:
        record["note"] = "not-tabulated"
    return record


class TestSweep:
    def test_small_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        code, out, _ = run(
            capsys, "sweep", "--from", "1", "--to", "20", "--out", str(out_file)
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["records"] == 20
        assert summary["all_degrees_divide_24"] is True
        assert summary["degree_counts"] == {"12": 16, "24": 2, "not-tabulated": 2}
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [r["s"] for r in records] == [str(s) for s in range(1, 21)]
        by_s = {r["s"]: r for r in records}
        assert by_s["4"]["degree"] == 24
        assert by_s["8"]["note"] == "not-tabulated"
        assert by_s["10"]["ball_ids"]["3"] == "1+3^2"

    @pytest.mark.parametrize("start, stop", [(-1000, 1000), (700000, 700250)])
    def test_bytes_are_json_dumps_of_each_record(self, capsys, tmp_path, start, stop):
        # 700000..700250 is three blocks of SWEEP_BLOCK = 100, the last one
        # partial; -1000..1000 holds s = 0 and refusals at 2 and 3.
        out_file = tmp_path / "b.jsonl"
        code, out, _ = run(
            capsys, "--plain", "sweep", "--from", str(start), "--to", str(stop),
            "--out", str(out_file),
        )
        assert code == 0
        reports = [
            (s, None if s == 0 else family_report(s)) for s in range(start, stop + 1)
        ]
        records = [sweep_oracle(s, report) for s, report in reports]
        assert out_file.read_bytes() == "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ).encode()
        # curve --json and sweep print one entry shape
        for line, (_, report) in zip(out_file.read_text().splitlines(), reports):
            assert json.loads(line)["locals"] == [
                local_data(entry) for entry in (report.locals if report else ())
            ]
        counts: dict[str, int] = {}
        for record in records:
            key = str(record["degree"]) if record["degree"] else "not-tabulated"
            counts[key] = counts.get(key, 0) + 1
        summary = {
            "records": stop - start + 1,
            "degree_counts": dict(sorted(counts.items())),
            "all_degrees_divide_24": all(
                r["degree"] is None or 24 % r["degree"] == 0 for r in records
            ),
        }
        assert out == json.dumps(summary, sort_keys=True) + "\n"

    def test_strings_are_escaped_as_json_dumps_does(
        self, capsys, monkeypatch, tmp_path
    ):
        # No real provenance needs escaping; a refusal's text is free-form.
        provenance = 'refused: "v2 = 9" \\ next\nline\ttab \u00e9 \u2028 \x01'
        report = DegreeReport(
            Fraction(5),
            (
                LocalMonodromyResult(2, None, provenance),
                LocalMonodromyResult(3, MonodromyGroup.DIC3, "family-table-3", (5, 2)),
            ),
            None,
        )
        monkeypatch.setattr(semistab.cli, "family_report", lambda s: report)
        out_file = tmp_path / "x.jsonl"
        code, _, _ = run(
            capsys, "sweep", "--from", "5", "--to", "5", "--out", str(out_file)
        )
        assert code == 0
        assert out_file.read_bytes() == (
            json.dumps(sweep_oracle(5, report), sort_keys=True) + "\n"
        ).encode()

    def test_entry_fragments_are_json_dumps_of_local_data(self):
        # Every key, C1 and good-reduction too, which no sweep range here
        # reaches; the keys are exactly the pairs the result's check admits.
        groups = {group.label: group for group in MonodromyGroup}
        admitted = set()
        for group in MonodromyGroup:
            for provenance in (
                "family-table-2", "family-table-3", "tame-rule", "good-reduction"
            ):
                for p in (2, 3, 5):
                    with contextlib.suppress(TheoremViolationError):
                        LocalMonodromyResult(p, group, provenance)
                        admitted.add((group.label, provenance))
        assert set(semistab.cli._ENTRY_FORMATS) == admitted
        for (label, provenance), fmt in semistab.cli._ENTRY_FORMATS.items():
            for p in (2, 3, 5, 10**40 + 1):
                entry = SimpleNamespace(p=p, group=groups[label], provenance=provenance)
                assert fmt % p == json.dumps(local_data(entry), sort_keys=True)

    def test_table_fragments_are_json_dumps_of_the_oracle(self):
        # One dict per p in {2, 3}, keyed by exactly the balls of the results
        # that monodromy builds once per table ball; each value holds that
        # very result and its two fragments, built here by the oracle.
        fragments = semistab.cli._TABLE_FRAGMENTS
        assert set(fragments) == {2, 3}
        for p in (2, 3):
            results = table_results(p)
            assert len(fragments[p]) == len(results)
            assert set(fragments[p]) == {result.ball for result in results}
            for result in results:
                stored, ball_item, entry_text = fragments[p][result.ball]
                assert stored is result
                assert "{%s}" % ball_item == json.dumps(
                    {str(p): oracle_ball_id(result)}
                )
                assert entry_text == json.dumps(oracle_local(result), sort_keys=True)

    def test_every_branch_is_json_dumps_of_its_record(self):
        # s = +-2^a 3^b u with u prime to 6 in each of its 12 classes mod 36:
        # every table ball at 2 and 3 (a <= 2, b <= 5), the twisted balls
        # (built per call) at 2 (a >= 6) and at 3 (b >= 6), and the refusals
        # at 2 (a in 3..5).
        table = {
            (p, result.ball): result for p in (2, 3) for result in table_results(p)
        }
        rng = random.Random(42)
        reached = set()
        twisted = {2: 0, 3: 0}
        refused = 0
        for a in range(9):
            for b in range(14):
                for r in (1, 5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35):
                    for sign in (1, -1):
                        s = sign * 2**a * 3**b * (r + 36 * rng.randrange(10**4))
                        report = family_report(s)
                        assert semistab.cli.sweep_record(s) == (
                            json.dumps(sweep_oracle(s, report), sort_keys=True)
                            + "\n",
                            report.degree,
                        )
                        for entry in report.locals:
                            if table.get((entry.p, entry.ball)) is entry:
                                reached.add((entry.p, entry.ball))
                            elif entry.p in twisted and entry.group is not None:
                                twisted[entry.p] += 1
                            elif entry.p == 2:
                                refused += 1
        assert reached == set(table)
        assert twisted == {2: 3 * 14 * 12 * 2, 3: 8 * 9 * 12 * 2}
        assert refused == 3 * 14 * 12 * 2

    def test_thread_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "sweep", "--from", "-30", "--to", "60", "--out", str(a))
        run(
            capsys, "sweep", "--from", "-30", "--to", "60", "--out", str(b),
            "--threads", "8",
        )
        assert a.read_bytes() == b.read_bytes()

    def test_zero_is_marked_singular(self, capsys, tmp_path):
        out_file = tmp_path / "z.jsonl"
        run(capsys, "sweep", "--from", "0", "--to", "0", "--out", str(out_file))
        record = json.loads(out_file.read_text())
        assert record["note"] == "singular"
        assert record["degree"] is None

    def test_empty_range(self, capsys, tmp_path):
        out_file = tmp_path / "e.jsonl"
        code, out, _ = run(
            capsys, "sweep", "--from", "5", "--to", "4", "--out", str(out_file)
        )
        assert code == 0
        assert json.loads(out)["records"] == 0
        assert out_file.read_text() == ""

    def test_zero_step_is_invalid_input(self, tmp_path):
        out_file = tmp_path / "x.jsonl"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "semistab", "sweep", "--from", "1", "--to", "2",
             "--step", "0", "--out", str(out_file)],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == b"error: --step must not be 0\n"
        assert not out_file.exists()

    def test_negative_step(self, capsys, tmp_path):
        # range(5, 2, -2): the end point stays exclusive on the far side.
        out_file = tmp_path / "n.jsonl"
        code, out, _ = run(
            capsys, "sweep", "--from", "5", "--to", "1", "--step", "-2",
            "--out", str(out_file),
        )
        assert code == 0
        assert json.loads(out)["records"] == 2
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [r["s"] for r in records] == ["3", "5"]

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--from", "1", "--to", "1",
            "--out", str(tmp_path / "missing" / "x.jsonl"),
        )
        assert code == 2
        assert "cannot write" in err

    def test_unwritable_output_refused_before_any_record(
        self, capsys, monkeypatch, tmp_path
    ):
        def never(s):
            raise AssertionError("a record was computed")

        monkeypatch.setattr(semistab.cli, "sweep_record", never)
        code, out, err = run(
            capsys, "sweep", "--from", "1", "--to", "5",
            "--out", str(tmp_path / "missing" / "x.jsonl"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write ")

    def test_memory_does_not_grow_with_the_range(self, capsys, tmp_path):
        # Records are written a block at a time: 20,000 records held in a
        # list take about 28 MiB, a block of SWEEP_BLOCK = 100 about 0.4 MiB.
        out_file = tmp_path / "m.jsonl"
        run(capsys, "sweep", "--from", "1", "--to", "2", "--out", str(out_file))
        tracemalloc.start()
        try:
            code, out, _ = run(
                capsys, "sweep", "--from", "1", "--to", "20000",
                "--out", str(out_file),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["records"] == 20000
        assert peak < 2 * 2**20


class TestGalois:
    def test_s3_summary(self, capsys):
        code, out, _ = run(
            capsys, "galois", "--degree", "3", "--gens", "(1 2);(1 2 3)",
            "--json", "--check-all",
        )
        assert code == 0
        data = json.loads(out)
        assert data["orbit_size"] == 6
        assert data["deck_group_order"] == 6
        assert data["subgroup_count"] == 6
        assert data["classified_subgroups"] == 6
        assert sorted(c["order"] for c in data["classes"]) == [1, 2, 3, 6]

    def test_human_readable(self, capsys):
        code, out, _ = run(
            capsys, "--plain", "galois", "--degree", "4", "--gens", "(1 2 3 4)"
        )
        assert code == 0
        assert "deck group order 4" in out

    def test_disconnected_rejected(self, capsys):
        code, _, err = run(capsys, "galois", "--degree", "4", "--gens", "(1 2)")
        assert code == 2
        assert "error" in err

    def test_bad_cycle_text(self, capsys):
        code, _, _ = run(capsys, "galois", "--degree", "3", "--gens", "(1 9)")
        assert code == 2

    def test_no_generators_rejected(self, capsys):
        code, out, err = run(capsys, "galois", "--degree", "3", "--gens", ";")
        assert code == 2
        assert out == ""
        assert err == "error: at least one generator required\n"

    @pytest.mark.parametrize("gens", ["(1 a)", "1,x", "(1 2 3)(4", "(1 2)(1 2)"])
    def test_malformed_cycles_exit_2(self, gens):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "semistab", "galois", "--degree", "3",
             "--gens", gens],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: ")
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("degree", [11, 10**12])
    def test_degree_over_limit_refused_before_parsing(self, degree):
        # The fiber of a degree-10^12 cover does not fit in the child's
        # 512 MiB of address space; the limit must be checked first.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "semistab", "galois", "--degree", str(degree),
             "--gens", "(1 2)"],
            capture_output=True, env=env, timeout=60, preexec_fn=limit_memory,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: degree {degree} exceeds limit 10\n".encode()

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_nonpositive_degree_rejected(self, capsys, degree):
        code, _, err = run(capsys, "galois", "--degree", degree, "--gens", "()")
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("degree", [0, -3])
    def test_nonpositive_degree_refused_before_parsing(self, capsys, degree):
        # A point of "(1 2)" lies outside 1..degree; the degree is refused
        # first, with the cover's own message.
        code, out, err = run(capsys, "galois", "--degree", str(degree), "--gens", "(1 2)")
        assert code == 2
        assert out == ""
        assert err == f"error: cover degree must be at least 1, got {degree}\n"

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(closure, sub, reps):
            raise TheoremViolationError("routes disagree")

        monkeypatch.setattr(semistab.cli, "classify_point", broken)
        code, out, err = run(
            capsys, "galois", "--degree", "3", "--gens", "(1 2);(1 2 3)",
            "--check-all", "--json",
        )
        assert code == 4
        assert out == ""
        assert err == "internal error: routes disagree\n"


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "--plain", "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "verification OK"
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert len(lines) - 1 == 8

    def test_raising_check_fails(self, capsys, monkeypatch):
        # A row whose check raises a SemistabError prints FAIL; the rest run.
        def refused(n, m):
            raise SizeLimitError("refused")

        monkeypatch.setattr(semistab.cli, "gl_cardinality", refused)
        code, out, _ = run(capsys, "--plain", "verify")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[-1] == "verification FAILED"
        failed = [line for line in lines[:-1] if line.startswith("FAIL")]
        assert [line.split("  ")[1] for line in failed] == [
            "gl cardinality: GL_2(Z/12) has 4608 elements",
            "gl cardinality mod 12 rounds to 3.2e16, 1.2e38, 1.9e68",
        ]
        assert len(lines) - 1 == 8


class TestArgparse:
    # The full parser names the command positional "command" in these errors.
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "error: argument command: invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: command\n"
        )

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["minkowski"])
        assert exc.value.code == 2


def readme_cli_commands() -> list[str]:
    """The `semistab ...` lines of the README's CLI example block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("semistab ")]


class TestReadmeExamples:
    # README command -> exit code: the 142-bit composite is over the rho
    # budget (exit 2, invalid input); every other example succeeds.
    EXIT_CODES = {
        "semistab minkowski --g 4": 0,
        "semistab curve --s 4 --json": 0,
        "semistab curve --a=-1,0,0,0,1 --json": 0,
        "semistab curve --a 0,0,0,40933768130512491098956,19577537304 --json": 2,
        "semistab cover --p 3 --min-val 0 --max-val 4": 0,
        "semistab sweep --from 1 --to 2000 --out sweep.jsonl": 0,
        "semistab galois --degree 3 --gens '(1 2);(1 2 3)' --check-all": 0,
        "semistab verify": 0,
    }
    # the degrees the README's comments state
    DEGREES = {
        "semistab curve --s 4 --json": 24,
        "semistab curve --a=-1,0,0,0,1 --json": 1,
    }

    def test_table_lists_every_example(self):
        assert readme_cli_commands() == list(self.EXIT_CODES)

    @pytest.mark.parametrize("command", list(EXIT_CODES))
    def test_example_runs(self, capsys, monkeypatch, tmp_path, command):
        # sweep writes its --out file relative to the working directory
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *shlex.split(command)[1:])
        assert code == self.EXIT_CODES[command]
        if command in self.DEGREES:
            assert json.loads(out)["degree"] == self.DEGREES[command]


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self):
        # A pipe whose read end is already closed: the first write fails,
        # as it does once `| head -c 50` has read its bytes and exited.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "semistab", "minkowski", "--g", "9",
                 "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141



# Malformed or edge argvs, each run as `python -m semistab` in a fresh
# process, across all six commands, with the exit code each ends in: parse
# errors, values the library refuses (2) or leaves untabulated (3), size
# limits, unwritable paths, and inputs accepted leniently (1_000, ' 5').
_PROBE_EXITS = {
    ("curve", "--s", "0"): 2, ("curve", "--s", "1/0"): 2, ("curve", "--s", "abc"): 2,
    ("curve", "--s", "1.5"): 2, ("curve", "--s", ""): 2, ("curve", "--s", "1_000"): 3,
    ("curve", "--s", " 5"): 0, ("curve", "--s=-0/7"): 2, ("curve", "--a", "0,0,0,0,0"): 2,
    ("curve", "--a", "1,2,3"): 2, ("curve", "--a", "0,0,0,1/2,1"): 2,
    ("curve", "--a", "0,0,1,0,0"): 3, ("curve", "--s", "2" + "0" * 4400): 2, ("curve",): 2,
    ("curve", "--s", "1", "--a", "0,0,0,1,1"): 2, ("curve", "--s", "1", "--plain"): 2,
    ("cover", "--p", "4", "--min-val", "0", "--max-val", "2"): 2,
    ("cover", "--p", "5", "--min-val", "0", "--max-val", "2"): 3,
    ("cover", "--p", "2", "--min-val", "3", "--max-val", "1"): 2,
    ("cover", "--p", "-3", "--min-val", "0", "--max-val", "1"): 2,
    ("cover", "--p", "3", "--min-val", "-2", "--max-val", "9"): 3,
    ("minkowski", "--g", "0"): 2, ("minkowski", "--g", "-1"): 2, ("minkowski", "--g", "32"): 2,
    ("minkowski", "--g", "2", "--gl-mod", "0"): 2, ("minkowski", "--g", "2", "--gl-mod", "1"): 0,
    ("minkowski", "--g", "x"): 2,
    ("sweep", "--from", "1", "--to", "5", "--step", "0", "--out", "x"): 2,
    ("sweep", "--from", "1", "--to", "5", "--out", "missing/x"): 2,
    ("sweep", "--from", "1", "--to", "3", "--out", "."): 2,
    ("sweep", "--from", "5", "--to", "1", "--out", "x"): 0,
    ("sweep", "--from", "-3", "--to", "3", "--threads", "0", "--out", "x"): 0,
    ("galois", "--degree", "0", "--gens", "()"): 2,
    ("galois", "--degree", "3", "--gens", "(1 4)"): 2,
    ("galois", "--degree", "3", "--gens", "(1 a)"): 2,
    ("galois", "--degree", "3", "--gens", ""): 2,
    ("galois", "--degree", "3", "--gens", "(1 2)(1 2)"): 2,
    ("galois", "--degree", "8", "--gens", "(1 2);(1 2 3 4 5 6 7 8)"): 2,
    ("verify",): 0, ("verify", "extra"): 2, ("--plain", "verify"): 0, (): 2,
    ("frobnicate",): 2, ("--help",): 0,
}


class TestNoTraceback:
    @pytest.mark.parametrize("argv", list(_PROBE_EXITS), ids=lambda argv: " ".join(argv)[:60])
    def test_exits_without_traceback(self, tmp_path, argv):
        # sweep's relative --out paths land in tmp_path
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "semistab", *argv],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode in {0, 1, 2, 3, 141}
        assert proc.returncode == _PROBE_EXITS[argv], proc.stderr

_RATIONAL_TEXT = st.one_of(
    st.integers(-(10**18), 10**18).map(str),
    st.builds(
        lambda num, den: f"{num}/{den}",
        st.integers(-(10**18), 10**18),
        st.integers(-1000, 1000),
    ),
    st.sampled_from(["", "x", "1.5", "1/2/3", "0"]),
)


@st.composite
def _galois_argv(draw):
    # Two generators of degree 6 usually generate A6 or S6, whose lattice
    # takes tens of seconds; degree 6 gets one generator.
    degree = draw(st.integers(-1, 6))
    count = draw(st.integers(1, 2 if degree <= 5 else 1))
    points = list(range(max(degree, 0)))
    gens = [
        semistab.galois.format_cycles(tuple(draw(st.permutations(points))))
        for _ in range(count)
    ]
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(["(1 9)", "(1 a)", "(1 2)(1 2)", "()"])))
    argv = ["galois", "--degree", str(degree), "--gens", ";".join(gens)]
    return argv + draw(st.sampled_from([[], ["--json"], ["--check-all"], ["--check-all", "--json"]]))


def _argv(out: Path):
    return st.one_of(
        st.builds(
            lambda g, mod, fmt: ["minkowski", "--g", str(g), "--gl-mod", str(mod), "--format", fmt],
            st.integers(-2, 40), st.integers(-2, 60), st.sampled_from(["tsv", "json"]),
        ),
        st.builds(
            lambda s, json_flag: ["curve", f"--s={s}"] + json_flag,
            _RATIONAL_TEXT, st.sampled_from([[], ["--json"]]),
        ),
        st.builds(
            lambda coefficients, json_flag: ["curve", "--a=" + ",".join(coefficients)] + json_flag,
            st.lists(
                st.one_of(st.integers(-50, 50).map(str), _RATIONAL_TEXT),
                min_size=4, max_size=6,
            ),
            st.sampled_from([[], ["--json"]]),
        ),
        st.builds(
            lambda p, low, high, fmt: [
                "cover", "--p", str(p), "--min-val", str(low), "--max-val", str(high),
                "--format", fmt,
            ],
            st.integers(-3, 12), st.integers(-3, 8), st.integers(-3, 8),
            st.sampled_from(["tsv", "json"]),
        ),
        st.builds(
            lambda start, span, step, threads: [
                "sweep", "--from", str(start), "--to", str(start + span),
                "--step", str(step), "--out", str(out), "--threads", str(threads),
            ],
            st.integers(-(10**6), 10**6), st.integers(-5, 200), st.integers(-5, 5),
            st.integers(1, 4),
        ),
        _galois_argv(),
        st.just(["verify"]),
    )


class TestFuzzMain:
    @given(data=st.data())
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_exit_codes(self, tmp_path, data):
        argv = data.draw(_argv(tmp_path / "sweep.jsonl"))
        if data.draw(st.booleans()):
            argv = ["--plain"] + argv
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                # Only argparse may exit: the innermost frame is its own.
                tb = exc.__traceback__
                while tb.tb_next is not None:
                    tb = tb.tb_next
                assert tb.tb_frame.f_code.co_filename == argparse.__file__, argv
                code = exc.code
        assert code in {0, 1, 2, 3, 4, 141}, argv



# Each case is parsed as main parses it (a named command's own parser, and
# the full parser when that leaves a token over) and by the full parser.
# They cover help, errors, --plain, abbreviations and '--'; the lines that
# reach the top-level parser's usage after a command (an unrecognized
# argument) fail if they are printed under the command's usage instead.
PARITY_ARGV = [
    [], ["-h"], ["--help"], ["--plain"], ["--plain", "-h"], ["-h", "curve"],
    ["--pl", "curve", "--s", "1"], ["--p", "curve", "--s", "1"], ["--plain=1", "curve"],
    ["--plain", "--plain", "curve", "--s", "1"], ["--json", "curve", "--s", "1"],
    ["--", "curve", "--s", "1"], ["frobnicate"], ["--plain", "frobnicate"],
    ["CURVE", "--s", "1"], ["curv", "--s", "1"],
    ["curve"], ["curve", "--s"], ["curve", "--json"], ["curve", "-h"], ["--plain", "curve", "-h"],
    ["curve", "--s", "1", "-h"], ["curve", "--s", "1"], ["curve", "--s", "1", "--json"],
    ["--plain", "curve", "--s", "1"], ["curve", "--s", "1", "--plain"],
    ["curve", "--s", "1", "--js"], ["curve", "--s", "1", "--a", "0,0,0,1,1"],
    ["curve", "--s=-1/2", "--json"], ["curve", "--a", "0,0,0,1,1", "--json"],
    ["curve", "--s", "1", "--bogus"], ["curve", "--", "--s", "1"],
    ["minkowski"], ["minkowski", "--g", "3"], ["minkowski", "--g", "x"],
    ["minkowski", "--g", "3", "--format", "xml"],
    ["cover", "--p", "2", "--min-val", "0", "--max-val", "2"], ["cover", "--p", "2"],
    ["sweep", "--from", "1"], ["--plain", "sweep", "--from", "1", "--to", "9", "--out", "x"],
    ["galois", "--degree", "3", "--gens", "(1 2 3)"],
    ["galois", "--degree", "4", "--gens", "(1 2);(1 2 3 4)", "--check-all", "--json"],
    ["--plain", "verify"], ["verify", "extra"], ["--plain", "sweep", "-h"],
] + [
    [command, "--help"]
    for command in ("minkowski", "curve", "cover", "sweep", "galois", "verify")
]


def _parse(parse, argv):
    """What parse(argv) makes of argv: the namespace, or the exit code; with
    what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _assert_parity(argv):
    full = _parse(lambda argv: semistab.cli.build_parser().parse_args(argv), argv)
    assert _parse(semistab.cli._parse_args, argv) == full, argv


# Tokens that move argv off the one-command path, or into an error.
_STRAY_TOKENS = ["-h", "--help", "--plain", "--pl", "--", "frobnicate", "--js", "--s", "-x"]


class TestParserParity:
    @pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
    def test_one_command_parser_parses_like_the_full_one(self, argv):
        _assert_parity(argv)

    @given(data=st.data())
    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fuzzed_argv(self, tmp_path, data):
        argv = data.draw(_argv(tmp_path / "sweep.jsonl"))
        if data.draw(st.booleans()):
            argv = ["--plain"] + argv
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(argv)))
            argv.insert(at, data.draw(st.sampled_from(_STRAY_TOKENS)))
        _assert_parity(argv)


class TestParserConstruction:
    @staticmethod
    def parsers_built(monkeypatch, argv):
        """The progs of the parsers main(argv) constructs."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                main(argv)
            except SystemExit:
                pass
        return built

    def test_named_command_builds_one(self, monkeypatch, tmp_path):
        built = self.parsers_built(monkeypatch, ["curve", "--s", "1", "--json"])
        assert built == ["semistab curve"]
        sweep = ["--plain", "sweep", "--from", "1", "--to", "5", "--out", str(tmp_path / "o")]
        assert self.parsers_built(monkeypatch, sweep) == ["semistab sweep"]

    @pytest.mark.parametrize(
        "argv", [["curve", "--s", "1", "--plain"], ["curve", "--s", "1", "--bogus"]],
        ids=" ".join,
    )
    def test_stray_token_builds_one_then_all_seven(self, monkeypatch, argv):
        built = self.parsers_built(monkeypatch, argv)
        assert built[:2] == ["semistab curve", "semistab"]
        assert len(built) == 1 + 7

    @pytest.mark.parametrize(
        "argv", [["--help"], [], ["frobnicate"], ["--pl", "curve", "--s", "1"]], ids=" ".join
    )
    def test_other_argv_builds_all_seven(self, monkeypatch, argv):
        assert len(self.parsers_built(monkeypatch, argv)) == 7


class TestTracedNames:
    """bench/tracing.py wraps the functions it names by getattr on the
    package's modules, so a renamed or deleted one breaks the traced runs.
    The file is parsed, not imported, so the test leaves bench/ untouched."""

    def test_every_traced_name_is_a_package_callable(self):
        source = Path(__file__).parents[1] / "bench" / "tracing.py"
        lists = {
            node.targets[0].id: ast.literal_eval(node.value)
            for node in ast.parse(source.read_text()).body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("SPANNED", "COUNTED")
        }
        assert set(lists) == {"SPANNED", "COUNTED"}
        for module, name in lists["SPANNED"] + lists["COUNTED"]:
            fn = getattr(importlib.import_module(f"semistab.{module}"), name, None)
            assert callable(fn), f"{module}.{name}"


class TestCurveLargeShape:
    """Seeded `curve --json` calls in the benchmark's proportions (60% --s=N,
    20% --s=num/den, 20% short-form --a).
    The short-form coefficients have the benchmark's sizes; |s| stays at or
    below 10^15, where rho is cheap. Each call prints one JSON object that
    agrees with its exit code and, for the family, with the library."""

    @staticmethod
    def inputs(rng, count):
        def sign():
            return rng.choice((1, -1))

        for _ in range(count):
            r = rng.random()
            if r < 0.2:
                while True:
                    a4, a6 = sign() * rng.randrange(1, 10**6), sign() * rng.randrange(1, 10**9)
                    if 4 * a4**3 + 27 * a6**2 != 0:
                        break
                yield ["curve", "--a", f"0,0,0,{a4},{a6}", "--json"], None
            elif r < 0.4:
                den = rng.randrange(2, 1000)
                num = sign() * rng.randrange(1, 10**15 + 1)
                yield ["curve", f"--s={num}/{den}", "--json"], Fraction(num, den)
            else:
                num = sign() * rng.randrange(1, 10**15 + 1)
                yield ["curve", f"--s={num}", "--json"], Fraction(num)

    def test_each_call_prints_one_consistent_object(self, capsys):
        for argv, s in self.inputs(random.Random(17), 200):
            code = main(argv)
            out = capsys.readouterr().out
            assert code in (0, 3), argv
            assert out.count("\n") == 1, argv
            data = json.loads(out)
            assert isinstance(data, dict), argv
            refused = [m for m in data["monodromy"] if m["group"] is None]
            assert bool(refused) == (code == 3), argv
            if code == 0 and s is not None:
                degree = semistab.monodromy.semistability_degree(s).degree
                assert data["degree"] == degree and 24 % degree == 0, argv
