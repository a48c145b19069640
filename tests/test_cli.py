import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semistab.cli
import semistab.curves
import semistab.galois
from semistab import __version__
from semistab.cli import main
from semistab.errors import TheoremViolationError


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
        # Not argparse's "expected one argument": the library refuses the
        # long-form model at 433 (delta = -433) with its own message.
        code, out, err = run(capsys, "curve", "--a=-1,0,0,0,1", "--json")
        assert (code, out) == (2, "")
        assert err == "error: minimalization implemented for short-form curves only\n"


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
        # Not minimal at 5 or at 7: the input and one minimal model at each.
        seen = self.curves_seen(
            monkeypatch, "curve", "--a", f"0,0,0,{-(35**4)},{2 * 35**6}", "--json"
        )
        assert len(seen) == 3
        assert len({id(curve) for curve in seen}) == 3


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

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_nonpositive_degree_rejected(self, capsys, degree):
        code, _, err = run(capsys, "galois", "--degree", degree, "--gens", "()")
        assert code == 2
        assert err.startswith("error: ")

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(closure, sub, reps):
            raise TheoremViolationError("routes disagree")

        monkeypatch.setattr(semistab.galois, "classify_point", broken)
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


class TestArgparse:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["minkowski"])
        assert exc.value.code == 2


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

