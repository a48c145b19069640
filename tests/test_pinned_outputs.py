"""Byte-exact CLI outputs, recorded before the family pipeline moved into
the monodromy module (curve, sweep) and before the reduction tables at 2 and
3 moved into FAMILY_TABLES (cover); any change to these bytes is a change of
behaviour."""

import hashlib
from pathlib import Path

import pytest

from semistab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CURVE_JSON = {
    "4": (
        0,
        '{"bad_primes": [2, 3], "degree": 24, "delta": "-6912", '
        '"divides_minkowski": true, "monodromy": [{"group": "SL2(F3)", '
        '"order": 24, "p": 2, "provenance": "family-table-2"}, '
        '{"group": "Dic3", "order": 12, "p": 3, "provenance": '
        '"family-table-3"}], "s": "4"}',
    ),
    "8": (
        3,
        '{"bad_primes": [2, 3], "degree": null, "delta": "-27648", '
        '"divides_minkowski": null, "monodromy": [{"group": null, '
        '"order": null, "p": 2, "provenance": "v2(s) = 3 outside '
        'tabulated range 0..2"}, {"group": "C4", "order": 4, "p": 3, '
        '"provenance": "family-table-3"}], "s": "8"}',
    ),
    # 1944 = 2^3 * 3^5: refused at 2 (exit 3), Dic3 at 3.
    "1944": (
        3,
        '{"bad_primes": [2, 3], "degree": null, "delta": "-1632586752", '
        '"divides_minkowski": null, "monodromy": [{"group": null, '
        '"order": null, "p": 2, "provenance": "v2(s) = 3 outside '
        'tabulated range 0..2"}, {"group": "Dic3", "order": 12, "p": 3, '
        '"provenance": "family-table-3"}], "s": "1944"}',
    ),
    "-27/5": (
        0,
        '{"bad_primes": [2, 3, 5], "degree": 12, "delta": "-314928/25", '
        '"divides_minkowski": true, "monodromy": [{"group": "C3", '
        '"order": 3, "p": 2, "provenance": "family-table-2"}, {"group": '
        '"Dic3", "order": 12, "p": 3, "provenance": "family-table-3"}, '
        '{"group": "C6", "order": 6, "p": 5, "provenance": "tame-rule"}], '
        '"s": "-27/5"}',
    ),
    # 7 * 5^6: good at 5 after the sextic rescaling.
    "109375": (
        0,
        '{"bad_primes": [2, 3, 7], "degree": 12, "delta": "-5167968750000", '
        '"divides_minkowski": true, "monodromy": [{"group": "C6", '
        '"order": 6, "p": 2, "provenance": "family-table-2"}, {"group": '
        '"Dic3", "order": 12, "p": 3, "provenance": "family-table-3"}, '
        '{"group": "C6", "order": 6, "p": 7, "provenance": "tame-rule"}], '
        '"s": "109375"}',
    ),
    "1/64": (
        3,
        '{"bad_primes": [2, 3], "degree": null, "delta": "-27/256", '
        '"divides_minkowski": null, "monodromy": [{"group": null, '
        '"order": null, "p": 2, "provenance": "v2(s) = -6 outside '
        'tabulated range 0..2"}, {"group": "C4", "order": 4, "p": 3, '
        '"provenance": "family-table-3"}], "s": "1/64"}',
    ),
}


REFUSED_AT_2 = (
    '{"group": null, "order": null, "p": 2, "provenance": "monodromy at 2 '
    'is tabulated only for family curves y^2 = x^3 + s"}'
)

CURVE_GENERAL_JSON = {
    # delta = -368 = -2^4 * 23: refused at 2, multiplicative (omitted) at 23.
    "0,0,0,-1,1": (
        3,
        '{"bad_primes": [2], "degree": null, "delta": "-368", '
        '"divides_minkowski": null, "monodromy": [' + REFUSED_AT_2 + '], '
        '"s": null}',
    ),
    # delta = -459 = -3^3 * 17: refused at 3 only, multiplicative at 17.
    "0,0,1,-6,-6": (
        3,
        '{"bad_primes": [3], "degree": null, "delta": "-459", '
        '"divides_minkowski": null, "monodromy": [{"group": null, '
        '"order": null, "p": 3, "provenance": "monodromy at 3 is tabulated '
        'only for family curves y^2 = x^3 + s"}], "s": null}',
    ),
    # delta = 8000 = 2^6 * 5^3: C4 at 5 by the tame rule.
    "0,0,0,-5,0": (
        3,
        '{"bad_primes": [2, 5], "degree": null, "delta": "8000", '
        '"divides_minkowski": null, "monodromy": [' + REFUSED_AT_2 + ', '
        '{"group": "C4", "order": 4, "p": 5, "provenance": "tame-rule"}], '
        '"s": null}',
    ),
    # a long-form model, delta = -433, multiplicative at 433: degree 1.
    "-1,0,0,0,1": (
        0,
        '{"bad_primes": [], "degree": 1, "delta": "-433", '
        '"divides_minkowski": null, "monodromy": [], "s": null}',
    ),
    # The twist by 23 of y^2 = x^3 - x + 1: C2 at 23.
    "0,0,0,-529,12167": (
        3,
        '{"bad_primes": [2, 23], "degree": null, "delta": "-54477207152", '
        '"divides_minkowski": null, "monodromy": [' + REFUSED_AT_2 + ', '
        '{"group": "C2", "order": 2, "p": 23, "provenance": "tame-rule"}], '
        '"s": null}',
    ),
    # One step (x, y) -> (5^2 x, 5^3 y) above y^2 = x^3 + x + 1, which is
    # good at 5: no entry there.
    "0,0,0,625,15625": (
        3,
        '{"bad_primes": [2], "degree": null, "delta": "-121093750000", '
        '"divides_minkowski": null, "monodromy": [' + REFUSED_AT_2 + '], '
        '"s": null}',
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("s", sorted(CURVE_JSON))
def test_curve_family_json(capsys, s):
    code, out = run(capsys, "curve", f"--s={s}", "--json")
    assert (code, out) == (CURVE_JSON[s][0], CURVE_JSON[s][1] + "\n")


@pytest.mark.parametrize("a", list(CURVE_GENERAL_JSON))
def test_curve_general_json(capsys, a):
    code, out = run(capsys, "curve", f"--a={a}", "--json")
    assert (code, out) == (CURVE_GENERAL_JSON[a][0], CURVE_GENERAL_JSON[a][1] + "\n")


def test_sweep_jsonl_and_summary(capsys, tmp_path):
    out_file = tmp_path / "sweep.jsonl"
    code, out = run(
        capsys, "--plain", "sweep", "--from", "-30", "--to", "60",
        "--out", str(out_file),
    )
    assert code == 0
    assert out == (
        '{"all_degrees_divide_24": true, "degree_counts": {"12": 74, '
        '"24": 6, "not-tabulated": 11}, "records": 91}\n'
    )
    assert out_file.read_bytes() == (GOLDEN / "sweep_-30_60.jsonl").read_bytes()


# The file's sha256, recorded before a table ball's fragments at 2 and 3
# were looked up instead of formatted per record. -1500..1500 reaches what
# the golden -30..60 file does not: v3(s) = 6 (+-729, +-1458), a twisted
# ball at 3, and v2(s) >= 6.
SWEEP_1500_SHA256 = "542b7a09789dd11f67b80e2428427d1b67bc07935b6545d9bd8bc2e760795005"


def test_sweep_wide_range_digest_and_summary(capsys, tmp_path):
    out_file = tmp_path / "sweep.jsonl"
    code, out = run(
        capsys, "--plain", "sweep", "--from", "-1500", "--to", "1500",
        "--out", str(out_file),
    )
    assert code == 0
    assert out == (
        '{"all_degrees_divide_24": true, "degree_counts": {"12": 2438, '
        '"24": 188, "not-tabulated": 375}, "records": 3001}\n'
    )
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == SWEEP_1500_SHA256


# The file's sha256, recorded before a twisted ball at 3 became its row's
# result with s's own ball and before the ball label moved into the cli.
# s = 729 m for |m| <= 1458 has v3(s) = 6..12, past the -1500..1500 range:
# twisted balls at 3 with exponents 8, 9, 11, 12 and 14, and s = 0.
SWEEP_STEP_729_SHA256 = "3d54632588e73f846c3822e1a2a77d62236656066ff216111d0e28027ba12e58"


def test_sweep_step_729_digest_and_summary(capsys, tmp_path):
    out_file = tmp_path / "sweep.jsonl"
    code, out = run(
        capsys, "--plain", "sweep", "--from", "-1062882", "--to", "1062882",
        "--step", "729", "--out", str(out_file),
    )
    assert code == 0
    assert out == (
        '{"all_degrees_divide_24": true, "degree_counts": {"12": 2370, '
        '"24": 182, "not-tabulated": 365}, "records": 2917}\n'
    )
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == SWEEP_STEP_729_SHA256


COVER_GOLDEN = {
    ("cover", "--p", "2", "--min-val", "0", "--max-val", "2", "--format", "json"):
        "cover_p2_0_2.json",
    ("cover", "--p", "3", "--min-val", "0", "--max-val", "4", "--format", "json"):
        "cover_p3_0_4.json",
    ("--plain", "cover", "--p", "3", "--min-val", "1", "--max-val", "3"):
        "cover_p3_1_3.tsv",
}


@pytest.mark.parametrize("argv", sorted(COVER_GOLDEN), ids=lambda a: " ".join(a))
def test_cover_outputs(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / COVER_GOLDEN[argv]).read_bytes()
