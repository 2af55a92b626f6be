import json
import subprocess
import sys
from pathlib import Path

import pytest

import polytheta
from polytheta.checks import FAMILIES
from polytheta.cli import VERIFIERS, main
from polytheta.counting import NON_NEGATIVE


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_polygonal_range(capsys):
    # r(1) counts the coordinates of weight 1 that can take p_m(1) = 1
    for m, alpha, r1 in [(6, "1,1,1,1", 4), (5, "2,1,1,1", 3)]:
        code, out = run_cli(capsys, "count", "--m", str(m), "--alpha", alpha,
                            "--n", "0..40", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        rows = data["rows"]
        assert [r["n"] for r in rows] == list(range(41))
        assert (rows[0]["r"], rows[1]["r"]) == (1, r1)
        # completed-square columns agree with the polygonal ones on every row
        for row in rows:
            assert row["s"] == row["r"], (m, row)
            assert row["s_star"] == row["r_star"], (m, row)


def test_count_jacobi_example(capsys):
    code, out = run_cli(capsys, "count", "--m", "4", "--alpha", "1,1,1,1",
                        "--domain", "all", "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["r_star"] == 8


def test_count_squares_example(capsys):
    code, out = run_cli(capsys, "count", "--squares", "--r", "1", "--M", "2",
                        "--alpha", "1,1,1,1", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["s_star"] == 16


def test_count_table_format(capsys):
    code, out = run_cli(capsys, "count", "--m", "6", "--n", "0..3")
    assert code == 0
    assert out.splitlines()[0].split()[:3] == ["n", "r", "r_plus"]


def test_count_domain_builds_only_the_printed_table(capsys, monkeypatch):
    from polytheta import counting

    def refuse(*args):
        raise AssertionError("squares table built for a column not printed")

    monkeypatch.setattr(counting, "squares_count_table", refuse)
    code, out = run_cli(capsys, "count", "--m", "6", "--domain", "nonneg",
                        "--n", "0..10", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == list(range(11))
    assert all(set(r) == {"n", "r"} for r in rows)
    assert rows[1]["r"] == 4


def test_count_square_columns_equal_per_index_image_counts(capsys, monkeypatch):
    # s and s_star are read off r and r_star through the completed-square
    # map; the per-index counter at the image point is the independent check
    from polytheta import counting

    def refuse(*args):
        raise AssertionError("squares table built for columns read off r")

    monkeypatch.setattr(counting, "squares_count_table", refuse)
    for m, alpha in [(5, "2,1,1,1"), (6, "1,1,1,1"), (8, "3,1,2,1")]:
        code, out = run_cli(capsys, "count", "--m", str(m), "--alpha", alpha,
                            "--n", "0..60", "--format", "json")
        assert code == 0
        inst = counting.PolygonalInstance(
            m=m, alpha=tuple(int(a) for a in alpha.split(",")))
        bounded, stride, offset = counting._square_image(inst, NON_NEGATIVE)
        free, _, _ = counting._square_image(inst, counting.ALL_INTEGERS)
        rows = json.loads(out)["rows"]
        for n in (0, 1, 7, 23, 60):
            image = stride * n + offset
            assert rows[n]["s"] == counting.count_squares(bounded, image), (m, n)
            assert rows[n]["s_star"] == counting.count_squares(free, image), (m, n)


@pytest.mark.parametrize("argv", [
    ["count", "--n", "5..2"],
    ["count", "--n", "-3"],
    ["count", "--squares", "--M", "0", "--n", "3"],
    ["contour", "--M", "0", "--n", "3"],
    ["contour", "--n", "-1"],
    ["series", "--M", "0"],
    ["farey", "--N", "0"],
    ["farey", "--N", "-2"],
    ["asymptotics", "--which", "hexagonal", "--nmax", "-5"],
    ["asymptotics", "--which", "pentagonal", "--nmax", "2000",
     "--max-rows", "-5"],
    ["series", "--kind", "fJ", "--J", "5"],
    ["contour", "--alpha", "0,1,1,1", "--n", "2"],
    ["verify", "lemma4_1", "--N", "0"],
    ["verify", "cor1_2", "--nmax", "-3"],
    ["grid", "lemma4_1", "--N", "0"],
    ["verify", "lemma2_3", "--M", "0"],
    ["verify", "lemma2_2", "--m", "2"],
    ["verify", "lemma2_3", "--order", "-5"],
    ["verify", "lemma4_1", "--k-max", "0"],
    ["verify", "cor1_2", "--nmax", "0"],
    ["verify", "cor1_2", "--nmax", "500"],  # a single window shows no trend
    ["grid", "lemma4_1", "--k-max", "0"],
    ["series", "--kind", "theta", "--scale", "0"],
    ["series", "--kind", "false-theta", "--scale", "-1"],
    ["asymptotics", "--which", "pentagonal", "--nmax", "2000",
     "--spot-check", "-5"],
    ["asymptotics", "--which", "pentagonal", "--nmax", "200",
     "--spot-check", "2", "--seed", "-1"],
])
def test_count_bad_input_exits_2_without_traceback(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.strip().splitlines()[-1]


@pytest.mark.parametrize("argv", [["contour", "--n", "3", "--tol"],
                                  ["contour", "--n", "3", "--tol-report"],
                                  ["verify", "lemma4_2", "--tol"]])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_tolerance_that_is_not_positive_and_finite_exits_2(capsys, argv, value):
    # max(nan, floor) is nan and no arc meets it; inf passes anything; a
    # tolerance <= 0 fails everything: argparse refuses all of them
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1].endswith(
        f"argument {argv[-1]}: need a positive finite tolerance, got {value}")


def test_verify_unknown_name(capsys):
    code = main(["verify", "nope"])
    assert code == 2


def test_verify_known_names_cover_spec_list():
    expected = {"lemma2_2", "lemma2_3", "lemma2_4", "lemma3_1", "lemma4_1",
                "lemma4_2", "lemma5_1", "lemma5_4", "lemma5_5", "lemma5_8",
                "lemma6_2", "theta_split", "cor1_2", "cor1_3", "cor1_4"}
    assert expected == set(VERIFIERS)


@pytest.mark.parametrize("name,args", [
    ("lemma2_3", ["--r", "1", "--M", "2", "--alpha", "1,1,1,1",
                  "--order", "120"]),
    ("lemma2_2", ["--m", "6", "--order", "40"]),
    ("lemma2_4", ["--m", "6", "--order", "40"]),
    ("lemma3_1", ["--N", "40"]),
    ("lemma6_2", ["--N", "40"]),
    ("theta_split", ["--order", "200"]),
    ("lemma5_4", []),
    ("lemma5_5", []),
    ("lemma4_2", ["--N", "8", "--k-max", "4"]),
    ("lemma5_8", []),
    ("cor1_2", ["--nmax", "2000"]),
    ("cor1_3", ["--nmax", "2000"]),
    ("cor1_4", ["--nmax", "2000"]),
])
def test_verify_fast_identities_pass(capsys, name, args):
    code, out = run_cli(capsys, "verify", name, "--format", "json", *args)
    assert code == 0, out
    data = json.loads(out)
    assert data["rows"][0]["passed"] is True


def test_verify_lemma5_1_grid(capsys):
    code, out = run_cli(capsys, "verify", "lemma5_1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["worst_error"] < 1e-6


def test_verify_transformation_small_grid(capsys):
    code, out = run_cli(capsys, "verify", "lemma4_1", "--N", "8",
                        "--k-max", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["worst_error"] < 1e-8


def test_determinism_byte_identical(capsys):
    _, out1 = run_cli(capsys, "count", "--m", "5", "--n", "0..40",
                      "--format", "csv")
    _, out2 = run_cli(capsys, "count", "--m", "5", "--n", "0..40",
                      "--format", "csv")
    assert out1 == out2


def test_contour_const(capsys):
    code, out = run_cli(capsys, "contour", "--series", "const", "--n", "0")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value_re"] - 1.0) < 1e-8
    assert data["abs_err"] < 1e-8


def test_contour_direct_product(capsys):
    code, out = run_cli(capsys, "contour", "--r", "1", "--M", "2",
                        "--alpha", "1,1,1,1", "--J", "1,2,3,4",
                        "--n", "10", "--mode", "direct",
                        "--tol-report", "1e-6")
    assert code == 0
    data = json.loads(out)
    assert data["abs_err"] <= 1e-6
    assert data["exact"] == 12.0


def test_contour_empty_J_is_the_constant_term_product(capsys):
    # J = {} is a valid choice, not a stand-in for the full set (which gives 13)
    code, out = run_cli(capsys, "contour", "--r", "1", "--M", "2",
                        "--alpha", "1,1,1,1", "--J", "", "--n", "8",
                        "--tol-report", "1e-6")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] == -11.0
    assert data["abs_err"] <= 1e-6


def test_contour_transformed(capsys):
    code, out = run_cli(capsys, "contour", "--r", "1", "--M", "2",
                        "--alpha", "1,1,1,1", "--J", "1,2,3",
                        "--n", "6", "--mode", "transformed")
    assert code == 0
    data = json.loads(out)
    assert data["abs_err"] <= 1e-4


def test_contour_transformed_at_one_arc(capsys):
    # n = 3 has N = 1: the one arc's error is amplified by exp(6 pi), and
    # the principal-value window, summed to its Gaussian tails, still meets
    # 1e-6
    code, out = run_cli(capsys, "contour", "--r", "1", "--M", "2",
                        "--alpha", "1,1,1,1", "--J", "1,2,3",
                        "--n", "3", "--mode", "transformed",
                        "--tol-report", "1e-6")
    assert code == 0
    assert json.loads(out)["abs_err"] <= 1e-6


def test_cli_import_loads_no_scipy():
    # the package depends on numpy alone, so no command starts scipy
    src = str(Path(polytheta.__file__).resolve().parents[1])
    code = ("import sys; import polytheta.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


def test_asymptotics_report(tmp_path, capsys):
    out_file = tmp_path / "hex.csv"
    code, out = run_cli(capsys, "asymptotics", "--which", "hexagonal",
                        "--nmax", "3000", "--out", str(out_file))
    assert code == 0
    data = json.loads(out)
    assert data["fitted_exponent"] < 1.0
    header = out_file.read_text().splitlines()[0]
    assert header == "n,exact_count,main_term,residual,normalized_residual"


def test_asymptotics_squares_family(capsys):
    # one-sided vs one-sixteenth-unrestricted on the all-odd four-square family
    code, out = run_cli(capsys, "asymptotics", "--which", "squares",
                        "--nmax", "20000", "--max-rows", "40")
    assert code == 0
    data = json.loads(out)
    assert data["fitted_exponent"] < 1.0
    ratios = [r["exact_count"] / r["main_term"] for r in data["rows"][-5:]
              if r["main_term"]]
    assert all(abs(x - 1) < 0.25 for x in ratios)


@pytest.mark.parametrize("which", ["squares", "hexagonal", "hexagonal2",
                                   "pentagonal"])
def test_asymptotics_flags_an_exact_family(capsys, which):
    # the one-sided all-odd four-square count is exactly one-sixteenth of the
    # unrestricted one, so its residuals are all 0 and its slope of 0 is no
    # fit; every corollary family has residuals to fit
    code, out = run_cli(capsys, "asymptotics", "--which", which,
                        "--nmax", "2000", "--max-rows", "10")
    assert code == 0
    data = json.loads(out)
    assert data["all_zero"] is (which == "squares")
    if which == "squares":
        assert data["fitted_exponent"] == data["fit_stderr"] == 0.0
        assert all(r["residual"] == 0 for r in data["rows"])
    else:
        assert data["fit_stderr"] > 0


def test_asymptotics_spot_check(capsys):
    code, out = run_cli(capsys, "asymptotics", "--which", "pentagonal",
                        "--nmax", "2000", "--spot-check", "8")
    assert code == 0
    data = json.loads(out)
    assert data["spot_check"] == {"samples": 8, "mismatches": []}


def test_spot_check_reports_corrupted_entry(capsys, monkeypatch):
    # negative control: one wrong table entry at a sampled index is listed
    # and makes the report exit 1
    from polytheta import cli, counting

    table = counting.polygonal_count_table(FAMILIES["pentagonal"], 2000,
                                           NON_NEGATIVE)
    # a table wrong everywhere lists every sampled index
    sampled = cli._run_spot_checks("pentagonal", table - 1, 2000, 8, 0)
    n = sampled["mismatches"][3]
    bad = table.copy()
    bad[n] += 1
    report = cli._run_spot_checks("pentagonal", bad, 2000, 8, 0)
    assert report["mismatches"] and set(report["mismatches"]) == {n}
    monkeypatch.setattr(counting, "polygonal_count_table", lambda *args: bad)
    code, out = run_cli(capsys, "asymptotics", "--which", "pentagonal",
                        "--nmax", "2000", "--spot-check", "8")
    assert code == 1
    assert json.loads(out)["spot_check"] == report


def test_spot_check_samples_the_whole_table():
    # negative control above n = 4000: a wrong entry there is re-derived and
    # listed like any other
    from polytheta import cli, counting

    table = counting.polygonal_count_table(FAMILIES["pentagonal"], 20000,
                                           NON_NEGATIVE)
    sampled = cli._run_spot_checks("pentagonal", table - 1, 20000, 8, 0)
    n = max(sampled["mismatches"])
    assert n > 4000
    bad = table.copy()
    bad[n] += 1
    report = cli._run_spot_checks("pentagonal", bad, 20000, 8, 0)
    assert report == {"samples": 8, "mismatches": [n]}


def test_farey_dump(capsys):
    code, out = run_cli(capsys, "farey", "--N", "5")
    lines = out.strip().splitlines()
    assert lines[0] == "h,k,k1,k2,theta_left,theta_right,rho1,rho2"
    assert lines[1] == "0,1,5,5,1/6,1/6,1,1"
    assert len(lines) == 11


def test_grid_dump_lemma4_1(capsys):
    code, out = run_cli(capsys, "grid", "lemma4_1", "--N", "8", "--k-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,M,alpha_j,h,k,")
    assert "rel_err" in lines[0]
    worst = max(float(line.rsplit(",", 1)[1]) for line in lines[1:])
    assert worst < 1e-8


def test_grid_dump_lemma5_1(capsys):
    code, out = run_cli(capsys, "grid", "lemma5_1")
    assert code == 0
    lines = out.strip().splitlines()
    worst = max(float(line.rsplit(",", 1)[1]) for line in lines[1:])
    assert worst < 1e-6


def test_closed_pipe_exits_quietly():
    # the reader takes 100 bytes of about 130 kB and closes its end: the
    # next write fails with EPIPE, and the CLI exits without a traceback
    src = str(Path(polytheta.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "polytheta.cli", "farey", "--N", "50",
         "--format", "json"], cwd=src, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert head.startswith(b"{")
    assert err == b""
    assert proc.returncode == 1
