"""CLI tests: golden output, file round trips, exit codes, determinism."""

import csv
import io
import subprocess
import sys

import numpy as np
import pytest

from qgt import cli, codec, density, graphs, reference
from qgt.simulate import CSV_COLUMNS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- grid parsing -----------------------------------------------------------


def test_parse_grid_forms():
    assert cli.parse_grid("12") == [12.0]
    assert cli.parse_grid("8,12,20") == [8.0, 12.0, 20.0]
    assert cli.parse_grid("8:20") == [float(v) for v in range(8, 21)]
    assert cli.parse_grid("8:20:2") == [8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
    assert cli.parse_grid("1:2:0.5") == [1.0, 1.5, 2.0]


def test_parse_grid_rejects():
    for bad in ("20:8", "8:20:0", "8:20:-1", "8:20:1:2", "inf", "nan", "8:inf",
                "-inf:8", "8:20:inf", "8,nan", "1e400"):
        with pytest.raises(ValueError):
            cli.parse_grid(bad)
    # a value that is no number is named with the grid it came from
    for bad, value in (("8,x", "x"), ("8,", "")):
        with pytest.raises(ValueError, match=f"^bad grid value '{value}' in '{bad}'$"):
            cli.parse_grid(bad)
    # the points are counted before they are listed: 10^300 of them, or a
    # count that overflows, is refused at once, as is a last point that does
    for bad in ("1:2:1e-300", "0:1e308:1e-300", "-1e308:1e308:1e300", "0:100000:1"):
        with pytest.raises(ValueError, match=f"^bad grid '{bad}': more than 100000 points$"):
            cli.parse_grid(bad)
    assert len(cli.parse_grid("1:100000:1")) == 100_000
    bad = "0:1.7976931348623157e308:5.992310449541053e307"
    with pytest.raises(ValueError, match="its last point overflows"):
        cli.parse_grid(bad)


# -- table -------------------------------------------------------------------


def test_table_stdout(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    first = lines[1].split()
    assert first[0] == "1" and first[2] == "3"
    assert abs(float(first[1]) - 1.221793) < 1e-6


def test_table_solve_reproduces_frozen_rows(capsys):
    # DESIGN_TABLE is the solver's own output rounded to the printed digits
    code, frozen, _ = run_cli(capsys, "table")
    assert code == 0
    code, solved, _ = run_cli(capsys, "table", "--solve")
    assert code == 0
    assert len(solved.strip().splitlines()) == 9
    assert solved == frozen


def test_table_t_max_one(capsys):
    code, out, _ = run_cli(capsys, "table", "--t-max", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_table_csv_round_trip(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, _, _ = run_cli(capsys, "table", "--out", str(path))
    assert code == 0
    first = path.read_text()
    rows = list(csv.DictReader(io.StringIO(first)))
    assert len(rows) == 8
    for row in rows:
        t = int(row["t"])
        c, ell, lam = density.DESIGN_TABLE[t]
        assert abs(float(row["c"]) - c) < 1e-6
        assert int(row["ell_star"]) == ell
        assert abs(float(row["lambda_T"]) - lam) < 1e-6
    code, _, _ = run_cli(capsys, "table", "--out", str(path))
    assert code == 0 and path.read_text() == first


def test_table_bad_t_max(capsys):
    code, _, err = run_cli(capsys, "table", "--t-max", "9")
    assert code == 2 and "error:" in err


# -- design --------------------------------------------------------------


def test_design_report(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "design", "--N", "65536", "--K", "100",
                           "--t", "2", "--out", str(path))
    assert code == 0
    assert "M = 81" in out
    assert "m_total = 1864" in out
    assert "* t=2" in out
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert [int(r["t"]) for r in rows] == list(range(1, 9))
    best = min(rows, key=lambda r: float(r["m_formula"]))
    assert int(best["t"]) == 2
    assert int(best["m_ceil"]) in (1386, 1387)


def test_design_rejects_k_not_below_n(capsys):
    code, _, err = run_cli(capsys, "design", "--N", "100", "--K", "100")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "design", "--N", "100", "--K", "200")
    assert code == 2 and "error:" in err


def test_design_rejects_a_fractional_ell(capsys):
    code, out, err = run_cli(capsys, "design", "--N", "1000", "--K", "10", "--ell", "2.5")
    assert code == 2 and out == ""
    assert "--ell must be an integer or 'auto', got '2.5'" in err


def test_design_beyond_the_largest_n(capsys):
    code, _, err = run_cli(capsys, "design", "--N", "4194304", "--K", "100")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "largest N this design can size is 2654167" in err
    assert "increase M" not in err


def test_design_rejects_more_groups_than_edges(capsys):
    code, out, err = run_cli(capsys, "design", "--N", "300", "--K", "10", "--beta", "1000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "M=5969 groups" in err


# -- encode / decode ----------------------------------------------------------


def test_encode_decode_example_files(tmp_path, capsys):
    support = tmp_path / "support.txt"
    y_path = tmp_path / "y.txt"
    rec = tmp_path / "recovered.txt"
    codec.save_support(str(support), reference.REFERENCE_DEFECTIVES)

    code, out, _ = run_cli(capsys, "encode", "--support", str(support),
                           "--out", str(y_path))
    assert code == 0 and "17 tests" in out
    assert np.array_equal(codec.load_test_vector(str(y_path)),
                          reference.REFERENCE_TEST_VECTOR)

    code, out, _ = run_cli(capsys, "decode", "--y", str(y_path),
                           "--out", str(rec))
    assert code == 0
    assert "recovered items (1-based): 1 4 10" in out
    assert "peeling rounds: 2" in out
    assert codec.load_support(str(rec)) == {0, 3, 9}


def test_encode_decode_empty_support(tmp_path, capsys):
    support = tmp_path / "support.txt"
    y_path = tmp_path / "y.txt"
    codec.save_support(str(support), set())
    code, _, _ = run_cli(capsys, "encode", "--support", str(support),
                         "--out", str(y_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "decode", "--y", str(y_path))
    assert code == 0 and "(none)" in out


def test_decode_corrupt_y_length(tmp_path, capsys):
    y_path = tmp_path / "y.txt"
    y_path.write_text("3\n1\n0\n")
    code, _, err = run_cli(capsys, "decode", "--y", str(y_path))
    assert code == 2 and "error:" in err


def test_decode_garbage_y(tmp_path, capsys):
    y_path = tmp_path / "y.txt"
    y_path.write_text("not a number\n")
    code, _, err = run_cli(capsys, "decode", "--y", str(y_path))
    assert code == 2 and "error:" in err


def test_decode_count_beyond_int64(tmp_path, capsys):
    y_path = tmp_path / "y.txt"
    y_path.write_text("99999999999999999999999\n" + "0\n" * 16)
    code, _, err = run_cli(capsys, "decode", "--y", str(y_path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_encode_item_beyond_int64(tmp_path, capsys):
    support = tmp_path / "support.txt"
    support.write_text("3\n99999999999999999999999\n")
    code, _, err = run_cli(capsys, "encode", "--support", str(support),
                           "--out", str(tmp_path / "y.txt"))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "out of range" in err


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_graph_index_beyond_int64(command, tmp_path, capsys):
    g_path = tmp_path / "graph.txt"
    g_path.write_text("4 2 2 0\n0 1 2 99999999999999999999\n0 1 2 3\n")
    data = tmp_path / "data.txt"
    data.write_text("1\n")
    files = (["--support", str(data), "--out", str(tmp_path / "y.txt")]
             if command == "encode" else ["--y", str(data)])
    code, _, err = run_cli(capsys, command, *files, "--graph", str(g_path), "--t", "2")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "64 bits" in err


def test_decode_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "decode", "--y", str(tmp_path / "no.txt"))
    assert code == 2 and "error:" in err


def test_encode_decode_with_graph_file(tmp_path, capsys):
    graph = graphs.sample_graph(120, 18, 2, seed=3)
    g_path = tmp_path / "graph.txt"
    graph.save(str(g_path))
    support = tmp_path / "support.txt"
    y_path = tmp_path / "y.txt"
    truth = {4, 17, 33, 90}
    codec.save_support(str(support), truth)

    code, _, _ = run_cli(capsys, "encode", "--support", str(support),
                         "--out", str(y_path), "--graph", str(g_path),
                         "--t", "2")
    assert code == 0
    code, out, _ = run_cli(capsys, "decode", "--y", str(y_path),
                           "--graph", str(g_path), "--t", "2")
    assert code == 0
    labels = " ".join(str(v + 1) for v in sorted(truth))
    assert f"recovered items (1-based): {labels}" in out


def test_graph_requires_t(tmp_path, capsys):
    graph = graphs.sample_graph(40, 8, 2, seed=1)
    g_path = tmp_path / "graph.txt"
    graph.save(str(g_path))
    y_path = tmp_path / "y.txt"
    y_path.write_text("0\n")
    code, _, err = run_cli(capsys, "decode", "--y", str(y_path),
                           "--graph", str(g_path))
    assert code == 2 and "--t" in err


def test_builtin_design_rejects_other_t(tmp_path, capsys):
    y_path = tmp_path / "y.txt"
    codec.save_test_vector(str(y_path), reference.REFERENCE_TEST_VECTOR)
    code, _, err = run_cli(capsys, "decode", "--y", str(y_path), "--t", "2")
    assert code == 2 and "error:" in err


def test_decode_incomplete_exits_one(tmp_path, capsys):
    # Claim four defectives but supply the three-defective counts: the
    # peeler still recovers the three, then flags the count mismatch.
    y = reference.REFERENCE_TEST_VECTOR.copy()
    y[0] = 4
    y_path = tmp_path / "y.txt"
    codec.save_test_vector(str(y_path), y)
    code, out, err = run_cli(capsys, "decode", "--y", str(y_path))
    assert code == 1
    assert "decoding incomplete" in err
    assert "1 4 10" in out


# -- simulate -----------------------------------------------------------------


def test_simulate_csv_and_determinism(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    argv = ["simulate", "--N", "300", "--K", "10", "--t", "1",
            "--grid", "6,20", "--trials", "10", "--seed", "5"]
    code, out, _ = run_cli(capsys, *argv, "--out", str(path_a))
    assert code == 0 and "seed=5" in out
    code, _, _ = run_cli(capsys, *argv, "--out", str(path_b))
    assert code == 0
    assert path_a.read_text() == path_b.read_text()
    rows = list(csv.reader(io.StringIO(path_a.read_text())))
    assert rows[0] == CSV_COLUMNS and len(rows) == 3


def test_simulate_stdout_csv(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--N", "300", "--K", "10",
                           "--t", "1", "--grid", "20", "--trials", "5",
                           "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# simulate")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_simulate_auto_ell_follows_the_budget(tmp_path, capsys):
    # ell* comes from the design table, not from a default design whose own M
    # caps N: at N = 2^22 the budget-sized M fits GF(2^16) where that M did not
    argv = ["simulate", "--N", "4194304", "--K", "100", "--grid", "100",
            "--trials", "2"]
    auto, fixed = tmp_path / "auto.csv", tmp_path / "ell2.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(auto))
    assert code == 0, err
    code, _, err = run_cli(capsys, *argv, "--ell", "2", "--out", str(fixed))
    assert code == 0, err
    assert auto.read_text() == fixed.read_text()


def test_simulate_seed_from_env(capsys, monkeypatch):
    monkeypatch.setenv("QGT_SEED", "999")
    code, out, _ = run_cli(capsys, "simulate", "--N", "300", "--K", "10",
                           "--t", "1", "--grid", "20", "--trials", "2")
    assert code == 0 and "seed=999" in out
    assert out.strip().splitlines()[-1].endswith(",999")


def test_simulate_malformed_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("QGT_SEED", "not-an-int")
    code, _, err = run_cli(capsys, "simulate", "--N", "300", "--K", "10",
                           "--t", "1", "--grid", "20", "--trials", "2")
    assert code == 2 and "QGT_SEED" in err


@pytest.mark.parametrize("flag, env, message", [
    ("-1", None, "error: --seed must be a non-negative integer, got -1"),
    (None, "-3", "error: QGT_SEED must be a non-negative integer, got -3"),
    ("-2", "5", "error: --seed must be a non-negative integer, got -2"),
], ids=["flag", "env", "flag-over-env"])
def test_simulate_names_the_source_of_a_negative_seed(flag, env, message, capsys, monkeypatch):
    # numpy's own refusal ("expected non-negative integer") names neither
    if env is None:
        monkeypatch.delenv("QGT_SEED", raising=False)
    else:
        monkeypatch.setenv("QGT_SEED", env)
    seed = [] if flag is None else ["--seed", flag]
    code, out, err = run_cli(capsys, "simulate", "--N", "300", "--K", "10", "--t", "1",
                             "--grid", "20", "--trials", "2", *seed)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("argv", [
    ["decode", "--y", "y.txt", "--method", "chien"],
    ["simulate", "--N", "300", "--K", "10", "--method", "chien"],
    ["design", "--N", "300", "--K", "10", "--constants", "solve"],
])
def test_method_flag_is_gone(argv, capsys):
    # decode has one root finder and designs one table of constants; the old
    # flags are usage errors
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["design", "--N", "300", "--K", "10", "--beta", "inf"], "infinite group count"),
    (["design", "--N", "300", "--K", "10", "--beta", "1e308"], "infinite group count"),
    (["simulate", "--N", "200", "--K", "5", "--trials", "1", "--grid", "inf"], "finite"),
    (["simulate", "--N", "200", "--K", "5", "--trials", "1", "--grid", "8:inf"], "finite"),
    (["simulate", "--N", "200", "--K", "5", "--trials", "1", "--grid", "nan"], "finite"),
], ids=["beta-inf", "beta-1e308", "grid-inf", "grid-8:inf", "grid-nan"])
def test_non_finite_numbers_are_rejected(argv, message, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_simulate_rejects_fewer_than_one_trial(trials, capsys):
    code, _, err = run_cli(capsys, "simulate", "--N", "100", "--K", "5",
                           "--grid", "10", "--trials", trials)
    assert code == 2
    assert "trials must be at least 1" in err


def test_simulate_validates_k(capsys):
    code, _, err = run_cli(capsys, "simulate", "--N", "100", "--K", "100",
                           "--grid", "20", "--trials", "2")
    assert code == 2 and "error:" in err


ELL_RULE = "error: ell must be an int >= 2 or 'auto', got "


@pytest.mark.parametrize("extra,message", [
    (["--ell", "1"], ELL_RULE + "1"),
    (["--t", "5"], "error: t must be in 1..4 to decode, got t=5"),
    (["--trials", "0"], "error: trials must be at least 1, got 0"),
    (["--ell", "0"], ELL_RULE + "0"),
    (["--ell", "-2"], ELL_RULE + "-2"),
    (["--t", "-3", "--ell", "2"], "error: t must be in 1..4 to decode, got t=-3"),
], ids=["ell-1", "t-5", "trials-0", "ell-0", "ell-minus-2", "t-minus-3"])
def test_rejected_simulate_writes_nothing_to_stdout(extra, message, capsys):
    code, out, err = run_cli(capsys, "simulate", "--N", "1000", "--K", "10",
                             "--grid", "12", "--trials", "2", *extra)
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_simulate_refuses_designs_too_large_to_hold(capsys):
    # N*ell = 2^64 stubs cannot be indexed in int64; at N = 2^61 the stub
    # indices fit, but one trial's 2.9e16 group sizes (209 PiB) cannot be
    # allocated, and that is reported like any rejected input
    code, out, err = run_cli(capsys, "simulate", "--N", str(2 ** 63), "--K", "5",
                             "--grid", "1e18")
    assert (code, out) == (2, "")
    assert err.startswith("error: N*ell = 18446744073709551616 stubs do not fit int64")
    code, out, err = run_cli(capsys, "simulate", "--N", str(2 ** 61), "--K", "5",
                             "--grid", "1e17", "--trials", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


# -- the decoding radius --------------------------------------------------------


@pytest.mark.parametrize("command", ["design", "encode", "decode", "simulate"])
def test_decoding_commands_reject_t_five(command, tmp_path, capsys):
    g_path, support, y_path = tmp_path / "graph.txt", tmp_path / "support.txt", tmp_path / "y.txt"
    graphs.sample_graph(120, 18, 2, seed=3).save(str(g_path))
    codec.save_support(str(support), {4, 17})
    codec.save_test_vector(str(y_path), np.zeros(18 * 41 + 1, dtype=np.int64))
    argv = {
        "design": ["--N", "65536", "--K", "100"],
        "encode": ["--support", str(support), "--out", str(tmp_path / "out.txt"),
                   "--graph", str(g_path)],
        "decode": ["--y", str(y_path), "--graph", str(g_path)],
        "simulate": ["--N", "1000", "--K", "10", "--grid", "12", "--trials", "2"],
    }[command]
    code, out, err = run_cli(capsys, command, *argv, "--t", "5")
    assert code == 2 and out == ""
    assert err == "error: t must be in 1..4 to decode, got t=5\n"


def test_analysis_still_covers_t_to_eight(capsys):
    code, out, _ = run_cli(capsys, "table", "--t-max", "8")
    assert code == 0
    assert [int(line.split()[0]) for line in out.strip().splitlines()[1:]] == list(range(1, 9))
    code, out, _ = run_cli(capsys, "design", "--N", "65536", "--K", "100", "--t", "4")
    assert code == 0
    sweep = [line.split("t=")[1].split()[0] for line in out.splitlines() if " m = " in line]
    assert sweep == [str(t) for t in range(1, 9)]


# -- selftest -----------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "checks passed" in out
    assert out.count("ok   ") == 8


def test_selftest_quiet(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--quiet")
    assert code == 0 and "ok" not in out


def test_selftest_fails_loudly_on_golden_mismatch(capsys, monkeypatch):
    corrupted = reference.REFERENCE_SIGNATURE.copy()
    corrupted[1, 0] ^= 1
    monkeypatch.setattr(reference, "REFERENCE_SIGNATURE", corrupted)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL signature golden" in out
    assert "FAILED" in out


def test_selftest_checks_under_optimize():
    # python -O strips assert statements; the checks must not depend on them
    proc = subprocess.run([sys.executable, "-O", "-m", "qgt", "selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8/8 checks passed" in proc.stdout


def test_selftest_fails_on_golden_mismatch_under_optimize():
    script = ("import sys; from qgt import cli, reference; "
              "reference.REFERENCE_SIGNATURE[1, 0] ^= 1; "
              "sys.exit(cli.main(['selftest']))")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL signature golden" in proc.stdout


# -- wiring -------------------------------------------------------------------


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", "--K", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qgt.cli", "table",
                           "--t-max", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "1.221793" in proc.stdout
