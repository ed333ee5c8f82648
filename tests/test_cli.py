"""Command-line entry points: reports, artifacts, exit codes, determinism."""
import functools
import hashlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import parse_plot_data
from shiftlab import (DensityFamily, HMapSpec, SeedStream,
                      sample_density_window)
from shiftlab import cli, typeiii
from shiftlab.cli import (CSV_CHUNK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK,
                          emit_plot_data, main, write_csv)
from shiftlab.measures import FiniteProductMeasure
from shiftlab.stattests import ALPHA, chi_square_pooled


def run_cli(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestBlockReads:
    """Each command evaluates its measure's marginals in one block: for
    `measure check` over every index its sums read, and for `factor run`
    and `match run` over the window and the 7 indices after it, which the
    bound q reads."""

    @pytest.fixture
    def block_calls(self, monkeypatch):
        calls = []
        block = FiniteProductMeasure.block

        def counted(self, start, length):
            calls.append((start, length))
            return block(self, start, length)

        monkeypatch.setattr(FiniteProductMeasure, "block", counted)
        return calls

    @pytest.mark.parametrize("ks, lo, hi", [
        ([], -10008, 10001),               # default ks 1, 2, 4, 8
        (["--k", "-3", "--k", "2"], -10002, 10003),
        (["--k", "0"], -10000, 10001),
    ])
    def test_measure_check_reads_one_block(self, tmp_path, capsys,
                                           block_calls, ks, lo, hi):
        # the union of the ranges the Doeblin bound, the Kakutani sums and
        # the bias sum read
        assert run_cli(tmp_path, "measure", "check", "--measure",
                       "mu:0.3,0.5", "--n", "10000", *ks) == EXIT_OK
        assert block_calls == [(lo, hi - lo + 1)]

    def test_measure_check_reads_a_far_lag_apart(self, tmp_path, capsys,
                                                 block_calls):
        # a lag beyond one window (2n + 1 = 20001 rows) reads its own
        # window; the nearer lags still share the one block.  The far
        # sums have not settled at this n, so the run may exit 1
        assert run_cli(tmp_path, "measure", "check", "--measure",
                       "mu:0.3,0.5", "--n", "10000", "--k", "-20002",
                       "--k", "20001", "--k", "2") in (EXIT_OK,
                                                       EXIT_CHECK_FAILED)
        assert block_calls == [(-30001, 40003), (-10000 + 20002, 20001)]

    @pytest.mark.parametrize("command", ["factor", "match"])
    def test_window_command_reads_one_block(self, tmp_path, capsys,
                                            block_calls, command):
        run_cli(tmp_path, command, "run", "--measure", "nu_c:0.1",
                "--n", "2000")
        assert block_calls == [(0, 2007)]


class TestMeasureCheck:
    def test_runs_and_reports(self, tmp_path, capsys):
        code = run_cli(tmp_path, "measure", "check", "--measure", "nu_c:0.1",
                       "--n", "100000")
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in report["metrics"]}
        assert "kakutani_shift_sum_k1" in names
        assert "bias_square_sum" in names
        assert (tmp_path / "measure_check.csv").exists()

    def test_mu_golden_outputs(self, tmp_path, capsys):
        # CSV digest and metric values recorded from the two-block sums
        # that preceded the term-array implementation
        code = run_cli(tmp_path, "measure", "check", "--measure", "mu:0.3,0.5",
                       "--n", "10000")
        assert code == EXIT_OK
        csv_bytes = (tmp_path / "measure_check.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == (
            "22535ffbfe886a3a6a85250a6a659e157e65f2ca2548051b541c6c8b40d183d2")
        got = {m["name"]: (m["value"], m.get("tail_increment"), m["pass"])
               for m in json.loads(capsys.readouterr().out)["metrics"]}
        assert got == {
            "doeblin_delta": (0.19999999999999996, None, True),
            "kakutani_shift_sum_k1":
                (0.27909356192946194, 3.0937497064176256e-08, True),
            "kakutani_shift_sum_k2":
                (0.4409038239942172, 1.2387501568955628e-07, True),
            "kakutani_shift_sum_k4":
                (0.6473584051532143, 4.965030132586534e-07, True),
            "kakutani_shift_sum_k8":
                (0.8910684672271258, 1.9940796109896297e-06, True),
            "bias_square_sum":
                (0.20304602461050097, 4.1777547726828956e-08, True),
        }

    def test_repeated_k_gives_one_record_and_series(self, tmp_path, capsys):
        assert run_cli(tmp_path, "measure", "check", "--measure",
                       "mu:0.3,0.5", "--n", "1000", "--k", "3", "--k", "3",
                       "--k", "1") == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert [m["name"] for m in metrics if "kakutani" in m["name"]] == \
            ["kakutani_shift_sum_k3", "kakutani_shift_sum_k1"]
        # the CSV sorts its series by name; one row per decade 10 .. 1000
        series = parse_plot_data(tmp_path / "measure_check.csv")
        assert {name: len(rows) for name, rows in series.items()} == \
            {"kakutani_k1": 3, "kakutani_k3": 3}

    @pytest.mark.parametrize("spec, code", [("mu:0.3,0.5", EXIT_CHECK_FAILED),
                                            ("iid:0.3", EXIT_OK)])
    def test_far_lag_fits_in_one_gib(self, tmp_path, spec, code):
        # the memory of a run follows n, not |k|: at n = 100 a lag of
        # 10^12 reads two windows of 201 rows.  One BLAS thread keeps the
        # pool's own reservations out of the 1 GiB address space
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from shiftlab.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", child, "measure", "check", "--measure",
             spec, "--n", "100", "--k", str(10**12), "--out-dir",
             str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src),
                 "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        report = json.loads((tmp_path / "measure_report.json").read_text())
        assert [m["name"] for m in report["metrics"]] == [
            "doeblin_delta", f"kakutani_shift_sum_k{10**12}",
            "bias_square_sum"]

    def test_byte_determinism(self, tmp_path, capsys):
        argv = ["measure", "check", "--measure", "nu_c:0.2",
                "--n", "1000", "--seed", "5"]
        run_cli(tmp_path, *argv)
        first = (tmp_path / "measure_report.json").read_bytes()
        csv_first = (tmp_path / "measure_check.csv").read_bytes()
        run_cli(tmp_path, *argv)
        assert (tmp_path / "measure_report.json").read_bytes() == first
        assert (tmp_path / "measure_check.csv").read_bytes() == csv_first


class TestFactorRun:
    def test_report_schema(self, tmp_path, capsys):
        code = run_cli(tmp_path, "factor", "run", "--measure", "iid:0.3",
                       "--n", "200000", "--seed", "7", "--radius", "16")
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        names = [m["name"] for m in report["metrics"]]
        for expected in ("q", "d", "beta0", "censor_fraction", "frequency",
                         "chi_square_3_blocks", "serial_correlation"):
            assert expected in names

    def test_empty_interior_fails_with_reason(self, tmp_path, capsys):
        code = run_cli(tmp_path, "factor", "run", "--measure", "iid:0.3",
                       "--n", "100")
        assert code == EXIT_CHECK_FAILED
        by_name = {m["name"]: m
                   for m in json.loads(capsys.readouterr().out)["metrics"]}
        for name in ("frequency", "chi_square_3_blocks",
                     "serial_correlation"):
            assert by_name[name]["pass"] is False
            assert by_name[name]["reason"]

    def test_golden_outputs(self, tmp_path, capsys):
        # metric values recorded before the marginals were read once; the
        # 3-block p-value from the closed-form tail (40-digit value
        # 0.29233064173240527...)
        code = run_cli(tmp_path, "factor", "run", "--measure", "iid:0.3",
                       "--n", "200000", "--radius", "16")
        assert code == EXIT_OK
        got = {m["name"]: (m["value"] if "value" in m else m["statistic"],
                           m.get("p_value"), m["pass"])
               for m in json.loads(capsys.readouterr().out)["metrics"]}
        assert got == {
            "q": (0.009075779999999997, None, True),
            "d": (882, None, True),
            "beta0": (7.475180793869995e-05, None, True),
            "censor_fraction": (0.01944, None, True),
            "frequency": (0.8560113872462569, None, True),
            "chi_square_3_blocks":
                (1.108856561749848, 0.2923306417324053, True),
            "serial_correlation": (5.6255976898706076e-05, None, True),
        }

    def test_large_capacity_runs(self, tmp_path, capsys):
        # d = 25 233: the split code's entropy balance holds, and a window
        # too short for any coded tuple fails its checks with reasons
        code = run_cli(tmp_path, "factor", "run", "--measure", "iid:0.06",
                       "--n", "100000")
        assert code == EXIT_CHECK_FAILED
        by_name = {m["name"]: m
                   for m in json.loads(capsys.readouterr().out)["metrics"]}
        assert by_name["d"]["value"] == 25233
        for name in ("frequency", "chi_square_3_blocks",
                     "serial_correlation"):
            assert by_name[name]["pass"] is False
            assert by_name[name]["reason"]

    @pytest.mark.parametrize("seed, same", [(-1, 2 ** 64 - 1), (2 ** 64, 0)])
    def test_seed_outside_64_bits(self, tmp_path, capsys, seed, same):
        # a seed is read mod 2^64, the split code's key included
        got = []
        for s in (seed, same):
            code = run_cli(tmp_path, "factor", "run", "--measure", "iid:0.3",
                           "--n", "20000", "--seed", str(s))
            assert code in (EXIT_OK, EXIT_CHECK_FAILED)
            got.append(json.loads(capsys.readouterr().out)["metrics"])
        assert got[0] == got[1]

    def test_capacity_beyond_an_array_row_is_config_error(self, tmp_path,
                                                          capsys):
        # q ~ 2e-30 gives d ~ 4e30: no tuple of d+1 bits fits in a row
        code = run_cli(tmp_path, "factor", "run", "--measure", "iid:0.999999",
                       "--n", "1000")
        assert code == EXIT_CONFIG
        d = re.search(r"capacity d = (\d+) is too large",
                      capsys.readouterr().err)
        assert d and int(d.group(1)) > np.iinfo(np.intp).max

    def test_bad_measure_is_config_error(self, tmp_path, capsys):
        # the family is looked up before any number is converted
        for spec, family in (("bogus:1", "bogus"), ("5", "5")):
            code = run_cli(tmp_path, "factor", "run", "--measure", spec,
                           "--n", "1000")
            assert code == EXIT_CONFIG
            assert f"unknown measure family '{family}'" in \
                capsys.readouterr().err


class TestMatchRun:
    def test_artifacts(self, tmp_path, capsys):
        code = run_cli(tmp_path, "match", "run", "--measure", "iid:0.5",
                       "--n", "50000")
        assert code == EXIT_OK
        assert (tmp_path / "matching_assignment.csv").exists()
        hist = parse_plot_data(tmp_path / "radius_histogram.csv")
        assert "radius_histogram" in hist

    def test_golden_outputs(self, tmp_path, capsys):
        # CSV digests and metric values recorded from the csv.writer loops
        # and the two-sequence good_to_ab that preceded the shared writer
        code = run_cli(tmp_path, "match", "run", "--measure", "nu_c:0.1",
                       "--n", "50000", "--dump-window", "window.csv")
        assert code == EXIT_OK
        got = {m["name"]: (m["value"], m["pass"])
               for m in json.loads(capsys.readouterr().out)["metrics"]}
        assert got == {
            "q": (0.004905600622485743, True),
            "d": (1631, True),
            "matched_pairs": (49401, True),
            "censored_b_fraction": (0.004814665592264303, True),
        }
        assert {name: sha256_of(tmp_path / name) for name in (
            "matching_assignment.csv", "radius_histogram.csv",
            "window.csv")} == {
            "matching_assignment.csv":
                "dcc136c72909f9383db1820c0002948c"
                "9b4b964e436863af121b43b52a5d696f",
            "radius_histogram.csv":
                "4c4c06200c282379561bfa8d66108a9b"
                "60e7507236679944d0c3bc12f208fbb8",
            "window.csv":
                "f49b4daa10a7f1bb36ccd889ff22cd2a"
                "dcab25ea2ab073d88964ddcbf2b5abf8",
        }

    def test_doeblin_violation_is_config_error(self, tmp_path, capsys):
        code = run_cli(tmp_path, "match", "run", "--measure", "iid:1.0",
                       "--n", "1000")
        assert code == EXIT_CONFIG
        assert "Doeblin condition at index 0" in capsys.readouterr().err

    @pytest.mark.parametrize("measure", ["iid:0.3", "nu_c:0.1",
                                         "mu:0.3,0.5"])
    def test_q_and_d_agree_with_factor_run(self, tmp_path, capsys,
                                           measure):
        got = []
        for command in ("factor", "match"):
            run_cli(tmp_path, command, "run", "--measure", measure,
                    "--n", "3000")
            metrics = {m["name"]: m for m in
                       json.loads(capsys.readouterr().out)["metrics"]}
            got.append((metrics["q"]["value"], metrics["d"]["value"]))
        assert got[0] == got[1]


class TestWindowDump:
    def test_dump_window_csv(self, tmp_path, capsys):
        code = run_cli(tmp_path, "match", "run", "--measure", "iid:0.5",
                       "--n", "500", "--dump-window", "window.csv")
        assert code == EXIT_OK
        lines = (tmp_path / "window.csv").read_text().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 501

    def test_float_window_reads_back(self, tmp_path):
        # every cell must be a plain number; under numpy 2 the repr of an
        # np.float64 is "np.float64(...)"
        family = DensityFamily((0.0, 1.0), lambda n: (
            np.array([0.0, 0.5, 1.0]), np.array([0.5, 1.5])))
        w = sample_density_window(family, (-5, 194), SeedStream(7))
        path = write_csv(tmp_path / "window.csv", ("index", "value"),
                         (np.arange(w.start, w.stop), w.values))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in rows] == list(range(-5, 195))
        assert [float(v) for _, v in rows] == w.values.tolist()


def joined_csv(header, columns) -> bytes:
    """The row-by-row reference: each cell the ``str`` of its ``.tolist()``
    value, joined by commas, each row ending in a bare newline."""
    cells = [map(str, np.asarray(c).tolist()) for c in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    return "".join(line + "\n" for line in lines).encode()


class TestWriteCsv:
    def columns(self, rows):
        rng = np.random.default_rng(3)
        ints = rng.integers(-2 ** 62, 2 ** 62, rows, dtype=np.int64)
        ints[:2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
        floats[:5] = 0.1, 1e-05, 1e+16, -0.0, np.nan
        words = np.array(["a", "bc", "d-e", "", "%s"])[np.arange(rows) % 5]
        return ints, floats, words

    def test_bytes_equal_joined_rows(self, tmp_path):
        rows = CSV_CHUNK + 123
        header = ("i", "x", "w")
        cols = self.columns(rows)
        path = write_csv(tmp_path / "t.csv", header, cols)
        data = path.read_bytes()
        assert data == joined_csv(header, cols)
        lines = data.decode().splitlines()
        assert len(lines) == rows + 1
        assert [line.split(",")[1] for line in lines[1:6]] == \
            ["0.1", "1e-05", "1e+16", "-0.0", "nan"]
        assert lines[1].startswith("-9223372036854775808,")
        assert lines[5].endswith(",%s")

    def int_columns(self, rows):
        rng = np.random.default_rng(5)
        i64 = np.iinfo(np.int64)
        wide = rng.integers(i64.min, i64.max, rows, dtype=np.int64,
                            endpoint=True)
        wide[:2] = (i64.min, i64.max)[:rows]
        narrow = (np.arange(rows) % 256 - 128).astype(np.int8)
        unsigned = rng.integers(0, 2 ** 32 - 1, rows, dtype=np.uint32,
                                endpoint=True)
        # one digit through the first chunk, sixteen after it
        k = np.arange(rows)
        growing = np.where(k < CSV_CHUNK, k % 10, -10 ** 15 - k)
        return wide, narrow, unsigned, growing

    @pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK, CSV_CHUNK + 123])
    def test_integer_rows(self, tmp_path, rows):
        header = ("w", "n", "u", "g")
        cols = self.int_columns(rows)
        path = write_csv(tmp_path / "t.csv", header, cols)
        assert path.read_bytes() == joined_csv(header, cols)

    @pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK, CSV_CHUNK + 123])
    def test_single_column(self, tmp_path, rows):
        col = np.arange(rows, dtype=np.int64) - 7
        path = write_csv(tmp_path / "t.csv", ("k",), (col,))
        assert path.read_bytes() == joined_csv(("k",), (col,))

    @pytest.mark.parametrize("col", [
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
        np.array([0] + [s * (10 ** k - j) for k in range(19)
                        for j in (0, 1) for s in (1, -1)]),
        np.arange(-128, 128, dtype=np.int8),
        np.array([-2 ** 31, 2 ** 31 - 1, 0, -1, 10 ** 9], dtype=np.int32),
        np.arange(256, dtype=np.uint8),
        np.array([0, 1, 2 ** 32 - 1, 10 ** 9], dtype=np.uint32),
    ], ids=["int64-extremes", "powers-of-ten", "int8", "int32", "uint8",
            "uint32"])
    def test_integer_column(self, tmp_path, col):
        path = write_csv(tmp_path / "t.csv", ("k",), (col,))
        assert path.read_bytes() == joined_csv(("k",), (col,))

    @pytest.mark.parametrize("cols, text", [
        ((np.array([True, False]),), "True\nFalse\n"),
        ((np.array([2 ** 64 - 1, 0], dtype=np.uint64),),
         "18446744073709551615\n0\n"),
        ((np.array([-1, 2]), np.array([False, True])), "-1,False\n2,True\n"),
    ], ids=["bool", "uint64", "int64-bool"])
    def test_other_columns_keep_percent_path(self, tmp_path, cols, text):
        # only integer columns that fit int64 are formatted by numpy
        cli._digit_words.cache_clear()
        path = write_csv(tmp_path / "t.csv", "abc"[:len(cols)], cols)
        assert cli._digit_words.cache_info().currsize == 0
        data = path.read_bytes()
        assert data == joined_csv("abc"[:len(cols)], cols)
        assert data.decode().split("\n", 1)[1] == text


class TestTypeIIIRatios:
    # --n 1 draws every index as 0; 5e9 and 2^63 - 1 are 64-bit bounds
    @pytest.mark.parametrize("n", [1, 2, 30, 5 * 10**9, 2**63 - 1])
    def test_membership_report(self, tmp_path, capsys, n):
        code = run_cli(tmp_path, "typeiii", "ratios", "--lambda", "0.25",
                       "--lambda-prime", "0.5", "--n", str(n),
                       "--samples", "2000")
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        by_name = {m["name"]: m for m in report["metrics"]}
        assert by_name["lattice_deviation"]["value"] <= 1e-9

    @pytest.mark.parametrize("samples", [2000, 20000])
    def test_golden_outputs(self, tmp_path, capsys, samples):
        # CSV digests recorded from the three array draws (all indices,
        # then all piece numbers, then all points); the metric values have
        # held since the change-of-variables ratios
        code = run_cli(tmp_path, "typeiii", "ratios", "--lambda", "0.25",
                       "--lambda-prime", "0.5", "--n", "30",
                       "--samples", str(samples))
        assert code == EXIT_OK
        csv_bytes = (tmp_path / "typeiii_log_rn.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == {
            2000: "01a233e6b54a7cbd1b73254213dea36304f849845782501cc975c8d4794b27b4",
            20000: "526386d8e8a84546eb367b74aa75218e20d2a4789820588f12dd9a788380010e",
        }[samples]
        got = {m["name"]: (m["value"], m["pass"])
               for m in json.loads(capsys.readouterr().out)["metrics"]}
        assert got == {"lattice_deviation": (0.0, True),
                       "sampled_ratios": (samples, True)}

    def test_draw_law(self, tmp_path, monkeypatch):
        # on the benchmark's command line: n uniform on 0..29, and v
        # uniform on a support piece chosen uniformly
        drawn = []
        profile = typeiii.ratio_profile

        def capture(hspec, n, v):
            drawn.append((n, v))
            return profile(hspec, n, v)

        monkeypatch.setattr(typeiii, "ratio_profile", capture)
        assert run_cli(tmp_path, *TYPEIII, "--seed", "7", "--n", "30",
                       "--samples", "20000") == EXIT_OK
        (ns, vs), = drawn
        assert len(ns) == len(vs) == 20000
        assert ns.min() >= 0 and ns.max() <= 29
        lows, highs = np.array(HMapSpec(0.25, 0.5).support_pieces()).T
        piece = np.searchsorted(lows, vs, side="right") - 1
        assert (piece >= 0).all() and (vs <= highs[piece]).all()
        cells = np.minimum(
            (10 * (vs - lows[piece]) / (highs - lows)[piece]).astype(int), 9)
        for counts in (np.bincount(ns, minlength=30),
                       np.bincount(piece, minlength=3),
                       np.bincount(cells, minlength=10)):
            expected = np.full(len(counts), len(ns) / len(counts))
            assert chi_square_pooled(counts, expected)[1] >= ALPHA

    def test_no_per_sample_generator_calls(self, tmp_path, monkeypatch):
        calls = []
        generator = SeedStream.generator

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)
                return counted

        monkeypatch.setattr(SeedStream, "generator",
                            lambda self, *a: Counted(generator(self, *a)))
        made = []
        for samples in ("50", "20000"):
            calls.clear()
            assert run_cli(tmp_path, *TYPEIII, "--seed", "7", "--n", "30",
                           "--samples", samples) == EXIT_OK
            made.append(list(calls))
        assert made == [["integers", "integers", "uniform"]] * 2


class TestIndexScan:
    def test_scan_csv(self, tmp_path, capsys):
        code = run_cli(tmp_path, "index", "scan", "--c", "0.6", "--kmax", "4")
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        by_name = {m["name"]: m for m in report["metrics"]}
        assert by_name["implied_index"]["value"] == 2
        lines = (tmp_path / "index_scan.csv").read_text().splitlines()
        assert lines[0] == "k,exponent,S,partial_dissip,tail_slope,classification"
        assert len(lines) == 5
        # recorded with DIAG_K = 10^4 and the closed-form verdict
        assert sha256_of(tmp_path / "index_scan.csv") == (
            "7df1de82d9ff91c22b37f3947235f5441f9142a7173643e1a180b12d2fb9756f")


class TestPlotData:
    def test_round_trip(self, tmp_path):
        series = {"a": [(1.0, 2.0), (3.0, 4.5)], "b": [(0.0, -1.25)]}
        path = emit_plot_data(series, tmp_path / "plot.csv")
        assert parse_plot_data(path) == series

    def test_empty_is_header_only(self, tmp_path):
        path = emit_plot_data({}, tmp_path / "empty.csv")
        assert path.read_bytes() == b"series,x,y\n"


TYPEIII = ["typeiii", "ratios", "--lambda", "0.25", "--lambda-prime", "0.5"]

# the --help text of the top-level parser and of each command, at 80
# columns
HELP = {
    "": """\
usage: shiftlab [-h] [--config CONFIG]
                {measure,factor,match,typeiii,index} ...

nonsingular Bernoulli shift laboratory

positional arguments:
  {measure,factor,match,typeiii,index}

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON file of option values; flags override
""",
    "measure check": """\
usage: shiftlab measure check [-h] --measure MEASURE --n N [--k KS]
                              [--seed SEED] [--out-dir OUT_DIR] [--out OUT]

options:
  -h, --help         show this help message and exit
  --measure MEASURE  compact spec, e.g. iid:0.3
  --n N
  --k KS
  --seed SEED
  --out-dir OUT_DIR
  --out OUT          report path (default <out-dir>/<cmd>_report.json)
""",
    "factor run": """\
usage: shiftlab factor run [-h] --measure MEASURE --n N [--radius RADIUS]
                           [--seed SEED] [--out-dir OUT_DIR] [--out OUT]

options:
  -h, --help         show this help message and exit
  --measure MEASURE
  --n N
  --radius RADIUS    fair-bit half-window of the split code
  --seed SEED
  --out-dir OUT_DIR
  --out OUT          report path (default <out-dir>/<cmd>_report.json)
""",
    "match run": """\
usage: shiftlab match run [-h] --measure MEASURE --n N
                          [--dump-window DUMP_WINDOW] [--seed SEED]
                          [--out-dir OUT_DIR] [--out OUT]

options:
  -h, --help            show this help message and exit
  --measure MEASURE
  --n N
  --dump-window DUMP_WINDOW
                        also export the sampled window as index,value CSV
  --seed SEED
  --out-dir OUT_DIR
  --out OUT             report path (default <out-dir>/<cmd>_report.json)
""",
    "typeiii ratios": """\
usage: shiftlab typeiii ratios [-h] --lambda LAM --lambda-prime LAM_PRIME
                               [--n N] [--samples SAMPLES] [--seed SEED]
                               [--out-dir OUT_DIR] [--out OUT]

options:
  -h, --help            show this help message and exit
  --lambda LAM
  --lambda-prime LAM_PRIME
  --n N
  --samples SAMPLES
  --seed SEED
  --out-dir OUT_DIR
  --out OUT             report path (default <out-dir>/<cmd>_report.json)
""",
    "index scan": """\
usage: shiftlab index scan [-h] --c C --kmax KMAX [--seed SEED]
                           [--out-dir OUT_DIR] [--out OUT]

options:
  -h, --help         show this help message and exit
  --c C
  --kmax KMAX
  --seed SEED
  --out-dir OUT_DIR
  --out OUT          report path (default <out-dir>/<cmd>_report.json)
""",
}


class TestSurface:
    """The usage line and --help text of every parser are pinned, so a
    rewrite of the parser keeps what a user sees."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("words", list(HELP))
    def test_help(self, capsys, words):
        assert main([*words.split(), "--help"]) == EXIT_OK
        assert capsys.readouterr().out == HELP[words]

    @pytest.mark.parametrize("command, word", [
        ("measure", "check"), ("factor", "run"), ("match", "run"),
        ("typeiii", "ratios"), ("index", "scan")])
    def test_command_group_help(self, capsys, command, word):
        assert main([command, "--help"]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"usage: shiftlab {command} [-h] {{{word}}} ...\n\n"
            f"positional arguments:\n  {{{word}}}\n\n"
            "options:\n  -h, --help  show this help message and exit\n")

    @pytest.mark.parametrize("words, missing", [
        ("", "command"),
        ("measure check", "--measure, --n"),
        ("factor run", "--measure, --n"),
        ("match run", "--measure, --n"),
        ("typeiii ratios", "--lambda, --lambda-prime"),
        ("index scan", "--c, --kmax"),
    ])
    def test_usage_on_missing_options(self, capsys, words, missing):
        assert main(words.split()) == EXIT_CONFIG
        usage = HELP[words].split("\n\n")[0]
        prog = " ".join(["shiftlab", *words.split()])
        assert capsys.readouterr().err == (
            f"{usage}\n{prog}: error: the following arguments are "
            f"required: {missing}\n")


class TestConfigHandling:
    def test_unknown_command_is_config_error(self, tmp_path):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000}))
        code = main(["--config", str(cfg), "measure", "check", "--measure",
                     "iid:0.4", "--n", "500",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        # explicit flag wins over the config file
        assert report["config"]["params"]["n"] == 500

    def test_config_file_beats_builtin_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 8}))
        main(["--config", str(cfg), "factor", "run", "--measure", "iid:0.3",
              "--n", "100", "--out-dir", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["params"]["radius"] == 8

    def test_config_file_supplies_required_options(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": "iid:0.4", "n": 500,
                                   "seed": 3}))
        code = main(["--config", str(cfg), "measure", "check",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["params"]["n"] == 500
        assert report["config"]["seed"] == 3
        assert "seed" not in report["config"]["params"]

    @pytest.mark.parametrize("values, unknown", [
        ({"seed": 3, "nn": 5, "radius": 8}, "nn, radius"),
        ({"family": "iid", "p0": 0.4}, "family, p0"),
        ({"help": "x"}, "help"),
    ])
    def test_unknown_config_keys_are_config_errors(self, tmp_path, capsys,
                                                   values, unknown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code = main(["--config", str(cfg), "measure", "check", "--measure",
                     "iid:0.4", "--n", "500", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"shiftlab: config error: unknown config key(s) {unknown} for "
            "measure check\n")

    def test_config_list_option_yields_to_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ks": [1, 2]}))
        argv = ["--config", str(cfg), "measure", "check", "--measure",
                "iid:0.4", "--n", "500", "--out-dir", str(tmp_path)]
        main(argv)
        assert json.loads(capsys.readouterr().out)[
            "config"]["params"]["ks"] == [1, 2]
        main(argv + ["--k", "4"])
        assert json.loads(capsys.readouterr().out)[
            "config"]["params"]["ks"] == [4]

    def test_config_file_errors_are_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        for path in (bad, listed, tmp_path / "missing.json"):
            code = main(["--config", str(path), "measure", "check",
                         "--measure", "iid:0.4", "--n", "500",
                         "--out-dir", str(tmp_path)])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("shiftlab: config error: ")
        # a file value is converted as its flag's text would be, and must
        # be one string or number (a list of them for --k)
        for values, reason in (
                ({"ks": 3}, "config error: config value 3 for --k: "
                            "expected a list"),
                ({"ks": [0.5]}, "config error: config value [0.5] for --k: "
                                "invalid int"),
                ({"measure": 5}, "config error: bad measure spec '5'"),
                ({"n": True}, "config error: config value true for --n: "
                              "expected a string"),
                ({"n": None}, "config error: config value null for --n: "
                              "expected a string"),
                ({"n": [500]}, "config error: config value [500] for --n: "
                               "expected a"),
                ({"n": 500.5}, "error: argument --n: invalid int value: "
                               "'500.5'")):
            listed.write_text(json.dumps(values))
            code = main(["--config", str(listed), "measure", "check",
                         "--out-dir", str(tmp_path)]
                        + ([] if "n" in values else ["--n", "500"])
                        + ([] if "measure" in values
                           else ["--measure", "iid:0.4"]))
            assert code == EXIT_CONFIG
            assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["measure", "check", "--measure", "iid:0.4", "--n", "200"],
        ["index", "scan", "--c", "0.5", "--kmax", "3"],
        TYPEIII + ["--n", "10", "--samples", "20"],
    ])
    def test_config_file_sets_report_paths(self, tmp_path, capsys, command):
        # every command's parser reads the file; a path value is converted
        # once per command, not once per parser
        name = command[0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "d")}))
        assert main(["--config", str(cfg), *command]) == EXIT_OK
        assert (tmp_path / "d" / f"{name}_report.json").exists()
        cfg.write_text(json.dumps({"out": str(tmp_path / "r.json")}))
        assert main(["--config", str(cfg), *command,
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["config"]["command"] == name
        assert not (tmp_path / f"{name}_report.json").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("command, option", [
        (["measure", "check", "--measure", "iid:0.4"], "n"),
        (["factor", "run", "--measure", "iid:0.3"], "n"),
        (["match", "run", "--measure", "iid:0.5"], "n"),
        (TYPEIII, "n"),
        (TYPEIII + ["--n", "10"], "samples"),
        (["index", "scan", "--c", "0.5"], "kmax"),
        (["factor", "run", "--measure", "iid:0.3", "--n", "1000"], "radius"),
    ])
    def test_nonpositive_sizes_are_config_errors(self, tmp_path, capsys,
                                                  command, option):
        # a radius of 0 is legal, so only a radius must be non-negative
        least, sign = ((0, "non-negative") if option == "radius"
                       else (1, "positive"))
        cfg = tmp_path / "cfg.json"
        for value in (least - 1, -5):
            cfg.write_text(json.dumps({option: value}))
            # the value as a flag, then from the config file
            for argv in (command + [f"--{option}", str(value)],
                         ["--config", str(cfg)] + command):
                assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_CONFIG
                assert capsys.readouterr().err == (
                    f"shiftlab: config error: --{option} must be a {sign} "
                    "integer\n")

    def test_n_beyond_int64_is_config_error(self, tmp_path, capsys):
        assert run_cli(tmp_path, *TYPEIII, "--n", str(2**63)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"shiftlab: config error: --n must be at most {2**63 - 1}\n")
        assert not (tmp_path / "typeiii_report.json").exists()

    @pytest.mark.parametrize("command", ["factor", "match"])
    def test_window_beyond_the_cap_is_config_error(self, tmp_path, capsys,
                                                   command):
        out = tmp_path / "o"
        assert main([command, "run", "--measure", "iid:0.3", "--n",
                     str(10**12), "--out-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"shiftlab: config error: --n must be at most {cli.MAX_SITES}: "
            f"a window holds up to ~{cli.SITE_BYTES} bytes a site, ~3.2 GB "
            "at that cap\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--k", 2**63 - 1), ("--k", -2**63), ("--k", 2**61),
        ("--k", -2**61), ("--n", 2**61),
    ])
    def test_measure_index_beyond_int64_is_config_error(
            self, tmp_path, capsys, flag, value):
        # measure check reads the marginals at -n - k .. n - k, so n and
        # |k| are bounded before an index can overflow int64
        most = 2**61 - 1
        argv = ["measure", "check", "--measure", "iid:0.3", flag, str(value)]
        if flag == "--k":
            argv += ["--n", "100"]
            reason = f"--k must lie in {-most} .. {most}"
        else:
            reason = f"--n must be at most {most}"
        assert run_cli(tmp_path, *argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"shiftlab: config error: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value", [
        ("--out", "afile/r.json"), ("--out-dir", "afile/sub"),
        ("--dump-window", "afile/w.csv"),
    ])
    def test_uncreatable_output_path_is_config_error(
            self, tmp_path, monkeypatch, capsys, option, value):
        # a path through a regular file is refused before any work runs
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        argv = ["match", "run", "--measure", "iid:0.5", "--n", "500",
                option, value]
        if option != "--out-dir":
            argv += ["--out-dir", "."]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("shiftlab: config error: ") and "afile" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    @pytest.mark.parametrize("argv, first, second", [
        (["match", "run", "--measure", "iid:0.5", "--n", "2000",
          "--dump-window", "radius_histogram.csv"],
         "artifact o/radius_histogram.csv",
         "--dump-window o/radius_histogram.csv"),
        (["index", "scan", "--c", "0.5", "--kmax", "2",
          "--out", "o/index_scan.csv"],
         "artifact o/index_scan.csv", "--out o/index_scan.csv"),
        (["match", "run", "--measure", "iid:0.5", "--n", "2000",
          "--dump-window", "w.csv", "--out", "o/w.csv"],
         "--dump-window o/w.csv", "--out o/w.csv"),
        (["match", "run", "--measure", "iid:0.5", "--n", "2000",
          "--dump-window", "sub/../match_report.json"],
         "--dump-window o/sub/../match_report.json",
         "report o/match_report.json"),
    ], ids=["dump-artifact", "out-artifact", "dump-out", "dump-report"])
    def test_outputs_at_one_path_are_config_error(
            self, tmp_path, monkeypatch, capsys, argv, first, second):
        # no output may overwrite another: refused before any work runs
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o").mkdir()
        assert main([*argv, "--out-dir", "o"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"shiftlab: config error: {first} and {second} are one file\n")
        assert list(tmp_path.rglob("*")) == [tmp_path / "o"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SHIFTLAB_OUT", str(tmp_path / "envout"))
        code = main(["measure", "check", "--measure", "iid:0.5",
                     "--n", "200"])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "measure_report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["measure", "check", "--measure", "nu_c:nan"],
        ["measure", "check", "--measure", "nu_c:inf"],
        ["measure", "check", "--measure", "mu:0.3,nan"],
        ["measure", "check", "--measure", "iid:nan"],
        ["factor", "run", "--measure", "iid:nan"],
    ])
    def test_non_finite_measure_is_config_error(self, tmp_path, capsys,
                                                argv):
        assert run_cli(tmp_path, *argv, "--n", "100") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"shiftlab: config error: bad measure spec {argv[3]!r}: ")

    @pytest.mark.parametrize("flags", [
        ["--c", "nan"],
        ["--c", "inf"],
    ])
    def test_non_finite_index_scan_is_config_error(self, tmp_path, capsys,
                                                   flags):
        assert run_cli(tmp_path, "index", "scan", *flags,
                       "--kmax", "3") == EXIT_CONFIG
        assert capsys.readouterr().err == ("shiftlab: config error: c must "
                                           "be positive and finite\n")
        assert not (tmp_path / "index_report.json").exists()

    def test_assumed_critical_value_is_refused(self, tmp_path, capsys):
        # the verdict is derived from c; a supplied threshold is not an option
        scan = ["index", "scan", "--c", "0.5", "--kmax", "3"]
        assert run_cli(tmp_path, *scan, "--d-assumed", "1.0") == EXIT_CONFIG
        assert ("unrecognized arguments: --d-assumed 1.0"
                in capsys.readouterr().err)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_assumed": 1.0}))
        assert main(["--config", str(cfg), *scan,
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "shiftlab: config error: unknown config key(s) d_assumed for "
            "index scan\n")
        assert not (tmp_path / "index_report.json").exists()

    @pytest.mark.parametrize("spec", ["iid:0", "iid:1"])
    def test_degenerate_bond_is_config_error(self, tmp_path, capsys, spec):
        # the zero Doeblin bound is the report's to state, not a warning's
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(tmp_path, "measure", "check", "--measure", spec,
                           "--n", "10")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "shiftlab: config error: degenerate marginals at bond (-10, -9)\n")
        assert caught == []

    @pytest.mark.parametrize("spec, reason", [
        ("iid:0.3,0.2", "iid takes 1 number (p0), got 2"),
        ("nu_c:0.1,0.2", "nu_c takes 1 number (c), got 2"),
        ("mu:0.3", "mu takes 2 numbers (p,c), got 1"),
    ])
    def test_wrong_number_count_is_config_error(self, tmp_path, capsys,
                                                spec, reason):
        code = run_cli(tmp_path, "measure", "check", "--measure", spec,
                       "--n", "10")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"shiftlab: config error: bad measure spec {spec!r}: {reason}\n")

    @pytest.mark.parametrize("spec", ["iid:1e-104", "mu:1e-320,0.5"])
    @pytest.mark.parametrize("command", ["factor", "match"])
    def test_subnormal_q_is_config_error(self, tmp_path, capsys, command,
                                         spec):
        # q is positive but 8/q overflows, so there is no capacity d
        assert run_cli(tmp_path, command, "run", "--measure", spec,
                       "--n", "1000") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("shiftlab: config error: q = ")
        assert err.endswith("gives no finite capacity 8/q\n")

    def test_family_flags_are_gone(self, tmp_path, capsys):
        code = run_cli(tmp_path, "measure", "check", "--family", "nu_c",
                       "--c", "0.1", "--n", "100")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err


# per command, the flags of one run; then two values of every option, the
# first given by the config file and the second as a flag
RUN_FLAGS = {
    "measure": {"--measure": "iid:0.4", "--n": 200},
    "factor": {"--measure": "iid:0.3", "--n": 2000},
    "match": {"--measure": "iid:0.5", "--n": 500},
    "typeiii": {"--lambda": 0.25, "--lambda-prime": 0.5, "--samples": 50},
    "index": {"--c": 0.5, "--kmax": 2},
}
OPTION_VALUES = {
    "--measure": ("iid:0.45", "iid:0.35"), "--n": (300, 400),
    "--k": ([3, -2], [5]), "--radius": (8, 16),
    "--dump-window": ("w.csv", "v/w.csv"), "--lambda": (0.2, 0.3),
    "--lambda-prime": (0.6, 0.55), "--samples": (60, 70),
    "--c": (0.6, 0.7), "--kmax": (3, 1), "--seed": (3, 4),
    "--out-dir": ("o", "p"), "--out": ("r.json", "s/r.json"),
}


@pytest.mark.parametrize("command, flag, dest", [
    pytest.param(command, flag,
                 keywords.get("dest", flag[2:].replace("-", "_")),
                 id=f"{command} {flag}")
    for command, (_, _, _, options) in cli._COMMANDS.items()
    for flag, keywords in options + cli._COMMON])
def test_config_file_reaches_every_option(tmp_path, monkeypatch, capsys,
                                          command, flag, dest):
    # a file value gives the report config its flag gives, and a flag
    # beats the file
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SHIFTLAB_OUT", raising=False)
    base = [command, cli._COMMANDS[command][0]]
    for other, value in RUN_FLAGS[command].items():
        if other != flag:
            base += [other, str(value)]

    def flags(value):
        return [a for v in (value if isinstance(value, list) else [value])
                for a in (flag, str(v))]

    def config(argv):
        assert main(argv) in (EXIT_OK, EXIT_CHECK_FAILED)
        return json.loads(capsys.readouterr().out)["config"]

    in_file, as_flag = OPTION_VALUES[flag]
    (tmp_path / "cfg.json").write_text(json.dumps({dest: in_file}))
    from_file = ["--config", "cfg.json", *base]
    assert config(from_file) == config(base + flags(in_file))
    assert config(from_file + flags(as_flag)) == config(base + flags(as_flag))


class TestStartUp:
    @staticmethod
    def fresh_python(code):
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True).stdout.strip()

    def test_cli_import_leaves_scipy_unloaded(self):
        assert self.fresh_python(
            "import shiftlab.cli, sys; print('scipy' in sys.modules)") \
            == "False"

    def test_cli_import_leaves_digit_tables_unbuilt(self):
        # the integer CSV formatter builds its tables on first use
        assert self.fresh_python(
            "import shiftlab.cli as cli; "
            "print(cli._digit_words.cache_info().currsize)") == "0"


class TestReportBytes:
    """One command line of each command, with its written report and its
    stdout pinned by sha256.  The paths are relative to the working
    directory, so the bytes hold no temporary path and need no rewriting
    before they are hashed."""

    @pytest.mark.parametrize("argv, path, report, stdout", [
        (["measure", "check", "--measure", "mu:0.3,0.5", "--n", "1000",
          "--k", "3", "--k", "-2", "--seed", "5"],
         "o/measure_report.json",
         "1baec73a941e24eccf62c3900699ff74"
         "7075c9d06db86deb61b36a9fd98d9bbd",
         "1d9c3eb51d596561f692d0f2ca3ef1c3"
         "44b806aa2b672be7820412e483b82319"),
        (["factor", "run", "--measure", "iid:0.3", "--n", "200000",
          "--radius", "16"],
         "o/factor_report.json",
         "5795fc1362ff21cf09565b523f82beab"
         "49cfe5ccf8078e764ccab6acc00a1597",
         "532ba2ddafa63c0eae14893e60bee915"
         "d5d2128a34f32581341e834da5a4434e"),
        (["match", "run", "--measure", "nu_c:0.1", "--n", "20000",
          "--dump-window", "w/window.csv"],
         "o/match_report.json",
         "231b0e74797feacc05ecdb3323daf6a0"
         "249b1979ad4a4789f6f62e9248943c6f",
         "b2baae803fb078966e2fd94b063d7dd8"
         "ad2fd874a49428cab260e548495541b6"),
        (TYPEIII + ["--n", "30", "--samples", "500"],
         "o/typeiii_report.json",
         "6ebe9096d78ba6399f5af0cb52c3c070"
         "ea53223a2feb1fcf54d9490015f03fc2",
         "b2c170ede9565ca2f03b50700a747475"
         "56bc7cb32a956b006f3b09849fb2ac02"),
        (["index", "scan", "--c", "0.6", "--kmax", "5", "--out",
          "r/index.json"], "r/index.json",
         "a7f728e7a0d2f4c73d0d367335ab28a6"
         "1c319c36644bc46cb3e005f9d9de214e",
         "6f871b2357c015e5bb8f944a3cd9cdfc"
         "5a5e1fb5e31c39cc74fed602fc722b39"),
    ], ids=["measure", "factor", "match", "typeiii", "index"])
    def test_digests(self, tmp_path, monkeypatch, capsys, argv, path, report,
                     stdout):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out-dir", "o"]) == EXIT_OK
        out = capsys.readouterr().out
        assert (sha256_of(tmp_path / path),
                hashlib.sha256(out.encode()).hexdigest()) == (report, stdout)


class TestTracedBenchmarkPath:
    """The benchmark's traced child wraps library functions by name and
    reads fields of what they return; each benchmark command line, at the
    benchmark's smoke-test sizes, must still run under it, write its spans,
    raise no error in an observer and pass the benchmark's own output
    check, which rebuilds what it can without the library."""

    ROOT = Path(__file__).resolve().parents[1]

    @staticmethod
    @functools.cache
    def workloads():
        """``workloads(tiny=True)`` of the benchmark's ``run.py``."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", TestTracedBenchmarkPath.ROOT / "perfbench"
            / "run.py")
        run = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = run
        spec.loader.exec_module(run)
        return run.workloads(tiny=True)

    @pytest.mark.parametrize("name", [
        "factor-iid", "match-nu", "measure-mu", "typeiii-ratios",
    ], ids=lambda name: name.split("-")[0])
    def test_traced_command_runs(self, tmp_path, name):
        w = self.workloads()[name]
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(self.ROOT / "perfbench" / "child.py"),
             str(tmp_path / "timing.json"), "--trace", str(spans), "--",
             *w.argv, "--seed", "7"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(
                self.ROOT / "src")},
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        trace = json.loads(spans.read_text())
        assert trace["spans"]
        assert "trace.observer_errors" not in trace["counts"]
        report = json.loads(
            (tmp_path / f"{w.argv[0]}_report.json").read_text())
        assert w.check(tmp_path, report, w.expect, 7) == []


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # each `shiftlab ...` line of the README's usage block, as printed
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines()
             if line.startswith("shiftlab ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SHIFTLAB_OUT", raising=False)
    for line in lines:
        code = main(shlex.split(line)[1:])
        assert code == EXIT_OK, (line, capsys.readouterr().err)
