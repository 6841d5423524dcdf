"""Driver behavior: config parsing, rate tables, output files, exit codes."""
import contextlib
import dataclasses
import gc
import io
import math
import os
import pathlib
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from fracadi import cli
from fracadi.cli import (
    _RUN_KEYS,
    ConfigError,
    RateTable,
    RunConfig,
    build_custom_problem,
    build_run_config,
    convergence_rates,
    fmt,
    load_config_file,
    main,
    make_parser,
    parse_rate_csv,
)
from fracadi.oracle import weight_identity_residual
from fracadi.solver import AdiSolver
from fracadi.weights import build_correction_set, default_sigmas

CONFIGS = sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))

# per [run] key: its INI text, the value that text reads as, the arguments
# of its flag and the value they read as (list flags give tuples)
RUN_KEY_VALUES = {
    "problem": ("example_6_1", "example_6_1", ["example_6_2"], "example_6_2"),
    "N": ("8", 8, ["12"], 12),
    "M": ("4", 4, ["6"], 6),
    "T": ("0.5", 0.5, ["2"], 2.0),
    "m": ("1", 1, ["2"], 2),
    "sigma": ("1.1, 1.3", (1.1, 1.3), ["1.2", "1.4"], (1.2, 1.4)),
    "bootstrap_ratio": ("10", 10, ["20"], 20),
    "study_param": ("N", "N", ["tau"], "tau"),
    "levels": ("10, 20", (10, 20), ["30", "40"], (30, 40)),
    "source_mode": ("sampled", "sampled", ["analytic"], "analytic"),
    "output": ("out/a", "out/a", ["out/b"], "out/b"),
}


def run_command(argv):
    """main(argv) with standard output captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestFmt:
    def test_fifteen_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333333333"
        assert fmt(2.0) == "2"
        assert fmt(0.0) == "0"

    def test_default_sigmas(self):
        assert default_sigmas(3) == pytest.approx((1.1, 1.2, 1.3))
        assert default_sigmas(0) == ()


class TestConvergenceRates:
    def test_exact_second_order(self):
        rates = convergence_rates((1.0, 0.25, 0.0625), (1.0, 0.5, 0.25))
        assert rates[0] is None
        assert rates[1] == pytest.approx(2.0, rel=1e-14)
        assert rates[2] == pytest.approx(2.0, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="one error per"):
            convergence_rates((1.0, 0.5), (1.0,))

    def test_rate_undefined_where_an_error_is_not_positive(self):
        # a pair with an error of 0 (say, underflowed) has no rate
        rates = convergence_rates((1.0, 0.25, 0.0, 0.0, 0.01), (1.0, 0.5, 0.25, 0.125, 0.0625))
        assert rates[1] == pytest.approx(2.0, rel=1e-14)
        assert rates[2:] == [None, None, None]


class TestRateTable:
    def make(self):
        return RateTable(
            param_name="one_over_tau",
            params=(10.0, 20.0),
            l2_errors=(1e-2, 2.5e-3),
            max_errors=(2e-2, 5e-3),
            hs=(0.1, 0.05),
        )

    def test_header(self):
        assert self.make().header() == "one_over_tau, l2_error, rate, max_l2_error, max_rate"

    def test_first_rate_blank(self):
        lines = self.make().csv_lines()
        assert lines[1] == "10, 0.01, , 0.02, "
        assert lines[2] == "20, 0.0025, 2, 0.005, 2"

    def test_round_trip(self, tmp_path):
        table = self.make()
        path = tmp_path / "rates.csv"
        path.write_text("\n".join(table.csv_lines()) + "\n")
        header, rows = parse_rate_csv(path)
        assert header == table.header()
        assert rows[0] == (10.0, 0.01, None, 0.02, None)
        assert rows[1] == (20.0, 0.0025, 2.0, 0.005, 2.0)


class TestCustomProblem:
    def full_section(self):
        return {
            "name": "demo",
            "alpha": "1.4",
            "alphas": "1.0 0.3",
            "coeffs": "0.5 1.0",
            "mu": "1.5",
            "domain": "0 2 -1 1",
            "forcing_mode_1_1": "1.0 1.5, 2.0 3.0",
            "forcing_mode_2_1": "0.5 2.0",
        }

    def test_complete_section(self):
        spec = build_custom_problem(self.full_section())
        assert spec.name == "demo"
        assert spec.alpha == 1.4
        assert spec.alphas == (1.0, 0.3)
        assert spec.mu == 1.5
        assert not spec.has_exact
        assert len(spec.forcing_terms) == 3
        assert sorted(t.exponent for t in spec.forcing_terms) == [1.5, 2.0, 3.0]

    def test_modes_vanish_on_the_boundary(self):
        spec = build_custom_problem(self.full_section())
        for term in spec.forcing_terms:
            for x, y in ((0.0, 0.3), (2.0, -0.5), (1.3, -1.0), (0.7, 1.0)):
                assert term.profile.values(x, y) == pytest.approx(0.0, abs=1e-15)
            assert abs(term.profile.values(0.9, 0.1)) > 0.0

    def test_missing_keys_all_reported(self):
        with pytest.raises(ConfigError) as info:
            build_custom_problem({})
        assert sorted(info.value.messages) == [
            "problem.alpha: missing required key",
            "problem.domain: missing required key",
            "problem.mu: missing required key",
        ]

    def test_spec_errors_name_the_field(self):
        section = self.full_section()
        section["alphas"] = "1.6 0.3"
        with pytest.raises(ConfigError) as info:
            build_custom_problem(section)
        assert info.value.messages == [
            "problem.alphas: orders must be strictly decreasing after alpha"
        ]

    def test_bad_mu_named(self):
        section = self.full_section()
        section["mu"] = "-2.0"
        with pytest.raises(ConfigError, match=r"problem\.mu"):
            build_custom_problem(section)

    def test_unknown_key_rejected(self):
        section = self.full_section()
        section["zap"] = "1"
        with pytest.raises(ConfigError, match=r"problem\.zap: unknown key"):
            build_custom_problem(section)

    def test_bad_mode_indices_rejected(self):
        section = self.full_section()
        section["forcing_mode_0_1"] = "1.0 2.0"
        with pytest.raises(ConfigError, match="positive integers"):
            build_custom_problem(section)


class TestRunConfigValidate:
    def test_collects_every_error(self):
        cfg = RunConfig(problem="nope", N=2, M=-1, T=-1.0, m=9)
        with pytest.raises(ConfigError) as info:
            cfg.validate()
        joined = "\n".join(info.value.messages)
        for fragment in (
            "problem: unknown id",
            "N: degree must be at least 4",
            "M: step count must be nonnegative",
            "T: final time must be positive",
            "m: correction count must lie in 0..6",
        ):
            assert fragment in joined

    def test_sigma_rules(self):
        cfg = RunConfig(problem="compatible_smooth", N=8, M=10, m=2, sigma=(1.2, 1.1))
        with pytest.raises(ConfigError) as info:
            cfg.validate()
        joined = "\n".join(info.value.messages)
        assert "sigma: correction exponents must be strictly increasing" in joined

    def test_study_needs_levels(self):
        cfg = RunConfig(problem="compatible_smooth", N=8, levels=(10,))
        with pytest.raises(ConfigError, match="two refinement levels"):
            cfg.validate(need_study=True)

    def test_n_study_skips_fixed_degree(self):
        cfg = RunConfig(problem="compatible_smooth", M=100, study_param="N", levels=(4, 8))
        cfg.validate(need_study=True)  # no error: levels supply the degrees


class TestConfigFile:
    def test_steps_and_corrections_keys_stay_distinct(self, tmp_path):
        path = tmp_path / "case.ini"
        path.write_text("[run]\nproblem = compatible_nonsmooth\nN = 8\nM = 24\nm = 1\n")
        run_section, problem_section = load_config_file(path)
        assert run_section["M"] == "24"
        assert run_section["m"] == "1"
        assert problem_section is None

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("problem = compatible_smooth\n")  # key before any section
        with pytest.raises(ConfigError, match="config:"):
            load_config_file(path)

    def test_unknown_run_key(self, tmp_path):
        path = tmp_path / "case.ini"
        path.write_text(
            "[run]\nproblem = compatible_smooth\nN = 8\nM = 4\nzap = 1\nquad_count = 30\n"
        )
        args = make_parser().parse_args(["run", "--config", str(path)])
        with pytest.raises(ConfigError, match=r"run\.zap: unknown key") as info:
            build_run_config(args)
        assert "run.quad_count: unknown key" in info.value.messages

    def test_every_run_key_is_tested(self):
        assert set(RUN_KEY_VALUES) == set(_RUN_KEYS)

    def test_every_flag_is_a_run_key(self, capfd):
        # the reverse of the test above: every run and study flag but
        # --config is the flag of a RunConfig field, and the study
        # settings are flags of study alone
        subs = next(a for a in make_parser()._actions if a.option_strings == []).choices
        keys = {f.name for f in dataclasses.fields(RunConfig)} - {"custom"}
        study_only = {"study_param", "levels"}
        for command, names in (("run", keys - study_only), ("study", keys)):
            flags = {
                a.option_strings[0]: a.dest
                for a in subs[command]._actions
                if a.dest not in ("help", "config")
            }
            assert flags == {"--" + name.replace("_", "-"): name for name in names}
        for argv in (["--study-param", "N"], ["--levels", "10", "20"]):
            assert main(["run", "--problem", "compatible_smooth", *argv]) == 1
            assert capfd.readouterr().err.startswith("config error: usage:")
            assert make_parser().parse_args(["study", *argv]).command == "study"

    @pytest.mark.parametrize("key", list(_RUN_KEYS))
    def test_key_read_with_its_type_and_overridden_by_its_flag(self, tmp_path, key):
        text, from_file, flag_args, from_flag = RUN_KEY_VALUES[key]
        path = tmp_path / "case.ini"
        path.write_text(f"[run]\n{key} = {text}\n")
        base = ["study", "--config", str(path)]
        cfg = build_run_config(make_parser().parse_args(base))
        assert getattr(cfg, key) == from_file
        assert type(getattr(cfg, key)) is type(from_file)
        flag = "--" + key.replace("_", "-")
        cfg = build_run_config(make_parser().parse_args(base + [flag] + flag_args))
        assert getattr(cfg, key) == from_flag
        assert type(getattr(cfg, key)) is type(from_flag)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_configs_validate(self, path):
        study = "levels" in load_config_file(path)[0]
        args = make_parser().parse_args(["study" if study else "run", "--config", str(path)])
        build_run_config(args).validate(need_study=study)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "case.ini"
        path.write_text("[run]\nproblem = compatible_smooth\nN = 8\nM = 4\n")
        args = make_parser().parse_args(["run", "--config", str(path), "--N", "12"])
        cfg = build_run_config(args)
        assert cfg.N == 12
        assert cfg.M == 4
        assert cfg.problem == "compatible_smooth"


class TestWeightIdentityResidual:
    @pytest.mark.parametrize("order", [-0.5, 0.3, 0.9])
    @pytest.mark.parametrize("row", [0, 1, 10])
    def test_identities_hold(self, order, row):
        assert weight_identity_residual(order, (1.1, 1.2), 11)[row] <= 1e-12

    @pytest.mark.parametrize("table", ["frac", "delta", "perturb"])
    def test_defect_in_each_table_is_seen(self, monkeypatch, table):
        def corrupted(orders, exponents, rows):
            cs = build_correction_set(orders, exponents, rows)
            for weights in cs.frac.values() if table == "frac" else [getattr(cs, table)]:
                weights[1:] += 1e-9
            return cs

        monkeypatch.setattr("fracadi.oracle.build_correction_set", corrupted)
        assert np.all(weight_identity_residual(0.3, (1.1, 1.2), 11)[1:] > 1e-11)


class TestMainRun:
    def test_reference_run_outputs(self, tmp_path):
        code, out = run_command([
            "run", "--problem", "compatible_smooth",
            "--N", "16", "--M", "64", "--output", str(tmp_path),
        ])
        assert code == 0
        assert "final_l2_error" in out
        assert "wall_time_s" in out

        diag = read_kv(tmp_path / "diagnostics.txt")
        assert diag["problem"] == "compatible_smooth"
        assert diag["N"] == "16"
        assert diag["M"] == "64"
        assert float(diag["final_l2_error"]) == pytest.approx(1.1322082684e-4, rel=1e-6)
        assert float(diag["stability_ratio"]) <= 1.0
        assert float(diag["boundary_mismatch"]) <= 1e-13
        assert "wall_time_s" not in diag

        surface = (tmp_path / "surface.dat").read_text().splitlines()
        assert len(surface) == 101 * 101
        for line in surface:
            x, y, value = line.split()
            if abs(abs(float(x)) - 1.0) < 1e-12 or abs(abs(float(y)) - 1.0) < 1e-12:
                assert value == "0"

    def test_identical_configs_reproduce_identical_files(self, tmp_path, capfd):
        argv = ["run", "--problem", "compatible_nonsmooth", "--N", "8", "--M", "12"]
        assert main(argv + ["--output", str(tmp_path / "a")]) == 0
        assert main(argv + ["--output", str(tmp_path / "b")]) == 0
        capfd.readouterr()
        for name in ("diagnostics.txt", "surface.dat"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_huge_finite_domain_runs(self, tmp_path, capfd):
        # the corners sum past the float range; their midpoint does not
        text = CUSTOM_CONFIG.read_text(encoding="utf-8")
        config = tmp_path / "huge.ini"
        config.write_text(
            text.replace("domain = 0, 2, -1, 1", "domain = 1e308, 1.5e308, -1, 1"),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config), "--output", str(tmp_path / "out")]) == 0
        capfd.readouterr()
        diag = read_kv(tmp_path / "out" / "diagnostics.txt")
        for key in ("final_l2_norm", "max_l2_norm", "stability_ratio"):
            assert math.isfinite(float(diag[key]))
        assert float(diag["final_l2_norm"]) == pytest.approx(1.33734511090874e153, rel=1e-6)

    @pytest.mark.parametrize(
        "mode, used", [("auto", "analytic"), ("analytic", "analytic"), ("sampled", "sampled")]
    )
    def test_source_mode_used_is_recorded(self, tmp_path, capfd, mode, used):
        # the configured mode is echoed as given, the resolved one beside it
        argv = ["run", "--problem", "compatible_nonsmooth", "--N", "8", "--M", "12"]
        assert main(argv + ["--source-mode", mode, "--output", str(tmp_path)]) == 0
        capfd.readouterr()
        diag = read_kv(tmp_path / "diagnostics.txt")
        assert diag["source_mode"] == mode
        assert diag["source_mode_used"] == used

    @pytest.mark.parametrize(
        "problem, degree, modes",
        [("compatible_smooth", "20", "81 of 361"), ("compatible_smooth", "4", "1 of 9"),
         ("example_6_2", "8", "49 of 49")],
    )
    def test_marched_modes_are_recorded(self, tmp_path, capfd, problem, degree, modes):
        # the odd-odd parity class alone on the symmetric problem, every
        # mode on the printed domain
        argv = ["run", "--problem", problem, "--N", degree, "--M", "4", "--output", str(tmp_path)]
        assert main(argv) == 0
        capfd.readouterr()
        assert read_kv(tmp_path / "diagnostics.txt")["marched_modes"] == modes

    def test_corrected_run_from_config_file(self, tmp_path, capfd):
        path = tmp_path / "case.ini"
        path.write_text(
            "[run]\nproblem = compatible_nonsmooth\nN = 8\nM = 24\nm = 1\n"
            "bootstrap_ratio = 1\noutput = " + str(tmp_path / "out") + "\n"
        )
        assert main(["run", "--config", str(path)]) == 0
        capfd.readouterr()
        diag = read_kv(tmp_path / "out" / "diagnostics.txt")
        assert diag["M"] == "24"
        assert diag["m"] == "1"
        assert diag["sigma"] == "1.1"
        assert diag["bootstrap_ratio"] == "1"

    @pytest.mark.filterwarnings("error")
    def test_large_step_prints_one_note(self, tmp_path, capfd):
        # a step T/M >= 1 is outside the stability analysis: run and study
        # say so in one stderr line, for the largest step, and still exit 0
        # with their usual output
        argv = ["--problem", "compatible_smooth", "--N", "8", "--T", "40"]
        assert main(["run", *argv, "--M", "20", "--output", str(tmp_path / "run")]) == 0
        captured = capfd.readouterr()
        assert captured.err.splitlines() == [
            "note: step T/M = 2 is >= 1, outside the stability analysis"
        ]
        assert captured.out.splitlines()[0] == "command = run"
        assert main(["study", *argv, "--levels", "10", "80", "--output", str(tmp_path / "s")]) == 0
        captured = capfd.readouterr()
        assert captured.err.splitlines() == [
            "note: step T/M = 4 is >= 1, outside the stability analysis"
        ]
        assert captured.out.splitlines()[0].startswith("one_over_tau, l2_error")
        assert main(["run", *argv[:-2], "--M", "20", "--output", str(tmp_path / "small")]) == 0
        assert capfd.readouterr().err == ""

    def test_zero_forcing_gives_zero_surface(self, tmp_path, capfd):
        path = tmp_path / "quiet.ini"
        path.write_text(
            "[run]\nN = 8\nM = 4\n\n[problem]\nname = silent\nalpha = 1.5\n"
            "mu = 1.0\ndomain = -1 1 -1 1\n"
        )
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "out")]) == 0
        capfd.readouterr()
        diag = read_kv(tmp_path / "out" / "diagnostics.txt")
        assert diag["final_l2_norm"] == "0"
        assert "final_l2_error" not in diag
        for line in (tmp_path / "out" / "surface.dat").read_text().splitlines():
            assert line.split()[2] == "0"

    def test_unforced_problem_runs_in_every_source_mode(self, tmp_path, capfd):
        # without forcing the sampled source is g alone, here zero, as the
        # analytic one is
        path = tmp_path / "quiet.ini"
        path.write_text(
            "[run]\nN = 8\nM = 20\n\n[problem]\nname = silent\nalpha = 1.5\n"
            "alphas = 0.5\ncoeffs = 1.0\nmu = 1.0\ndomain = -1 1 -1 1\n"
        )
        diags = {}
        for mode in ("analytic", "sampled"):
            out = tmp_path / mode
            argv = ["run", "--config", str(path), "--source-mode", mode, "--output", str(out)]
            assert main(argv) == 0
            diags[mode] = read_kv(out / "diagnostics.txt")
        capfd.readouterr()
        for key in ("final_l2_norm", "max_l2_norm", "stability_ratio"):
            assert diags["sampled"][key] == diags["analytic"][key] == "0"


class TestMainStudy:
    def test_temporal_study_rates(self, tmp_path, capfd):
        code = main([
            "study", "--problem", "compatible_nonsmooth",
            "--N", "12", "--levels", "20", "40", "80", "--output", str(tmp_path),
        ])
        assert code == 0
        capfd.readouterr()
        header, rows = parse_rate_csv(tmp_path / "rates.csv")
        assert header.startswith("one_over_tau")
        assert [row[0] for row in rows] == [20.0, 40.0, 80.0]
        l2 = [row[1] for row in rows]
        assert l2[0] > l2[1] > l2[2]
        assert rows[0][2] is None
        for row in rows[1:]:
            assert 0.95 <= row[4] <= 1.7  # uncorrected nonsmooth: first order

        conv = (tmp_path / "convergence.dat").read_text().splitlines()
        assert conv[0] == "# one_over_tau l2_error"
        assert len(conv) == 4

    def test_levels_run_in_order_on_the_calling_thread(self, tmp_path, capfd, monkeypatch):
        calls = []
        execute = cli._execute

        def record(cfg, problem, steps, degree):
            calls.append((threading.current_thread() is threading.main_thread(), degree, steps))
            return execute(cfg, problem, steps, degree)

        monkeypatch.setattr(cli, "_execute", record)
        config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "table2_m0.ini"
        code = main([
            "study", "--config", str(config), "--N", "8", "--levels", "10", "20", "40",
            "--output", str(tmp_path),
        ])
        assert code == 0
        capfd.readouterr()
        assert calls == [(True, 8, 10), (True, 8, 20), (True, 8, 40)]

    def test_each_level_released_before_the_next(self, tmp_path, capfd, monkeypatch):
        # a study holds one level's trajectory at a time: when a march
        # starts, every RunResult of the earlier levels is dead
        results, alive = [], []
        march = cli.run

        def checked(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in results))
            result = march(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(cli, "run", checked)
        code = main([
            "study", "--problem", "compatible_smooth", "--N", "8", "--levels", "10", "20", "40",
            "--output", str(tmp_path),
        ])
        assert code == 0
        capfd.readouterr()
        assert alive == [0, 0, 0]

    def test_spatial_study_decays_fast(self, tmp_path, capfd):
        code = main([
            "study", "--problem", "compatible_smooth", "--study-param", "N",
            "--M", "400", "--levels", "4", "8", "12", "--output", str(tmp_path),
        ])
        assert code == 0
        capfd.readouterr()
        header, rows = parse_rate_csv(tmp_path / "rates.csv")
        assert header.startswith("N")
        l2 = [row[1] for row in rows]
        assert l2[0] / l2[1] >= 100.0
        assert l2[1] > l2[2]
        # the rate is the slope of log e against log N: negative while e falls
        for (n0, e0, _, _, _), (n1, e1, rate, _, _) in zip(rows, rows[1:]):
            assert rate < 0.0
            assert rate == pytest.approx(math.log(e0 / e1) / math.log(n0 / n1), rel=1e-12)

    def test_underflowed_errors_leave_the_rate_blank(self, tmp_path, capfd):
        # at T = 1e-300 every error underflows to 0; the rates are undefined
        code = main([
            "study", "--problem", "compatible_smooth", "--N", "8", "--levels", "10", "20",
            "--T", "1e-300", "--output", str(tmp_path),
        ])
        assert code == 0
        assert capfd.readouterr().err == ""
        _, rows = parse_rate_csv(tmp_path / "rates.csv")
        assert rows == [(1e301, 0.0, None, 0.0, None), (2e301, 0.0, None, 0.0, None)]

    def test_study_needs_exact_solution(self, tmp_path, capfd):
        path = tmp_path / "custom.ini"
        path.write_text(
            "[run]\nN = 8\nlevels = 10 20\n\n[problem]\nname = demo\nalpha = 1.5\n"
            "mu = 1.0\ndomain = -1 1 -1 1\nforcing_mode_1_1 = 1.0 2.0\n"
        )
        assert main(["study", "--config", str(path)]) == 1
        err = capfd.readouterr().err
        assert "exact solution" in err


def test_cli_import_loads_only_the_scipy_it_runs():
    # scipy.integrate (with scipy.optimize) is loaded by the oracle's one
    # quad call only; the FFTs are numpy's, so scipy.fft and scipy.special
    # stay out too
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, fracadi.cli; print(' '.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(done.stdout.split())
    assert "fracadi.cli" in loaded
    unused = {"scipy.integrate", "scipy.optimize", "scipy.fft", "scipy.special"}
    assert loaded.isdisjoint(unused)


class TestMainWeights:
    def test_integer_order_table(self):
        code, out = run_command(["weights", "--order", "1.0", "--count", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# j g_j lambda_j"
        assert lines[1] == "0 1 1.5"
        assert lines[2] == "1 -1 -2"
        # the recursion walks through an exact zero, signed by the factor
        assert lines[3] == "2 -0 0.5"
        assert lines[4] == "3 -0 0"

    def test_starting_weight_rows(self):
        code, out = run_command([
            "weights", "--order", "0.5", "--count", "2", "--sigma", "1", "--rows", "2",
        ])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 13
        perturb = lines[lines.index("# perturb rows") + 1 :]
        assert perturb == ["1 -1", "2 -1"]
        delta = lines[lines.index("# delta rows") + 1 : lines.index("# perturb rows")]
        assert [row.split()[0] for row in delta] == ["1", "2"]
        assert all(abs(float(row.split()[1])) <= 1e-15 for row in delta)

    def test_rows_come_from_the_correction_table(self):
        sig = (1.1, 1.2, 1.3)
        code, out = run_command([
            "weights", "--order", "-0.9", "--count", "0", "--sigma", *map(str, sig), "--rows", "4",
        ])
        assert code == 0
        cs = build_correction_set((-0.9,), sig, 5)

        def rows(table):
            return [f"{k} " + " ".join(fmt(v) for v in table[k]) for k in range(1, 5)]

        want = ["# j g_j lambda_j", "0 1 0.55", "# frac rows, order -0.9, sigma 1.1 1.2 1.3"]
        want += rows(cs.frac[-0.9]) + ["# delta rows"] + rows(cs.delta)
        want += ["# perturb rows"] + rows(cs.perturb)
        assert out.splitlines() == want

    def test_ill_conditioned_sigma_fails_before_output(self, capfd):
        argv = ["weights", "--order", "0.5", "--sigma", "1.1", "1.1000000000001"]
        assert main(argv) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: starting-weight system too ill-conditioned")

    def test_output_follows_redirected_stdout(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["weights", "--order", "0.5", "--count", "2"]) == 0
        table = ["# j g_j lambda_j", "0 1 1.25", "1 -0.5 -0.875", "2 -0.125 -0.03125"]
        assert buf.getvalue().splitlines() == table

    def test_order_out_of_range(self, capfd):
        assert main(["weights", "--order", "1.5"]) == 1
        assert "config error: order" in capfd.readouterr().err

    def test_too_many_exponents_rejected_before_output(self, capfd):
        argv = ["weights", "--order", "0.5", "--sigma", "1", "2", "3", "4", "5", "6", "7"]
        assert main(argv) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert "config error: sigma:" in captured.err


class TestMainExitCodes:
    def test_config_errors_all_printed(self, capfd):
        code = main(["run", "--problem", "nope", "--N", "2"])
        assert code == 1
        err = capfd.readouterr().err
        assert err.count("config error:") >= 3
        assert "unknown id" in err

    def test_unknown_subcommand(self, capfd):
        assert main(["frobnicate"]) == 1
        assert "config error: usage" in capfd.readouterr().err

    def test_removed_quad_count_flag(self, capfd):
        code = main(["run", "--quad-count", "30", "--problem", "compatible_smooth",
                     "--N", "8", "--M", "4"])
        assert code == 1
        assert "config error: usage:" in capfd.readouterr().err

    def test_missing_config_file(self, tmp_path, capfd):
        code = main(["run", "--config", str(tmp_path / "absent.ini")])
        assert code == 3
        assert "i/o error" in capfd.readouterr().err

    def test_numerical_failure(self, tmp_path, capfd):
        # nearly equal exponents make the correction systems singular
        code = main([
            "run", "--problem", "compatible_nonsmooth", "--N", "8", "--M", "12",
            "--m", "2", "--sigma", "1.1", "1.1000000000001",
            "--bootstrap-ratio", "1", "--output", str(tmp_path),
        ])
        assert code == 2
        assert "numerical failure" in capfd.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m, t", [("0", "0.92"), ("1", "0.92")], ids=["0", "1"])
    def test_non_finite_values_are_a_numerical_failure(self, tmp_path, capfd, m, t):
        # forcing coefficients of 1.7e308 make the source itself overflow
        # from level 92 on; the check after the projection stops the run,
        # with no warnings, before the main march starts (for m = 1 the
        # bootstrap's fine march to t_1 stays finite)
        source = pathlib.Path(__file__).resolve().parent.parent / "configs" / "custom_example.ini"
        text = source.read_text(encoding="utf-8")
        assert "forcing_mode_1_1 = 1.0 1.5, 2.0 3.0" in text
        config = tmp_path / "huge_forcing.ini"
        config.write_text(
            text.replace(
                "forcing_mode_1_1 = 1.0 1.5, 2.0 3.0", "forcing_mode_1_1 = 1.7e308 1.5, 1.7e308 3.0"
            ),
            encoding="utf-8",
        )
        outdir = tmp_path / "out"
        code = main(["run", "--config", str(config), "--m", m, "--output", str(outdir)])
        assert code == 2
        assert capfd.readouterr().err.splitlines() == [
            f"numerical failure: non-finite source norm at time level 92 of 100 (t = {t})"
        ]
        assert not outdir.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_level_in_the_march_is_a_numerical_failure(
        self, tmp_path, capfd, monkeypatch
    ):
        # a source factor made infinite after the source check passed
        # reaches the march; the check at its last step stops it
        prepare = AdiSolver._prepare_source

        def poisoned(solver, mode):
            prepare(solver, mode)
            solver.source_factors[:, 50] = np.inf

        monkeypatch.setattr(AdiSolver, "_prepare_source", poisoned)
        config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "custom_example.ini"
        outdir = tmp_path / "out"
        code = main(["run", "--config", str(config), "--m", "0", "--output", str(outdir)])
        assert code == 2
        assert capfd.readouterr().err.splitlines() == [
            "numerical failure: non-finite solution norm at time level 50 of 100 (t = 0.5)"
        ]
        assert not outdir.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_source_runs(self, tmp_path, capfd):
        # a source near 1e160 squares past the float range; the norms scale
        # by powers of two first, so the run matches the same problem at
        # scale 1.  At 1e308 the sum of two adjacent source levels would
        # overflow as well, but their mean does not.  forcing_mode_2_1 is
        # left out of the scale-1 copy, where it would change the ratio;
        # next to 1e160 it is below round-off
        source = pathlib.Path(__file__).resolve().parent.parent / "configs" / "custom_example.ini"
        text = source.read_text(encoding="utf-8")
        line = "forcing_mode_1_1 = 1.0 1.5, 2.0 3.0"
        assert line in text and "forcing_mode_2_1 = 0.5 2.0\n" in text
        scales = ("1e160", "1e308")
        copies = {
            scale: text.replace(line, f"forcing_mode_1_1 = {scale} 1.5, {scale} 3.0")
            for scale in scales
        }
        copies["unit"] = text.replace(line, "forcing_mode_1_1 = 1 1.5, 1 3.0").replace(
            "forcing_mode_2_1 = 0.5 2.0\n", ""
        )
        diag = {}
        for name, body in copies.items():
            config = tmp_path / f"{name}.ini"
            config.write_text(body, encoding="utf-8")
            outdir = tmp_path / name
            assert main(["run", "--config", str(config), "--output", str(outdir)]) == 0
            diag[name] = read_kv(outdir / "diagnostics.txt")
        capfd.readouterr()
        unit = diag["unit"]
        for scale in scales:
            huge = diag[scale]
            for key in ("final_l2_norm", "max_l2_norm", "stability_ratio"):
                assert np.isfinite(float(huge[key]))
            want = float(scale) * float(unit["final_l2_norm"])
            assert float(huge["final_l2_norm"]) == pytest.approx(want, rel=1e-12)
            assert float(huge["stability_ratio"]) == pytest.approx(float(unit["stability_ratio"]), rel=1e-12)

    def test_memory_guard_names_the_size(self, tmp_path, capfd, monkeypatch):
        # with 512 KiB of "physical memory" the march's 878 KiB do not fit:
        # 473 levels of 15 x 15 coefficients (the 272-level history buffer,
        # the final level and at most 200 far-state levels) and six doubles
        # per step; nothing that large is allocated
        monkeypatch.setattr("fracadi.solver.physical_memory", lambda: 2**19)
        config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "custom_example.ini"
        outdir = tmp_path / "out"
        code = main([
            "run", "--config", str(config), "--N", "16", "--M", "1000", "--output", str(outdir),
        ])
        assert code == 1
        err = capfd.readouterr().err
        assert err.splitlines() == [
            "config error: 1000 steps need 878 KiB of memory, "
            "more than the 512 KiB of physical memory"
        ]
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_history_too_large_for_memory(self, tmp_path, capfd):
        # six doubles per step (three source rows, the norms, errors and
        # half-source norms) need 43.7 TiB, beyond any machine's memory, so
        # the solver refuses it before allocating
        config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "custom_example.ini"
        outdir = tmp_path / "out"
        code = main([
            "run", "--config", str(config), "--M", "1000000000000", "--output", str(outdir),
        ])
        assert code == 1
        err = capfd.readouterr().err
        assert err.startswith("config error: ")
        assert "43.7 TiB" in err
        assert "Traceback" not in err
        assert not outdir.exists()


CUSTOM_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "custom_example.ini"
SMOOTH_RUN = ["run", "--problem", "compatible_smooth", "--N", "8", "--M", "4"]
NONSMOOTH = ["--problem", "compatible_nonsmooth", "--N", "8"]

# (argv, edit of custom_example.ini as (old, new) or None, config error);
# a "{config}" argument stands for the edited file
REJECTED_BEFORE_MARCH = {
    "T-nan": (SMOOTH_RUN + ["--T", "nan"], None, "T: final time must be finite, got nan"),
    "T-inf": (SMOOTH_RUN + ["--T", "inf"], None, "T: final time must be finite, got inf"),
    "T-huge": (
        SMOOTH_RUN + ["--T", "1e308"], None,
        "T: step T/4 = 2.5e+307 overflows the step coefficients",
    ),
    "T-subnormal-study": (
        ["study", "--problem", "compatible_smooth", "--N", "6", "--levels", "10", "20",
         "--T", "1e-320"], None,
        "T: step T/20 = 4.99006302299659e-322 is below the smallest normal float",
    ),
    "sigma-nan": (
        SMOOTH_RUN + ["--sigma", "nan", "--m", "1"], None,
        "sigma: correction exponents must be finite",
    ),
    "sigma-inf": (
        SMOOTH_RUN + ["--sigma", "inf", "--m", "1"], None,
        "sigma: correction exponents must be finite",
    ),
    "sigma-without-m": (
        SMOOTH_RUN + ["--sigma", "1.1", "1.2"], None,
        "sigma: exponents given, but m = 0 requests no corrections",
    ),
    "sigma-without-m-in-file": (
        ["run", "--config", "{config}"], ("[run]", "[run]\nsigma = 1.1"),
        "sigma: exponents given, but m = 0 requests no corrections",
    ),
    "mu-nan": (
        ["run", "--config", "{config}"], ("mu = 1.5", "mu = nan"),
        "problem.mu: diffusion coefficient must be finite",
    ),
    "mu-inf": (
        ["run", "--config", "{config}"], ("mu = 1.5", "mu = inf"),
        "problem.mu: diffusion coefficient must be finite",
    ),
    "coeffs-nan": (
        ["run", "--config", "{config}"], ("coeffs = 0.5, 1.0", "coeffs = 0.5, nan"),
        "problem.coeffs: lower-order coefficients must be finite",
    ),
    "alphas-nan": (
        ["run", "--config", "{config}"], ("alphas = 1.0, 0.3", "alphas = 1.0, nan"),
        "problem.alphas: lower orders must be finite",
    ),
    "forcing-coefficient-nan": (
        ["run", "--config", "{config}"],
        ("forcing_mode_1_1 = 1.0 1.5, 2.0 3.0", "forcing_mode_1_1 = nan 1.5"),
        "problem.forcing_mode_1_1: coefficients must be finite",
    ),
    "forcing-exponent-nan": (
        ["run", "--config", "{config}"],
        ("forcing_mode_1_1 = 1.0 1.5, 2.0 3.0", "forcing_mode_1_1 = 1.0 nan"),
        "problem.forcing_mode_1_1: time exponents must be finite",
    ),
    "domain-inf": (
        ["run", "--config", "{config}"], ("domain = 0, 2, -1, 1", "domain = 0, inf, -1, 1"),
        "problem.domain: rectangle corners must be finite",
    ),
    "domain-overflow": (
        ["run", "--config", "{config}"],
        ("domain = 0, 2, -1, 1", "domain = -1e308, 1e308, -1, 1"),
        "problem.domain: rectangle side lengths must be finite",
    ),
    "weights-sigma-nan": (
        ["weights", "--order", "0.5", "--sigma", "nan"], None,
        "sigma: correction exponents must be finite",
    ),
    "weights-rows-negative": (
        ["weights", "--order", "0.5", "--sigma", "1.1", "--rows", "-2"], None,
        "rows: must be nonnegative, got -2",
    ),
    "M-below-m": (
        ["run"] + NONSMOOTH + ["--M", "2", "--m", "3"], None,
        "M: step count must exceed the correction count m = 3, got 2",
    ),
    "M-equal-m": (
        ["run"] + NONSMOOTH + ["--M", "3", "--m", "3"], None,
        "M: step count must exceed the correction count m = 3, got 3",
    ),
    "N-study-M-zero": (
        ["study", "--problem", "compatible_smooth", "--study-param", "N",
         "--levels", "4", "8", "--M", "0"], None,
        "M: an N-study needs at least one step, got 0",
    ),
    "N-study-M-below-m": (
        ["study", "--problem", "compatible_nonsmooth", "--study-param", "N",
         "--levels", "4", "6", "--M", "2", "--m", "3"], None,
        "M: step count must exceed the correction count m = 3, got 2",
    ),
    "tau-levels-below-m": (
        ["study"] + NONSMOOTH + ["--levels", "2", "4", "--m", "3"], None,
        "levels: step counts must exceed the correction count m = 3",
    ),
    "equal-tau-levels": (
        ["study", "--problem", "compatible_smooth", "--N", "6", "--levels", "10", "10"], None,
        "levels: consecutive refinement levels must differ",
    ),
    "equal-N-levels": (
        ["study", "--problem", "compatible_smooth", "--study-param", "N",
         "--levels", "6", "8", "8", "--M", "10"], None,
        "levels: consecutive refinement levels must differ",
    ),
}


class TestRejectedBeforeMarch:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(REJECTED_BEFORE_MARCH))
    def test_config_error_names_the_field(self, tmp_path, capfd, monkeypatch, case):
        argv, edit, message = REJECTED_BEFORE_MARCH[case]
        if edit is not None:
            text = CUSTOM_CONFIG.read_text(encoding="utf-8")
            assert edit[0] in text
            config = tmp_path / "edited.ini"
            config.write_text(text.replace(edit[0], edit[1]), encoding="utf-8")
            argv = [str(config) if a == "{config}" else a for a in argv]
        outdir = tmp_path / "out"
        if argv[0] != "weights":
            argv = argv + ["--output", str(outdir)]

        def no_march(*args, **kwargs):
            raise AssertionError("a march started")

        monkeypatch.setattr(cli, "run", no_march)
        assert main(argv) == 1
        captured = capfd.readouterr()
        assert captured.err.splitlines() == [f"config error: {message}"]
        assert captured.out == ""
        assert not outdir.exists()

    def test_zero_steps_with_corrections_stay_valid(self, tmp_path, capfd):
        argv = ["run"] + NONSMOOTH + ["--M", "0", "--m", "3", "--output", str(tmp_path)]
        assert main(argv) == 0
        capfd.readouterr()
        diag = read_kv(tmp_path / "diagnostics.txt")
        # a run of no steps applies no corrections, and says so
        assert (diag["M"], diag["m"], diag["sigma"]) == ("0", "0", "")

    def test_custom_problem_built_once(self, tmp_path, capfd, monkeypatch):
        calls = []

        def counted(section):
            calls.append(section)
            return build_custom_problem(section)

        monkeypatch.setattr(cli, "build_custom_problem", counted)
        argv = ["run", "--config", str(CUSTOM_CONFIG), "--M", "4", "--output", str(tmp_path)]
        assert main(argv) == 0
        capfd.readouterr()
        assert len(calls) == 1

    def test_study_exact_check_is_collected(self, tmp_path, capfd):
        text = CUSTOM_CONFIG.read_text(encoding="utf-8")
        config = tmp_path / "study.ini"
        config.write_text(text.replace("M = 100", "levels = 10 20"), encoding="utf-8")
        assert main(["study", "--config", str(config), "--N", "2"]) == 1
        assert capfd.readouterr().err.splitlines() == [
            "config error: N: degree must be at least 4, got 2",
            "config error: problem: a study needs a problem with an exact solution",
        ]


class TestMainVerify:
    def test_all_checks_pass(self):
        code, out = run_command(["verify"])
        assert code == 0
        assert out.count("PASS") == 13
        assert "PASS norms_vs_grid_sums" in out
        assert "PASS parity_reduction" in out
        assert "PASS far_kernel_exponentials" in out
        assert "FAIL" not in out
        assert "all checks passed" in out

    def test_failed_check_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr("fracadi.cli.verify_checks", lambda: iter([("broken", False, 1.0)]))
        code, out = run_command(["verify"])
        assert code == 2
        assert out.splitlines() == ["FAIL broken (1.000e+00)", "1 check(s) failed"]
