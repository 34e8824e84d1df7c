import csv
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import schaeffer
from schaeffer import acceptance, asymptotics, blaschke, modelspace, resolvent, wiener_opt
from schaeffer.cli import _write_csv, main
from schaeffer.simplex import SimplexError
from schaeffer.spectra import SpectrumSpec


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _per_cell_csv(header, rows):
    """The reference CSV: each cell formatted on its own, strings as they
    are, None blank, float nan as "nan", anything else format(x, '.17g')."""
    def fmt(x):
        if isinstance(x, str):
            return x
        if x is None:
            return ""
        if isinstance(x, float) and math.isnan(x):
            return "nan"
        return format(x, ".17g")

    return "".join(",".join(map(fmt, row)) + "\n" for row in [header, *rows])


def test_csv_writer_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(7)
    specials = [None, "", "true", "skipped", math.nan, math.inf, -math.inf, -0.0, 0, -3,
                2 ** 60, np.float64(0.1), np.float64(-math.inf), np.float64(math.nan),
                1e-300, 5e-324, 1.7976931348623157e308]
    rows = [tuple(specials[(i + j) % len(specials)] for j in range(5)) for i in range(60)]
    rows += [tuple(rng.standard_normal(4).tolist()) + (str(i),) for i in range(200)]
    rows += [(np.float64(x), int(i), None, float(x) * 1e-17, "") for i, x in
             enumerate(rng.standard_normal(50) * 1e9)]
    header = ["a", "b", "c", "d", "e"]
    out = tmp_path / "t.csv"
    _write_csv(out, header, rows)
    assert out.read_bytes() == _per_cell_csv(header, rows).encode()


class TestCoeffs:
    def test_weighted_table(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert main(["coeffs", "--lambda", "0.5", "--n", "1", "--k", "4",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
        byk = {int(r["k"]): float(r["coeff_re"]) for r in rows}
        assert byk[2] == pytest.approx(0.875, abs=1e-15)
        norms = _read_csv(str(out) + ".norms.csv")
        assert len(norms) == 1

    def test_empty_grid_is_usage_error(self, tmp_path):
        assert main(["coeffs", "--lambda", "0.5", "--n", "",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_out_is_usage_error(self):
        assert main(["coeffs", "--lambda", "0.5", "--n", "4"]) == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["coeffs", "--lambda", "0.5,0.3", "--n", "2,5", "--out", str(a)])
        main(["coeffs", "--lambda", "0.5,0.3", "--n", "2,5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["coeffs", "--lambda", "0.5", "--n", "2,4,8", "--out", str(a)])
        main(["coeffs", "--lambda", "0.5", "--n", "2,4,8", "--workers", "2",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("kmax", [None, 40])
    def test_block_rows_match_generic_writer(self, tmp_path, kmax, workers):
        # the per-block row templates write what _write_csv writes for the
        # same rows as 5-tuples, in the same order
        lams, ns = (0.5, 0.341234, 0.66), (1, 5, 64)
        rows, norms = [], []
        for lam in lams:
            for n in ns:
                points = [(lam, n)]
                K = kmax if kmax is not None else blaschke.support_estimate(points)
                base = blaschke.blaschke_power_coeffs(points, K)
                series = blaschke.weight_series(base)
                c = series.coeffs
                rows += zip([lam] * c.size, [n] * c.size, range(c.size),
                            c.real.tolist(), c.imag.tolist())
                norms.append((lam, n, series.max_index, series.linf, 1.0 - base.l2 ** 2))
        ref = tmp_path / "ref.csv"
        _write_csv(ref, ["lambda", "n", "k", "coeff_re", "coeff_im"], rows)
        _write_csv(str(ref) + ".norms.csv",
                   ["lambda", "n", "K", "linf_A", "parseval_defect"], norms)
        out = tmp_path / "coeffs.csv"
        argv = ["coeffs", "--lambda", "0.5,0.341234,0.66", "--n", "1,5,64",
                "--workers", workers, "--out", str(out)]
        assert main(argv + ([] if kmax is None else ["--k", str(kmax)])) == 0
        assert out.read_bytes() == ref.read_bytes()
        assert (Path(str(out) + ".norms.csv").read_bytes()
                == Path(str(ref) + ".norms.csv").read_bytes())

    def test_json_format(self, tmp_path):
        out = tmp_path / "coeffs.json"
        main(["coeffs", "--lambda", "0.5", "--n", "1", "--k", "4",
              "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert any(row["k"] == 2 and abs(row["re"] - 0.875) < 1e-15
                   for row in payload["coefficients"])

    def test_imaginary_parts_are_exact_zeros(self, tmp_path):
        # the coefficients of a real spectrum are real: coeff_im is written
        # as an exact 0 on every row, not as the noise of a complex transform
        out = tmp_path / "coeffs.csv"
        argv = ["coeffs", "--lambda", "0.5,-0.35", "--n", "7,64"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) > 100
        assert all(r["coeff_im"] == "0" for r in rows)
        assert any(float(r["coeff_re"]) != 0 for r in rows)
        js = tmp_path / "coeffs.json"
        assert main(argv + ["--format", "json", "--out", str(js)]) == 0
        coefficients = json.loads(js.read_text())["coefficients"]
        assert len(coefficients) == len(rows)
        assert all(row["im"] == 0.0 and isinstance(row["im"], float) for row in coefficients)


class TestGrowth:
    def test_sandwich_columns(self, tmp_path):
        out = tmp_path / "growth.csv"
        assert main(["growth", "--lambda", "0.5", "--n", "4,8", "--out", str(out)]) == 0
        for row in _read_csv(out):
            L = float(row["L"])
            phi = float(row["phi_D"])
            assert L <= phi <= float(row["sqrt_en"]) + 1e-3
            assert row["phi_converged"] == "true"

    def test_sandwich_holds_past_jet_conditioning(self, tmp_path):
        # at multiplicity 48 the jet rows are beyond long double; the
        # Malmquist-Walsh program still certifies the value
        out = tmp_path / "growth.csv"
        assert main(["growth", "--lambda", "0.5", "--n", "48", "--out", str(out)]) == 0
        (row,) = _read_csv(out)
        assert float(row["L"]) <= float(row["phi_D"]) <= float(row["sqrt_en"])
        assert row["phi_converged"] == "true"

    def test_growth_imports_no_mpmath(self, tmp_path):
        # phi is certified in long double; mpmath stays off the growth path
        out = tmp_path / "growth.csv"
        code = ("import sys\n"
                "from schaeffer.cli import main\n"
                f"assert main(['growth', '--lambda', '0.5', '--n', '8,64', '--workers', '1', "
                f"'--out', {str(out)!r}]) == 0\n"
                "print('mpmath' in sys.modules)\n")
        paths = [str(Path(schaeffer.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
        assert [r["phi_converged"] for r in _read_csv(out)] == ["true", "true"]

    def test_phi_cutoff(self, tmp_path):
        out = tmp_path / "growth.csv"
        main(["growth", "--lambda", "0.5", "--n", "4,128", "--phi-max-n", "16",
              "--out", str(out)])
        rows = _read_csv(out)
        assert rows[0]["phi_D"] != ""
        assert rows[1]["phi_D"] == ""

    def test_simplex_error_leaves_a_blank_row(self, tmp_path, monkeypatch, capsys):
        argv = ["growth", "--lambda", "0.5", "--n", "2,3,4"]
        good = tmp_path / "good.csv"
        assert main(argv + ["--out", str(good)]) == 0
        capsys.readouterr()
        solve = wiener_opt.phi_exact_truncated

        def failing(spec):
            if spec.degree == 3:
                raise SimplexError("iteration limit reached")
            return solve(spec)

        monkeypatch.setattr(wiener_opt, "phi_exact_truncated", failing)
        out = tmp_path / "growth.csv"
        assert main(argv + ["--out", str(out)]) == 0
        lines, ref = out.read_text().splitlines(), good.read_text().splitlines()
        assert lines[0] == ref[0]
        assert lines[1] == ref[1] and lines[3] == ref[3]
        row = _read_csv(out)[1]
        assert row["phi_D"] == "" and row["phi_converged"] == "false"
        assert row["L"] == _read_csv(good)[1]["L"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "lambda=0.5" in err[0] and "n=3" in err[0]
        assert "iteration limit reached" in err[0]


    def test_dependent_rows_leave_a_blank_row(self, tmp_path, capsys):
        # at lambda 0.995 the Taylor rows of n = 48 and 64 are dependent to
        # the simplex's tolerance at the start degree: no phi is printed
        # (a two-phase simplex printed 6.346 and 40273.6 here, uncertified,
        # the second far above sqrt(e n))
        out = tmp_path / "growth.csv"
        assert main(["growth", "--lambda", "0.995", "--n", "48,64", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert [(r["phi_D"], r["phi_converged"]) for r in rows] == [("", "false")] * 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for line, n in zip(err, (48, 64)):
            assert f"lambda=0.995 n={n}: phi_D not computed" in line
            assert "depends on the rows before it" in line

    def test_uncertified_rows_are_blank(self, tmp_path, capsys):
        # at lambda 0.99 both programs run into the column budget: their
        # truncated optima are only upper ends, which move with the last
        # digits of the vertex solve, so neither is printed; stderr names
        # the proven bracket instead, whose upper end bounds phi above L
        out = tmp_path / "growth.csv"
        assert main(["growth", "--lambda", "0.99", "--n", "48,56", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert [(r["phi_D"], r["phi_converged"]) for r in rows] == [("", "false")] * 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        number = r"(-?\d+\.\d+(?:e[-+]\d+)?)"
        for line, n, row in zip(err, (48, 56), rows):
            match = re.fullmatch(rf"growth lambda=0\.99 n={n}: phi_D not printed: "
                                 rf"value {number} is not certified; "
                                 rf"proven {number} <= phi <= {number}", line)
            assert match, line
            value, lower, upper = map(float, match.groups())
            assert lower <= value <= upper
            assert float(row["L"]) <= upper

    def test_notes_keep_input_order_with_two_workers(self, tmp_path, capsys):
        # each lambda's programs run largest n first, and two workers finish
        # in any order; the notes still come in input order, as with one
        argv = ["growth", "--lambda", "0.995,0.97", "--n", "32,48,64"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(argv + ["--workers", "1", "--out", str(one)]) == 0
        err_one = capsys.readouterr().err
        assert main(argv + ["--workers", "2", "--out", str(two)]) == 0
        err_two = capsys.readouterr().err
        assert two.read_bytes() == one.read_bytes()
        assert err_two == err_one
        assert [line.split(": ")[:2] for line in err_two.splitlines()] == [
            ["growth lambda=0.995 n=32", "phi_D not printed"],
            ["growth lambda=0.995 n=48", "phi_D not computed"],
            ["growth lambda=0.995 n=64", "phi_D not computed"],
            ["growth lambda=0.97 n=64", "phi_D not printed"]]

    def test_smaller_programs_slice_the_largest(self, tmp_path, monkeypatch):
        builds, build = [], modelspace._build_rows

        def counted(mu, D):
            builds.append(mu.size)
            return build(mu, D)

        monkeypatch.setattr(modelspace, "_build_rows", counted)
        out = tmp_path / "growth.csv"
        assert main(["growth", "--lambda", "0.5,0.3", "--n", "8,64,16", "--out", str(out)]) == 0
        assert builds == [64, 64]  # one table per lambda
        assert [(r["lambda"], r["n"]) for r in _read_csv(out)] == [
            ("0.5", "8"), ("0.5", "64"), ("0.5", "16"), ("0.29999999999999999", "8"),
            ("0.29999999999999999", "64"), ("0.29999999999999999", "16")]

    def test_no_row_table_remains(self, tmp_path, monkeypatch):
        argv = ["growth", "--lambda", "0.5", "--n", "4,8", "--out", str(tmp_path / "growth.csv")]
        assert main(argv) == 0
        assert modelspace._held is None
        solve, held = wiener_opt.phi_exact_truncated, []

        def failing(spec):
            held.append(modelspace._held is not None)
            if spec.degree == 4:
                raise RuntimeError("not a simplex error")
            return solve(spec)

        monkeypatch.setattr(wiener_opt, "phi_exact_truncated", failing)
        with pytest.raises(RuntimeError, match="not a simplex error"):
            main(argv)
        assert held == [True, True]
        assert modelspace._held is None

    def test_near_unit_single_point_certified(self, tmp_path):
        # phi = 1 exactly for n = 1; the dual's shift bound is exact there,
        # so the lower end closes on it
        out = tmp_path / "growth.csv"
        assert main(["growth", "--lambda", "0.999", "--n", "1", "--out", str(out)]) == 0
        (row,) = _read_csv(out)
        assert row["phi_converged"] == "true"
        assert abs(float(row["phi_D"]) - 1) <= 1e-12

    def test_shift_tail_certifies_inside_the_budget(self, tmp_path):
        # the dual's coefficients fall below 1 at column ~3500, inside the
        # 4096-column budget, where a Cauchy tail needed ~4700 columns
        out = tmp_path / "growth.csv"
        assert main(["growth", "--lambda", "0.99", "--n", "16", "--out", str(out)]) == 0
        (row,) = _read_csv(out)
        assert row["phi_converged"] == "true"
        assert float(row["L"]) <= float(row["phi_D"]) <= float(row["sqrt_en"])

    def test_only_certified_phi_is_printed(self, tmp_path):
        # near lambda = 1 some programs certify and some run into the column
        # budget; every printed phi_D is certified
        out = tmp_path / "growth.csv"
        assert main(["growth", "--lambda", "0.98,0.99", "--n", "16,32,48,64",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) == 8 and any(r["phi_D"] for r in rows)
        assert all(r["phi_converged"] == "true" for r in rows if r["phi_D"])


class TestBounds:
    def test_rows_and_dominance(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--lambda", "0.5", "--n", "1,4", "--zeta", "0,0.9",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert any(r["rule"] == "mainlemma-optimized" for r in rows)
        for r in rows:
            if r["rule"] not in ("mainlemma-optimized", "skipped"):
                assert r["dominance_ok"] == "true"

    def test_c_scaling(self, tmp_path):
        outs = []
        for C in ("1", "3"):
            out = tmp_path / f"bounds{C}.csv"
            main(["bounds", "--lambda", "0.5", "--n", "2", "--zeta", "0",
                  "--C", C, "--out", str(out)])
            opt = [r for r in _read_csv(out) if r["rule"] == "mainlemma-optimized"][0]
            outs.append(float(opt["value"]))
        assert outs[1] == pytest.approx(3 * outs[0], rel=1e-9)

    def test_skipped_row_on_domain_error(self, tmp_path):
        out = tmp_path / "bounds.csv"
        main(["bounds", "--lambda", "0.5", "--n", "1", "--zeta", "0.5",
              "--out", str(out)])
        assert _read_csv(out)[0]["rule"] == "skipped"

    def test_conjugate_reciprocal_zeta_is_a_skipped_row(self, tmp_path):
        # zeta = 1/lambda makes the lemma's factor 1 - lambda zeta vanish
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--lambda", "0.5", "--n", "4", "--zeta", "2,0",
                     "--out", str(out)]) == 0
        rules = [r["rule"] for r in _read_csv(out)]
        assert rules[0] == "skipped"
        assert "mainlemma-optimized" in rules[1:]

    @pytest.mark.parametrize("lam, zetas", [(1.0, "2,1.5,10"), (-1.0, "-2,-1.5,-10")])
    def test_unimodular_eigenvalue_past_the_circle(self, tmp_path, lam, zetas):
        # 1 + w vanishes at rho = 1/sqrt(l zeta), where the scan lands: the
        # bound there is C/|zeta - l|, the norm of (zeta - T)^-1 for T = l I
        out = tmp_path / "bounds.csv"
        assert main(["bounds", f"--lambda={lam}", "--n", "2,3,8", f"--zeta={zetas}",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert all(r["dominance_ok"] == "true" for r in rows)
        opt = [r for r in rows if r["rule"] == "mainlemma-optimized"]
        assert len(opt) == 9
        for r in opt:
            exact = 1 / abs(float(r["zeta_re"]) - lam)
            assert float(r["value"]) == pytest.approx(exact, rel=1e-14, abs=0)

    def test_dominance_is_relative_to_the_value(self, tmp_path):
        # at n 1 the optimised lemma and case 1 are about 1e7 and differ by
        # 6e-16 relative, so case 1 dominates; at n 2 the optimised rows sit
        # truly above case 1 (the rho scan stops short of its rho -> 1 limit)
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--lambda", "1", "--n", "1", "--zeta", "1.0000001",
                     "--out", str(out)]) == 0
        case1 = [r for r in _read_csv(out) if r["rule"] == "case1"]
        assert [r["dominance_ok"] for r in case1] == ["true"]
        assert main(["bounds", "--lambda", "1", "--n", "2", "--zeta", "0.5,1.0000001",
                     "--out", str(out)]) == 0
        case1 = [r for r in _read_csv(out) if r["rule"] == "case1"]
        assert [r["dominance_ok"] for r in case1] == ["false", "false"]

    def test_programming_error_is_not_a_skipped_row(self, tmp_path, monkeypatch):
        # only a DomainError becomes a skipped row; any other exception fails
        # the command
        def broken(*args, **kwargs):
            raise AssertionError("broken query")

        monkeypatch.setattr(resolvent, "BoundQuery", broken)
        with pytest.raises(AssertionError, match="broken query"):
            main(["bounds", "--lambda", "0.5", "--n", "4", "--zeta", "0",
                  "--out", str(tmp_path / "bounds.csv")])

    def test_cost_does_not_grow_with_multiplicity(self, tmp_path, monkeypatch):
        # a million-fold eigenvalue: the rho scan walks the distinct points,
        # never the expanded spectrum
        def refuse(self):
            raise AssertionError("the bounds path expanded the spectrum")

        monkeypatch.setattr(SpectrumSpec, "expanded", refuse)
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--lambda", "0.5", "--n", "1000000", "--zeta", "1.0,1.5",
                     "--out", str(out)]) == 0
        opt = [r for r in _read_csv(out) if r["rule"] == "mainlemma-optimized"]
        assert len(opt) == 2
        assert all(math.isfinite(float(r["value"])) for r in opt)


class TestAsymptotics:
    def test_sweep_columns(self, tmp_path):
        out = tmp_path / "asym.csv"
        assert main(["asymptotics", "--lambda", "0.5", "--n", "256",
                     "--k", "256,740,768,790", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert [r["k"] for r in rows] == ["256", "740", "768", "790"]
        for r in rows:
            assert r["region"] in list("I II III IV V VI VII".split())
            if r["estimate_re"]:
                assert float(r["rel_error"]) < 0.5

    def test_workers_deterministic_sweep(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["asymptotics", "--lambda", "0.5", "--n", "128,256",
                "--k", "128,384,390,300"]
        main(args + ["--out", str(a)])
        main(args + ["--workers", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_fit_summary_written_for_n_grid(self, tmp_path):
        out = tmp_path / "asym.csv"
        main(["asymptotics", "--lambda", "0.5", "--n", "64,128,256,512",
              "--k", "64", "--out", str(out)])
        fits = _read_csv(str(out) + ".fits.csv")
        regions = {r["region"] for r in fits}
        assert {"I", "III", "IV", "V", "VII"} <= regions
        by_region = {r["region"]: r for r in fits}
        assert -0.8 <= float(by_region["V"]["slope"]) <= -0.55
        assert by_region["V"]["mode"] == "power"
        assert float(by_region["VII"]["slope"]) < 0
        assert by_region["VII"]["mode"] == "exponential"

    def test_one_extraction_per_key(self, tmp_path, monkeypatch):
        # the k grid, the Airy truth reads and the power-region fits all
        # share one circle-FFT extraction per (lambda, n)
        calls = Counter()
        original = blaschke.blaschke_power_coeffs

        def counted(points, K):
            calls[tuple(points)] += 1
            return original(points, K)

        monkeypatch.setattr(blaschke, "blaschke_power_coeffs", counted)
        asymptotics.clear_truth_cache()
        assert main(["asymptotics", "--lambda", "0.5", "--n", "64,128,256,512",
                     "--out", str(tmp_path / "asym.csv")]) == 0
        assert calls == {((0.5, n),): 1 for n in (64, 128, 256, 512)}


class TestValidateAndConfig:
    def test_validate_single_fast_criterion(self, capsys):
        assert main(["validate", "--criteria", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS criterion  5" in out

    @pytest.mark.parametrize("criteria, unknown", [("12", "12"), ("0,2", "0"), ("2,13,0", "0, 13"),
                                                   ("", "selected"), (",", "selected")])
    def test_validate_unknown_criterion_is_a_usage_error(self, capsys, criteria, unknown):
        # an unknown number runs no criterion, not a silent subset, and an
        # empty selection runs none, not all of them
        assert main(["validate", "--criteria", criteria]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"no criterion {unknown} " in err

    def test_validate_shares_one_row_table(self, monkeypatch):
        # criteria 4 and 11 slice the rows of criterion 3's largest program
        builds, build = [], modelspace._build_rows

        def counted(mu, D):
            builds.append((mu.size, D))
            return build(mu, D)

        monkeypatch.setattr(modelspace, "_build_rows", counted)
        assert main(["validate", "--criteria", "3,4,11"]) == 0
        assert builds == [(4, 63), (8, 63), (16, 71), (32, 127)]
        assert modelspace._held is None

    def test_no_row_table_remains_after_validate(self, monkeypatch):
        held = []

        def failing(numbers):
            held.append(modelspace._held)
            raise RuntimeError("not a criterion failure")

        monkeypatch.setattr(acceptance, "run_all", failing)
        with pytest.raises(RuntimeError, match="not a criterion failure"):
            main(["validate", "--criteria", "3"])
        assert held == [[]]
        assert modelspace._held is None

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("lambda=0.5\nn=1\nk=4\nformat=csv\n")
        out = tmp_path / "c.csv"
        assert main(["--config", str(cfg), "coeffs", "--out", str(out)]) == 0
        byk = {int(r["k"]): float(r["coeff_re"]) for r in _read_csv(out)}
        assert byk[2] == pytest.approx(0.875)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("lambda=0.9\nn=1\nk=4\n")
        out = tmp_path / "c.csv"
        main(["--config", str(cfg), "coeffs", "--lambda", "0.5", "--out", str(out)])
        assert _read_csv(out)[0]["lambda"] == "0.5"

    @pytest.mark.parametrize("key", ["lamda=0.3", "degree=16"])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, key):
        # a misspelt key would otherwise run the defaults silently; the
        # truncation degree is no longer a setting
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"n=4\n{key}\n")
        out = tmp_path / "g.csv"
        assert main(["--config", str(cfg), "growth", "--out", str(out)]) == 2
        assert key.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_degree_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["growth", "--lambda", "0.5", "--n", "4", "--degree", "16",
                  "--out", str(tmp_path / "g.csv")])
        assert exc.value.code == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["growth", "--lambda", "1.5"],
        ["growth", "--lambda", "0"],
        ["coeffs", "--lambda", "1.0"],
        ["asymptotics", "--alpha", "0.9"],
        ["asymptotics", "--beta", "0.1"],
        ["bounds", "--C", "0.5"],
        ["coeffs", "--k", "-1"],
        ["coeffs", "--k", "0"],
        ["coeffs", "--k", "1"],
        ["growth", "--workers", "0"],
        ["bounds", "--workers", "-1"],
        # nan fails every comparison, so a domain check must be one that
        # nan fails, not one it must pass to be rejected
        ["bounds", "--lambda", "nan", "--zeta", "0"],
        ["bounds", "--zeta", "nan"],
        ["bounds", "--zeta", "inf"],
        ["bounds", "--C", "nan"],
        ["bounds", "--C", "inf"],
        ["growth", "--lambda", "nan"],
        ["coeffs", "--lambda", "nan"],
        # an empty zeta list, like an empty n grid or lambda list
        ["bounds", "--lambda", "0.5", "--zeta", ""],
    ], ids=" ".join)
    def test_out_of_domain_argument_is_usage_error(self, tmp_path, capsys, argv):
        # one stderr line before any work, not a traceback or a file of
        # skipped rows
        out = tmp_path / "x.csv"
        assert main(argv + ["--n", "4", "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("line", ["lambda=abc", "workers=two", "phi_max_n=abc", "format=xml",
                                      "alpha=abc"])
    def test_malformed_config_value_is_usage_error(self, tmp_path, capsys, line):
        # each value goes to argparse as text and is converted by its flag's
        # own type; --format checks its names itself, as argparse checks
        # choices only on the command line
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"n=4\n{line}\n")
        out = tmp_path / "x.csv"
        command = "asymptotics" if line.startswith("alpha") else "growth"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), command, "--out", str(out)])
        assert exc.value.code == 2
        assert line.split("=")[1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--lambda", "0.5", "--n", "4", "--k", "100000000"],
        ["asymptotics", "--lambda", "0.5", "--n", "64", "--k", "70000000"],
    ], ids=" ".join)
    def test_fft_past_the_budget_is_usage_error(self, tmp_path, capsys, argv):
        # a K whose transform would pass MAX_FFT_SIZE is found before any
        # sample is formed: one stderr line, exit 2, no output file
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {argv[0]}: no FFT size")
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, code, absent", [
    (["--help"], 0, ["numpy", "json"]),
    (["growth", "--lambda", "0.5", "--n", "4", "--workers", "0"], 2, ["numpy"]),
    (["growth", "--lambda", "0.5", "--n", "8,256", "--workers", "1"], 0,
     ["schaeffer.acceptance", "schaeffer.asymptotics", "concurrent.futures.process", "json",
      "fractions"]),
    (["bounds", "--lambda", "0.5", "--n", "4", "--zeta", "0,0.9", "--workers", "1"], 0,
     ["numpy", "schaeffer.simplex", "schaeffer.blaschke", "concurrent.futures.process"]),
], ids=["help", "usage-error", "growth", "bounds"])
def test_command_imports_only_the_layers_it_runs(tmp_path, argv, code, absent):
    # each case runs in a fresh process, so sys.modules after cli.main holds
    # exactly what the command loaded
    if argv[0] != "--help":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    script = ("import contextlib, io, sys\n"
              "from schaeffer.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    try:\n"
              f"        code = main({argv!r})\n"
              "    except SystemExit as ex:\n"
              "        code = ex.code\n"
              f"print(code, [m for m in {absent!r} if m in sys.modules])\n")
    paths = [str(Path(schaeffer.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{code} []"
