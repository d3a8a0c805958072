"""Command-line layer: exit-code contract, report shape, CSV dumps, and
byte-level reproducibility."""

import ast
import json
import math
import os
import subprocess
import sys

import pytest

import dynvertex
import prior_weights as prior
from dynvertex.cli import dispatch
from dynvertex.models import ModelSpec, current, run_ensemble
from dynvertex.specfun import identity_checks
from dynvertex.symfun import consistency_checks
from dynvertex.weights import (
    ArrowConfig,
    PsiParams,
    psi_u_equals_s,
    row_sum_checks,
)

S_IM = 1j * math.sqrt(0.3)
GENERAL_CONFIG = ('{"q": 0.4, "delta": -0.2, "U": [1.05], "Xi": [%s], '
                  '"S": [[0, 0.5477225575051661]], "J": [1]}')


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = dispatch(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        src = os.path.dirname(os.path.dirname(dynvertex.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = "import sys, dynvertex.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_cli_imports_no_private_names(self):
        # The report modules own their checks; the CLI uses their public
        # functions only (dunders such as __version__ are public).
        path = os.path.join(os.path.dirname(dynvertex.__file__), "cli.py")
        with open(path) as fh:
            tree = ast.parse(fh.read())
        private = [(node.module, alias.name)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").startswith(
                       "dynvertex"))
                   for alias in node.names if alias.name.startswith("_")
                   and not alias.name.endswith("__")]
        assert private == []


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert dispatch(["--no-such-flag"]) == 2
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_unknown_experiment(self, capsys):
        assert dispatch(["asymptotics", "--experiment", "bogus"]) == 2
        capsys.readouterr()

    def test_bad_model_config(self, tmp_path, capsys):
        code, _ = run(tmp_path, "simulate", "--model", "qhahn",
                      "--config", '{"bogus": 1}', "--steps", "2")
        assert code == 2
        capsys.readouterr()

    def test_config_not_json(self, tmp_path, capsys):
        code, _ = run(tmp_path, "simulate", "--model", "qhahn",
                      "--config", "{oops", "--steps", "2")
        assert code == 2
        capsys.readouterr()

    def test_bad_grid_name(self, tmp_path, capsys):
        code, _ = run(tmp_path, "check-weights", "--grid", "huge")
        assert code == 2
        capsys.readouterr()


class TestSpecfun:
    def test_identities_pass(self, tmp_path):
        code, rep = run(tmp_path, "specfun", "--grid-size", "10")
        assert code == 0
        assert rep["passed"] is True
        names = {c["name"] for c in rep["checks"]}
        assert "rogers_6w5_n5" in names
        assert "jackson_10v9_elliptic_n4" in names
        assert "riemann_quartic_trig" in names
        assert "basic_pochhammer_identity_7" in names
        assert "elliptic_pochhammer_identity_3_elliptic" in names
        assert all(c["residual"] < 1e-10 for c in rep["checks"])

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_empty_grid_rejected(self, tmp_path, capsys, size):
        # A grid with no points would pass every check vacuously.
        code, rep = run(tmp_path, "specfun", "--grid-size", size)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert "error: --grid-size must be >= 1" in err
        assert "Traceback" not in err

    def test_impossible_tolerance_fails(self, tmp_path):
        code, rep = run(tmp_path, "specfun", "--grid-size", "5",
                        "--tol", "1e-18")
        assert code == 1
        assert rep["passed"] is False


class TestCheckWeights:
    def test_both_families(self, tmp_path):
        code, rep = run(tmp_path, "check-weights", "--family", "both")
        assert code == 0
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["phi_row_sums"]["points"] == 108
        assert by_name["psi_row_sums"]["points"] == 162
        assert by_name["phi_row_sums"]["residual"] < 1e-10
        assert by_name["psi_row_sums"]["residual"] < 1e-10
        assert by_name["psi_at_u_equals_s_matches_phi"]["residual"] < 1e-10

    def test_phi_negative_weight_share(self, tmp_path):
        code, rep = run(tmp_path, "check-weights", "--family", "phi")
        assert code == 0
        share = {c["name"]: c for c in rep["checks"]}[
            "phi_negative_weight_share"]
        assert share["points"] == 3888
        assert share["value"] == 1144 / 3888
        assert share["gated"] is False and share["passed"] is True
        assert share["residual"] is None and share["tolerance"] is None

    def test_psi_residuals_equal_prior(self, tmp_path):
        # The default report's psi residuals, recomputed on the same grids
        # from the reference copies of psi, must match bit for bit.
        code, rep = run(tmp_path, "check-weights")
        assert code == 0
        by_name = {c["name"]: c for c in rep["checks"]}

        def row(i1, j1, pp):
            return [prior.psi(ArrowConfig(i1, j1, i1 + j1 - j2, j2), pp)
                    for j2 in range(min(pp.J, i1 + j1) + 1)]

        worst = 0.0
        for u in (0.91, 0.7, 0.5):
            for s in (0.3, 0.45):
                for q in (0.3, 0.4, 0.55):
                    for J in (1, 2, 3):
                        for kappa in (0.1, 0.15, 0.35):
                            pp = PsiParams(u=u, s=s, q=q, J=J, kappa=kappa)
                            for i1 in range(5):
                                for j1 in range(J + 1):
                                    worst = max(worst,
                                                abs(sum(row(i1, j1, pp)) - 1))
        assert by_name["psi_row_sums"]["residual"] == worst
        worst = 0.0
        for J in (1, 2, 3):
            pp = PsiParams(u=0.3, s=0.3, q=0.4, J=J, kappa=0.15)
            for i1 in range(4):
                for j1 in range(J + 1):
                    for j2, w in enumerate(row(i1, j1, pp)):
                        cfg = ArrowConfig(i1, j1, i1 + j1 - j2, j2)
                        worst = max(worst, abs(w - psi_u_equals_s(cfg, pp)))
        assert by_name["psi_at_u_equals_s_matches_phi"]["residual"] == worst

    def test_phi_only(self, tmp_path):
        code, rep = run(tmp_path, "check-weights", "--family", "phi")
        assert code == 0
        assert [c["name"] for c in rep["checks"]] == [
            "phi_row_sums", "phi_negative_weight_share"]


class TestSymfun:
    def test_consistency_checks_pass(self, tmp_path):
        code, rep = run(tmp_path, "symfun")
        assert code == 0
        names = {c["name"] for c in rep["checks"]}
        assert {"b_symmetry_trig", "b_branching_elliptic",
                "b_fusion_trig", "b_stochastic_total_mass"} <= names
        assert rep["passed"] is True

    def test_suite_selection(self, tmp_path):
        code, rep = run(tmp_path, "symfun", "--suite", "symmetry")
        assert code == 0
        assert {c["name"] for c in rep["checks"]} == {
            "b_symmetry_trig", "d_symmetry_trig",
            "b_symmetry_elliptic", "d_symmetry_elliptic"}


class TestSimulate:
    def test_ensemble_and_csv(self, tmp_path):
        csvf = tmp_path / "sites.csv"
        trajf = tmp_path / "traj.csv"
        code, rep = run(tmp_path, "simulate", "--model", "qhahn",
                        "--config", '{"q": 0.4, "delta": -0.2,'
                        ' "B": [-0.05]}',
                        "--steps", "4", "--samples", "500",
                        "--sites", "1", "2", "--seed", "3",
                        "--csv", str(csvf),
                        "--trajectory-csv", str(trajf))
        assert code == 0
        lines = csvf.read_text().splitlines()
        assert lines[0] == "site,mean,stderr,n_samples"
        assert len(lines) == 3
        assert trajf.read_text().splitlines()[0] == "time,site,value"
        # h(1) counts every particle; one enters per step here
        site1 = next(c for c in rep["checks"]
                     if c["name"] == "height_site_1")
        assert site1["value"] == pytest.approx(4.0)

    def test_general_complex_pairs(self, tmp_path):
        # [re, im] pairs, the form reports print complex numbers in, give
        # the same ensemble as the complex spec of the model tests.
        code, rep = run(tmp_path, "simulate", "--model", "general",
                        "--config", GENERAL_CONFIG % "[0, 0.5477225575051661]",
                        "--steps", "3", "--samples", "20", "--sites", "1",
                        "2", "--seed", "4")
        assert code == 0
        spec = ModelSpec.general(0.4, -0.2, U=(1.05,), Xi=(S_IM,),
                                 S=(S_IM,), J=(1,))
        ests = run_ensemble(spec, 3, 20, 4, [
            lambda st, s=s: current(st, s) for s in (1, 2)])
        assert [c["value"] for c in rep["checks"]] == [e.mean for e in ests]

    @pytest.mark.parametrize("xi", ['"a"', "[0, 1, 2]"])
    def test_general_malformed_value(self, tmp_path, capsys, xi):
        code, _ = run(tmp_path, "simulate", "--model", "general",
                      "--config", GENERAL_CONFIG % xi, "--steps", "3",
                      "--samples", "20")
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid model parameters" in err
        assert "Traceback" not in err

    def test_corner_model(self, tmp_path):
        code, rep = run(tmp_path, "simulate", "--model", "corner",
                        "--config", '{"p": 0.5}', "--steps", "4",
                        "--samples", "200", "--sites", "0")
        assert code == 0
        val = rep["checks"][0]["value"]
        assert 0.0 <= val <= 4.0

    def test_corner_half_integer_site(self, tmp_path):
        # At odd --steps the corner lattice holds the half-integers.
        code, rep = run(tmp_path, "simulate", "--model", "corner",
                        "--steps", "3", "--samples", "200",
                        "--sites", "0.5")
        assert code == 0
        assert rep["checks"][0]["name"] == "height_site_0.5"
        assert 1.0 <= rep["checks"][0]["value"] <= 3.0

    @pytest.mark.parametrize("steps, samples, flag", [
        ("2", "0", "--samples"), ("2", "-2", "--samples"),
        ("-1", "20", "--steps")])
    def test_bad_sizes_rejected(self, tmp_path, capsys, steps, samples,
                                flag):
        code, rep = run(tmp_path, "simulate", "--model", "pep",
                        "--steps", steps, "--samples", samples)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert "error: %s must be" % flag in err
        assert "Traceback" not in err

    def test_zero_steps(self, tmp_path):
        code, rep = run(tmp_path, "simulate", "--model", "pep",
                        "--steps", "0", "--samples", "20")
        assert code == 0
        assert rep["checks"][0]["value"] == 0.0

    @pytest.mark.parametrize("model, site", [("corner", "0"),
                                             ("pep", "1.5")])
    def test_site_off_lattice(self, tmp_path, capsys, model, site):
        code, _ = run(tmp_path, "simulate", "--model", model,
                      "--steps", "3", "--samples", "20", "--sites", site)
        assert code == 2
        err = capsys.readouterr().err
        assert "site %s is not" % site in err
        assert "Traceback" not in err


class TestVerifyIdentity:
    def test_hand_case(self, tmp_path):
        code, rep = run(tmp_path, "verify-identity", "--form", "qhahn",
                        "--k", "1", "--N", "1", "--x", "1",
                        "--q", "0.4", "--J", "1")
        assert code == 0
        assert rep["identity"]["rhs_quadrature"] == pytest.approx(-0.6,
                                                                  abs=1e-10)
        assert rep["identity"]["lhs_exact"] == pytest.approx(-0.6,
                                                             abs=1e-10)

    def test_with_monte_carlo(self, tmp_path):
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", "2", "--N", "3", "--gamma", "5.0",
                        "--samples", "2000", "--seed", "1")
        assert code == 0
        names = [c["name"] for c in rep["checks"]]
        assert "mc_expectation_vs_quadrature_sigmas" in names

    def test_k4(self, tmp_path):
        code, rep = run(tmp_path, "verify-identity", "--form", "qhahn",
                        "--q", "0.75", "--x", "1", "1", "1", "1", "--N", "4")
        assert code == 0
        assert rep["identity"]["quadrature_diagnostics"]["nodes_used"] == 256

    def test_exact_rhs_gate(self, tmp_path):
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", "3", "--N", "8", "--gamma", "3")
        assert code == 0
        check = {c["name"]: c for c in rep["checks"]}[
            "quadrature_vs_exact_rhs"]
        assert check["value"] == rep["identity"]["rhs_exact"] == -2.3671875
        assert check["passed"] and check["residual"] <= check["tolerance"]

    def test_unresolvable_quadrature_exits_1(self, tmp_path, capsys):
        # The N=200 integral lies below the rounding floor of its circle.
        code, _ = run(tmp_path, "verify-identity", "--form", "pep",
                      "--x", "100", "--N", "200", "--gamma", "3")
        assert code == 1
        assert "NotConverged: rounding floor" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--form", "pep", "--x", "1", "--N", "2", "--J", "2",
         "--gamma", "7"],
        ["--form", "qhahn", "--x", "3", "2", "--N", "3", "--J", "2"],
    ])
    def test_gates_are_relative(self, tmp_path, argv):
        # The doubling change is relative to |value| (here 1.3 and 2.7e-3),
        # and the exact residual is scaled by min(1, |lhs|).
        code, rep = run(tmp_path, "verify-identity", *argv)
        assert code == 0
        ident = rep["identity"]
        checks = {c["name"]: c for c in rep["checks"]}
        assert checks["exact_expectation_vs_quadrature"]["residual"] == \
            ident["residual_exact_vs_quadrature"] / min(
                1.0, abs(ident["lhs_exact"]))
        assert checks["rhs_quadrature_converged"]["residual"] == \
            ident["quadrature_diagnostics"]["doubling_change"] <= 1e-8

    def test_nonpositive_tol_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "verify-identity", "--form", "qhahn",
                      "--tol", "0")
        assert code == 2
        capsys.readouterr()

    def test_negative_samples_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "verify-identity", "--form", "pep",
                      "--samples", "-1")
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_k_mismatch(self, tmp_path, capsys):
        code, _ = run(tmp_path, "verify-identity", "--form", "qhahn",
                      "--k", "2", "--x", "1")
        assert code == 2
        capsys.readouterr()

    def test_increasing_sites_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "verify-identity", "--form", "qhahn",
                      "--x", "1", "2", "--N", "3")
        assert code == 2
        capsys.readouterr()


class TestAsymptotics:
    def test_heat_with_csv(self, tmp_path):
        csvf = tmp_path / "profile.csv"
        code, rep = run(tmp_path, "asymptotics", "--experiment", "heat",
                        "--config", '{"T": 64, "samples": 400}',
                        "--seed", "2", "--csv", str(csvf))
        assert code == 0
        lines = csvf.read_text().splitlines()
        assert lines[0] == "s,limit_profile,empirical_mean"
        assert len(lines) == 42
        assert rep["experiment"]["kind"] == "heat_lln"

    @pytest.mark.parametrize("name, config, header, rows", [
        ("gamma", '{"T": 16, "samples": 50, "m_list": [1, 2]}',
         "m,mc_mean,mc_stderr,target,rel_error", 2),
        ("corner-quartic", '{"T": 16, "samples": 50, "m_list": [1], '
         '"chi_samples": 100}', "m,mc_mean,mc_stderr,target,rel_error", 1),
        ("kpz-exponent", '{"T_list": [16, 32], "samples": 50}', "T,std", 2),
        ("f-collapse", '{"T": 16, "samples": 50}',
         "eta,site,mean,std,normalized_std", 3),
    ])
    def test_csv_layouts(self, tmp_path, name, config, header, rows):
        csvf = tmp_path / "table.csv"
        code, _ = run(tmp_path, "asymptotics", "--experiment", name,
                      "--config", config, "--csv", str(csvf))
        assert code == 0
        lines = csvf.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == rows + 1

    def test_heat_list_of_s(self, tmp_path):
        csvf = tmp_path / "profile.csv"
        code, rep = run(tmp_path, "asymptotics", "--experiment", "heat",
                        "--config", '{"T": 64, "samples": 100, '
                        '"s": [0.0, 0.5]}', "--csv", str(csvf))
        assert code == 0
        points = rep["experiment"]["points"]
        assert [c["name"] for c in rep["checks"]] == [
            "scaled_mean_vs_limit_profile_s0",
            "scaled_mean_vs_limit_profile_s0.5"]
        assert [c["value"] for c in rep["checks"]] == [
            p["mc_mean"] for p in points]
        means = {float(s): float(emp) for s, _, emp in
                 (line.split(",") for line in
                  csvf.read_text().splitlines()[1:]) if emp}
        assert means == {p["s"]: p["mc_mean"] for p in points}

    @pytest.mark.parametrize("name, config, says", [
        ("heat", '{"T": 16, "smaples": 20}', "smaples"),
        ("kpz-exponent", '{"T_list": [64], "samples": 20}', "two distinct"),
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, name, config, says):
        code, rep = run(tmp_path, "asymptotics", "--experiment", name,
                        "--config", config)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert says in err
        assert "Traceback" not in err

    def test_gate_failure(self, tmp_path):
        code, rep = run(tmp_path, "asymptotics", "--experiment", "heat",
                        "--config", '{"T": 64, "samples": 400}',
                        "--gate", "1e-9")
        assert code == 1
        assert rep["passed"] is False

    def test_kpz_structure(self, tmp_path):
        code, rep = run(tmp_path, "asymptotics", "--experiment",
                        "kpz-exponent",
                        "--config", '{"T_list": [50, 100], "samples": 200}',
                        "--gate", "0.4")
        assert code == 0
        assert rep["checks"][0]["name"] == \
            "fluctuation_exponent_vs_one_third"
        assert rep["config"]["experiment_config"] == {
            "q": 0.25, "eta": 0.5, "T_list": [50, 100], "samples": 200}


class TestReportShape:
    def test_embeds_config_version_seed(self, tmp_path):
        code, rep = run(tmp_path, "check-weights", "--family", "phi",
                        "--seed", "9")
        assert code == 0
        assert rep["seed"] == 9
        assert rep["version"]
        assert rep["config"]["family"] == "phi"
        assert "wall_clock_seconds" in rep["timing"]

    def test_strict_json(self, tmp_path):
        # One MC sample has zero standard error, so the sigma residuals are
        # infinite; they are written as strings, not as Infinity.
        out = tmp_path / "report.json"
        code = dispatch(["verify-identity", "--form", "pep", "--x", "2",
                         "--N", "4", "--samples", "1", "--out", str(out)])
        assert code == 1

        def reject(name):
            raise ValueError("not strict JSON: %s" % name)

        rep = json.loads(out.read_text(), parse_constant=reject)
        assert rep["identity"]["residual_mc_vs_quadrature_sigmas"] == "inf"
        assert rep["passed"] is False

    @pytest.mark.parametrize("argv, rows", [
        (["specfun", "--grid-size", "3", "--seed", "5"],
         lambda: identity_checks(5, 3, 1e-10)),
        (["check-weights"], lambda: row_sum_checks("both", 1e-10)),
        (["symfun"], lambda: consistency_checks("all", 1e-9, 1e-8)),
    ])
    def test_checks_are_the_library_rows(self, tmp_path, argv, rows):
        code, rep = run(tmp_path, *argv)
        assert code == 0
        assert [(c["name"], c["value"], c["residual"], c["tolerance"])
                for c in rep["checks"]] == [row[:4] for row in rows()]

    @pytest.mark.parametrize("argv", [["symfun", "verify"],
                                      ["check-weights", "--grid",
                                       "default"]])
    def test_removed_options(self, capsys, argv):
        assert dispatch(argv) == 2
        capsys.readouterr()

    def test_stdout_when_no_out(self, capsys):
        code = dispatch(["check-weights", "--family", "phi"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["verify-identity", "--form", "qhahn", "--x", "2", "1", "--N", "3",
         "--b", "-0.05", "--samples", "1000", "--seed", "5"],
        ["specfun", "--grid-size", "10", "--seed", "7"],
        ["asymptotics", "--experiment", "gamma",
         "--config", '{"T": 50, "samples": 100, "m_list": [1]}',
         "--seed", "4"],
    ])
    def test_reports_identical_modulo_timing(self, tmp_path, argv):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / ("%s.json" % tag)
            assert dispatch(argv + ["--out", str(out)]) == 0
            rep = json.loads(out.read_text())
            rep.pop("timing")
            texts.append(json.dumps(rep, sort_keys=True))
        assert texts[0] == texts[1]
