"""Command-line layer: exit-code contract, report shape, CSV dumps, and
byte-level reproducibility."""

import ast
import json
import math
import os
import subprocess
import sys
import textwrap
import time

import pytest

import dynvertex
import prior_weights as prior
from dynvertex.cli import dispatch
from dynvertex import asymptotics, cli, models, observables
from dynvertex.errors import Check, SizeLimit
from dynvertex.models import (
    MCEstimate,
    ModelSpec,
    current,
    exact_law,
    run_ensemble,
)
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


def fresh_interpreter(code):
    """The standard output of code run in a new interpreter that imports
    this checkout's dynvertex."""
    src = os.path.dirname(os.path.dirname(dynvertex.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        code = "import sys, dynvertex.cli; print('scipy' in sys.modules)"
        assert fresh_interpreter(code) == "False"

    def test_exact_layers_do_not_load_numpy_random(self):
        # numpy.random loads where a generator is built: the CLI's import
        # and the exact layers, which draw no random number, load none of
        # it, and run_ensemble (the positive control) loads it.
        code = textwrap.dedent("""\
            import sys
            import dynvertex.cli
            from dynvertex.models import (ModelSpec, current, exact_law,
                                          run_ensemble)
            from dynvertex.observables import (
                ObservableSpec, lhs_exact, rhs_exact, rhs_quadrature,
                solve_contours)
            from dynvertex.symfun import consistency_checks
            from dynvertex.weights import row_sum_checks
            pep = ModelSpec.jgamma_pep(1, 5.0)
            exact_law(pep, 3)
            spec = ObservableSpec(pep, (2, 1), 4)
            lhs_exact(spec)
            rhs_exact(ObservableSpec(pep, (1,), 3))
            rhs_quadrature(spec, solve_contours(spec))
            row_sum_checks("both", 1e-10)
            consistency_checks("all", 1e-9, 1e-8)
            print("numpy.random" in sys.modules)
            run_ensemble(pep, 2, 2, 0, [lambda ens: current(ens, 1)])
            print("numpy.random" in sys.modules)
            """)
        assert fresh_interpreter(code).split() == ["False", "True"]

    def test_import_and_contexts_evaluate_no_f(self):
        # f(2*eta) is kept per context but evaluated at first use: importing
        # the CLI (which builds the check contexts) and building contexts,
        # one whose theta series fails at 2*eta among them, evaluate no f.
        code = textwrap.dedent("""\
            import sys
            seen = []
            def prof(frame, event, arg):
                name = frame.f_code.co_name
                if event == "call" and name in ("f_eval", "theta1"):
                    seen.append(name)
            sys.setprofile(prof)
            import dynvertex.cli
            from dynvertex.specfun import CHECK_CONTEXTS, EllipticContext
            EllipticContext(mode="trigonometric", eta=0.5)
            EllipticContext(mode="elliptic", eta=0.07 + 0.05j, tau=3e-4j)
            sys.setprofile(None)
            print(seen, [c.f_two_eta_value for c in CHECK_CONTEXTS.values()])
            """)
        assert fresh_interpreter(code) == "[] [[], []]"

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
        # corner-quartic is a block of gamma's report now, not a choice.
        for name in ("bogus", "corner-quartic"):
            assert dispatch(["asymptotics", "--experiment", name]) == 2
            assert "invalid choice" in capsys.readouterr().err

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


class TestTolerances:
    @pytest.mark.parametrize("argv, flag", [
        (["specfun", "--grid-size", "1", "--tol", "-1"], "--tol"),
        (["specfun", "--tol", "nan"], "--tol"),
        (["check-weights", "--tol", "0"], "--tol"),
        (["symfun", "--tol", "0"], "--tol"),
        (["symfun", "--mass-tol", "0"], "--mass-tol"),
        (["verify-identity", "--form", "qhahn", "--tol=-1e-8"], "--tol"),
        (["asymptotics", "--experiment", "heat", "--gate=-1"], "--gate"),
        (["asymptotics", "--experiment", "heat", "--gate", "0"], "--gate"),
        (["asymptotics", "--experiment", "heat", "--gate", "nan"],
         "--gate"),
    ])
    def test_nonpositive_tolerance_exits_2(self, tmp_path, capsys, argv,
                                           flag):
        # A tolerance <= 0 fails every gated check: a bad config, not a
        # failed check.
        code, rep = run(tmp_path, *argv)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert "argument %s: must be positive" % flag in err
        assert "Traceback" not in err

    def test_tolerance_not_a_number(self, tmp_path, capsys):
        code, _ = run(tmp_path, "check-weights", "--tol", "tiny")
        assert code == 2
        assert "argument --tol: not a number: 'tiny'" in \
            capsys.readouterr().err


class TestSeed:
    @pytest.mark.parametrize("argv", [
        ["specfun"], ["check-weights"], ["symfun"],
        ["simulate", "--model", "pep", "--steps", "5", "--samples", "2"],
        ["verify-identity", "--form", "pep", "--k", "1", "--x", "2", "--N",
         "3", "--samples", "10"],
        ["asymptotics", "--experiment", "heat"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        # numpy's SeedSequence takes no negative seed: a usage error, as a
        # tolerance <= 0 is, before any work starts.
        code, rep = run(tmp_path, *argv, "--seed=-3")
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert "argument --seed: must be >= 0, got -3" in err
        assert "Traceback" not in err


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

    def test_default_report_pinned(self, tmp_path):
        # The residuals of the default report, bit for bit, as they read
        # before the Pochhammer symbols of the checks left the memo and
        # theta1 and f(2*eta) were trimmed.
        code, rep = run(tmp_path, "specfun")
        assert code == 0
        assert {c["name"]: c["residual"] for c in rep["checks"]} == {
            "rogers_6w5_n0": 5.625625445632637e-17,
            "rogers_6w5_n1": 1.3701826523472164e-15,
            "rogers_6w5_n2": 1.086648675334949e-15,
            "rogers_6w5_n3": 1.5063565087922833e-15,
            "rogers_6w5_n4": 1.5671075319976283e-15,
            "rogers_6w5_n5": 1.8202544596960495e-15,
            "jackson_10v9_trig_n0": 3.188728702140774e-17,
            "jackson_10v9_trig_n1": 2.802533501428557e-15,
            "jackson_10v9_trig_n2": 6.811018512633867e-15,
            "jackson_10v9_trig_n3": 1.1723405665908502e-14,
            "jackson_10v9_trig_n4": 4.8455923450265357e-14,
            "riemann_quartic_trig": 1.2850769537376456e-14,
            "elliptic_pochhammer_identity_1_trig": 3.667343151914493e-16,
            "elliptic_pochhammer_identity_2_trig": 2.5285489727635094e-16,
            "elliptic_pochhammer_identity_3_trig": 3.6934298932251344e-16,
            "jackson_10v9_elliptic_n0": 4.086084237304895e-17,
            "jackson_10v9_elliptic_n1": 3.5196396999546596e-15,
            "jackson_10v9_elliptic_n2": 1.036764355321698e-14,
            "jackson_10v9_elliptic_n3": 1.3103928983492675e-14,
            "jackson_10v9_elliptic_n4": 1.889557150820152e-13,
            "riemann_quartic_elliptic": 6.984851185334049e-14,
            "elliptic_pochhammer_identity_1_elliptic": 4.754021644187405e-15,
            "elliptic_pochhammer_identity_2_elliptic": 3.1258985767416475e-16,
            "elliptic_pochhammer_identity_3_elliptic": 3.913680710947737e-16,
            "basic_pochhammer_identity_1": 1.378868391507716e-15,
            "basic_pochhammer_identity_2": 2.927462079944374e-15,
            "basic_pochhammer_identity_3": 6.709959614022109e-15,
            "basic_pochhammer_identity_4": 5.030966220022392e-15,
            "basic_pochhammer_identity_5": 7.0058753067028255e-16,
            "basic_pochhammer_identity_6": 6.54286368459899e-16,
            "basic_pochhammer_identity_7": 1.1864434137773174e-11}


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

    def test_default_report_pinned(self, tmp_path):
        # The residuals of the default report, bit for bit, as they read
        # before psi kept its contexts, Pochhammer values and W_J memos
        # across calls.
        code, rep = run(tmp_path, "check-weights")
        assert code == 0
        assert {c["name"]: c["residual"] for c in rep["checks"]} == {
            "phi_row_sums": 6.661338147750939e-16,
            "phi_negative_weight_share": None,
            "psi_row_sums": 1.4876988529977098e-14,
            "psi_at_u_equals_s_matches_phi": 2.4424906541753444e-15}

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

    def test_default_report_pinned(self, tmp_path):
        # The residuals and the total mass of the default report, bit for
        # bit, as they read before theta1, w1 and sigma were trimmed.
        code, rep = run(tmp_path, "symfun")
        assert code == 0
        by_name = {c["name"]: c for c in rep["checks"]}
        mass = by_name["b_stochastic_total_mass"]["value"]
        assert mass == 1.0000000000000013
        assert {name: c["residual"] for name, c in by_name.items()} == {
            "b_symmetry_trig": 1.2477834239360078e-15,
            "d_symmetry_trig": 9.695503047290842e-16,
            "b_branching_trig": 3.6293155777834413e-16,
            "b_fusion_trig": 1.8789189141898726e-15,
            "b_symmetry_elliptic": 1.9194624519770106e-15,
            "d_symmetry_elliptic": 1.555137401607139e-15,
            "b_branching_elliptic": 1.0349915892434814e-15,
            "b_fusion_elliptic": 1.8512972782139014e-15,
            "b_stochastic_formula_vs_vertex": 5.551115123125783e-17,
            "b_stochastic_total_mass": 1.3322676295501878e-15}


class TestSimulate:
    @pytest.mark.parametrize("steps", [6, 200])
    def test_qhahn_default_is_admissible(self, tmp_path, steps):
        # The default B = (q^-2,) with delta = -0.2 is the b = q^-I family,
        # where every weight is nonnegative; B = (-0.3,) failed at row 6.
        code, rep = run(tmp_path, "simulate", "--model", "qhahn",
                        "--steps", str(steps))
        assert code == 0
        assert rep["config"]["model_config"] == {}

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

    @pytest.mark.parametrize("config, steps", [
        ('{"q": 0, "J": [3]}', "6"),
        ('{"q": 1e300, "J": [2]}', "5"),
    ], ids=["q0-default-B", "q1e300-default-C"])
    def test_qhahn_default_arithmetic_exits_2(self, tmp_path, capsys,
                                              config, steps):
        # q = 0 has no q^-2 for the default B, and q = 1e300 overflows q^2
        # in the default C: a bad config, not a traceback.
        code, rep = run(tmp_path, "simulate", "--model", "qhahn",
                        "--steps", steps, "--config", config)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert err.startswith("error: q = ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("model, config, says", [
        ("asym-pep", '{"delta": NaN}', "finite delta <= 0, got nan"),
        ("asym-pep", '{"delta": -Infinity}', "finite delta <= 0, got -inf"),
        ("qhahn", '{"B": []}', "B must hold one or more values"),
        ("qhahn", '{"C": [], "J": []}', "row degrees must be positive "
         "integers, one or more"),
        ("qhahn", '{"B": [0]}', "every b_x != 0"),
        ("qhahn", '{"delta": NaN}', "delta must be finite, got (nan,)"),
        ("general", GENERAL_CONFIG.replace('"U": [1.05]', '"U": []')
         % "[0, 0.5]", "U must hold one or more values"),
        ("general", GENERAL_CONFIG.replace('"J": [1]', '"J": []')
         % "[0, 0.5]", "row degrees must be positive integers, one or more"),
        ("general", GENERAL_CONFIG % "Infinity",
         "Xi must be finite, got ((inf+0j),)"),
        ("qhahn", '{"q": 0, "B": [1.0], "C": [0.0], "J": [1]}',
         "qhahn needs q != 0"),
        # phi's a = b_x c_y = 1e-200 is singular: once found only at
        # sampling, with exit 1
        ("qhahn", '{"q": 1e-200, "B": [1.0], "C": [1e-200], "J": [1]}',
         "qhahn needs every |a| = |b_x c_y| >= 1e-13, where phi is not "
         "singular; the least is 1e-200"),
        ("qhahn", '{"q": 0.5, "B": [1e-13, 3.0], "C": [0.5], "J": [1]}',
         "the least is 5e-14"),
    ], ids=["delta-nan", "delta-minus-inf", "qhahn-no-B", "qhahn-no-rows",
            "qhahn-b0", "qhahn-delta-nan", "general-no-U",
            "general-no-rows", "general-xi-inf", "qhahn-q0", "qhahn-a-tiny",
            "qhahn-a-below-tol"])
    def test_inadmissible_model_exits_2(self, tmp_path, capsys, model,
                                        config, says):
        # No model admits these: a NaN delta once ran and reported passed,
        # and an empty list ended in a ZeroDivisionError of the cyclic
        # lookup.
        code, rep = run(tmp_path, "simulate", "--model", model, "--steps",
                        "20", "--samples", "200", "--sites", "8",
                        "--config", config)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert err.startswith("error: invalid model parameters: ")
        assert says in err and err.count("\n") == 1

    def test_pep_gamma_1e4_runs_the_thinned_path(self, tmp_path,
                                                 monkeypatch):
        # gamma = 10^4 is the least gamma of the bit-sliced engine, where a
        # lone particle's stay bit is a fair coin or'ed with a thinned
        # Bernoulli(1/Upsilon); at this size some 25 candidates are drawn,
        # and the engine reads the key of each candidate alone.
        law = exact_law(ModelSpec.jgamma_pep(1, 1e4), 10)
        real, candidates = models._pep_key, []
        monkeypatch.setattr(models, "_pep_key", lambda spec, x, t, h:
                            candidates.append(len(x)) or real(spec, x, t, h))
        sites = ["2", "3", "4", "5", "6", "7"]
        code, rep = run(tmp_path, "simulate", "--model", "pep", "--config",
                        '{"gamma": 10000}', "--steps", "10", "--samples",
                        "40000", "--sites", *sites)
        assert code == 0
        assert sum(candidates) >= 10
        for row, x in zip(rep["checks"], map(int, sites)):
            exact = law.mean(lambda cfg: sum(cfg[x - 1:]))
            assert abs(row["value"] - exact) <= 5 * row["stderr"], x

    def test_qhahn_defaults_only_for_missing_keys(self, tmp_path, capsys,
                                                  monkeypatch):
        # With B and C given, the defaults q^-2 and q^J, which overflow at
        # q = 1e-200, are not computed; the constructor then finds phi's
        # a = b c_y = 1e-200 singular, before sampling.
        def powers(*args):
            raise AssertionError("a default was computed")

        monkeypatch.setattr(cli, "_powers", powers)
        code, rep = run(tmp_path, "simulate", "--model", "qhahn", "--config",
                        '{"q": 1e-200, "B": [1.0], "C": [1e-200], "J": [1]}',
                        "--steps", "3", "--samples", "5")
        assert code == 2 and rep is None
        assert capsys.readouterr().err.startswith(
            "error: invalid model parameters: qhahn needs every |a|")

    @pytest.mark.parametrize("model, config, site", [
        ("general", GENERAL_CONFIG % "[0, 0.5477225575051661]", "1"),
        ("qhahn", '{"J": [1, 2]}', "1"),
        ("pep", '{"J": 2, "gamma": 7.0}', "1"),
        ("asym-pep", '{"delta": -0.5}', "2"), ("corner", "{}", "0"),
        ("corner-dyn", "{}", "1")])
    def test_trajectory_csv_is_sample_0_of_the_report(
            self, tmp_path, monkeypatch, model, config, site):
        # The file's last time is sample 0 of the Ensemble whose estimates
        # the report holds.  Every exclusion-process occupancy lies in
        # [0, J+1] (a corner height moves by 0 or +-2 a position), and each
        # time holds the particles of the step data (a corner model's
        # h(1), (H(-t/2) + t)/2).
        seen, estimates = [], cli.estimates
        monkeypatch.setattr(cli, "estimates", lambda ens, *args: (
            seen.append(ens) or estimates(ens, *args)))
        trajf, steps = tmp_path / "traj.csv", 4
        code, rep = run(tmp_path, "simulate", "--model", model, "--config",
                        config, "--steps", str(steps), "--samples", "30",
                        "--sites", site, "--seed", "2",
                        "--trajectory-csv", str(trajf))
        assert code == 0
        (ens,) = seen
        assert rep["checks"][0]["value"] == ens.height(float(site)).mean()
        spec = cli._model_from_config(model, json.loads(config))
        lines = trajf.read_text().splitlines()
        assert lines[0] == "time,site,value"
        rows = [(int(t), float(x), int(v)) for t, x, v in
                (line.split(",") for line in lines[1:])]
        assert sorted({t for t, _, _ in rows}) == list(range(1, steps + 1))
        for t in range(1, steps + 1):
            got = {x: v for s, x, v in rows if s == t}
            values = list(got.values())
            if spec.is_corner:
                assert {b - a for a, b in zip(values, values[1:])} <= {
                    -2, 0, 2}
                assert got[-t / 2] == t == sum(
                    spec.row_degree(y) for y in range(1, t + 1))
            else:
                assert list(got) == list(range(1, len(got) + 1))
                if spec.variant != "general" and spec.variant != "qhahn":
                    assert all(0 <= v <= spec.J + 1 for v in values)
                assert sum(values) == sum(
                    spec.row_degree(y) for y in range(1, t + 1))
        if spec.is_corner:
            assert got == {p: int(ens.height(p)[0]) for p in got}
        else:
            h = [int(current(ens, x)[0]) for x in range(1, len(got) + 2)]
            assert values == [a - b for a, b in zip(h, h[1:])]
            assert h[-1] == 0 and (values[-1] or len(values) == 1)

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

    def test_corner_trajectory_csv(self, tmp_path):
        # Each time t lists the heights at -2 - t/2, ..., 2 + t/2; at time
        # 1 the corner of the wedge is cut off deterministically.
        trajf = tmp_path / "traj.csv"
        code, _ = run(tmp_path, "simulate", "--model", "corner-dyn",
                      "--steps", "6", "--samples", "2", "--sites", "0",
                      "--trajectory-csv", str(trajf))
        assert code == 0
        lines = trajf.read_text().splitlines()
        assert lines[0] == "time,site,value"
        rows = [(int(t), float(p), int(v)) for t, p, v in
                (line.split(",") for line in lines[1:])]
        for t in range(1, 7):
            got = [(p, v) for s, p, v in rows if s == t]
            assert [p for p, _ in got] == [i - 2 - t / 2 for i in range(t + 5)]
            assert {b - a for (_, a), (_, b) in zip(got, got[1:])} <= {
                -2, 0, 2}
            assert (got[0][1], got[-1][1]) == (4 + t, 4 + t)  # the wedge
        assert {p: v for s, p, v in rows if s == 1} == {
            -2.5: 5, -1.5: 3, -0.5: 1, 0.5: 1, 1.5: 3, 2.5: 5}

    @pytest.mark.parametrize("model, site", [("pep", "1"),
                                             ("corner-dyn", "0.5")])
    def test_infinite_gamma(self, tmp_path, model, site):
        # 1e400 parses as inf: 1/gamma = 0, and the thinned correction of
        # the bit-sliced engine draws no candidate.
        code, rep = run(tmp_path, "simulate", "--model", model,
                        "--config", '{"gamma": 1e400}', "--steps", "5",
                        "--samples", "70", "--sites", site)
        assert code == 0 and rep["passed"] is True

    def test_non_integral_degree_rejected(self, tmp_path, capsys):
        code, rep = run(tmp_path, "simulate", "--model", "pep",
                        "--config", '{"J": 1.5}', "--steps", "5")
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert "row degrees must be positive integers" in err
        assert "Traceback" not in err

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

    def test_corner_site_beyond_exact_floats(self, tmp_path, capsys):
        # 1e300 is on the time-0 lattice, but its height 2|x| overflowed
        # the int64 heights.
        code, rep = run(tmp_path, "simulate", "--model", "corner",
                        "--steps", "0", "--samples", "1", "--sites", "1e300")
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert err == ("error: site 1e+300 is beyond 2^53, where floats no "
                       "longer hold every integer\n")


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

    def test_monte_carlo_without_spread_is_gated_by_its_chance(
            self, tmp_path):
        # Both samples give the same current, so the standard error is 0:
        # the row's residual is the exact chance that two samples agree on
        # that value, a floor gate at 1e-6, and it passes.
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", "2", "--N", "3", "--samples", "2",
                        "--seed", "1")
        assert code == 0
        row = rep["checks"][-1]
        assert row["name"] == "mc_expectation_vs_quadrature_sigmas"
        assert row["gated"] is True and row["floor"] is True
        assert row["tolerance"] == 1e-6 and row["passed"] is True
        assert 1e-6 <= row["residual"] <= 1.0
        assert row["message"].startswith(
            "all 2 samples agree, so the standard error is 0")
        assert rep["identity"]["lhs_mc"]["stderr"] == 0.0
        assert all(c["passed"] for c in rep["checks"] if c["gated"])

    def test_many_agreeing_samples_off_the_answer_exit_1(
            self, tmp_path, monkeypatch):
        # 10000 samples that all agree on a value other than the answer:
        # under the exact law that agreement has a vanishing chance.
        def lhs_mc(spec, samples, seed):
            return MCEstimate(mean=0.0, stderr=0.0, n_samples=10000,
                              base_seed=seed)

        monkeypatch.setattr(observables, "lhs_mc", lhs_mc)
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", "2", "--N", "3", "--samples", "2",
                        "--seed", "1")
        assert code == 1
        row = rep["checks"][-1]
        assert row["gated"] and not row["passed"]
        assert row["residual"] < row["tolerance"] == 1e-6
        assert all(c["passed"] for c in rep["checks"][:-1])

    def test_agreeing_samples_off_the_answer_exit_1_without_the_law(
            self, tmp_path, monkeypatch):
        # The same agreement with the exact law skipped: the Markov bound
        # from the observable's range, ((rhs - lo) / (v - lo))^n with
        # lo = -5.4, rhs = -0.25, v = 0 and n = 10000, fails the floor.
        def lhs_mc(spec, samples, seed):
            return MCEstimate(mean=0.0, stderr=0.0, n_samples=10000,
                              base_seed=seed)

        def exact_law(spec, N):
            raise SizeLimit("exact law skipped")

        monkeypatch.setattr(observables, "lhs_mc", lhs_mc)
        monkeypatch.setattr(observables, "exact_law", exact_law)
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", "2", "--N", "3", "--samples", "2",
                        "--seed", "1")
        assert code == 1
        assert rep["identity"]["lhs_exact_skipped"] == "exact law skipped"
        row = rep["checks"][-1]
        assert row["gated"] and row["floor"] and not row["passed"]
        assert row["residual"] == pytest.approx(
            ((rep["identity"]["rhs"] + 5.4) / 5.4) ** 10000, rel=1e-9)
        assert row["residual"] < row["tolerance"] == 1e-6
        assert all(c["passed"] for c in rep["checks"][:-1])

    def test_lhs_exact_diagnostics(self, tmp_path):
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", "2", "--N", "4")
        assert code == 0
        diag = rep["identity"]["lhs_exact_diagnostics"]
        law = exact_law(ModelSpec.jgamma_pep(1, 5.0), 4)
        assert diag == {"configurations_per_step": list(law.configs),
                        "completed_branches": law.branches,
                        "pruned_mass": 0.0}
        assert diag["configurations_per_step"][-1] == len(law.support)

    def test_k4(self, tmp_path):
        code, rep = run(tmp_path, "verify-identity", "--form", "qhahn",
                        "--q", "0.75", "--x", "1", "1", "1", "1", "--N", "4")
        assert code == 0
        diag = rep["identity"]["quadrature_diagnostics"]
        assert diag["nodes_used"] == 256
        assert diag["nodes_per_circle"] == [64, 128, 128, 256]
        assert diag["passes"][0] == [64] * 4
        assert diag["nodes_evaluated"] == math.prod(
            diag["passes"][-1]) == 268435456
        assert diag["rounding_floor"] <= 1e-8

    def test_exact_rhs_gate(self, tmp_path):
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", "3", "--N", "8", "--gamma", "3")
        assert code == 0
        check = {c["name"]: c for c in rep["checks"]}[
            "quadrature_vs_exact_rhs"]
        assert check["value"] == rep["identity"]["rhs_exact"] == -2.3671875
        assert check["passed"] and check["residual"] <= check["tolerance"]

    @pytest.mark.parametrize("x, N, value, reason", [
        (20, 40, -2.50741375239159, "rounding floor 5.028e-07"),
        (100, 200, -5.63484790092564, "rounding floor"),
        (5000, 10 ** 4, -39.8932306969108,
         "budget stopped it at [16384] nodes per circle"),
    ], ids=["N40", "N200", "N10000"])
    def test_unresolvable_quadrature_answered_exactly(self, tmp_path, x, N,
                                                       value, reason):
        # These integrals lie below the rounding floor of their circle, or
        # need more nodes than the budget allows; rhs_exact answers, and
        # the quadrature's outcome stays as an ungated row.
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", str(x), "--N", str(N), "--gamma", "3")
        assert code == 0
        ident = rep["identity"]
        assert ident["rhs"] == ident["rhs_exact"] == pytest.approx(
            value, rel=1e-13)
        assert ident["rhs_quadrature"] is None
        assert ident["lhs_exact"] is None
        assert "projected past the configuration bound" in \
            ident["lhs_exact_skipped"]
        (row,) = rep["checks"]
        assert row["name"] == "rhs_quadrature_not_converged"
        assert row["value"] is None and row["gated"] is False
        assert reason in row["message"]
        assert row["message"] == ident["quadrature_diagnostics"][
            "not_converged"]

    def test_unresolvable_quadrature_without_exact_rhs_exits_1(
            self, tmp_path, capsys):
        # J=2 has no closed-form right side to fall back on.
        code, _ = run(tmp_path, "verify-identity", "--form", "pep",
                      "--x", "100", "--N", "200", "--J", "2", "--gamma", "7")
        assert code == 1
        assert "NotConverged: rounding floor" in capsys.readouterr().err

    def test_oversized_exact_law_skipped_before_enumerating(self, tmp_path):
        # The N=30 support would pass 200000 configurations near step 14;
        # its growth per step shows that within the first steps.
        start = time.perf_counter()
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", "15", "--N", "30", "--gamma", "3")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        ident = rep["identity"]
        assert ident["lhs_exact"] is None
        assert ident["lhs_exact_skipped"].startswith(
            "exact law support of ")
        assert ident["rhs"] == ident["rhs_quadrature"]

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

    def test_one_sample_rejected(self, tmp_path, capsys):
        # A standard error needs two samples; one used to report 0.0 and
        # fail the MC check with infinite sigmas.
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--x", "2", "--N", "4", "--samples", "1")
        assert code == 2 and rep is None
        assert "error: --samples must be 0 or >= 2, got 1" in \
            capsys.readouterr().err

    def test_negative_samples_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "verify-identity", "--form", "pep",
                      "--samples", "-1")
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "50"])
    def test_pep_infinite_gamma_exits_2(self, tmp_path, capsys, samples):
        # The left side's lead 1/gamma is 0 at gamma = inf, and 0 * inf
        # once gave nan rows (exit 1) and leaked numpy's warning.
        code, rep = run(tmp_path, "verify-identity", "--form", "pep",
                        "--gamma", "inf", "--x", "1", "--N", "3",
                        "--samples", samples)
        assert code == 2 and rep is None
        assert capsys.readouterr().err == (
            "error: invalid identity parameters: the PEP identity needs a "
            "finite gamma, got inf\n")

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

    @pytest.mark.parametrize("argv, says", [
        (["--q", "0", "--x", "1", "--N", "1"], "needs q != 0"),
        (["--q", "0", "--J", "-1"], "q = 0.0 leaves C"),
        (["--x", "1", "--N", "2", "--delta", "1"], "delta = 1.0 equals q^j"),
        (["--x", "2", "1", "--N", "2", "--delta", "0.4"],
         "delta = 0.4 equals q^j"),
        (["--q", "1e300", "--x", "3", "2", "1", "--N", "3"],
         "q = 1e+300 overflows q^j"),
        (["--q", "5e-324", "--x", "1", "--J", "2"],
         "qhahn needs every |a| = |b_x c_y| >= 1e-13"),
        (["--k", "1", "--x", "2", "--N", "3", "--b", "0"], "every b_x != 0"),
        (["--k", "1", "--x", "2", "--N", "3", "--b", "inf"],
         "B must be finite, got (inf,)"),
        (["--k", "1", "--x", "2", "--N", "3", "--b", "nan"],
         "B must be finite, got (nan,)"),
    ], ids=["q0-contours", "q0-C", "delta-q0", "delta-q1", "q-overflow",
            "q-tiny", "b0", "b-inf", "b-nan"])
    def test_qhahn_arithmetic_exits_2(self, tmp_path, capsys, argv, says):
        # q = 0 has no 1/q to nest the contours by and no q^-1 for C;
        # delta = q^j (j < k) zeroes the normalization prod (1 - q^j/delta),
        # and q^j must be a float; b = 0, or c_y = q^2 = 0 at q = 5e-324,
        # zeroes phi's a = b c_y, and b must be finite.
        code, rep = run(tmp_path, "verify-identity", "--form", "qhahn", *argv)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert says in err and err.count("\n") == 1


    @pytest.mark.parametrize("samples", ["0", "4"])
    def test_left_side_out_of_float_range_exits_1(self, tmp_path, capsys,
                                                  samples):
        # b^3 overflows: the left side once read nan (exact) or leaked
        # numpy's inf * 0 warning (Monte Carlo).
        code, rep = run(tmp_path, "verify-identity", "--form", "qhahn",
                        "--q", "1.46", "--x", "4", "4", "4", "--b=-1e300",
                        "--samples", samples)
        assert code == 1 and rep is None
        err = capsys.readouterr().err
        assert err.startswith("check failed: InadmissibleParameters: the "
                              "product of the c_y") and err.count("\n") == 1

    def test_huge_tol_passes_without_a_warning(self, tmp_path):
        # tol * |value| once overflowed in numpy's scalar multiply.
        code, rep = run(tmp_path, "verify-identity", "--form", "pep", "--x",
                        "1", "--N", "4", "--tol=1.7976931348623157e+308")
        assert code == 0 and rep["passed"]

    def test_tiny_tol_fails_without_a_warning(self, tmp_path, capsys):
        # The change scale max(|V|, floor / tol) once overflowed in numpy's
        # scalar divide at tol = 5e-324; the floor gate fails it.
        code, rep = run(tmp_path, "verify-identity", "--form", "qhahn",
                        "--x", "2", "1", "--N", "3", "--tol=5e-324")
        assert code == 1 and rep is None
        assert "NotConverged: rounding floor" in capsys.readouterr().err


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

    def test_f_collapse_zero_spread(self, tmp_path):
        # Two samples at T = 16 agree at two of the three sites, so the
        # least normalized std is 0 and the spread relative to it is inf.
        argv = ("asymptotics", "--experiment", "f-collapse",
                "--config", '{"samples": 2, "T": 16}')
        code, rep = run(tmp_path, *argv)
        assert code == 0
        assert min(r["normalized_std"] for r in rep["experiment"]["rows"]) == 0
        assert rep["experiment"]["pairwise_spread"] == "inf"
        assert rep["checks"][0]["residual"] == "inf"
        code, rep = run(tmp_path, *argv, "--gate", "0.5")
        assert code == 1 and not rep["checks"][0]["passed"]

    def test_gamma_corner_moments(self, tmp_path):
        # The corner reading of gamma, once its own experiment, is a block
        # of gamma's report; the CSV keeps gamma's layout.
        csvf = tmp_path / "table.csv"
        code, rep = run(tmp_path, "asymptotics", "--experiment", "gamma",
                        "--config", '{"T": 16, "samples": 50}',
                        "--seed", "5", "--csv", str(csvf))
        assert code == 0
        corner = rep["experiment"]["corner_moments"]
        assert [corner[m]["corner_value"] for m in ("1", "2")] == [4.88,
                                                                   16.8]
        assert [corner[m]["corner_target"] for m in ("1", "2")] == [
            4.787307364817193, 30.557749073643905]
        assert csvf.read_text().splitlines()[0] == (
            "m,mc_mean,mc_stderr,target,rel_error")

    def test_experiment_names_match_the_experiments(self):
        # One choice per experiment, none left over for a deleted one.
        assert sorted(cli._EXPERIMENT_NAMES.values()) == sorted(
            asymptotics._EXPERIMENTS)

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
        # inf * 0 in the factorial moments once leaked a numpy warning
        ("gamma", '{"gamma": Infinity, "T": 6, "samples": 3}',
         "gamma must be finite, got inf"),
        # the model's own parameter checks, before any sampling
        ("gamma", '{"gamma": 1.5, "T": 4, "samples": 3}',
         "invalid experiment config: jgamma_pep requires gamma > J+1"),
        ("heat", '{"J": 0, "T": 4, "samples": 3}',
         "invalid experiment config: row degrees must be positive"),
        ("kpz-exponent", '{"q": 1.5, "samples": 3}',
         "invalid experiment config: asym_pep requires 0 < q < 1"),
        ("f-collapse", '{"q": 1.5, "T": 4, "samples": 3}',
         "invalid experiment config: asym_pep requires 0 < q < 1"),
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, name, config, says):
        code, rep = run(tmp_path, "asymptotics", "--experiment", name,
                        "--config", config)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert says in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("m, says", [
        (30000000, "the target of m = 30000000 leaves float range"),
        (2.5, "each m must be an integer >= 0, got 2.5"),
        (205, "the target of m = 205 leaves float range"),
        (-1, "each m must be an integer >= 0, got -1")])
    def test_moment_order_exits_2_at_once(self, tmp_path, capsys, m, says):
        # 30000000 factors per sample ran past a 5 s timeout, and 2.5 ran
        # as moment 2; at the defaults m = 204 is the last order whose
        # target is a float.
        start = time.monotonic()
        code, rep = run(tmp_path, "asymptotics", "--experiment", "gamma",
                        "--config", '{"m_list": [%r], "T": 4, "samples": 3}'
                        % m)
        assert time.monotonic() - start < 0.5
        assert code == 2 and rep is None
        assert capsys.readouterr().err == (
            "error: invalid experiment config: %s\n" % says)

    def test_moment_order_204_runs(self, tmp_path):
        code, rep = run(tmp_path, "asymptotics", "--experiment", "gamma",
                        "--config", '{"m_list": [0, 204], "T": 4, '
                        '"samples": 3}')
        assert code in (0, 1)
        assert list(rep["experiment"]["moments"]) == ["0", "204"]

    @pytest.mark.parametrize("name, config, says", [
        ("heat", '{"T": 1e400}', "infinity"),
        ("heat", '{"samples": 1e400, "T": 8}', "infinity"),
        ("heat", '{"s": 1e300, "T": 8, "samples": 2}', "out of range"),
        ("kpz-exponent", '{"eta": Infinity}', "infinity"),
        ("heat", '{"T": 0, "samples": 2}', "T must be >= 1, got 0"),
        ("gamma", '{"T": 0, "samples": 2}', "T must be >= 1, got 0"),
        ("f-collapse", '{"T": 0.5, "samples": 2}', "got 0.5"),
        ("kpz-exponent", '{"T_list": [16, 0], "samples": 2}', "got 0"),
    ], ids=["T-inf", "samples-inf", "s-1e300", "eta-inf", "heat-T0",
            "gamma-T0", "f-collapse-T0.5", "kpz-T_list-0"])
    def test_config_arithmetic_exits_2(self, tmp_path, capsys, name, config,
                                       says):
        # Overflowing config arithmetic and horizons with no step to run
        # are bad configs, not tracebacks.
        code, rep = run(tmp_path, "asymptotics", "--experiment", name,
                        "--config", config)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment config: ")
        assert says in err

    @pytest.mark.parametrize("name, config, at", [
        ("f-collapse", '{"T": 1, "samples": 2}', "T = 1, eta = 0.4"),
        ("kpz-exponent", '{"T_list": [1, 2]}', "T = 1, eta = 0.5"),
    ], ids=["f-collapse", "kpz-exponent"])
    def test_probe_site_below_1_exits_2_before_sampling(
            self, tmp_path, capsys, monkeypatch, name, config, at):
        # floor(eta T) = 0 has no current to read: a one-line bad config
        # naming T and eta, raised before any ensemble runs.
        def run_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran before the check")

        monkeypatch.setattr(asymptotics, "run_ensemble", run_ensemble)
        code, rep = run(tmp_path, "asymptotics", "--experiment", name,
                        "--config", config)
        assert code == 2 and rep is None
        assert capsys.readouterr().err == (
            "error: invalid experiment config: probe site floor(eta * T) = 0"
            " is below site 1 at %s\n" % at)

    @pytest.mark.parametrize("name, config, says", [
        ("heat", '{"s": [], "T": 16, "samples": 10}',
         "s must hold one or more values"),
        ("f-collapse", '{"eta_list": [], "T": 16, "samples": 10}',
         "eta_list must hold one or more values"),
        ("gamma", '{"m_list": [], "T": 16, "samples": 10}',
         "m_list must hold one or more values"),
        ("kpz-exponent", '{"T_list": [16, 32], "samples": 1}',
         "samples must be >= 2, got 1"),
        ("f-collapse", '{"T": 16, "samples": 1}',
         "samples must be >= 2, got 1"),
        ("heat", '{"T": 16, "samples": 1}', "samples must be >= 2, got 1"),
    ], ids=["heat-s", "f-collapse-eta_list", "gamma-m_list",
            "kpz-exponent-samples", "f-collapse-samples", "heat-samples"])
    def test_nothing_to_measure_exits_2_before_sampling(
            self, tmp_path, capsys, monkeypatch, name, config, says):
        # An empty point list once leaked "not enough values to unpack" or
        # "min() arg is an empty sequence", or passed with no moment; one
        # sample leaked "math domain error", or passed with a stderr of 0
        # and an infinite spread.
        def run_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran before the check")

        monkeypatch.setattr(asymptotics, "run_ensemble", run_ensemble)
        code, rep = run(tmp_path, "asymptotics", "--experiment", name,
                        "--config", config)
        assert code == 2 and rep is None
        assert capsys.readouterr().err == (
            "error: invalid experiment config: %s\n" % says)

    def test_kpz_zero_std_exits_2(self, tmp_path, capsys):
        # Two samples of h_16(8) agree: log 0 once leaked as "math domain
        # error".
        code, rep = run(tmp_path, "asymptotics", "--experiment",
                        "kpz-exponent", "--config",
                        '{"T_list": [16, 32], "samples": 2}')
        assert code == 2 and rep is None
        assert capsys.readouterr().err == (
            "error: invalid experiment config: every sample of h_T(8) "
            "agrees at T = 16: a std of 0 has no log to fit\n")

    def test_gate_fills_only_ungated_rows(self, tmp_path, monkeypatch):
        # --gate is the tolerance of rows that have none; a row with its
        # own tolerance keeps it, and a row of four fields gets no --gate
        # as its points.
        def stub(seed, /):
            return {}, [Check("own", 1.0, 0.2, tolerance=0.1),
                        Check("free", 1.0, 0.2)], (("a",), [])

        monkeypatch.setitem(asymptotics._EXPERIMENTS, "heat_lln", stub)
        code, rep = run(tmp_path, "asymptotics", "--experiment", "heat",
                        "--gate", "0.5")
        assert code == 1
        assert rep["checks"] == [
            Check("own", 1.0, 0.2, tolerance=0.1).as_dict(),
            Check("free", 1.0, 0.2, tolerance=0.5).as_dict()]
        assert [c["passed"] for c in rep["checks"]] == [False, True]

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


class TestSizeAndRate:
    """Configs whose runs cannot start exit 2 with one line, before any
    trajectory is sampled or any buffer allocated."""

    @pytest.fixture
    def no_engine(self, monkeypatch):
        # 1 TiB of physical memory whatever the machine, and no engine
        # that may run: the size check alone must stop these configs.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 28}
        monkeypatch.setattr(models.os, "sysconf", pages.__getitem__)

        def refuse(*args):
            raise AssertionError("an engine ran")

        for name in models._ENGINES:
            monkeypatch.setitem(models._ENGINES, name, refuse)

    @pytest.mark.parametrize("argv, says", [
        (["asymptotics", "--experiment", "kpz-exponent", "--config",
          '{"samples": 1e12, "T_list": [10, 20]}'],
         "error: invalid experiment config: 1000000000000 samples of 10 "
         "steps need at least 12000000000000 bytes, more than the "
         "1099511627776 bytes of physical memory\n"),
        (["simulate", "--model", "pep", "--steps", "10", "--samples",
          "1000000000000"],
         "error: 1000000000000 samples of 10 steps need at least "
         "12000000000000 bytes, more than the 1099511627776 bytes of "
         "physical memory\n"),
        (["verify-identity", "--form", "pep", "--x", "2", "1", "--N", "4",
          "--samples", "1000000000000"],
         "error: 1000000000000 samples of 4 steps need at least "
         "6000000000000 bytes, more than the 1099511627776 bytes of "
         "physical memory\n"),
        # A horizon past 2^53 is bounded by memory only, not rejected.
        (["asymptotics", "--experiment", "gamma", "--config",
          '{"T": 9007199254740993}'],
         "error: invalid experiment config: 10000 samples of "
         "9007199254740993 steps need at least 90071992547409950000 bytes, "
         "more than the 1099511627776 bytes of physical memory\n"),
    ], ids=["kpz", "simulate", "verify-identity", "gamma-horizon"])
    def test_huge_sample_count_exits_2(self, tmp_path, capsys, no_engine,
                                       argv, says):
        code, rep = run(tmp_path, *argv)
        assert code == 2 and rep is None
        assert capsys.readouterr().err == says

    def test_size_bound_is_one_byte_per_sample_and_row(self, monkeypatch):
        pages = {"SC_PAGE_SIZE": 600, "SC_PHYS_PAGES": 2}
        monkeypatch.setattr(models.os, "sysconf", pages.__getitem__)
        models.check_ensemble_size(10, 100)  # 100 * 12 bytes fit
        with pytest.raises(ValueError, match="^101 samples of 10 steps "
                           "need at least 1212 bytes, more than the 1200 "):
            models.check_ensemble_size(10, 101)
        # Where os.sysconf cannot tell, nothing is rejected.
        monkeypatch.delattr(models.os, "sysconf")
        models.check_ensemble_size(10, 10 ** 15)

    @pytest.mark.parametrize("s, x", [(-4, 0), (-6, -4)])
    def test_gamma_site_below_1_exits_2(self, tmp_path, capsys, no_engine,
                                        s, x):
        # The identity site floor(T/2 + s T^(1/4)) = 8 + 2s at T = 16:
        # s = -4 once reported site 0 as passed, with an m = 1 "moment" of
        # 12.0, and s = -6 exited 2 only after sampling.
        code, rep = run(tmp_path, "asymptotics", "--experiment", "gamma",
                        "--config", '{"T": 16, "s": %d, "samples": 50}' % s)
        assert code == 2 and rep is None
        assert capsys.readouterr().err == (
            "error: invalid experiment config: x_list must hold positive "
            "site indices, got (%d,)\n" % x)

    @pytest.mark.parametrize("m_list", [[0], [1], [0, 2]])
    def test_gamma_site_checked_for_every_m_list(self, tmp_path, capsys,
                                                 no_engine, m_list):
        # With only m = 0 the site went unchecked: s = -4 exited 0 with
        # passed: true at site 0.
        code, rep = run(tmp_path, "asymptotics", "--experiment", "gamma",
                        "--config", '{"T": 16, "s": -4, "m_list": %s, '
                        '"samples": 5}' % m_list)
        assert code == 2 and rep is None
        assert capsys.readouterr().err == (
            "error: invalid experiment config: x_list must hold positive "
            "site indices, got (0,)\n")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "pep", "--config",
         '{"J": 1e13, "gamma": 1e14}', "--steps", "3", "--samples", "4"],
        ["asymptotics", "--experiment", "heat", "--config",
         '{"J": 1e13, "T": 4, "samples": 3}']], ids=["simulate", "heat"])
    def test_pair_code_sized_j_exits_0(self, tmp_path, argv):
        # J = 10^13 once exited 1 on SizeLimit: the keyed engine's
        # (occupancy, key) pair codes reached past int64.  h(1) = J N.
        code, rep = run(tmp_path, *argv)
        assert code == 0
        if argv[0] == "simulate":
            assert rep["checks"][0]["value"] == 3e13
        else:
            assert rep["experiment"]["steps"] == 4

    @pytest.mark.parametrize("name", ["heat", "gamma"])
    @pytest.mark.parametrize("r", ["0", "-1", "NaN"])
    def test_non_positive_rate_exits_2(self, tmp_path, capsys, no_engine,
                                       name, r):
        # gamma divided by its target, 0 at r = 0, after sampling.
        code, rep = run(tmp_path, "asymptotics", "--experiment", name,
                        "--config", '{"samples": 2, "T": 1, "r": %s}' % r)
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment config: r must be "
                              "positive, got ") and err.count("\n") == 1


class TestConfigFile:
    """--config takes an inline JSON object or @path to a file holding one."""

    ARGV = {"simulate": ["simulate", "--model", "pep", "--steps", "6",
                         "--samples", "20"],
            "asymptotics": ["asymptotics", "--experiment", "heat"]}
    CONFIG = {"simulate": '{"J": 2, "gamma": 7.0}',
              "asymptotics": '{"T": 16, "samples": 20}'}

    @pytest.mark.parametrize("cmd", ["simulate", "asymptotics"])
    def test_file_gives_the_inline_report(self, tmp_path, cmd):
        path = tmp_path / "config.json"
        path.write_text(self.CONFIG[cmd])
        reports = []
        for config in (self.CONFIG[cmd], "@%s" % path):
            code, rep = run(tmp_path, *self.ARGV[cmd], "--config", config)
            assert code == 0
            del rep["timing"]
            reports.append(rep)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("cmd", ["simulate", "asymptotics"])
    def test_missing_file_exits_2(self, tmp_path, capsys, cmd):
        code, rep = run(tmp_path, *self.ARGV[cmd], "--config",
                        "@%s" % (tmp_path / "missing.json"))
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cmd", ["simulate", "asymptotics"])
    def test_non_object_exits_2(self, tmp_path, capsys, cmd):
        code, rep = run(tmp_path, *self.ARGV[cmd], "--config", "[1]")
        assert code == 2 and rep is None
        assert capsys.readouterr().err == (
            "error: config must be a JSON object\n")


class TestCheck:
    def test_ungated_passes(self):
        assert Check("a", 1.0, 5.0).as_dict() == {
            "name": "a", "value": 1.0, "residual": 5.0, "tolerance": None,
            "gated": False, "passed": True}

    def test_gated_without_residual_fails(self):
        row = Check("a", tolerance=1.0).as_dict()
        assert (row["gated"], row["passed"]) == (True, False)

    @pytest.mark.parametrize("residual, passed", [
        (1e-6, True), (1.0, True), (9e-7, False)])
    def test_floor_gate(self, residual, passed):
        # A floor gate passes at residual >= tolerance, the gap included.
        row = Check("a", residual=residual, tolerance=1e-6,
                    floor=True).as_dict()
        assert (row["passed"], row["floor"]) == (passed, True)

    def test_optional_fields_where_set(self):
        # points and message are reported when set, 0 and "" included;
        # floor only when true.
        row = Check("a", residual=0.5, tolerance=1.0, points=0,
                    message="").as_dict()
        assert (row["passed"], row["points"], row["message"]) == (
            True, 0, "")
        assert "floor" not in row
        assert Check("a", residual=2.0, tolerance=1.0).as_dict()[
            "passed"] is False


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
        # Both MC samples are equal here, so the standard error is zero and
        # the sigma residuals are infinite; they are written as strings,
        # not as Infinity.
        out = tmp_path / "report.json"
        code = dispatch(["verify-identity", "--form", "pep", "--x", "2",
                         "--N", "3", "--samples", "2", "--seed", "1",
                         "--out", str(out)])
        assert code == 0

        def reject(name):
            raise ValueError("not strict JSON: %s" % name)

        rep = json.loads(out.read_text(), parse_constant=reject)
        assert rep["identity"]["residual_mc_vs_quadrature_sigmas"] == "inf"
        assert rep["identity"]["residual_mc_vs_exact_sigmas"] == "inf"
        assert rep["passed"] is True

    @pytest.mark.parametrize("argv", [
        ["--x", "2", "--N", "4"],
        ["--x", "3", "--N", "8", "--gamma", "3", "--samples", "500"],
        # both MC samples agree: the row is a floor gate on their chance
        ["--x", "2", "--N", "3", "--samples", "2", "--seed", "1"],
    ])
    def test_passed_is_a_json_bool(self, tmp_path, argv):
        # Every check row of a verify-identity report, gated or not.
        code, rep = run(tmp_path, "verify-identity", "--form", "pep", *argv)
        assert len(rep["checks"]) >= 2
        for check in rep["checks"]:
            assert type(check["passed"]) is bool, check
            assert type(check["gated"]) is bool, check
            if check.get("floor"):
                assert check["passed"] == (
                    float(check["residual"]) >= check["tolerance"])
            elif check["gated"]:
                assert check["passed"] == (
                    float(check["residual"]) <= check["tolerance"])
            else:
                assert check["passed"] is True and check["message"]
        assert rep["passed"] is all(c["passed"] for c in rep["checks"])
        assert code == (0 if rep["passed"] else 1)

    @pytest.mark.parametrize("argv, rows", [
        (["specfun", "--grid-size", "3", "--seed", "5"],
         lambda: identity_checks(5, 3, 1e-10)),
        (["check-weights"], lambda: row_sum_checks("both", 1e-10)),
        (["symfun"], lambda: consistency_checks("all", 1e-9, 1e-8)),
    ])
    def test_checks_are_the_library_rows(self, tmp_path, argv, rows):
        # Every field of every row, points included.
        code, rep = run(tmp_path, *argv)
        assert code == 0
        assert rep["checks"] == [row.as_dict() for row in rows()]

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
