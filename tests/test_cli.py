import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lgeo import cli
from lgeo import generators as G

from conftest import dirichlet_points


def run_cli(*args):
    return cli.main(list(args))


def write_market(path, rows, n=3, header=None):
    cols = header or ["t"] + [f"mu_{i + 1}" for i in range(n)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestGeneratorSpecs:
    def test_equal_shorthand(self):
        gen = cli.parse_generator_spec("eq3")
        assert isinstance(gen, G.ConstantWeighted)
        assert np.allclose(gen.weights, 1 / 3)

    def test_all_kinds(self):
        assert isinstance(cli.parse_generator_spec("market"), G.ZeroGenerator)
        assert isinstance(cli.parse_generator_spec("cw:0.5,0.5"), G.ConstantWeighted)
        assert isinstance(cli.parse_generator_spec("dw:0.5"), G.DiversityWeighted)
        gdw = cli.parse_generator_spec("gdw:0.4:1,2,0.5")
        assert isinstance(gdw, G.GeneralizedDiversityWeighted)
        assert gdw.lam == 0.4
        mix = cli.parse_generator_spec("mix:0.4*eq3+0.6*dw:0.5")
        assert isinstance(mix, G.ConvexCombination)
        assert np.allclose(mix.coeffs, [0.4, 0.6])

    def test_bad_specs_raise(self):
        for bad in ("eqx", "dw:2.0", "nope", "mix:1*", "eq1"):
            with pytest.raises((cli.SpecError, ValueError)):
                cli.parse_generator_spec(bad)

    def test_each_spec_form_is_its_config_record(self):
        # a spec is built through the config record that to_config writes back
        third, tenth = [1 / 3] * 3, [0.1] * 10
        records = {
            "market": {"kind": "market"},
            "equal": {"kind": "equal"},
            "eq3": {"kind": "constant", "weights": third},
            " eq10 ": {"kind": "constant", "weights": tenth},
            "cw:0.25,0.75": {"kind": "constant", "weights": [0.25, 0.75]},
            "dw:0.5": {"kind": "diversity", "lam": 0.5},
            "gdw:0.4:1,2,0.5": {"kind": "generalized_diversity", "lam": 0.4,
                                "weights": [1.0, 2.0, 0.5]},
            "mix:0.4*eq3+0.6*dw:0.5": {
                "kind": "combination", "coeffs": [0.4, 0.6],
                "components": [{"kind": "constant", "weights": third},
                               {"kind": "diversity", "lam": 0.5}]},
            "mix:0.25*equal+0.75*mix:1*eq10": {
                "kind": "combination", "coeffs": [0.25, 0.75],
                "components": [{"kind": "equal"},
                               {"kind": "combination", "coeffs": [1.0],
                                "components": [{"kind": "constant", "weights": tenth}]}]},
        }
        for spec, record in records.items():
            assert cli.parse_generator_spec(spec).to_config() == record, spec
        # eqN is equal_weighted(N) and writes the weights 1/N it was given;
        # they build bitwise the weights it stores (1/N divided by their sum)
        for n in range(2, 61):
            eq, cw = cli.parse_generator_spec(f"eq{n}"), G.equal_weighted(n)
            record = {"kind": "constant", "weights": [1.0 / n] * n}
            assert eq.to_config() == cw.to_config() == record, n
            assert np.array_equal(eq.weights, cw.weights), n
            assert G.generator_from_config(cw.to_config()).weights.tobytes() == cw.weights.tobytes(), n
        # `equal` gives the values of eqN at N entries
        for n in (3, 7):
            cw = G.equal_weighted(n)
            P = dirichlet_points(np.random.default_rng(n), n, 5)
            assert np.array_equal(cli.parse_generator_spec("equal").log_gen(P), cw.log_gen(P)), n

    def test_cli_imports_no_generator_family(self):
        families = [v for v in vars(cli).values()
                    if isinstance(v, type) and issubclass(v, G.Generator) and v is not G.Generator]
        assert families == []


class TestSubcommands:
    def test_divergence_hand_value(self, capsys):
        code = run_cli("divergence", "--gen", "eq2", "--p", ".5,.5", "--q", ".75,.25")
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.143841"

    def test_pyth_signs_match(self, capsys):
        code = run_cli("pyth", "--gen", "eq3", "--p", ".5,.25,.25",
                       "--q", ".25,.5,.25", "--r", ".25,.25,.5")
        assert code == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert np.sign(float(out["gap"])) == np.sign(float(out["inner"]))
        assert (float(out["gap"]) > 0) == (float(out["angle_deg"]) < 90)

    def test_geodesic_csv(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = run_cli("geodesic", "--gen", "dw:0.5", "--q", ".6,.25,.15",
                       "--r", ".15,.35,.5", "--steps", "32", "--out", str(out))
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (33, 3)
        header = out.read_text().splitlines()[0]
        assert header == "t,theta_1,theta_2"

    def test_flow_csv(self, tmp_path):
        out = tmp_path / "f.csv"
        code = run_cli("flow", "--gen", "eq3", "--q", ".6,.25,.15",
                       "--target", ".2,.3,.5", "--horizon", "8", "--steps", "100",
                       "--out", str(out))
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape[1] == 3

    def test_backtest_identity(self, tmp_path, capsys, rng):
        data = tmp_path / "mkt.csv"
        W = dirichlet_points(rng, 3, 50)
        write_market(data, [[t] + [repr(float(v)) for v in row] for t, row in enumerate(W)])
        out = tmp_path / "report.csv"
        code = run_cli("backtest", "--gen", "dw:0.5", "--data", str(data),
                       "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        residuals = [abs(float(r.split(",")[-1])) for r in rows]
        assert max(residuals) < 1e-12

    def test_compare_three_point(self, tmp_path, capsys):
        data = tmp_path / "three.csv"
        write_market(data, [[0, 0.5, 0.25, 0.25], [1, 0.25, 0.5, 0.25],
                            [2, 0.25, 0.25, 0.5]])
        code = run_cli("compare", "--gen", "eq3", "--data", str(data),
                       "--schedule-a", "0,1", "--schedule-b", "0")
        assert code == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert float(out["difference"]) == pytest.approx(float(out["pythagorean_gap"]),
                                                         abs=1e-12)

    def test_interpolate_terminal(self, capsys):
        code = run_cli("interpolate", "--gen", "dw:0.5", "--theta", "1.0,-0.5",
                       "--kind", "market", "--steps", "8")
        assert code == 0
        out = capsys.readouterr().out
        terminal = np.array([float(v) for v in out.split()[-1].split(",")])
        assert np.allclose(terminal, 0.0, atol=1e-12)

    def test_transport_check_passes(self, capsys):
        code = run_cli("transport-check", "--a", "0", "--b", "0", "--sigma", "1",
                       "--lam", "0.5", "--samples", "20000")
        assert code == 0
        assert "transport check passed" in capsys.readouterr().out

    def test_regularity_report(self, capsys):
        assert run_cli("regularity", "--gen", "dw:0.5", "--n", "3", "--points", "20") == 0
        assert "all regular" in capsys.readouterr().out
        assert run_cli("regularity", "--gen", "market", "--n", "3", "--points", "5") == 0
        assert "failures" in capsys.readouterr().out

    def test_config_file_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"kind": "diversity", "lam": 0.5}))
        code = run_cli("divergence", "--config", str(cfg), "--p", ".5,.25,.25",
                       "--q", ".25,.5,.25")
        assert code == 0


class TestRegionCommand:
    def test_csv_columns_and_markers(self, tmp_path, capsys):
        out = tmp_path / "region.csv"
        code = run_cli("region", "--gen", "eq3", "--p", ".5,.25,.25",
                       "--r", ".2,.3,.5", "--resolution", "40", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q1,q2,q3,gap,in_region"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        # p and r rows appended last, both classified inside (gap = 0)
        assert np.allclose(data[-2, :3], [0.5, 0.25, 0.25], atol=1e-12)
        assert abs(data[-2, 3]) < 1e-12 and data[-2, 4] == 1
        assert abs(data[-1, 3]) < 1e-12 and data[-1, 4] == 1

    def test_csv_bytes_match_per_row_formatting(self, tmp_path):
        out = tmp_path / "region.csv"
        gen = G.DiversityWeighted(0.5)
        p, r = np.array([0.3, 0.3, 0.4]), np.array([0.5, 0.2, 0.3])
        sample = cli.emit_region(gen, p, r, 100, out)  # 4853 rows: two blocks
        expected = "q1,q2,q3,gap,in_region\n" + "".join(
            f"{q[0]:.17g},{q[1]:.17g},{q[2]:.17g},{gap:.17g},{int(flag)}\n"
            for q, gap, flag in zip(sample.points, sample.gap, sample.in_region)
        )
        assert 0 < sample.in_region.sum() < sample.in_region.size
        assert out.read_bytes() == expected.encode()

    def test_svg_output(self, tmp_path):
        out = tmp_path / "region.svg"
        code = run_cli("region", "--gen", "eq3", "--p", ".5,.25,.25",
                       "--r", ".2,.3,.5", "--resolution", "50",
                       "--format", "svg", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "<polygon" in text and "<circle" in text and "</svg>" in text

    def test_resolution_200_under_ten_seconds(self, tmp_path):
        out = tmp_path / "big.csv"
        t0 = time.time()
        code = run_cli("region", "--gen", "eq3", "--p", ".33,.33,.34",
                       "--r", ".33,.33,.34", "--resolution", "200", "--out", str(out))
        elapsed = time.time() - t0
        assert code == 0
        assert elapsed < 10.0


class TestExitCodes:
    def test_usage_error_bad_spec(self, capsys):
        assert run_cli("divergence", "--gen", "bogus", "--p", ".5,.5", "--q", ".5,.5") == 1

    @pytest.mark.parametrize("doc, field", [
        ('{"kind": "constant"}', "'weights'"),
        ('{"kind": "diversity", "lam": "x"}', "'lam'"),
        ("[1, 2]", "JSON object"),
        ('{"kind": "diversity", "lam": 0.5', "gen.json"),
    ])
    def test_usage_error_malformed_config(self, tmp_path, capsys, doc, field):
        # a malformed --config file exits 1 with one error line, as a bad --gen
        cfg = tmp_path / "gen.json"
        cfg.write_text(doc)
        code = run_cli("divergence", "--config", str(cfg), "--p", ".5,.25,.25",
                       "--q", ".25,.5,.25")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad generator config") and field in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("spec", ["mix:nan*dw:0.5+1*eq3", "gdw:0.5:1,nan,2",
                                      "gdw:0.5:1,inf,2", "config"])
    def test_usage_error_non_finite_parameter(self, tmp_path, capsys, spec):
        # a NaN or inf coefficient or weight exits 1 with one error line;
        # it used to print nan and exit 0
        if spec == "config":
            cfg = tmp_path / "gen.json"
            cfg.write_text(json.dumps({"kind": "combination", "coeffs": [math.nan, 1.0],
                                       "components": [{"kind": "diversity", "lam": 0.5},
                                                      {"kind": "equal"}]}))
            source = ("--config", str(cfg))
        else:
            source = ("--gen", spec)
        code = run_cli("divergence", *source, "--p", ".5,.25,.25", "--q", ".25,.5,.25")
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: bad generator")
        assert len(captured.err.splitlines()) == 1

    def test_usage_error_unknown_command(self, capsys):
        assert run_cli("no-such-command") == 1

    def test_usage_error_missing_flags(self, capsys):
        assert run_cli("divergence", "--gen", "eq2") == 1

    def test_numerical_error_bad_data(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        write_market(data, [[0, 0.5, 0.4], [1, 0.5, 0.5]], n=2)
        assert run_cli("backtest", "--gen", "eq2", "--data", str(data)) == 2

    def test_numerical_error_nonpositive_point(self, capsys):
        assert run_cli("divergence", "--gen", "eq2", "--p", "1.0,0.0", "--q", ".5,.5") == 2

    def test_usage_error_region_resolution_below_three(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("region", "--gen", "dw:0.5", "--p", "0.3,0.3,0.4",
                       "--r", "0.5,0.2,0.3", "--resolution", "2", "--out", str(out)) == 1
        assert "--resolution" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--horizon", "-1"), ("--horizon", "nan"),
                                             ("--horizon", "inf"), ("--horizon", "0"),
                                             ("--steps", "0"), ("--steps", "-5")])
    def test_usage_error_flow_horizon_or_steps(self, tmp_path, capsys, flag, value):
        out = tmp_path / "f.csv"
        assert run_cli("flow", "--gen", "dw:0.5", "--q", ".6,.25,.15",
                       "--target", ".2,.3,.5", flag, value, "--out", str(out)) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["geodesic", "--gen", "dw:0.5", "--q", ".6,.25,.15", "--r", ".2,.3,.5", "--steps", "0",
          "--out", "OUT"], "--steps"),
        (["geodesic", "--gen", "dw:0.5", "--q", ".6,.25,.15", "--r", ".2,.3,.5", "--steps", "-3",
          "--out", "OUT"], "--steps"),
        (["interpolate", "--gen", "dw:0.5", "--theta", "1.0,-0.5", "--steps", "0",
          "--out", "OUT"], "--steps"),
        (["regularity", "--gen", "dw:0.5", "--n", "1"], "--n"),
        (["regularity", "--gen", "dw:0.5", "--points", "0"], "--points"),
        (["transport-check", "--a", "0", "--b", "0", "--sigma", "1", "--lam", "0.5",
          "--samples", "0", "--out", "OUT"], "--samples"),
        (["transport-check", "--a", "0", "--b", "0", "--sigma", "1", "--lam", "0.5",
          "--samples", "1", "--out", "OUT"], "--samples"),
    ])
    def test_usage_error_count_below_its_minimum(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "x.csv"
        assert run_cli(*[str(out) if a == "OUT" else a for a in argv]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    # --seed only on the two subcommands that draw random numbers, and no
    # generator flags on transport-check, which builds its own generator
    @pytest.mark.parametrize("argv, flag", [
        (["divergence", "--gen", "eq3", "--p", ".5,.25,.25", "--q", ".2,.3,.5", "--seed", "3"],
         "--seed"),
        (["geodesic", "--gen", "dw:0.5", "--q", ".6,.25,.15", "--r", ".2,.3,.5", "--seed", "3",
          "--out", "OUT"], "--seed"),
        (["flow", "--gen", "dw:0.5", "--q", ".6,.25,.15", "--target", ".2,.3,.5", "--seed", "3",
          "--out", "OUT"], "--seed"),
        (["pyth", "--gen", "dw:0.5", "--p", ".3,.3,.4", "--q", ".2,.5,.3", "--r", ".5,.2,.3",
          "--seed", "3"], "--seed"),
        (["region", "--gen", "dw:0.5", "--p", ".3,.3,.4", "--r", ".5,.2,.3", "--seed", "3",
          "--out", "OUT"], "--seed"),
        (["backtest", "--gen", "eq3", "--data", "market.csv", "--seed", "3", "--out", "OUT"],
         "--seed"),
        (["compare", "--gen", "eq3", "--data", "market.csv", "--schedule-a", "0,1",
          "--schedule-b", "0", "--seed", "3"], "--seed"),
        (["interpolate", "--gen", "dw:0.5", "--theta", "1.0,-0.5", "--seed", "3", "--out", "OUT"],
         "--seed"),
        (["transport-check", "--gen", "dw:0.5", "--a", "0", "--b", "0", "--sigma", "1",
          "--lam", "0.5", "--out", "OUT"], "--gen"),
        (["transport-check", "--config", "gen.json", "--a", "0", "--b", "0", "--sigma", "1",
          "--lam", "0.5", "--out", "OUT"], "--config"),
    ])
    def test_usage_error_flag_the_subcommand_does_not_read(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "x.csv"
        assert run_cli(*[str(out) if a == "OUT" else a for a in argv]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_seed_of_the_randomized_subcommands(self, capsys):
        assert run_cli("regularity", "--gen", "dw:0.5", "--points", "5", "--seed", "7") == 0
        assert "all regular" in capsys.readouterr().out
        assert run_cli("transport-check", "--a", "0", "--b", "0", "--sigma", "1", "--lam", "0.5",
                       "--samples", "20000", "--seed", "7") == 0
        assert "transport check passed" in capsys.readouterr().out

    def test_numerical_error_points_of_different_dimension(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run_cli("geodesic", "--gen", "dw:0.5", "--q", "0.2,0.3,0.5", "--r", "0.5,0.5",
                       "--out", str(out)) == 2
        assert "dimension mismatch" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["cw:0.5,0.5", "gdw:0.5:1,2"])
    @pytest.mark.parametrize("argv", [["divergence", "--p=0.2,0.3,0.5"],
                                      ["geodesic", "--r=0.2,0.3,0.5", "--out"]])
    def test_numerical_error_generator_of_another_dimension(self, tmp_path, capsys, spec, argv):
        out = tmp_path / "g.csv"
        argv = argv + [str(out)] if argv[-1] == "--out" else argv
        assert run_cli(*argv, "--gen", spec, "--q=0.5,0.25,0.25") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dimension mismatch: generator ")
        assert "of dimension 2, points of dimension 3" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["cw:0.5,0.5", "gdw:0.5:1,2"])
    @pytest.mark.parametrize("kind", ["displacement", "market"])
    def test_numerical_error_coordinate_of_another_dimension(self, capsys, spec, kind):
        # a 2-entry theta is a point of the 3-simplex; it used to fail with
        # numpy's broadcast message
        assert run_cli("interpolate", "--gen", spec, "--theta", "1.0,-0.5", "--kind", kind) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dimension mismatch: generator ")
        assert "of dimension 2, points of dimension 3" in err and "broadcast" not in err

    @pytest.mark.parametrize("a, b, sigma, message", [
        ("0.3,-0.2", "0.1,0.4", "0.8,1.2,1.0",
         "dimension mismatch: a, b and sigma of sizes [2, 2, 3]"),
        ("0.3,-0.2", "0.1,0.4", "0.8,inf", "sigma must have finite entries"),
        ("nan,-0.2", "0.1,0.4", "0.8,1.2", "a must have finite entries"),
    ], ids=["sigma-length", "sigma-inf", "a-nan"])
    def test_numerical_error_transport_check_names_the_bad_argument(self, capsys, a, b, sigma,
                                                                    message):
        assert run_cli("transport-check", f"--a={a}", f"--b={b}", f"--sigma={sigma}",
                       "--lam", "0.5", "--samples", "100") == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_usage_error_mix_of_parts_of_different_dimensions(self, capsys):
        assert run_cli("divergence", "--gen", "mix:0.5*eq2+0.5*eq3", "--p=0.2,0.3,0.5",
                       "--q=0.5,0.25,0.25") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad generator spec") and "different dimensions [2, 3]" in err

    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0

    def test_console_entry_point(self):
        r = subprocess.run([sys.executable, "-m", "lgeo", "--version"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert r.stdout.startswith("lgeo ")


class TestParserReuse:
    FLOW = ("flow", "--gen", "dw:0.5", "--q", ".6,.25,.15", "--target", ".2,.3,.5",
            "--horizon", "2", "--steps", "8")

    def test_two_calls_build_one_parser(self, capsys):
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert run_cli("divergence", "--gen", "eq2", "--p", ".5,.5", "--q", ".75,.25") == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_command_rebound_after_a_call_is_dispatched(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "f.csv")
        assert run_cli(*self.FLOW, "--out", out) == 0
        seen = []
        monkeypatch.setattr(cli, "_cmd_flow", lambda args: seen.append(args.out) or 7)
        assert run_cli(*self.FLOW, "--out", out + ".2") == 7
        assert seen == [out + ".2"]

    def test_exit_codes_after_a_call(self, capsys):
        assert run_cli("divergence", "--gen", "eq2", "--p", ".5,.5", "--q", ".75,.25") == 0
        assert run_cli("--version") == 0
        assert capsys.readouterr().out.endswith(f"lgeo {cli.__version__}\n")
        assert run_cli("divergence", "--gen", "eq2", "--p", ".5,.5", "--q", ".75,.25",
                       "--bogus", "1") == 1
        assert "--bogus" in capsys.readouterr().err
        assert run_cli("divergence", "--gen", "eq2", "--p", ".5,.5", "--q", ".75,.25") == 0


# Runs in a fresh interpreter: imports lgeo and its CLI, runs both geodesics
# and both flows of a closed-form and a mixed generator through lgeo.cli.main,
# then calls the four functions that import scipy on first use.  Prints the
# scipy modules loaded at each stage and those functions' results as JSON.
COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]
lazy_modules = lambda: sorted(m for m in sys.modules
                              if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
import lgeo, lgeo.cli
loaded = {"import": lazy_modules()}
for gen in ("dw:0.5", "mix:0.4*cw:0.2,0.3,0.5+0.6*dw:0.5"):
    for kind in ("primal", "dual"):
        assert lgeo.cli.main(["geodesic", "--gen", gen, "--q", ".6,.25,.15", "--r", ".2,.3,.5",
                              "--kind", kind, "--out", out + "/geodesic.csv"]) == 0
        assert lgeo.cli.main(["flow", "--gen", gen, "--q", ".6,.25,.15", "--target", ".2,.3,.5",
                              "--kind", kind, "--out", out + "/flow.csv"]) == 0
loaded["cli"] = lazy_modules()
import numpy as np
from lgeo import transport
from lgeo.geodesics import geodesic_residual
gen = lgeo.DiversityWeighted(0.5)
curve = lgeo.primal_geodesic(gen, [.6, .25, .15], [.2, .3, .5])
mid = (curve.times[1:] + curve.times[:-1]) / 2
rng = np.random.default_rng(3)
P, Q = rng.normal(size=(2, 6, 2))
assignment, cost = lgeo.optimal_assignment(P, Q)
print(json.dumps({
    "loaded": loaded,
    "spline": curve.spline()(mid).tolist(),
    "residual": geodesic_residual(gen, curve, trim=3),
    "action": transport.action(transport.minimizing_curve([.8, -.4], [-.2, .5], grid=65)).value,
    "assignment": assignment.tolist(),
    "cost": cost,
    "after": lazy_modules(),
}))
"""
LAZY_SCIPY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate")


class TestColdStart:
    def test_curves_import_no_scipy_and_lazy_imports_work(self, tmp_path):
        import lgeo
        from lgeo import geodesics as gd
        from lgeo import transport as T
        from lgeo.divergence import optimal_assignment
        from lgeo.simplex import psi, psi_many

        src = str(Path(lgeo.__file__).resolve().parent.parent)
        r = subprocess.run([sys.executable, "-c", COLD_START, src, str(tmp_path)],
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        got = json.loads(r.stdout.splitlines()[-1])
        # neither the import nor the curves load the lazy scipy subpackages or
        # numpy.polynomial, whose import costs about 4 ms of a cold start
        assert got["loaded"]["import"] == []
        lazy = LAZY_SCIPY + ("numpy.polynomial",)
        assert not [m for m in got["loaded"]["cli"] if m.startswith(lazy)]
        assert all(m in got["after"] for m in LAZY_SCIPY)
        # each function returns what it returns in this process, where scipy
        # was loaded long before, and what it is meant to return
        gen = G.DiversityWeighted(0.5)
        curve = gd.primal_geodesic(gen, [.6, .25, .15], [.2, .3, .5])
        mid = (curve.times[1:] + curve.times[:-1]) / 2
        assert np.array_equal(got["spline"], curve.spline()(mid))
        assert got["residual"] == gd.geodesic_residual(gen, curve, trim=3) < 1e-5
        th, ph = np.array([.8, -.4]), np.array([-.2, .5])
        action = T.action(T.minimizing_curve(th, ph, grid=65)).value
        assert got["action"] == action == pytest.approx(psi(th - ph), abs=1e-6)
        P, Q = np.random.default_rng(3).normal(size=(2, 6, 2))
        assignment, cost = optimal_assignment(P, Q)
        assert got["assignment"] == assignment.tolist() and got["cost"] == cost
        assert sorted(assignment) == list(range(6)) and cost <= psi_many(P - Q).sum()
