import json
import subprocess
import sys
import time

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
        gen = G.diversity_weighted(0.5)
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

    def test_numerical_error_points_of_different_dimension(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run_cli("geodesic", "--gen", "dw:0.5", "--q", "0.2,0.3,0.5", "--r", "0.5,0.5",
                       "--out", str(out)) == 2
        assert "dimension mismatch" in capsys.readouterr().err
        assert not out.exists()

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
