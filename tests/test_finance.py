import numpy as np
import pytest

from lgeo import finance as F
from lgeo import generators as G
from lgeo.divergence import l_divergence
from lgeo.geodesics import pythagorean_sign, region_gap

from conftest import dirichlet_points


def write_market_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestIngest:
    def test_two_row_uniform(self, tmp_path):
        p = tmp_path / "m.csv"
        third = 1 / 3
        write_market_csv(p, "t,mu_1,mu_2,mu_3",
                         [[0, third, third, third], [1, third, third, third]])
        mp = F.ingest_csv(p)
        assert len(mp) == 2
        assert np.allclose(mp.weights, third, atol=1e-12)

    def test_capitalization_normalization(self, tmp_path):
        p = tmp_path / "caps.csv"
        write_market_csv(p, "t,x_1,x_2,x_3", [[0, 2, 1, 1], [1, 1, 1, 2]])
        mp = F.ingest_csv(p)
        assert np.allclose(mp.weights[0], [0.5, 0.25, 0.25], atol=1e-15)
        assert np.allclose(mp.weights[1], [0.25, 0.25, 0.5], atol=1e-15)

    def test_bad_row_sum_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_market_csv(p, "t,mu_1,mu_2", [[0, 0.5, 0.5], [1, 0.5, 0.499]])
        with pytest.raises(F.MarketDataError, match=":3"):
            F.ingest_csv(p)

    def test_nonpositive_weight_rejected(self, tmp_path):
        p = tmp_path / "neg.csv"
        write_market_csv(p, "t,mu_1,mu_2", [[0, 1.0, 0.0], [1, 0.5, 0.5]])
        with pytest.raises(F.MarketDataError, match="nonpositive"):
            F.ingest_csv(p)

    def test_non_monotone_times_rejected(self, tmp_path):
        p = tmp_path / "time.csv"
        write_market_csv(p, "t,mu_1,mu_2", [[1, 0.5, 0.5], [0, 0.5, 0.5]])
        with pytest.raises(F.MarketDataError, match="increasing"):
            F.ingest_csv(p)

    def test_iso_dates_accepted(self, tmp_path):
        p = tmp_path / "dates.csv"
        write_market_csv(p, "t,mu_1,mu_2",
                         [["2024-01-02", 0.5, 0.5], ["2024-01-09", 0.6, 0.4]])
        mp = F.ingest_csv(p)
        assert mp.times == ["2024-01-02", "2024-01-09"]

    def test_unknown_header_rejected(self, tmp_path):
        p = tmp_path / "h.csv"
        write_market_csv(p, "time,w1,w2", [[0, 0.5, 0.5]])
        with pytest.raises(F.MarketDataError):
            F.ingest_csv(p)

    def test_round_trip_bitwise(self, tmp_path, rng):
        W = dirichlet_points(rng, 4, 20)
        mp = F.MarketPath(times=list(range(20)), weights=W)
        out = tmp_path / "rt.csv"
        F.write_csv(out, mp)
        back = F.ingest_csv(out)
        assert back.weights.tobytes() == mp.weights.tobytes()
        assert [str(t) for t in back.times] == [str(t) for t in mp.times]


class TestFernholz:
    def test_constant_path_all_zero(self):
        gen = G.equal_weighted(3)
        W = np.tile([0.5, 0.3, 0.2], (6, 1))
        mp = F.MarketPath(times=list(range(6)), weights=W)
        rep = F.fernholz_decompose(gen, mp)
        assert np.allclose(rep.log_v, 0.0, atol=1e-15)
        assert np.allclose(rep.drift, 0.0, atol=1e-15)
        assert np.allclose(rep.step_divergence, 0.0, atol=1e-15)

    def test_two_asset_hand_example(self):
        gen = G.equal_weighted(2)
        mp = F.MarketPath(times=[0, 1], weights=np.array([[0.5, 0.5], [0.75, 0.25]]))
        rep = F.fernholz_decompose(gen, mp)
        assert rep.log_v[1] == pytest.approx(0.0, abs=1e-15)
        assert rep.drift[1] == pytest.approx(0.5 * np.log(0.75), rel=1e-12)
        assert rep.step_divergence[0] == pytest.approx(-0.5 * np.log(0.75), rel=1e-12)
        assert rep.step_divergence[0] == pytest.approx(0.143841, abs=5e-7)

    def test_identity_exact_on_random_path(self, rng):
        gen = G.diversity_weighted(0.5)
        W = dirichlet_points(rng, 4, 100)
        mp = F.MarketPath(times=list(range(100)), weights=W)
        rep = F.fernholz_decompose(gen, mp)
        assert np.max(np.abs(rep.identity_residual)) < 1e-12

    def test_identity_residual_sees_a_wrong_portfolio(self, rng):
        # the step divergences come from the gradient, so a portfolio that
        # departs from the generator's shows up in the residual
        class Skewed(G.DiversityWeighted):
            def portfolio(self, P):
                return super().portfolio(P ** 2)

        W = dirichlet_points(rng, 4, 100)
        rep = F.fernholz_decompose(Skewed(0.5), F.MarketPath(times=list(range(100)), weights=W))
        assert np.max(np.abs(rep.identity_residual)) > 1e-3

    def test_divergence_terms_match_library(self, rng):
        gen = G.diversity_weighted(0.5)
        W = dirichlet_points(rng, 3, 5)
        mp = F.MarketPath(times=list(range(5)), weights=W)
        rep = F.fernholz_decompose(gen, mp)
        for s in range(4):
            direct = l_divergence(gen, W[s + 1], W[s]).value
            assert rep.step_divergence[s] == pytest.approx(direct, abs=1e-13)

    def test_report_csv(self, tmp_path, rng):
        gen = G.equal_weighted(3)
        W = dirichlet_points(rng, 3, 4)
        mp = F.MarketPath(times=list(range(4)), weights=W)
        rep = F.fernholz_decompose(gen, mp)
        out = tmp_path / "report.csv"
        rep.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,log_v,drift,cum_divergence,identity_residual"
        assert len(lines) == 5


class TestRebalanceCompare:
    def test_identical_schedules(self, rng):
        gen = G.equal_weighted(3)
        W = dirichlet_points(rng, 3, 4)
        mp = F.MarketPath(times=list(range(4)), weights=W)
        rep = F.rebalance_compare(gen, mp, [0, 1, 2], [0, 1, 2])
        assert rep.difference == 0.0

    def test_three_point_equals_pythagorean_gap(self, rng):
        for _ in range(20):
            gen = G.diversity_weighted(0.5)
            W = dirichlet_points(rng, 3, 3)
            mp = F.MarketPath(times=[0, 1, 2], weights=W)
            rep = F.rebalance_compare(gen, mp, [0, 1], [0])
            gap = pythagorean_sign(gen, W[0], W[1], W[2]).gap
            assert rep.pythagorean_gap == pytest.approx(gap, abs=1e-15)
            assert rep.difference == pytest.approx(gap, abs=1e-12)

    def test_difference_sign_matches_angle(self, rng):
        gen = G.equal_weighted(3)
        for _ in range(30):
            W = dirichlet_points(rng, 3, 3)
            mp = F.MarketPath(times=[0, 1, 2], weights=W)
            rep = F.rebalance_compare(gen, mp, [0, 1], [0])
            if abs(rep.difference) > 1e-8:
                assert (rep.difference > 0) == (rep.angle_deg < 90.0)

    def test_boundary_triple_has_vanishing_difference(self, rng):
        # pick q on the region boundary by root finding along a chord
        from scipy.optimize import brentq

        gen = G.equal_weighted(3)
        p, r, a, b = dirichlet_points(rng, 3, 4)

        def gap_at(s):
            q = (1 - s) * a + s * b
            return float(region_gap(gen, p, r, q[None])[0])

        if gap_at(0.0) * gap_at(1.0) < 0:
            s_star = brentq(gap_at, 0.0, 1.0, xtol=1e-15)
            q = (1 - s_star) * a + s_star * b
            mp = F.MarketPath(times=[0, 1, 2], weights=np.vstack([p, q, r]))
            rep = F.rebalance_compare(gen, mp, [0, 1], [0])
            assert abs(rep.difference) < 1e-10

    def test_general_schedule_telescopes(self, rng):
        gen = G.diversity_weighted(0.5)
        W = dirichlet_points(rng, 3, 8)
        mp = F.MarketPath(times=list(range(8)), weights=W)
        rep = F.rebalance_compare(gen, mp, [0, 2, 5], [0, 4])
        # value difference equals the divergence-sum difference (drift cancels)
        assert rep.difference == pytest.approx(
            rep.divergence_sum_a - rep.divergence_sum_b, abs=1e-12
        )
        assert rep.pythagorean_gap is None

    def test_invalid_schedules_rejected(self, rng):
        gen = G.equal_weighted(3)
        W = dirichlet_points(rng, 3, 4)
        mp = F.MarketPath(times=list(range(4)), weights=W)
        with pytest.raises(ValueError):
            F.rebalance_compare(gen, mp, [1, 2], [0])
        with pytest.raises(ValueError):
            F.rebalance_compare(gen, mp, [0, 9], [0])
