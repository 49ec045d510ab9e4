#!/usr/bin/env python3
"""Audit the factorized-Gaussian transport example and write its report.

Source marginals N(a_i, sigma_i^2) are pushed through the dual map of the
weighted diversity generator; the map must be exactly affine with slope
1 - lambda, and the pushforward marginals must match the mapped normals.
Exits 1 when the audit fails.
"""

import argparse
import sys

import numpy as np

from lgeo.transport import gaussian_example_check


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", default="0.4,-0.2")
    ap.add_argument("--b", default="0.1,0.3")
    ap.add_argument("--sigma", default="1.0,1.5")
    ap.add_argument("--lam", type=float, default=0.4)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0x5EED)
    ap.add_argument("--out", default="gaussian_report.csv")
    args = ap.parse_args()

    parse = lambda s: np.array([float(v) for v in s.split(",")])
    rep = gaussian_example_check(parse(args.a), parse(args.b), parse(args.sigma),
                                 args.lam, sample_size=args.samples, seed=args.seed)
    print(f"map: phi = {rep.map_scale:g} * theta + {np.round(rep.map_shift, 6)}")
    print(f"affine error:    {rep.affine_error:.3g}")
    print(f"sample means:    {np.round(rep.sample_mean, 5)} (targets {rep.target_mean})")
    print(f"sample variances:{np.round(rep.sample_var, 5)} (targets {np.round(rep.target_var, 5)})")
    print(f"cyclically monotone sample graph: {rep.cyclical_monotone}")
    rep.to_csv(args.out)
    print(("PASS" if rep.passed else "FAIL") + f" -> report written to {args.out}")
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
