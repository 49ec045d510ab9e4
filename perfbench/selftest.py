"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Every output check accepts a real lgeo output and rejects a corrupted copy
   (one perturbed row, a shifted column, a flipped flag, a nudged value).
2. Tracing leaves outputs unchanged: the same operations write identical
   bytes with and without the span wrappers.
3. Counts repeat exactly across two traced passes of curve operations and
   across two traced runs of ``run.py``.
4. An operation past the CPU time limit is stopped and counts as failed.
5. Result files carry every metric BENCHMARK.json and the layer map name.

Exits with status 1 on the first failure.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import lgeo  # noqa: E402
import lgeo.cli  # noqa: E402
import workloads as W  # noqa: E402
from checks import CheckFailed  # noqa: E402
from oracle import primal  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def rejects(fn, what: str) -> None:
    try:
        fn()
    except CheckFailed as exc:
        print(f"ok: rejects {what} ({exc.check})")
        return
    print(f"FAIL: accepted {what}")
    sys.exit(1)


def rewrite_csv(src: Path, dst: Path, edit) -> None:
    """Copy a CSV with header, applying ``edit`` to its data array."""
    header, data = checks.read_csv(src)
    data = edit(data.copy())
    np.savetxt(dst, data, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


def cli(argv) -> int:
    rc, _ = W.cli_call(lgeo, argv)
    return rc


def test_curve_checks(tmp: Path) -> None:
    rng = np.random.default_rng(7)
    fam = W.mix(3)
    q, r = W.distinct_pair(rng, 3)
    qn, rn = W.as_point(q), W.as_point(r)
    for shape in ("primal", "dual"):
        good, bad = tmp / f"{shape}-geo.csv", tmp / f"{shape}-geo-bad.csv"
        rc = cli(["geodesic", "--gen", fam.spec(), f"--q={W.text(q)}", f"--r={W.text(r)}",
                  "--kind", shape, "--out", str(good)])
        checks.geodesic(fam, qn, rn, 129, shape, rc, good)
        expect(True, f"{shape} geodesic check accepts lgeo's output")

        def perturb(d):
            d[40, 1] += 1e-7
            return d

        rewrite_csv(good, bad, perturb)
        rejects(lambda: checks.geodesic(fam, qn, rn, 129, shape, 0, bad),
                f"{shape} geodesic with one perturbed row")
        rejects(lambda: checks.geodesic(fam, qn, rn, 129, shape, 2, good),
                f"{shape} geodesic with a nonzero exit status")
        line = checks.Line(fam, qn, rn, shape)

        def uniform(d):
            # the right segment, traversed at h = t instead of the affine time
            X = (1.0 - d[:, :1]) * line.a + d[:, :1] * line.b
            d[:, 1:] = np.log(X) if shape == "primal" else -np.log(X)
            return d

        rewrite_csv(good, bad, uniform)
        rejects(lambda: checks.geodesic(fam, qn, rn, 129, shape, 0, bad),
                f"{shape} geodesic on its segment with time h = t")

        def flow_cli(out, horizon=20.0, steps=100):
            return cli(["flow", "--gen", fam.spec(), f"--q={W.text(q)}",
                        f"--target={W.text(r)}", "--kind", shape, "--horizon", repr(horizon),
                        "--steps", str(steps), "--out", str(out)])

        good, bad = tmp / f"{shape}-flow.csv", tmp / f"{shape}-flow-bad.csv"
        rc = flow_cli(good)
        checks.flow(fam, qn, rn, 20.0, 100, shape, rc, good)
        expect(True, f"{shape} flow check accepts lgeo's output")

        def step_back(d):
            d[60, 1:] = d[50, 1:]
            return d

        rewrite_csv(good, bad, step_back)
        rejects(lambda: checks.flow(fam, qn, rn, 20.0, 100, shape, 0, bad),
                f"{shape} flow whose divergence rises at one row")

        def two_rows(d):
            d = d[[0, -1]]
            d[1, 1:] = line.ends[1]
            return d

        rewrite_csv(good, bad, two_rows)
        rejects(lambda: checks.flow(fam, qn, rn, 20.0, 100, shape, 0, bad),
                f"{shape} flow of two rows, start and target")
        flow_cli(bad, steps=50)
        rejects(lambda: checks.flow(fam, qn, rn, 20.0, 100, shape, 0, bad),
                f"{shape} flow with half the steps")
        flow_cli(bad, horizon=19.0)

        def stretch(d):
            # the right trace at the wrong speed
            d[:, 0] *= 20.0 / 19.0
            return d

        rewrite_csv(bad, bad, stretch)
        rejects(lambda: checks.flow(fam, qn, rn, 20.0, 100, shape, 0, bad),
                f"{shape} flow on its segment at the wrong speed")


def test_batch_checks(tmp: Path) -> None:
    rng = np.random.default_rng(8)
    fam = W.dw(3)
    gen = fam.build(lgeo)
    p, r = W.distinct_pair(rng, 3)
    pn, rn = W.as_point(p), W.as_point(r)
    res = 40
    good, bad = tmp / "region.csv", tmp / "region-bad.csv"
    rc = cli(["region", "--gen", fam.spec(), f"--p={W.text(p)}", f"--r={W.text(r)}",
              "--resolution", str(res), "--out", str(good)])
    sub = list(range(0, 700, 37))
    checks.region(fam, pn, rn, res, rc, good, lgeo, gen, sub)
    expect(True, "region check accepts lgeo's output")
    _, data = checks.read_csv(good)
    k = int(np.argmax(np.abs(data[:-2, 3]) > 1e-6))

    def flip(d):
        d[k, 4] = 1.0 - d[k, 4]
        return d

    def nudge(d):
        d[k, 3] += 1e-9
        return d

    for edit, what in ((flip, "a flipped region flag"), (nudge, "a nudged gap")):
        rewrite_csv(good, bad, edit)
        rejects(lambda: checks.region(fam, pn, rn, res, 0, bad, lgeo, gen, sub), what)

    fam50 = W.dw(6)
    data_csv, good, bad = tmp / "market.csv", tmp / "backtest.csv", tmp / "backtest-bad.csv"
    T, n = 300, 6
    X = np.exp(rng.normal(0, 0.5, n) + np.cumsum(rng.normal(0, 1e-2, (T, n)), axis=0))
    with open(data_csv, "w") as fh:
        fh.write("t," + ",".join(f"x_{i + 1}" for i in range(n)) + "\n")
        for t, row in enumerate(X):
            fh.write(f"{t}," + W.text(row) + "\n")
    mu = X / X.sum(axis=1, keepdims=True)
    rc = cli(["backtest", "--gen", fam50.spec(), "--data", str(data_csv), "--out", str(good)])
    checks.backtest(fam50, mu, rc, good)
    expect(True, "backtest check accepts lgeo's output")

    def shift(d):
        d[150:, 1] += 1e-6
        return d

    rewrite_csv(good, bad, shift)
    rejects(lambda: checks.backtest(fam50, mu, 0, bad), "a shifted log_v")

    a, b, sigma, lam = np.array([0.2, -0.1]), np.array([0.1, 0.3]), np.array([1.0, 0.7]), 0.4
    out = tmp / "transport.csv"
    rc, text = W.cli_call(lgeo, ["transport-check", f"--a={W.text(a)}", f"--b={W.text(b)}",
                                 f"--sigma={W.text(sigma)}", "--lam", repr(lam),
                                 "--samples", "20000", "--out", str(out)])
    checks.transport(a, b, sigma, lam, 20000, rc, text, out)
    expect(True, "transport check accepts lgeo's output")
    lines = out.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    bad = tmp / "transport-bad.csv"
    bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    rejects(lambda: checks.transport(a, b, sigma, lam, 20000, rc, text, bad), "a shifted map")


def test_pointwise_checks() -> None:
    rng = np.random.default_rng(9)
    for fam in (W.dw(10), W.mix(10)):
        gen = fam.build(lgeo)
        p, q, r = (W.interior_point(rng, 10) for _ in range(3))
        qn, pn = W.as_point(q), W.as_point(p)
        v = lgeo.l_divergence(gen, q, p).value
        checks.divergence(fam, qn, pn, v, lgeo, gen, 0.1)
        rejects(lambda: checks.divergence(fam, qn, pn, v + 1e-9, lgeo, gen, 0.1),
                f"a nudged divergence ({fam.label})")
        res = lgeo.pythagorean_sign(gen, p, q, r)
        checks.pyth(fam, p, q, r, res)
        rejects(lambda: checks.pyth(fam, p, q, r, dataclasses.replace(res, gap=res.gap + 1e-9)),
                "a nudged Pythagorean gap")
        th = primal(p)
        m = lgeo.metric_primal(gen, th)
        checks.metric(fam, th, m)
        entries = m.entries.copy()
        entries[0, 0] += 1e-9
        rejects(lambda: checks.metric(fam, th, dataclasses.replace(m, entries=entries)),
                "a nudged metric entry")
        c = lgeo.christoffel_primal(gen, th)
        checks.christoffel(fam, th, c)
        gamma = c.gamma.copy()
        gamma[0, 1, 2] += 1e-9
        rejects(lambda: checks.christoffel(fam, th, dataclasses.replace(c, gamma=gamma)),
                "a nudged Christoffel symbol")
        g = lgeo.riem_gradient_dual(gen, p, q)
        checks.riem_gradient(fam, p, q, g)
        rejects(lambda: checks.riem_gradient(fam, p, q, g + 1e-9), "a nudged gradient")
        ph = fam.dual(th)
        val = lgeo.c_transform(gen, ph, x0=th + 1e-3)
        checks.c_transform(fam, th, ph, val)
        rejects(lambda: checks.c_transform(fam, th, ph, val + 1e-9), "a nudged c-transform")
        curve = lgeo.displacement_family(gen).trajectory(th, grid=33)
        checks.trajectory(fam, th, 33, curve)
        bent = copy.deepcopy(curve)
        bent.points[10, 0] += 1e-9
        rejects(lambda: checks.trajectory(fam, th, 33, bent), "a perturbed trajectory row")
        path = lgeo.MarketPath(times=[0, 1, 2], weights=np.vstack([p, q, r]))
        rep = lgeo.rebalance_compare(gen, path, [0, 1], [0])
        checks.compare(fam, path.weights, rep)
        rejects(lambda: checks.compare(fam, path.weights, dataclasses.replace(
            rep, difference=rep.difference + 1e-9)), "a nudged schedule difference")
        pts = np.vstack([p, q, r])
        reg = lgeo.check_regularity(gen, pts)
        checks.regularity(pts, reg)
        rejects(lambda: checks.regularity(pts, dataclasses.replace(
            reg, failures=[(0, "forced")])), "a regularity report with a failure")


def test_trace_keeps_outputs(tmp: Path) -> None:
    """The same operations write identical bytes traced and untraced."""
    import spans

    wl = W.build("batch", lgeo, 3, tmp)
    rng = np.random.default_rng(3)
    wl.ops += W._curve_ops(lgeo, tmp, W.dw(3), *W.distinct_pair(rng, 3),
                           ("primal_geodesic", "dual_flow"), len(wl.ops))
    for op in wl.ops:
        op.run()
    before = {p: Path(p).read_bytes() for op in wl.ops for p in op.outputs}
    tracer = spans.install()
    try:
        tracer.on = True
        for i, op in enumerate(wl.ops):
            tracer.run_op(i, op.kind, op.run)
        tracer.on = False
    finally:
        tracer.uninstall()
    after = {p: Path(p).read_bytes() for p in before}
    expect(before == after, f"traced outputs equal untraced outputs ({len(before)} files)")
    expect(tracer.n_spans > 0, f"the traced pass recorded spans ({tracer.n_spans})")


def test_curve_counts_repeat(tmp: Path) -> None:
    """Counts repeat exactly across two traced passes of curve operations,
    among them the quadrature and Newton counters."""
    import run
    import spans
    import speed

    rng = np.random.default_rng(4)
    ops = []
    for fam in (W.dw(3), W.mix(3)):
        ops += W._curve_ops(lgeo, tmp, fam, *W.distinct_pair(rng, 3), ("dual_geodesic",),
                            len(ops))
    wl = W.Workload("curves", ops)
    cal, failures, snaps = speed.Calibrator(), [], []
    tracer = spans.install()
    try:
        for k in range(2):
            tracer.reset()
            snaps.append(run.run_pass(wl, tracer, cal, False, failures, k)["trace"])
    finally:
        tracer.uninstall()
    expect(not failures, f"traced dw and mix dual geodesics pass their checks {failures}")
    expect(snaps[0]["calls"].get("divergence.newton", 0) > 0
           and snaps[0]["calls"].get("geodesics.gauss", 0) > 0,
           "the traced passes count Newton solves and Gauss segments")
    expect((snaps[0]["calls"], snaps[0]["counters"]) == (snaps[1]["calls"], snaps[1]["counters"]),
           "curve counts repeat exactly across two traced passes")


def test_time_limit() -> None:
    """An operation that never finishes is stopped and counts as failed."""
    import run
    import speed

    def spin():
        while True:
            pass

    wl = W.Workload("stall", [W.Op("flow", "spin", spin, lambda res, acc: {})])
    failures = []
    limit, run.OP_LIMIT_S = run.OP_LIMIT_S, 0.5
    try:
        run.run_pass(wl, None, speed.Calibrator(), False, failures, 0)
    finally:
        run.OP_LIMIT_S = limit
    expect([f["check"] for f in failures] == ["time_limit"],
           "an operation past the CPU time limit is stopped and fails")


def traced_run(workload: str, seed: int, tmp: Path, trace: int) -> dict:
    path = tmp / f"{workload}-{seed}-{trace}-{len(list(tmp.iterdir()))}.json"
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--result", str(path)], capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        print(done.stderr[-2000:])
    expect(done.returncode == 0, f"run.py {workload} --trace {trace} exits 0")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(summary) == {"correct", "attempted", "failed", "metrics"},
           "summary line has exactly correct, attempted, failed, metrics")
    result = json.loads(path.read_text())
    result["summary"] = summary
    return result


def test_runs(tmp: Path) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    per_layer = [m["name"] for m in bench["per_layer"]]
    expect(per_layer == [m["name"] for m in layer_map["metrics"]],
           "BENCHMARK.json per_layer lists the layer map's metrics in order")
    expect([w["name"] for w in bench["workloads"]] == list(W.BUILDERS),
           "BENCHMARK.json workloads are the benchmark's workloads")
    counted = [m["name"] for m in layer_map["metrics"]
               if "calls" in m["source"] or "counter" in m["source"]]
    for workload in ("pointwise", "batch"):
        untraced = traced_run(workload, 5, tmp, 0)
        e2e = {m["name"] for m in bench["end_to_end"]}
        expect(set(untraced["summary"]["metrics"]) == e2e,
               f"{workload}: untraced summary carries every end_to_end metric")
        kinds = {op.kind for op in W.build(workload, lgeo, 5, tmp).ops}
        expect(set(untraced["end_to_end"]["ops"])
               == {W.KIND_METRIC[k][0] for k in kinds},
               f"{workload}: result file carries every per-operation metric")
        first, second = traced_run(workload, 5, tmp, 1), traced_run(workload, 5, tmp, 1)
        expect(set(first["summary"]["metrics"]) == set(per_layer),
               f"{workload}: traced summary carries every per_layer metric")
        same = {k: (first["per_layer"][k]["value"], second["per_layer"][k]["value"])
                for k in counted}
        diff = {k: v for k, v in same.items() if v[0] != v[1]}
        expect(not diff, f"{workload}: counts repeat exactly across two traced runs {diff}")
        expect(first["counts_repeat"] and second["counts_repeat"],
               f"{workload}: counts repeat across the passes of one traced run")


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        test_curve_checks(tmp)
        test_batch_checks(tmp)
        test_pointwise_checks()
        test_trace_keeps_outputs(tmp)
        test_curve_counts_repeat(tmp)
        test_time_limit()
        test_runs(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
