"""lgeo benchmark: one workload, one seed, closed loop, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curves-closed --seed 1 --seconds 20 --trace 0

Workloads: curves-closed, curves-newton, batch, pointwise (see
``workloads.WHY``).  The process is single-threaded: each operation starts
after the previous one and its output check have finished.  A run repeats
the workload's fixed operation list (a *pass*) while the time budget lasts
and always completes at least one pass.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
first runs one untraced pass, then wraps lgeo's layer boundaries (see
``spans.py``) and runs traced passes; it reports the per-layer metrics of
``layer_map.json`` and the tracing overhead.  Every operation's output is
checked against an independent invariant (``checks.py``); a failed check
counts in ``failed``.  The full result, with the environment stamp, per
operation medians and every failing operation, is written to
``.perfbench/results/``; the last line of standard output is the summary
JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Set-up runs next to a fresh interpreter that imports only lgeo's
# dependencies, and is scaled by BASELINE_REFERENCE_S / that baseline's time:
# import speed drifts with the host's disk and CPU load.
BASELINE_REFERENCE_S = 0.75
TAIL_PERCENTILES = (90, 95, 99, 99.9)
# CPU seconds after which an operation is stopped and counts as failed: the
# longest one takes about 4 s on a quiet host, and lgeo's flows can stall in
# ever smaller steps once the divergence to the target is rounding noise.
OP_LIMIT_S = 20.0

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

BASELINE_CODE = "import numpy, scipy.optimize, scipy.interpolate, scipy.integrate"
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import lgeo, lgeo.cli
gens = [lgeo.cli.parse_generator_spec(spec) for spec in sys.argv[2:]]
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


class OpTimeLimit(BaseException):
    """Raised into an operation that ran past ``OP_LIMIT_S``; a BaseException,
    so that lgeo's own ``except Exception`` handlers let it through."""


def _time_limit(*_signal):
    raise OpTimeLimit(f"still running after {OP_LIMIT_S:g} s of CPU time")


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """OpenBLAS thread count of this process, or None if it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            f = getattr(handle, sym, None)
            if f is not None:
                f.restype = ctypes.c_int
                return int(f())
    return None


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lgeo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# statistics


def summarize(samples) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples above it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail_pct": None, "tail": None}
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            out["tail_pct"] = pct
            out["tail"] = xs[min(n - 1, math.ceil(pct / 100 * n) - 1)]
    return out


# ---------------------------------------------------------------------------
# running


def _child(code: str, *args) -> float:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    return elapsed


def time_setup(workload: str) -> tuple:
    """Fresh interpreters: (import of lgeo's dependencies alone, import of lgeo
    plus construction of the workload's generators)."""
    specs = [fam.spec() for fam in workloads.families(workload)]
    return _child(BASELINE_CODE), _child(SETUP_CODE, str(SRC), *specs)


def run_pass(wl, tracer, cal, accuracy, failures, pass_index) -> dict:
    """One pass over the operation list: (kind, start, end) per op, accuracy."""
    times, acc = [], {}
    signal.signal(signal.SIGPROF, _time_limit)
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        cal.due()
        error, result = None, None
        if tracer is not None:
            tracer.on = True
        try:
            signal.setitimer(signal.ITIMER_PROF, OP_LIMIT_S)
            t0 = time.perf_counter()
            result = tracer.run_op(i, op.kind, op.run) if tracer is not None else op.run()
        except (Exception, OpTimeLimit) as exc:  # an operation that raises counts as failed
            error = exc
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_PROF, 0.0)
        if tracer is not None:
            tracer.on = False
            if isinstance(error, OpTimeLimit):  # it may have cut a span's bookkeeping
                tracer.stack[:], tracer.parents[:] = [0], [-1]
            tracer.count("cli.bytes_written",
                         sum(os.path.getsize(p) for p in op.outputs if os.path.exists(p)))
        times.append((op.kind, t0, t1))
        try:
            if error is not None:
                raise CheckFailed("time_limit" if isinstance(error, OpTimeLimit) else "raised",
                                  f"{type(error).__name__}: {error}")
            for key, value in op.check(result, accuracy).items():
                acc[key] = max(acc.get(key, value), value)
        except CheckFailed as exc:
            failures.append({"pass": pass_index, "op": i, "kind": op.kind, "label": op.label,
                             "check": exc.check, "detail": str(exc)[:300]})
        cal.due()
    cal.burst()
    rec = {"traced": tracer is not None, "times": times, "start": start,
           "end": time.perf_counter(), "accuracy": acc}
    if tracer is not None:
        rec["trace"] = tracer.snapshot()
    return rec


def run_loop(wl, seconds, trace: bool, cal):
    """Passes until the next one would overrun ``seconds`` (at least one).

    A traced run first makes one untraced pass, then installs the wrappers
    and makes at least two traced passes, so that their counts can be compared."""
    passes, failures = [], []
    tracer = None
    start = time.perf_counter()
    if trace:
        cal.sampling(True)
        try:
            passes.append(run_pass(wl, None, cal, False, failures, 0))
        finally:
            cal.sampling(False)
        tracer = spans.install()
    while True:
        if tracer is not None:
            tracer.reset()
        first_traced = trace and len(passes) == 1
        cal.sampling(tracer is None)
        try:
            rec = run_pass(wl, tracer, cal, first_traced, failures, len(passes))
        finally:
            cal.sampling(False)
        passes.append(rec)
        enough = len(passes) >= (3 if trace else 1)
        if enough and rec["end"] - start + (rec["end"] - rec["start"]) > seconds:
            break
    return passes, failures, tracer


# ---------------------------------------------------------------------------
# metrics


def pass_wall(rec, cal) -> float:
    """Scaled time of a pass's operations (checks excluded)."""
    return sum(cal.scale(t0, t1) for _, t0, t1 in rec["times"])


def end_to_end(workload, passes, setup, cal) -> dict:
    by_kind, raw = {}, {}
    for rec in passes:
        for kind, t0, t1 in rec["times"]:
            by_kind.setdefault(kind, []).append(cal.scale(t0, t1))
            raw.setdefault(kind, []).append(cal.raw(t0, t1))
    ops = {}
    for kind, samples in by_kind.items():
        name, unit = workloads.KIND_METRIC[kind]
        factor = 1e3 if unit == "ms" else 1e6
        ops[name] = dict(summarize([s * factor for s in samples]), unit=unit,
                         raw_median=statistics.median(raw[kind]) * factor)
    walls = [pass_wall(rec, cal) for rec in passes]
    medians_ms = [statistics.median(by_kind[k]) * 1e3 for k in workloads.MEASURED_KINDS[workload]]
    geomean = math.exp(sum(math.log(m) for m in medians_ms) / len(medians_ms))
    setup_s = [full * BASELINE_REFERENCE_S / base for base, full in setup]
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s", "samples": setup_s,
                    "raw": [full for _, full in setup], "baseline": [base for base, _ in setup]},
        "wall_s": {"value": statistics.median(walls), "unit": "s", "samples": walls,
                   "raw": [sum(cal.raw(t0, t1) for _, t0, t1 in rec["times"]) for rec in passes]},
        "op_ms_geomean": {"value": geomean, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "ops": ops,
    }


def per_layer(layer_map, passes, cal) -> tuple[dict, bool]:
    """Per-layer metrics: counts from the first traced pass, and whether they
    repeat in every other traced pass; scaled self times as the median over
    traced passes."""
    traced = [rec for rec in passes if rec["traced"]]
    snaps = [rec["trace"] for rec in traced]
    factors = [speed.REFERENCE_S / cal.kernel_time(rec["start"], rec["end"]) for rec in traced]
    untraced_wall = statistics.median(pass_wall(r, cal) for r in passes if not r["traced"])
    accuracy = {}
    for rec in passes:
        for key, value in rec["accuracy"].items():
            accuracy[key] = max(accuracy.get(key, value), value)

    def counts(snap):
        return (snap["calls"], snap["counters"])

    repeat = all(counts(s) == counts(snaps[0]) for s in snaps[1:])
    first = snaps[0]
    out = {}
    for entry in layer_map["metrics"]:
        src = entry["source"]
        if "calls" in src:
            value = sum(first["calls"].get(g, 0) for g in src["calls"])
        elif "counter" in src:
            value = first["counters"].get(src["counter"], 0)
        elif "self_s" in src:
            value = statistics.median(f * sum(s["self_s"].get(g, 0.0) for g in src["self_s"])
                                      for f, s in zip(factors, snaps))
        elif "ratio" in src:
            num, den = (out[m]["value"] for m in src["ratio"])
            value = num / den if den else 0.0
        elif "accuracy" in src:
            value = accuracy.get(src["accuracy"], 0.0)
        elif "overhead" in src:
            value = statistics.median(pass_wall(r, cal) for r in traced) - untraced_wall
        else:
            raise BenchError(f"layer map: no source for {entry['name']}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out, repeat


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", help="full result file (default under .perfbench/results)")
    return ap.parse_args(argv)


def prepare():
    """Refuse to run where the measurement would be wrong or impossible."""
    if os.environ.get("LGEO_THREADS"):
        raise BenchError("LGEO_THREADS is set; the benchmark measures the default, unset")
    if not (SRC / "lgeo" / "__init__.py").is_file():
        raise BenchError(f"no lgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lgeo
    import lgeo.cli  # noqa: F401  (the command-line path the curve and batch ops run)

    if Path(lgeo.__file__).resolve().parent != (SRC / "lgeo").resolve():
        raise BenchError(f"imported lgeo from {lgeo.__file__}, not from {SRC}")
    return lgeo


def main(argv=None) -> int:
    args = parse_args(argv)
    cal = speed.Calibrator()
    try:
        lgeo = prepare()
        setup = [time_setup(args.workload) for _ in range(SETUP_REPEATS)]
        work = OUT / "work" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            wl = workloads.build(args.workload, lgeo, args.seed, work)
            passes, failures, tracer = run_loop(wl, args.seconds, bool(args.trace), cal)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(HERE / "layer_map.json") as fh:
            layer_map = json.load(fh)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(rec["times"]) for rec in passes)
    e2e = end_to_end(args.workload, [r for r in passes if not r["traced"]], setup, cal)
    result = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "speed": {"reference_s": speed.REFERENCE_S, "bursts": len(cal.dur),
                  "kernel_median_s": statistics.median(cal.dur)},
        "attempted": attempted,
        "failed": len(failures),
        "fail_rate": len(failures) / attempted,
        "failures": failures,
        "passes": len(passes),
        "end_to_end": e2e,
    }
    if args.trace:
        layers, repeat = per_layer(layer_map, passes, cal)
        span_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.npz"
        tracer.write(span_file)
        tracer.uninstall()
        result.update(per_layer=layers, counts_repeat=repeat,
                      traced_wall_s=[pass_wall(r, cal) for r in passes if r["traced"]],
                      spans={"file": str(span_file.relative_to(ROOT)),
                             "recorded": len(tracer.spans) // 6, "total": tracer.n_spans})
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in e2e.items() if k != "ops"}
    path = Path(args.result) if args.result else (
        OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    for f in failures[:20]:
        print(f"FAILED {f['kind']} [{f['label']}] op {f['op']} pass {f['pass']}: {f['detail']}",
              file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
