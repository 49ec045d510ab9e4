"""Run every workload untraced and traced, and print all metrics by name.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

For each workload it prints the environment stamp, every end-to-end metric
with its unit (per-operation medians with their sample count and tail
percentile), the fail rate with every failing operation and the check it
failed, then every per-layer metric of the traced run with the end-to-end
metrics it should move, and the tracing overhead.  The result files stay in
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload, seed, seconds, trace, out: Path) -> Path:
    path = out / f"{workload}-seed{seed}-trace{trace}.json"
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                           "--result", str(path)], capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{done.stderr[-2000:]}")
    return path


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def show(untraced: dict, traced: dict, layer_map: dict) -> None:
    print(f"== {untraced['workload']} (seed {untraced['seed']}, {untraced['seconds']} s)")
    print(f"   why: {untraced['why']}")
    env = untraced["environment"]
    print("   environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    e2e = untraced["end_to_end"]
    print(f"   end-to-end, untraced ({untraced['passes']} passes):")
    for name in ("setup_s", "wall_s", "op_ms_geomean", "peak_rss_mb"):
        m = e2e[name]
        extra = f"  (median of {len(m['samples'])})" if "samples" in m else ""
        if name == "op_ms_geomean":
            kinds = workloads.MEASURED_KINDS[untraced["workload"]]
            extra = "  (geometric mean of the " + ", ".join(
                workloads.KIND_METRIC[k][0] for k in kinds) + " medians)"
        print(f"     {name:<22} {fmt(m['value']):>12} {m['unit']}{extra}")
    rate = untraced["fail_rate"]
    print(f"     {'fail_rate':<22} {fmt(rate):>12} ratio  "
          f"({untraced['failed']} of {untraced['attempted']} ops)")
    for name, m in e2e["ops"].items():
        tail = (f"p{m['tail_pct']:g} {fmt(m['tail'])}" if m["tail_pct"] is not None
                else "no percentile has 10 samples beyond it")
        print(f"     {name:<22} {fmt(m['median']):>12} {m['unit']}  median of n={m['n']}; {tail}")
    failures = untraced["failures"] + traced["failures"]
    if failures:
        print("   failing operations:")
        for f in failures:
            print(f"     op {f['op']} {f['kind']} [{f['label']}] pass {f['pass']}: "
                  f"check {f['check']}: {f['detail']}")
    else:
        print("   failing operations: none")
    print(f"   per-layer, traced ({len(traced['traced_wall_s'])} traced passes, "
          f"counts repeat: {traced['counts_repeat']}, spans {traced['spans']['total']}):")
    moves = {e["name"]: e["moves"] for e in layer_map["metrics"]}
    for name, m in traced["per_layer"].items():
        where = ", ".join(f"{mv['metric']}@{mv['workload']}" for mv in moves.get(name, []))
        print(f"     {name:<36} {fmt(m['value']):>12} {m['unit']:<6} {where}")
    print(f"     tracing overhead: traced wall_s {fmt(statistics.median(traced['traced_wall_s']))} s vs untraced "
          f"{fmt(traced['end_to_end']['wall_s']['value'])} s in the same process")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    with open(HERE / "layer_map.json") as fh:
        layer_map = json.load(fh)
    out = HERE.parent / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    for w in workloads.BUILDERS:
        untraced, traced = (json.loads(run(w, args.seed, args.seconds, trace, out).read_text())
                            for trace in (0, 1))
        show(untraced, traced, layer_map)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
