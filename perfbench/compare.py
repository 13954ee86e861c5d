"""Compare saved benchmark outputs of two commits.

    python3 perfbench/compare.py --base base-*.log --new new-*.log

Each file is the standard output of one ``run.py`` invocation.  Runs are
grouped by workload; for every metric the median and quartiles of each side
are printed with the change of the medians, and a metric whose median got
worse by more than its BENCHMARK.json bound is marked.  Runs made on
different kernel backends are refused: their numbers measure different
programs.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """(env, result) of one saved run."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return env, json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    runs = {side: [load(f) for f in getattr(args, side)] for side in ("base", "new")}

    backends = {env["backend"] for side in runs.values() for env, _ in side}
    if len(backends) > 1:
        sys.stderr.write("refusing to compare runs made on different kernel backends: %s\n"
                         % ", ".join(sorted(backends)))
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    workloads = sorted({env["workload"] for side in runs.values() for env, _ in side})
    worse = 0
    for wl in workloads:
        print("workload %s (backend %s)" % (wl, next(iter(backends))))
        values = {side: {} for side in runs}
        for side, items in runs.items():
            for env, res in items:
                if env["workload"] != wl:
                    continue
                if not res["correct"]:
                    print("  %s run with seed %s failed its checks" % (side, env["seed"]))
                for name, m in res["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
        for name in sorted(set(values["base"]) & set(values["new"])):
            b1, b2, b3 = quartiles(values["base"][name])
            n1, n2, n3 = quartiles(values["new"][name])
            change = (n2 - b2) / abs(b2) if b2 else float("nan")
            spec_m = declared.get(name, {})
            sign = -1.0 if spec_m.get("better") == "higher" else 1.0
            bound = spec_m.get("bound")
            flag = ""
            if bound is not None and sign * change > bound:
                flag = "  WORSE beyond bound %.2f" % bound
                worse += 1
            print("  %-36s base %.6g [%.6g, %.6g] n=%d  new %.6g [%.6g, %.6g] n=%d  %+.1f%%%s"
                  % (name, b2, b1, b3, len(values["base"][name]), n2, n1, n3,
                     len(values["new"][name]), 100 * change, flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
