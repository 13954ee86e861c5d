"""Command line front end.

Exit codes: 0 success, 1 usage errors, 2 infeasible or unparsable input,
3 oracle size refusal.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from .adm import solve_adm
from .baselines import solve_iht, solve_l2box_admm, solve_lp_round
from .epm import solve_epm
from .oracle import SizeLimitError, brute_force
from .problems import (Graph, build_bisection, build_constrained_segmentation,
                       build_dense_subgraph, build_modularity, build_mrf,
                       generate)
from .report import trace_to_csv

PROBLEMS = ("bisection", "densesub", "modularity", "mrf", "seg")
METHODS = ("epm", "adm", "lp", "iht", "l2box")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError("%s\n%s" % (self.format_usage().rstrip(), message))


def load_graph(path, fmt="edgelist"):
    """Read a weighted undirected graph from disk.

    edgelist: one "u v w" triple per line, 0-indexed, '#' comments.
    matrixmarket: symmetric coordinate real, 1-indexed, '%' comments.
    Duplicate edges are merged by summing weights.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if fmt == "edgelist":
        return _parse_edgelist(lines)
    if fmt == "matrixmarket":
        return _parse_matrixmarket(lines)
    raise ValueError("unknown graph format: %r" % (fmt,))


def _parse_edgelist(lines):
    merged = {}
    max_node = -1
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise ValueError("line %d: expected 'u v w', got %r" % (lineno, text))
        try:
            u = int(parts[0])
            v = int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise ValueError("line %d: could not parse %r" % (lineno, text))
        if u < 0 or v < 0:
            raise ValueError("line %d: negative node id" % (lineno,))
        if u == v:
            raise ValueError("line %d: self loop %d-%d" % (lineno, u, v))
        if not np.isfinite(w) or w < 0:
            raise ValueError("line %d: bad weight %r" % (lineno, parts[2]))
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + w
        max_node = max(max_node, u, v)
    if not merged:
        raise ValueError("edge list holds no edges")
    edges = tuple((u, v, w) for (u, v), w in sorted(merged.items()))
    return Graph(max_node + 1, edges)


def _parse_matrixmarket(lines):
    if not lines:
        raise ValueError("empty file")
    banner = lines[0].strip().lower()
    if not banner.startswith("%%matrixmarket"):
        raise ValueError("line 1: missing MatrixMarket banner")
    for token in ("matrix", "coordinate", "real", "symmetric"):
        if token not in banner:
            raise ValueError("line 1: banner must declare coordinate real "
                             "symmetric, got %r" % (lines[0].strip(),))
    dims = None
    entries = []
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if dims is None:
            if len(parts) != 3:
                raise ValueError("line %d: expected 'rows cols nnz'" % (lineno,))
            try:
                rows, cols, nnz = (int(p) for p in parts)
            except ValueError:
                raise ValueError("line %d: bad size header %r" % (lineno, text))
            if rows != cols or rows < 1:
                raise ValueError("line %d: need a square matrix" % (lineno,))
            dims = (rows, nnz)
            continue
        if len(parts) != 3:
            raise ValueError("line %d: expected 'i j w'" % (lineno,))
        try:
            i = int(parts[0])
            j = int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise ValueError("line %d: could not parse %r" % (lineno, text))
        if i < 1 or j < 1 or i > dims[0] or j > dims[0]:
            raise ValueError("line %d: index out of range" % (lineno,))
        if i == j:
            raise ValueError("line %d: self loop %d-%d" % (lineno, i - 1, j - 1))
        if not np.isfinite(w) or w < 0:
            raise ValueError("line %d: bad weight %r" % (lineno, parts[2]))
        entries.append((i - 1, j - 1, w))
    if dims is None:
        raise ValueError("missing size header")
    if len(entries) != dims[1]:
        raise ValueError("entry count %d does not match header nnz %d"
                         % (len(entries), dims[1]))
    merged = {}
    for u, v, w in entries:
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + w
    edges = tuple((u, v, w) for (u, v), w in sorted(merged.items()))
    return Graph(dims[0], edges)


def _parse_ids(text):
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise ValueError("could not parse node list %r" % (text,))


def _load_vector(path, n):
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        raise ValueError("unary file %s holds non-numeric data" % (path,))
    if len(values) != n:
        raise ValueError("unary file has %d values, graph has %d nodes"
                         % (len(values), n))
    return tuple(values)


def _build_problem(args):
    g = load_graph(args.graph, args.format)
    if args.problem == "bisection":
        return build_bisection(g)
    if args.problem == "densesub":
        if args.k is None:
            raise ValueError("--k is required for densesub")
        return build_dense_subgraph(g, args.k)
    if args.problem == "modularity":
        k = 2 if args.k is None else args.k
        return build_modularity(g, k)
    if args.problem == "mrf":
        unary = (_load_vector(args.unary, g.n) if args.unary
                 else tuple(0.0 for _ in range(g.n)))
        return build_mrf(g, unary)
    if args.problem == "seg":
        if args.fg is None or args.bg is None:
            raise ValueError("--fg and --bg are required for seg")
        return build_constrained_segmentation(g, _parse_ids(args.fg),
                                              _parse_ids(args.bg))
    raise ValueError("unknown problem kind %r" % (args.problem,))


def _run_method(method, problem, seed):
    if method == "epm":
        return solve_epm(problem, seed=seed)
    if method == "adm":
        return solve_adm(problem, seed=seed)
    if method == "lp":
        return solve_lp_round(problem)
    if method == "iht":
        return solve_iht(problem)
    if method == "l2box":
        return solve_l2box_admm(problem)
    raise ValueError("unknown method %r" % (method,))


def _cmd_solve(args):
    problem = _build_problem(args)
    rep = _run_method(args.method, problem, args.seed)
    if args.trace:
        trace_to_csv(rep.trace, args.trace)
    if args.report:
        rep.save(args.report)
    print("method=%s problem=%s n=%d objective=%.12g gap=%.3e outer=%d "
          "feasible=%s converged=%s time_ms=%.1f"
          % (rep.method, rep.problem.get("name", "?"), rep.problem["n"],
             rep.objective_binary, rep.complementarity_gap_final,
             rep.outer_iterations, rep.feasible, rep.converged,
             rep.wall_time_ms))
    return 0


def _cmd_oracle(args):
    problem = _build_problem(args)
    x, f_star, count = brute_force(problem, limit_n=args.limit)
    print("oracle problem=%s n=%d objective=%.12g feasible_points=%d"
          % (problem.meta.get("name", "?"), problem.meta["n"], f_star, count))
    print("x= " + " ".join("%g" % xi for xi in x))
    if args.report:
        payload = {
            "problem": dict(problem.meta),
            "objective": float(f_star),
            "x": [float(xi) for xi in x],
            "feasible_points": int(count),
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return 0


def _desk_instances():
    two_pairs = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    mrf_pair = Graph(2, ((0, 1, 1.0),))
    return (
        ("bisection-c4", build_bisection(generate("cycle", {"n": 4}, 0))),
        ("bisection-2k2", build_bisection(two_pairs)),
        ("bisection-gauss", build_bisection(
            generate("four_gauss_knn", {"n": 80}, 0))),
        ("densesub-k3", build_dense_subgraph(generate("complete", {"n": 3}, 0), 2)),
        ("densesub-er14", build_dense_subgraph(
            generate("erdos_renyi", {"n": 14, "p": 0.4}, 1), 5)),
        ("mrf-pair", build_mrf(mrf_pair, (-1.0, 0.2))),
        ("seg-p3", build_constrained_segmentation(
            generate("path", {"n": 3}, 0), (0,), (2,))),
        ("modularity-2k2", build_modularity(two_pairs, 2)),
    )


def _desk_cell(name, problem, method, seed):
    row = {"problem": name, "method": method, "n": problem.meta["n"],
           "status": "ok", "objective": "", "gap": "", "outer": "",
           "feasible": "", "converged": "", "time_ms": ""}
    try:
        rep = _run_method(method, problem, seed)
    except ValueError:
        row["status"] = "skipped"
        return row
    row.update({
        "objective": "%.12g" % rep.objective_binary,
        "gap": "%.3e" % rep.complementarity_gap_final,
        "outer": rep.outer_iterations,
        "feasible": rep.feasible,
        "converged": rep.converged,
        "time_ms": "%.2f" % rep.wall_time_ms,
    })
    return row


def _cmd_bench(args):
    rows = [_desk_cell(name, problem, method, args.seed)
            for name, problem in _desk_instances()
            for method in METHODS]
    rows.sort(key=lambda r: (r["problem"], r["method"]))
    fields = ["problem", "method", "n", "status", "objective", "gap",
              "outer", "feasible", "converged", "time_ms"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _add_problem_flags(sub):
    sub.add_argument("--problem", required=True, choices=PROBLEMS)
    sub.add_argument("--graph", required=True)
    sub.add_argument("--format", default="edgelist",
                     choices=("edgelist", "matrixmarket"))
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--unary", default=None)
    sub.add_argument("--fg", default=None)
    sub.add_argument("--bg", default=None)


def build_parser():
    parser = _Parser(prog="binmpec",
                     description="Binary quadratic program solvers")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    solve = subs.add_parser("solve", help="run one solver on one instance")
    _add_problem_flags(solve)
    solve.add_argument("--method", required=True, choices=METHODS)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--trace", default=None)
    solve.add_argument("--report", default=None)
    solve.set_defaults(func=_cmd_solve)

    oracle = subs.add_parser("oracle", help="exhaustive exact optimum")
    _add_problem_flags(oracle)
    oracle.add_argument("--limit", type=int, default=22)
    oracle.add_argument("--report", default=None)
    oracle.set_defaults(func=_cmd_oracle)

    bench = subs.add_parser("bench", help="benchmark suites")
    bench.add_argument("--suite", default="desk", choices=("desk",))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
