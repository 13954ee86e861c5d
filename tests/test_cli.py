import json

import numpy as np
import pytest

from binmpec.cli import load_graph, main
from binmpec.oracle import brute_force
from binmpec.problems import build_bisection, generate
from binmpec.report import TRACE_HEADER, SolveReport


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("# a 4-cycle\n0 1 1.0\n1 2 1.0\n2 3 1.0\n3 0 1.0\n")
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("0 1 1.0\n1 2 1.0\n")
    return str(path)


class TestEdgelist:
    def test_path_graph(self, p3_file):
        g = load_graph(p3_file)
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1 2.5\n   \n# tail\n")
        g = load_graph(str(path))
        assert g.edges == ((0, 1, 2.5),)

    def test_duplicates_merge_by_sum(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n1 0 2.0\n")
        g = load_graph(str(path))
        assert g.edges == ((0, 1, 3.0),)

    def test_self_loop_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n2 2 1.0\n")
        with pytest.raises(ValueError, match="line 2.*self loop"):
            load_graph(str(path))

    def test_negative_id_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 1 1.0\n")
        with pytest.raises(ValueError, match="line 1.*negative"):
            load_graph(str(path))

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 -2.0\n")
        with pytest.raises(ValueError, match="bad weight"):
            load_graph(str(path))

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1.0\n0 two 1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_graph(str(path))

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError, match="expected 'u v w'"):
            load_graph(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no edges"):
            load_graph(str(path))


class TestMatrixMarket:
    def test_p3(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% path on three nodes\n"
            "3 3 2\n"
            "2 1 1.0\n"
            "3 2 1.0\n")
        g = load_graph(str(path), fmt="matrixmarket")
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_general_banner_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n2 1 1.0\n")
        with pytest.raises(ValueError, match="symmetric"):
            load_graph(str(path), fmt="matrixmarket")

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 1\n1 1 1.0\n")
        with pytest.raises(ValueError, match="self loop"):
            load_graph(str(path), fmt="matrixmarket")

    def test_range_checked(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 1\n3 1 1.0\n")
        with pytest.raises(ValueError, match="out of range"):
            load_graph(str(path), fmt="matrixmarket")

    def test_nnz_mismatch_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 2\n2 1 1.0\n")
        with pytest.raises(ValueError, match="does not match"):
            load_graph(str(path), fmt="matrixmarket")

    def test_unknown_format_rejected(self, p3_file):
        with pytest.raises(ValueError, match="format"):
            load_graph(p3_file, fmt="graphml")


class TestMainSolve:
    def test_epm_on_c4(self, c4_file, tmp_path, capsys):
        report = tmp_path / "rep.json"
        trace = tmp_path / "trace.csv"
        code = main(["solve", "--problem", "bisection", "--graph", c4_file,
                     "--method", "epm", "--report", str(report),
                     "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "method=epm" in out
        assert "feasible=True" in out
        rep = SolveReport.load(report)
        assert rep.objective_binary == pytest.approx(8.0, abs=1e-9)
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == len(rep.trace) + 1

    @pytest.mark.parametrize("method", ["adm", "lp", "iht", "l2box"])
    def test_other_methods_run(self, c4_file, method, capsys):
        code = main(["solve", "--problem", "bisection", "--graph", c4_file,
                     "--method", method])
        assert code == 0
        assert "method=%s" % method in capsys.readouterr().out

    def test_seg_solve(self, p3_file, capsys):
        code = main(["solve", "--problem", "seg", "--graph", p3_file,
                     "--method", "epm", "--fg", "0", "--bg", "2"])
        assert code == 0
        assert "objective=4" in capsys.readouterr().out

    def test_mrf_with_unary_file(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("0 1 1.0\n")
        unary = tmp_path / "u.txt"
        unary.write_text("-1.0 0.2\n")
        code = main(["solve", "--problem", "mrf", "--graph", str(g),
                     "--method", "epm", "--unary", str(unary)])
        assert code == 0
        assert "objective=-0.8" in capsys.readouterr().out


class TestMainErrors:
    def test_odd_bisection_exit_2(self, p3_file, capsys):
        code = main(["solve", "--problem", "bisection", "--graph", p3_file,
                     "--method", "epm"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, c4_file, capsys):
        code = main(["solve", "--problem", "bisection", "--graph", c4_file,
                     "--method", "epm", "--frobnicate"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exit_1(self, capsys):
        # the benchmark is perfbench/, not a subcommand
        for command in ("tune", "bench"):
            assert main([command]) == 1

    def test_missing_method_exit_1(self, c4_file):
        assert main(["solve", "--problem", "bisection", "--graph", c4_file]) == 1

    def test_densesub_without_k_exit_2(self, c4_file, capsys):
        code = main(["solve", "--problem", "densesub", "--graph", c4_file,
                     "--method", "epm"])
        assert code == 2
        assert "--k" in capsys.readouterr().err

    def test_seg_without_seeds_exit_2(self, p3_file, capsys):
        code = main(["solve", "--problem", "seg", "--graph", p3_file,
                     "--method", "epm"])
        assert code == 2

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["solve", "--problem", "bisection",
                     "--graph", str(tmp_path / "absent.txt"),
                     "--method", "epm"])
        assert code == 2

    def test_oracle_size_refusal_exit_3(self, tmp_path, capsys):
        g = generate("cycle", {"n": 30})
        path = tmp_path / "c30.txt"
        path.write_text("".join("%d %d 1.0\n" % (u, v) for u, v, _ in g.edges))
        code = main(["oracle", "--problem", "bisection", "--graph", str(path)])
        assert code == 3


class TestMainOracle:
    def test_oracle_matches_library(self, c4_file, tmp_path, capsys):
        report = tmp_path / "oracle.json"
        code = main(["oracle", "--problem", "bisection", "--graph", c4_file,
                     "--report", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective=8" in out
        assert "feasible_points=6" in out
        payload = json.loads(report.read_text())
        prob = build_bisection(load_graph(c4_file))
        x, f, count = brute_force(prob)
        assert payload["objective"] == pytest.approx(f)
        assert payload["feasible_points"] == count
        assert payload["x"] == list(x)

    def test_limit_flag(self, tmp_path):
        g = generate("cycle", {"n": 12})
        path = tmp_path / "c12.txt"
        path.write_text("".join("%d %d 1.0\n" % (u, v) for u, v, _ in g.edges))
        code = main(["oracle", "--problem", "bisection", "--graph", str(path),
                     "--limit", "10"])
        assert code == 3


class TestGoldenTrace:
    def test_same_seed_byte_identical(self, c4_file, tmp_path):
        t1 = tmp_path / "a.csv"
        t2 = tmp_path / "b.csv"
        for t in (t1, t2):
            code = main(["solve", "--problem", "bisection", "--graph", c4_file,
                         "--method", "epm", "--seed", "11",
                         "--trace", str(t)])
            assert code == 0
        assert t1.read_bytes() == t2.read_bytes()
        first_row = t1.read_text().strip().split("\n")[1].split(",")
        assert first_row[3] == repr(0.01)  # the documented initial penalty
