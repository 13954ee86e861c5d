import dataclasses
import json

import numpy as np
import pytest

from binmpec.adm import solve_adm
from binmpec.baselines import solve_iht, solve_l2box_admm, solve_lp_round
from binmpec.epm import solve_epm
from binmpec.problems import Graph, build_bisection, build_constrained_segmentation
from binmpec.report import TRACE_HEADER, SolveReport, trace_to_csv

from reference import report_to_json_asdict


def sample_report():
    return SolveReport(
        method="epm",
        problem={"name": "toy", "n": 2},
        x_binary=(1.0, -1.0),
        objective_binary=0.125,
        complementarity_gap_final=3.5e-9,
        outer_iterations=4,
        wall_time_ms=12.25,
        trace=((1, 2.0, 1.5, 0.01), (2, 0.125, 3.5e-9, 0.1)),
        feasible=True,
        converged=True,
        objective_relaxed=0.1,
        x_relaxed=(0.999999, -1.0),
    )


class TestJsonRoundTrip:
    def test_equality(self):
        rep = sample_report()
        assert SolveReport.from_json(rep.to_json()) == rep

    def test_optional_fields_absent(self):
        rep = sample_report()
        rep.objective_relaxed = None
        rep.x_relaxed = None
        back = SolveReport.from_json(rep.to_json())
        assert back == rep
        assert back.x_relaxed is None

    # lp sets objective_relaxed, iht leaves x_relaxed None; the problem
    # dict holds the lists of pinned nodes
    @pytest.mark.parametrize("solve", [solve_epm, solve_adm, solve_lp_round, solve_iht,
                                       solve_l2box_admm],
                             ids=["epm", "adm", "lp", "iht", "l2box"])
    def test_same_bytes_as_asdict(self, solve):
        g = Graph(6, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 4, 1.0), (4, 5, 0.25),
                      (5, 0, 1.5)))
        rep = solve(build_constrained_segmentation(g, fg=[0], bg=[3]))
        assert (rep.objective_relaxed is not None) == (rep.method == "lp")
        assert (rep.x_relaxed is None) == (rep.method == "iht")
        assert rep.to_json() == report_to_json_asdict(rep)

    def test_floats_bit_exact(self):
        # repr-level float fidelity through JSON
        rep = sample_report()
        rep.objective_binary = 0.1 + 0.2  # not representable tidily
        back = SolveReport.from_json(rep.to_json())
        assert back.objective_binary == rep.objective_binary

    def test_payload_is_plain_json(self):
        payload = json.loads(sample_report().to_json())
        assert payload["method"] == "epm"
        assert payload["trace"][0] == [1, 2.0, 1.5, 0.01]
        assert payload["x_binary"] == [1.0, -1.0]

    def test_save_load(self, tmp_path):
        rep = sample_report()
        path = tmp_path / "run.json"
        rep.save(path)
        assert SolveReport.load(path) == rep

    def test_types_normalized(self):
        rep = SolveReport(
            method="adm",
            problem={},
            x_binary=np.array([1.0, -1.0]),
            objective_binary=np.float64(1.5),
            complementarity_gap_final=np.float64(0.0),
            outer_iterations=np.int64(3),
            wall_time_ms=np.float64(1.0),
            trace=[(np.int64(1), np.float64(2.0), np.float64(0.5), np.float64(0.01))],
            feasible=True,
            converged=False,
        )
        assert isinstance(rep.x_binary[0], float)
        assert isinstance(rep.outer_iterations, int)
        assert isinstance(rep.trace[0][1], float)

    @pytest.mark.parametrize("source", ["array", "np.float64", "json"])
    def test_vectors_hold_plain_floats(self, source):
        values = [1.0, -0.0, 0.1 + 0.2, -1.0, 5e-324]
        if source == "json":
            payload = dict(json.loads(sample_report().to_json()),
                           x_binary=values, x_relaxed=values)
            rep = SolveReport.from_json(json.dumps(payload))
        else:
            vec = (np.array(values) if source == "array"
                   else tuple(np.float64(v) for v in values))
            rep = dataclasses.replace(sample_report(), x_binary=vec, x_relaxed=vec)
        for got in (rep.x_binary, rep.x_relaxed):
            assert type(got) is tuple
            assert all(type(v) is float for v in got)
            # -0.0 and the subnormal kept bit for bit
            assert np.array(got).tobytes() == np.array(values).tobytes()
        back = SolveReport.from_json(rep.to_json())
        assert back.to_json() == rep.to_json()
        assert np.array(back.x_binary).tobytes() == np.array(values).tobytes()

    def test_solver_report_survives(self, tmp_path):
        g = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))
        rep = solve_epm(build_bisection(g))
        path = tmp_path / "epm.json"
        rep.save(path)
        back = SolveReport.load(path)
        assert back == rep
        assert back.trace == rep.trace

    def test_missing_field_raises(self):
        payload = json.loads(sample_report().to_json())
        del payload["x_binary"]
        with pytest.raises(TypeError, match="x_binary"):
            SolveReport.from_json(json.dumps(payload))


class TestTraceCsv:
    def test_header_contract(self):
        assert TRACE_HEADER == "iter,objective,gap,penalty"

    def test_rows_round_trip_through_repr(self, tmp_path):
        trace = ((1, 1.0 / 3.0, 2e-9, 0.01), (2, -0.7, 0.0, 31.6227766))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 3
        for row, line in zip(trace, lines[1:]):
            it, f, g, p = line.split(",")
            assert int(it) == row[0]
            assert float(f) == row[1]  # repr round-trips exactly
            assert float(g) == row[2]
            assert float(p) == row[3]
