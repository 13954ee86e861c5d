"""Solve reports: a JSON-serializable record of one solver run."""

import json
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``trace`` rows are (iter, objective, gap, penalty).  ``x_binary`` is
    the rounded, repaired answer in the problem's own domain;
    ``x_relaxed`` keeps the solver's final continuous iterate (the box
    relaxation optimum for LP rounding).  Floats are stored as plain
    Python floats so JSON round-trips bit-exactly.
    """

    method: str
    problem: dict
    x_binary: tuple
    objective_binary: float
    complementarity_gap_final: float
    outer_iterations: int
    wall_time_ms: float
    trace: tuple
    feasible: bool
    converged: bool
    objective_relaxed: float | None = None
    x_relaxed: tuple | None = None

    def __post_init__(self):
        self.x_binary = tuple(np.asarray(self.x_binary, dtype=np.float64).tolist())
        self.trace = tuple(
            (int(it), float(f), float(g), float(p)) for it, f, g, p in self.trace
        )
        if self.x_relaxed is not None:
            self.x_relaxed = tuple(np.asarray(self.x_relaxed, dtype=np.float64).tolist())
        if self.objective_relaxed is not None:
            self.objective_relaxed = float(self.objective_relaxed)
        self.objective_binary = float(self.objective_binary)
        self.complementarity_gap_final = float(self.complementarity_gap_final)
        self.wall_time_ms = float(self.wall_time_ms)
        self.outer_iterations = int(self.outer_iterations)

    def to_json(self):
        # the fields as they are: json renders tuples as lists, so this
        # writes what dataclasses.asdict's deep copy would
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                          indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())


TRACE_HEADER = "iter,objective,gap,penalty"


def trace_to_csv(trace, path):
    """Write a trace with the fixed column contract: iter,objective,gap,penalty."""
    lines = [TRACE_HEADER]
    for it, f, g, p in trace:
        lines.append("%d,%r,%r,%r" % (it, float(f), float(g), float(p)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
