"""Seeded inputs for the benchmark workloads.

Every generator takes the imported ``binmpec`` package and a seed and
yields, in order, the jobs one pass of the workload runs; the benchmark
times each job's construction on its own.  Sizes, layouts
and the order of jobs are fixed per workload; the seed moves only the
random content (pixel noise, pins, graph edges, point clouds), so two
seeds cost about the same and give results of the same statistics, and
the same seed always gives the same jobs.

Sizes are read from the module constants at call time (the tests shrink
them).  Builders are looked up on the package at call time, so a traced
run sees the rebound names.
"""

from dataclasses import dataclass

import numpy as np

# grid-image: one noisy two-region square image per side length, each
# giving a bisection, a pinned segmentation and an MRF; sides vary so that
# solve times form a continuum rather than clusters the median could fall
# between
GRID_SIDES = (18, 22, 26, 30) * 3
GRID_PINS = 4
# modularity-blocks: four_gauss_knn graphs at these node counts, k clusters
MODULARITY_NODES = (40, 44, 48) * 5 + (40,)
MODULARITY_K = 4
# oracle-mixed: ORACLE_GROUPS groups of five 20-coordinate instances
ORACLE_GROUPS = 10

GRID_METHODS = ("epm", "adm", "lp", "iht")
MODULARITY_METHODS = ("epm", "adm", "lp")
ORACLE_METHODS = ("epm", "adm", "lp", "iht", "l2box")
ORACLE_BLOCK_METHODS = ("epm", "adm", "lp", "l2box")  # iht rejects blocks


@dataclass
class Job:
    """One problem instance and what a pass runs on it."""

    label: str
    problem: object
    methods: tuple
    oracle: bool = False


def image(rows, cols, index, rng):
    """Noisy two-level image with a disc; returns intensities and distances.

    The disc has a fixed radius and a fixed centre per ``index`` (images of
    one pass differ in layout), so the seed moves only the pixel noise and
    two seeds give images of the same statistics.  The second array holds
    each pixel's squared distance to the centre over the squared radius.
    """
    radius = 0.25 * min(rows, cols)
    angle = 2.0 * np.pi * index / 6.0
    cy = 0.5 * rows + 0.15 * rows * np.sin(angle)
    cx = 0.5 * cols + 0.15 * cols * np.cos(angle)
    yy, xx = np.mgrid[0:rows, 0:cols]
    rel = ((yy - cy) ** 2 + (xx - cx) ** 2) / (radius * radius)
    img = np.where(rel <= 1.0, 0.75, 0.25) + rng.normal(0.0, 0.15, (rows, cols))
    return img.ravel(), rel.ravel()


def grid_graph(B, rows, cols, img):
    """4-neighbour pixel graph with contrast-sensitive edge weights."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    u = np.concatenate((idx[:, :-1].ravel(), idx[:-1, :].ravel()))
    v = np.concatenate((idx[:, 1:].ravel(), idx[1:, :].ravel()))
    w = 0.05 + np.exp(-((img[u] - img[v]) ** 2) / (2.0 * 0.1 ** 2))
    return B.Graph(rows * cols, tuple(zip(u.tolist(), v.tolist(), w.tolist())))


def pins(rng, rel, count):
    """Foreground and background seed pixels for a segmentation.

    Drawn from the 4*count pixels nearest the disc centre and the 4*count
    farthest from it.
    """
    order = np.argsort(rel, kind="stable")
    fg = rng.choice(order[:4 * count], size=count, replace=False)
    bg = rng.choice(order[-4 * count:], size=count, replace=False)
    return sorted(fg.tolist()), sorted(bg.tolist())


def grid_image(B, seed):
    rng = np.random.default_rng([seed, 1])
    for gi, side in enumerate(GRID_SIDES):
        img, rel = image(side, side, gi, rng)
        g = grid_graph(B, side, side, img)
        fg, bg = pins(rng, rel, GRID_PINS)
        yield Job("grid%d/bisection" % gi, B.build_bisection(g), GRID_METHODS)
        yield Job("grid%d/segmentation" % gi,
                  B.build_constrained_segmentation(g, fg, bg), GRID_METHODS)
        yield Job("grid%d/mrf" % gi, B.build_mrf(g, 0.5 - img), GRID_METHODS)


def modularity_blocks(B, seed):
    for i, n in enumerate(MODULARITY_NODES):
        g = B.generate("four_gauss_knn", {"n": n}, seed=[seed, 2, i])
        yield Job("gauss%d-n%d" % (i, n), B.build_modularity(g, MODULARITY_K),
                  MODULARITY_METHODS)


def oracle_mixed(B, seed):
    """Five builders at 20 free coordinates each, every one enumerated."""
    rng = np.random.default_rng([seed, 3])
    for q in range(ORACLE_GROUPS):
        def sub(tag):
            return [seed, 3, q, tag]

        g = B.generate("erdos_renyi", {"n": 20, "p": 0.4}, seed=sub(0))
        yield Job("g%d/densest-k" % q, B.build_dense_subgraph(g, 7),
                  ORACLE_METHODS, oracle=True)
        g = B.generate("four_gauss_knn", {"n": 20, "knn": 4}, seed=sub(1))
        yield Job("g%d/bisection" % q, B.build_bisection(g),
                  ORACLE_METHODS, oracle=True)
        img, rel = image(4, 6, q, rng)
        g = grid_graph(B, 4, 6, img)
        fg, bg = pins(rng, rel, 2)
        yield Job("g%d/segmentation" % q,
                  B.build_constrained_segmentation(g, fg, bg),
                  ORACLE_METHODS, oracle=True)
        img, _ = image(4, 5, q, rng)
        yield Job("g%d/mrf" % q, B.build_mrf(grid_graph(B, 4, 5, img), 0.5 - img),
                  ORACLE_METHODS, oracle=True)
        g = B.generate("four_gauss_knn", {"n": 5, "knn": 2}, seed=sub(4))
        yield Job("g%d/modularity" % q, B.build_modularity(g, 4),
                  ORACLE_BLOCK_METHODS, oracle=True)


WORKLOADS = {
    "grid-image": grid_image,
    "modularity-blocks": modularity_blocks,
    "oracle-mixed": oracle_mixed,
}
