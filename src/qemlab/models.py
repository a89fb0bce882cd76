"""Problem catalog: interaction graphs, partitions, and block Hamiltonians."""

from __future__ import annotations

from .errors import ConfigError
from .pauli import PauliSum, SystemPartition, build_ising


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cluster_2x4_edges() -> list[tuple[int, int]]:
    """Two-row, four-column grid on 8 sites: 10 edges.

    Sites 0..3 form the top row, 4..7 the bottom row.
    """
    rows = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    cols = [(0, 4), (1, 5), (2, 6), (3, 7)]
    return rows + cols


GRAPHS = {
    "path-8": (8, path_edges(8)),
    "path-4": (4, path_edges(4)),
    "path-3": (3, path_edges(3)),
    "cluster-2d-8": (8, cluster_2x4_edges()),
}

PARTITIONS = {
    # path split down the middle
    "half-4-4": SystemPartition(((0, 1, 2, 3), (4, 5, 6, 7))),
    "half-2-2": SystemPartition(((0, 1), (2, 3))),
    # grid split into two 4-cycles (cuts two edges)
    "cluster-cycles": SystemPartition(((0, 1, 4, 5), (2, 3, 6, 7))),
    # grid split into its two rows (cuts four edges)
    "cluster-rows": SystemPartition(((0, 1, 2, 3), (4, 5, 6, 7))),
}


def graph(name: str) -> tuple[int, list[tuple[int, int]]]:
    if name not in GRAPHS:
        raise ConfigError(f"unknown graph {name!r}; have {sorted(GRAPHS)}")
    return GRAPHS[name]


def partition(name: str) -> SystemPartition:
    if name not in PARTITIONS:
        raise ConfigError(f"unknown partition {name!r}; have {sorted(PARTITIONS)}")
    return PARTITIONS[name]


def block_subproblem(edges: list[tuple[int, int]], block: tuple[int, ...]
                     ) -> tuple[PauliSum, list[tuple[int, int]]]:
    """Ising model restricted to one partition block, in block-local indices."""
    local = {q: i for i, q in enumerate(block)}
    sub_edges = [(local[a], local[b]) for (a, b) in edges
                 if a in local and b in local]
    return build_ising(sub_edges, len(block)), sub_edges

