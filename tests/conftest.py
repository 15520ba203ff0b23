import pytest
from hypothesis import strategies as st

from planarcert.graphs import from_edge_mask


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 6, connected: bool = False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    g = from_edge_mask(n, mask)
    if connected and not g.is_connected():
        # resample densely instead of rejecting outright
        mask |= draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
        g = from_edge_mask(n, mask)
    return g


@pytest.fixture(scope="session")
def all_graphs_up_to_5():
    from planarcert.graphs import enumerate_labeled_graphs

    out = []
    for n in range(0, 6):
        out.extend(enumerate_labeled_graphs(n))
    return out


def grid_graph(rows: int, cols: int, diagonals: bool = False):
    """rows x cols grid, optionally with one diagonal per square (a
    triangulated grid); planar either way."""
    from planarcert.graphs import Graph

    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
            if diagonals and i + 1 < rows and j + 1 < cols:
                edges.append((v, v + cols + 1))
    return Graph(rows * cols, edges)


def k33_in_grid(side: int):
    """A side x side grid (side >= 3) with three chords joining opposite
    points of six spread evenly around its outer cycle: a hexagon with its
    three long diagonals, so a K3,3 subdivision around a planar bulk."""
    from planarcert.graphs import Graph

    last = side - 1
    ring = (
        list(range(last))
        + [r * side + last for r in range(last)]
        + [last * side + c for c in range(last, 0, -1)]
        + [r * side for r in range(last, 0, -1)]
    )
    hexagon = [ring[k * len(ring) // 6] for k in range(6)]
    chords = [(hexagon[k], hexagon[k + 3]) for k in range(3)]
    return Graph(side * side, list(grid_graph(side, side).edges) + chords)


def relabeled(g, rng):
    """g with its vertices renamed by a permutation rng draws."""
    from planarcert.graphs import Graph

    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
