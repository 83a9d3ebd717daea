"""Unit tests for the simple blocker heuristics."""

from repro.core import (
    betweenness_blockers,
    degree_blockers,
    out_degree_blockers,
    out_neighbors_blockers,
    pagerank_blockers,
    random_blockers,
)
from repro.datasets import figure1_graph, figure1_seed, V
from repro.graph import DiGraph


def hub_graph() -> DiGraph:
    """Vertex 1 is a hub with out-degree 3; vertex 2 has out-degree 1."""
    return DiGraph.from_edges(
        6, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5)]
    )


class TestRandomBlockers:
    def test_never_picks_seeds(self):
        graph = hub_graph()
        for trial in range(10):
            blockers = random_blockers(graph, [0], 3, rng=trial)
            assert 0 not in blockers
            assert len(blockers) == 3
            assert len(set(blockers)) == 3

    def test_budget_larger_than_pool(self):
        graph = DiGraph(3)
        assert sorted(random_blockers(graph, [0], 10, rng=0)) == [1, 2]

    def test_deterministic_given_seed(self):
        graph = hub_graph()
        assert random_blockers(graph, [0], 2, rng=5) == random_blockers(
            graph, [0], 2, rng=5
        )


class TestDegreeHeuristics:
    def test_out_degree_ranks_hub_first(self):
        assert out_degree_blockers(hub_graph(), [0], 1) == [1]

    def test_out_degree_excludes_seed(self):
        # make the seed the highest-out-degree vertex
        graph = DiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert out_degree_blockers(graph, [0], 1) == [1]

    def test_total_degree_ordering(self):
        blockers = degree_blockers(hub_graph(), [0], 2)
        assert blockers[0] == 1  # degree 4
        assert blockers[1] == 2  # degree 2

    def test_tie_breaks_by_id(self):
        graph = DiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert out_degree_blockers(graph, [0], 2) == [1, 2]


class TestPageRank:
    def test_sink_of_hub_ranks_high(self):
        # classic: a vertex fed by everything should outrank the rest
        graph = DiGraph.from_edges(
            5, [(0, 4), (1, 4), (2, 4), (3, 4), (4, 0)]
        )
        blockers = pagerank_blockers(graph, [0], 1)
        assert blockers == [4]

    def test_empty_graph(self):
        assert pagerank_blockers(DiGraph(0), [], 3) == []

    def test_excludes_seeds(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2), (2, 1)])
        blockers = pagerank_blockers(graph, [1], 2)
        assert 1 not in blockers


class TestOutNeighbors:
    def test_restricted_to_seed_out_neighbors(self):
        blockers = out_neighbors_blockers(
            figure1_graph(), [figure1_seed], 2, theta=500, rng=0
        )
        assert sorted(blockers) == [V(2), V(4)]

    def test_budget_one_picks_one_out_neighbor(self):
        blockers = out_neighbors_blockers(
            figure1_graph(), [figure1_seed], 1, theta=500, rng=1
        )
        assert blockers[0] in (V(2), V(4))

    def test_budget_exceeding_out_degree(self):
        blockers = out_neighbors_blockers(
            figure1_graph(), [figure1_seed], 10, theta=200, rng=2
        )
        assert sorted(blockers) == [V(2), V(4)]


class TestBetweenness:
    def test_bridge_vertex_found(self):
        # two cliques joined through vertex 4
        edges = []
        for u in (0, 1, 2, 3):
            for v in (0, 1, 2, 3):
                if u != v:
                    edges.append((u, v))
        for u in (5, 6, 7, 8):
            for v in (5, 6, 7, 8):
                if u != v:
                    edges.append((u, v))
        edges += [(3, 4), (4, 5), (5, 4), (4, 3)]
        graph = DiGraph.from_edges(9, edges)
        assert betweenness_blockers(graph, [0], 1) == [4]

    def test_pivot_sampling_still_finds_bridge(self):
        graph = DiGraph.from_edges(
            7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        )
        blockers = betweenness_blockers(graph, [0], 1, pivots=4, rng=0)
        assert blockers[0] in (2, 3, 4)

    def test_excludes_seeds(self):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert 0 not in betweenness_blockers(graph, [0], 3)
