"""Unit tests for the live-edge sampler."""

import numpy as np
import pytest

from repro.graph import CSRGraph, DiGraph
from repro.models import GeneralTriggeringSampler, LinearThresholdSampler
from repro.sampling import adjacency_from_edges, EdgeSampler, ICSampler


@pytest.fixture
def graph() -> DiGraph:
    return DiGraph.from_edges(
        4, [(0, 1, 1.0), (0, 2, 0.5), (1, 3, 0.0), (2, 3, 1.0)]
    )


class TestSampling:
    def test_certain_edges_always_survive(self, graph):
        sampler = ICSampler(graph, rng=0)
        csr = sampler.csr
        certain = {
            j for j in range(csr.m) if csr.probs[j] == 1.0
        }
        for _ in range(20):
            surviving = set(sampler.sample_surviving_edges().tolist())
            assert certain <= surviving

    def test_zero_probability_edges_never_survive(self, graph):
        sampler = ICSampler(graph, rng=0)
        csr = sampler.csr
        zero = {j for j in range(csr.m) if csr.probs[j] == 0.0}
        for _ in range(20):
            surviving = set(sampler.sample_surviving_edges().tolist())
            assert not (zero & surviving)

    def test_survival_frequency_matches_probability(self, graph):
        sampler = ICSampler(graph, rng=1)
        csr = sampler.csr
        half = next(j for j in range(csr.m) if csr.probs[j] == 0.5)
        hits = sum(
            half in sampler.sample_surviving_edges()
            for _ in range(4000)
        )
        assert hits / 4000 == pytest.approx(0.5, abs=0.03)

    def test_adjacency_from_edges(self, graph):
        csr = CSRGraph(graph)
        succ = adjacency_from_edges(csr, np.arange(csr.m))
        assert sorted(succ[0]) == [1, 2]
        assert succ[2] == [3]

    def test_sample_adjacency_contains_only_surviving(self, graph):
        sampler = ICSampler(graph, rng=2)
        succ = sampler.sample_adjacency()
        assert 1 in succ.get(0, [])  # certain edge
        assert 3 not in succ.get(1, [])  # zero-probability edge

    def test_implements_protocol(self, graph):
        assert isinstance(ICSampler(graph, rng=0), EdgeSampler)


class TestBlocking:
    def test_blocked_vertex_loses_in_and_out_edges(self, graph):
        sampler = ICSampler(graph, rng=3)
        sampler.block([2])
        for _ in range(20):
            succ = sampler.sample_adjacency()
            assert 2 not in succ.get(0, [])
            assert 2 not in succ
        assert sampler.blocked == frozenset({2})

    def test_block_is_idempotent(self, graph):
        sampler = ICSampler(graph, rng=4)
        sampler.block([1])
        sampler.block([1])
        assert sampler.blocked == frozenset({1})

    def test_unblock_restores_probabilities(self, graph):
        sampler = ICSampler(graph, rng=5)
        sampler.block([1, 2])
        sampler.unblock([1])
        assert sampler.blocked == frozenset({2})
        saw_edge_to_1 = False
        for _ in range(20):
            succ = sampler.sample_adjacency()
            assert 2 not in succ.get(0, [])
            if 1 in succ.get(0, []):
                saw_edge_to_1 = True
        assert saw_edge_to_1

    def test_unblock_unknown_vertex_is_noop(self, graph):
        sampler = ICSampler(graph, rng=6)
        sampler.block([1])
        sampler.unblock([3])
        assert sampler.blocked == frozenset({1})

    def test_unblock_preserves_other_blocks_shared_edge(self):
        # edge 1 -> 2 touches both blockers; unblocking 1 must keep it
        # dead because 2 is still blocked
        graph = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        sampler = ICSampler(graph, rng=7)
        sampler.block([1, 2])
        sampler.unblock([1])
        for _ in range(10):
            succ = sampler.sample_adjacency()
            assert 2 not in succ.get(1, [])


SAMPLERS = {
    "ic": lambda graph: ICSampler(graph, rng=8),
    "lt": lambda graph: LinearThresholdSampler(graph, rng=8),
    "general": lambda graph: GeneralTriggeringSampler(
        graph, draw=lambda v, sources, gen: sources, rng=8
    ),
}


class TestOutOfRangeIds:
    """Blocking an id outside the graph raises before any state moves."""

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_block_rejects_vertex(self, graph, kind, bad):
        sampler = SAMPLERS[kind](graph)
        before = [sampler.sample_surviving_edges() for _ in range(5)]
        sampler = SAMPLERS[kind](graph)
        with pytest.raises(ValueError, match=r"blocked vertex .* \[0, 4\)"):
            sampler.block([1, bad])
        assert sampler.blocked == frozenset()
        after = [sampler.sample_surviving_edges() for _ in range(5)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_block_edges_rejects_position(self, graph, bad):
        sampler = ICSampler(graph, rng=9)
        with pytest.raises(ValueError, match=r"edge position .* \[0, 4\)"):
            sampler.block_edges([0, bad])
        assert np.array_equal(sampler._peff, sampler.csr.probs)
