"""Unit tests for the calibrated synthetic dataset proxies."""

import hashlib
import json

import pytest

from repro.datasets.registry import get_dataset
from repro.datasets.synthetic import synthesize_dataset, synthesize_sample
from repro.errors import DatasetError
from repro.graph.properties import average_clustering_coefficient


class TestSynthesizeSample:
    @pytest.mark.parametrize("name,size", [
        ("google", 100), ("enron", 100), ("gnutella", 100),
        ("epinions", 100), ("wikipedia", 100)])
    def test_matches_table3_node_and_edge_counts(self, name, size):
        spec = get_dataset(name).sample_spec(size)
        graph = synthesize_sample(name, size, seed=0)
        assert graph.num_vertices == size
        assert graph.num_edges == spec.links

    def test_unreported_size_scales_density(self):
        graph = synthesize_sample("gnutella", 60, seed=0)
        assert graph.num_vertices == 60
        assert graph.num_edges >= 59  # at least tree density

    def test_clustered_family_is_more_clustered_than_sparse_family(self):
        clustered = synthesize_sample("google", 100, seed=0)
        sparse = synthesize_sample("gnutella", 100, seed=0)
        assert (average_clustering_coefficient(clustered)
                > average_clustering_coefficient(sparse))

    def test_seed_reproducibility(self):
        assert synthesize_sample("enron", 100, seed=5) == synthesize_sample("enron", 100, seed=5)

    def test_different_seeds_differ(self):
        assert synthesize_sample("enron", 100, seed=1) != synthesize_sample("enron", 100, seed=2)

    def test_too_small_size_rejected(self):
        with pytest.raises(DatasetError):
            synthesize_sample("google", 1)

    def test_acm_clustered_heavy_tail_family(self):
        graph = synthesize_sample("acm", 120, seed=0)
        assert graph.num_vertices == 120
        # Co-authorship proxies stay sparse but clustered, with a few
        # high-degree "prolific author" hubs.
        assert average_clustering_coefficient(graph) > 0.05
        degrees = sorted(graph.degrees(), reverse=True)
        assert degrees[0] >= 2 * (2 * graph.num_edges / graph.num_vertices)


#: sha256 of ``json.dumps(synthesize_sample(name, size, seed=0).edge_list())``,
#: pinned from the implementation that re-listed the edges after every
#: trimmed edge; trimming from one list must draw the same edges.
SAMPLE_DIGESTS = {
    ("acm", 10000): "426bcd3f0853782d0c988863ae960058f61cbd7f8964ed4fe74419440f5459b6",
    ("acm", 1000): "240d92f85d34ddbdcc4cc23df35ad8c08e47f184fb0c4e8fbd8ec9981a1a224f",
    ("google", 1000): "c7dc31724ce7d2d8a9bb6196d94098badacad7216fd8e625f5f92cc9358dc100",
    ("enron", 100): "d64a041dc2fdbc85cbad17948e0bfc46c56f6be597dc8db1d9b661758d41067e",
    ("gnutella", 5000): "863aa6efb36410b35b79b261f7eff6ca908a7004d975850a524d3d283907caf9",
    ("wikipedia", 25): "ee4f286bbe9f273ea9f2fb73810306a6dfe2f7e32994e246bda4da080121665a",
    ("epinions", 500): "91c713778b584fdcef03e94134778d8e061f85aabe595ad4ad9e24c7d03f6202",
}


@pytest.mark.parametrize("name,size", sorted(SAMPLE_DIGESTS))
def test_sample_edges_are_pinned(name, size):
    edges = synthesize_sample(name, size, seed=0).edge_list()
    digest = hashlib.sha256(json.dumps(edges).encode()).hexdigest()
    assert digest == SAMPLE_DIGESTS[(name, size)]


class TestSynthesizeDataset:
    def test_default_size(self):
        graph = synthesize_dataset("gnutella", seed=0)
        assert graph.num_vertices == 2000

    def test_explicit_size_and_density(self):
        graph = synthesize_dataset("gnutella", num_nodes=300, seed=0)
        spec = get_dataset("gnutella")
        assert graph.num_vertices == 300
        expected_edges = int(spec.average_degree * 300 / 2)
        assert abs(graph.num_edges - expected_edges) <= expected_edges * 0.05 + 2
