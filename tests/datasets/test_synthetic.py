"""Unit tests for the calibrated synthetic dataset proxies."""

import hashlib
import json
import random

import pytest

from repro.datasets.registry import get_dataset
from repro.datasets.synthetic import (
    _adjust_edge_count,
    synthesize_dataset,
    synthesize_sample,
)
from repro.errors import DatasetError
from repro.graph import generators
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


#: sha256 edge digests of each seeded generator, as ``(generator name,
#: positional arguments, seed) -> (edge count, digest)``, pinned from the
#: implementation that built every graph by one ``Graph.add_edge`` call
#: per edge: building from plain adjacency sets must draw the same edges.
GENERATOR_DIGESTS = {
    ("gnm_random_graph", (50, 120), 1):
        (120, "cc1f10a17bc2656f7a850784bf2ea26e132137d927c41b74ca17c3624f6da1d9"),
    ("gnm_random_graph", (500, 1500), 2):
        (1500, "bd15bb48b7b2a48fc946540046d0f6c49fda8f84a15526dacff8384656391122"),
    ("gnm_random_graph", (2000, 4000), 3):
        (4000, "07d6a70958eacb6813924266792f1d109fdc239e5b2d76fea9b24524dbf085c7"),
    ("powerlaw_cluster_graph", (60, 3, 0.85), 1):
        (168, "8ea82908ecec899b2a06cae3621b66ac0f481e79e86ec0a754e1c94822a76562"),
    ("powerlaw_cluster_graph", (500, 4, 0.5), 2):
        (1983, "d7963aad098b78f9cf634b3e9b6c04efb82edf6275a67f0914ce08495382fe90"),
    ("powerlaw_cluster_graph", (2000, 2, 0.85), 3):
        (3996, "fe0316d2122548422fe8a5c38a2627d03bd3b1edda023679784cfdd6926f5f5a"),
    ("barabasi_albert_graph", (60, 2), 1):
        (116, "f221914ea7ad499f2eb843bbf2a04d35b1a178fbcd8160d52c458121fd986478"),
    ("barabasi_albert_graph", (500, 3), 2):
        (1491, "c7bfd74b5b71d35e1780d18be36d2fc7361f9da86356ff915fe0d8ce281a5233"),
    ("barabasi_albert_graph", (2000, 5), 3):
        (9975, "0ec485168f417f105b5f61dcbb6c52092ff25898123140cc7357e7b2ebdb02d0"),
    ("watts_strogatz_graph", (40, 4, 0.1), 1):
        (80, "d23b062ef89340a859d0a703d3721a932525927e014b2e3cf3963cb28e722ea4"),
    ("watts_strogatz_graph", (300, 6, 0.3), 2):
        (900, "24a4406008db109aff6a0401fdd1f4ec19009a8540d783f58ac110231fef0a13"),
    ("watts_strogatz_graph", (1000, 4, 0.05), 3):
        (2000, "2089ce319dacfa0ffb4cbd67420f8b36e4a901a37cb44e42135b8207a863bd4f"),
    ("erdos_renyi_graph", (40, 0.1), 1):
        (81, "ea0a45bfe20281281496ca190f51977b6bbf0ce6c3979254c5fd52eb497c77bd"),
    ("erdos_renyi_graph", (200, 0.05), 2):
        (996, "53ad5e8c979f939139f7c74de6df70f80c1b109aefaa8ec2f6ead63bab426275"),
    ("erdos_renyi_graph", (600, 0.01), 3):
        (1852, "bcc2d0fbb9417e8e87e058c6fc7f8ec34014378756f30f42d325fff64002409e"),
}

#: ``synthesize_dataset(name, num_nodes=size, seed=4)`` -> (edges, digest),
#: both generator families.
DATASET_DIGESTS = {
    ("gnutella", 300):
        (1110, "e85185a02e2b19179bc643c92a01659f44d848141dd7d846da90e38cdf2ad264"),
    ("epinions", 2000):
        (12700, "e328d263d706673fc01dcad96551f8786d20ea5c40ececbf1652c4fc88505920"),
    ("google", 400):
        (2320, "935ae74fad3e6ad208893411ae81864310c1277c9db1299ec80f975dafb34b07"),
    ("acm", 2000):
        (3970, "9a5ac44e153c606f1979c8d609d4c80a5e5d8e386c5f5468493d1f72ea9cfdf9"),
}


def _digest(graph):
    return hashlib.sha256(json.dumps(graph.edge_list()).encode()).hexdigest()


@pytest.mark.parametrize("name,size", sorted(SAMPLE_DIGESTS))
def test_sample_edges_are_pinned(name, size):
    assert _digest(synthesize_sample(name, size, seed=0)) == SAMPLE_DIGESTS[(name, size)]


@pytest.mark.parametrize("key", sorted(GENERATOR_DIGESTS, key=repr), ids=repr)
def test_generator_edges_are_pinned(key):
    name, args, seed = key
    graph = getattr(generators, name)(*args, seed=seed)
    assert (graph.num_edges, _digest(graph)) == GENERATOR_DIGESTS[key]


@pytest.mark.parametrize("name,size", sorted(DATASET_DIGESTS))
def test_dataset_edges_are_pinned(name, size):
    graph = synthesize_dataset(name, num_nodes=size, seed=4)
    assert (graph.num_edges, _digest(graph)) == DATASET_DIGESTS[(name, size)]


@pytest.mark.parametrize("name,size,attachment,drawn,target,drawn_digest", [
    # Trimming: the generator overshoots the Table-scale target.
    ("acm", 10000, 2, 19995, 19850,
     "3cc63647fccabc4f43bccbe79a512defb65acb981f878f971aa9787aed39073e"),
    # Padding: it falls short.
    ("google", 1000, 6, 5960, 6445,
     "65764b264b1bbda98b75051c832c658c49d15621e00a863e8eece7621c1db646"),
])
def test_edge_count_adjustment_is_pinned(name, size, attachment, drawn, target,
                                         drawn_digest):
    rng = random.Random(0)
    graph = generators.powerlaw_cluster_graph(size, attachment, 0.85, seed=rng)
    assert (graph.num_edges, _digest(graph)) == (drawn, drawn_digest)
    adjusted = _adjust_edge_count(graph, target, rng)
    assert adjusted.num_edges == target
    assert _digest(adjusted) == SAMPLE_DIGESTS[(name, size)]


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
