"""AST-as-graph metrics checked against tiny trees counted by hand.

The library counts the tree in one pass; networkx on an explicit parent-child
graph, built here, is the oracle for all seven metrics.
"""

import ast

import networkx as nx
import pytest

from recselect.astgraph import AST_METRIC_NAMES, build_ast_graph
from recselect.errors import SourceMetricError
from recselect.recommenders import AVAILABLE_ALGORITHMS, algorithm_source_path


def ast_to_graph(tree: ast.AST) -> nx.Graph:
    """Undirected parent-child graph with one integer label per node occurrence."""
    graph = nx.Graph()
    graph.add_node(0)
    stack = [(tree, 0)]
    next_label = 1
    while stack:
        node, parent_label = stack.pop()
        for child in ast.iter_child_nodes(node):
            label = next_label
            next_label += 1
            graph.add_edge(parent_label, label)
            stack.append((child, label))
    return graph


def networkx_metrics(source: str) -> dict:
    tree = ast.parse(source)
    graph = ast_to_graph(tree)
    n, e = graph.number_of_nodes(), graph.number_of_edges()
    return {
        "ast_node_count": n,
        "ast_edge_count": e,
        "ast_avg_degree": 2.0 * e / n,
        "ast_max_degree": max(d for _, d in graph.degree),
        "ast_transitivity": float(nx.transitivity(graph)),
        "ast_avg_clustering": float(nx.average_clustering(graph)),
        "ast_depth": max(nx.shortest_path_length(graph, 0).values()),
    }


class TestGraphConstruction:
    def test_single_name_expression_is_a_path(self):
        # Module - Expr - Name - Load
        metrics = build_ast_graph("x")
        assert metrics.ast_node_count == 4
        assert metrics.ast_edge_count == 3
        assert metrics.ast_depth == 3
        assert metrics.ast_max_degree == 2
        assert metrics.ast_avg_degree == pytest.approx(1.5)

    def test_constant_expression(self):
        # Module - Expr - Constant
        metrics = build_ast_graph("1")
        assert metrics.ast_node_count == 3
        assert metrics.ast_edge_count == 2
        assert metrics.ast_depth == 2

    def test_two_statements_make_a_star(self):
        metrics = build_ast_graph("pass\npass")
        assert metrics.ast_node_count == 3
        assert metrics.ast_edge_count == 2
        assert metrics.ast_depth == 1
        assert metrics.ast_max_degree == 2
        assert metrics.ast_avg_degree == pytest.approx(4 / 3)

    def test_lone_root_has_depth_zero(self):
        assert build_ast_graph("").ast_depth == 0

    def test_empty_module_graph(self):
        metrics = build_ast_graph("")
        assert metrics.ast_node_count == 1
        assert metrics.ast_edge_count == 0
        assert metrics.ast_avg_degree == 0.0
        assert metrics.ast_max_degree == 0
        assert metrics.ast_depth == 0

    def test_graph_is_simple_and_connected(self):
        graph = ast_to_graph(ast.parse("def f(x):\n    return x + 1\n"))
        assert isinstance(graph, nx.Graph)
        assert nx.is_connected(graph)
        assert not any(u == v for u, v in graph.edges)

    def test_unparsable_source_raises(self):
        with pytest.raises(SourceMetricError):
            build_ast_graph("def (")


class TestTreeInvariants:
    SOURCES = [
        "x",
        "x = 1\ny = x + 2\n",
        "def f(a, b):\n    if a:\n        return b\n    return [i for i in range(a)]\n",
        "class C:\n    def m(self):\n        while self.x:\n            self.x -= 1\n",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_edges_are_nodes_minus_one(self, source):
        metrics = build_ast_graph(source)
        assert metrics.ast_edge_count == metrics.ast_node_count - 1

    @pytest.mark.parametrize("source", SOURCES)
    def test_trees_have_no_triangles(self, source):
        metrics = build_ast_graph(source)
        assert metrics.ast_transitivity == 0.0
        assert metrics.ast_avg_clustering == 0.0

    @pytest.mark.parametrize("source", SOURCES)
    def test_avg_degree_is_twice_edges_over_nodes(self, source):
        metrics = build_ast_graph(source)
        want = 2.0 * metrics.ast_edge_count / metrics.ast_node_count
        assert metrics.ast_avg_degree == pytest.approx(want)

    def test_depth_grows_with_nesting(self):
        flat = build_ast_graph("x = 1")
        nested = build_ast_graph("def f():\n    def g():\n        return (1 + 2) * 3\n")
        assert nested.ast_depth > flat.ast_depth

    @pytest.mark.parametrize("source", SOURCES + ["", "1", "pass\npass"])
    def test_metrics_equal_the_networkx_oracle(self, source):
        assert build_ast_graph(source).as_dict() == networkx_metrics(source)

    def test_metric_name_order(self):
        metrics = build_ast_graph("x")
        assert tuple(metrics.as_dict()) == AST_METRIC_NAMES


class TestOnShippedAlgorithms:
    def test_every_algorithm_ast_is_a_tree(self):
        from recselect.astgraph import analyze_ast_file

        for algo in AVAILABLE_ALGORITHMS:
            metrics = analyze_ast_file(algorithm_source_path(algo))
            assert metrics.ast_edge_count == metrics.ast_node_count - 1
            assert metrics.ast_transitivity == 0.0
            assert metrics.ast_depth >= 5

    def test_every_algorithm_matches_the_networkx_oracle(self):
        for algo in AVAILABLE_ALGORITHMS:
            with open(algorithm_source_path(algo), encoding="utf-8") as fh:
                source = fh.read()
            assert build_ast_graph(source).as_dict() == networkx_metrics(source)
