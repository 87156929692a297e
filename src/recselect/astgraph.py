"""Structural metrics of a source file's abstract syntax tree.

The AST is viewed as an undirected simple graph whose vertices are AST nodes
and whose edges link each node to its children. That graph is a tree, so
edge_count = node_count - 1, avg_degree = 2 (n - 1) / n, and transitivity and
average clustering are 0.0 (a tree has no triangles). Depth counts edges
along the longest root-to-leaf path, so a lone root has depth 0.

Nodes are counted per occurrence, not per object identity: the parser interns
expression-context instances (one shared Load for every read), and keying on
identity would merge those leaves and destroy the tree shape.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .errors import SourceMetricError

AST_METRIC_NAMES = (
    "ast_node_count",
    "ast_edge_count",
    "ast_avg_degree",
    "ast_max_degree",
    "ast_transitivity",
    "ast_avg_clustering",
    "ast_depth",
)


@dataclass(frozen=True)
class AstGraphMetrics:
    ast_node_count: int
    ast_edge_count: int
    ast_avg_degree: float
    ast_max_degree: int
    ast_transitivity: float
    ast_avg_clustering: float
    ast_depth: int

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in AST_METRIC_NAMES}


def build_ast_graph(source: str, filename: str = "<source>") -> AstGraphMetrics:
    """All seven metrics from one iterative pass over the parsed tree."""
    try:
        tree = ast.parse(source, filename=filename)
    except (SyntaxError, ValueError) as exc:
        raise SourceMetricError(f"{filename}: cannot parse: {exc}") from exc

    n, max_degree, deepest = 1, 0, 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        children = list(ast.iter_child_nodes(node))
        n += len(children)
        max_degree = max(max_degree, len(children) + (depth > 0))  # the parent edge, except at the root
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in children)
    return AstGraphMetrics(
        ast_node_count=n,
        ast_edge_count=n - 1,
        ast_avg_degree=2.0 * (n - 1) / n,
        ast_max_degree=max_degree,
        ast_transitivity=0.0,
        ast_avg_clustering=0.0,
        ast_depth=deepest,
    )


def analyze_ast_file(path: str) -> AstGraphMetrics:
    with open(path, encoding="utf-8") as fh:
        return build_ast_graph(fh.read(), filename=path)
