"""The query graph's bit index against the brute-force definitions.

``QueryGraph.connected_partitions`` replaces a walk over all 2ⁿ−2 frozenset
partitions that BFS-checked both sides each time.  The reference versions
of that walk live here, written the slow obvious way, and the indexed
answers must equal them element for element and in order — the order is
what keeps rule application, tie-breaks and the emitted DAG unchanged.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.catalog.schema import Attribute
from repro.errors import OptimizationError
from repro.logical.predicates import JoinPredicate
from repro.logical.query import QueryGraph, enumerate_partitions

SHAPES = ("chain", "star", "cycle", "clique", "two_components")


def _edges(shape: str, n: int) -> list[tuple[int, int]]:
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "cycle":
        return [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    if shape == "clique":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Two chains with no predicate between them.
    half = n // 2
    return [(i, i + 1) for i in range(n - 1) if i + 1 != half]


def random_graph(shape: str, seed: int) -> QueryGraph:
    """A seeded query graph of the given shape over 2..8 relations.

    Relation names are shuffled so declaration order, sorted order and the
    shape's own numbering all differ; a few extra predicates (some doubling
    an existing edge) exercise multi-predicate partitions.
    """
    rng = random.Random(f"{shape}/{seed}")
    n = rng.randint(4 if shape == "two_components" else 2, 8)
    names = [f"T{i:02d}" for i in rng.sample(range(40), n)]
    edges = _edges(shape, n)
    if shape != "two_components":
        edges += [
            tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2))
        ]
    else:
        edges.append(edges[0])  # a doubled edge inside one component
    rng.shuffle(edges)
    joins = tuple(
        JoinPredicate(
            Attribute(names[a], f"x{i}", 10 + i), Attribute(names[b], f"y{i}", 20 + i)
        )
        for i, (a, b) in enumerate(edges)
    )
    return QueryGraph(relations=tuple(names), joins=joins)


# ----------------------------------------------------------------------
# Reference definitions (deliberately naive)
# ----------------------------------------------------------------------
def ref_joins_within(graph, subset):
    return [
        j
        for j in graph.joins
        if j.left.relation in subset and j.right.relation in subset
    ]


def ref_joins_between(graph, left, right):
    return [
        j
        for j in graph.joins
        if (j.left.relation in left and j.right.relation in right)
        or (j.left.relation in right and j.right.relation in left)
    ]


def ref_is_connected(graph, subset):
    if len(subset) <= 1:
        return True
    start = min(subset)
    seen, frontier = {start}, [start]
    within = ref_joins_within(graph, subset)
    while frontier:
        node = frontier.pop()
        for join in within:
            ends = {join.left.relation, join.right.relation}
            if node in ends:
                for other in ends - seen:
                    seen.add(other)
                    frontier.append(other)
    return seen == set(subset)


def ref_connected_partitions(graph, subset):
    return [
        (left, right, tuple(ref_joins_between(graph, left, right)))
        for left, right in enumerate_partitions(subset)
        if ref_joins_between(graph, left, right)
        and ref_is_connected(graph, left)
        and ref_is_connected(graph, right)
    ]


def ref_count_join_trees(graph):
    @functools.lru_cache(maxsize=None)
    def trees(subset):
        if len(subset) == 1:
            return 1
        return sum(
            trees(left) * trees(right)
            for left, right, _ in ref_connected_partitions(graph, subset)
        )

    return trees(frozenset(graph.relations))


def _all_subsets(graph):
    names = sorted(graph.relations)
    for mask in range(1, 1 << len(names)):
        yield frozenset(n for i, n in enumerate(names) if mask >> i & 1)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(6))
class TestAgainstBruteForce:
    def test_connected_partitions_equal_in_order(self, shape, seed):
        graph = random_graph(shape, seed)
        for subset in _all_subsets(graph):
            assert graph.connected_partitions(subset) == ref_connected_partitions(
                graph, subset
            ), sorted(subset)

    def test_is_connected_and_joins_within(self, shape, seed):
        graph = random_graph(shape, seed)
        for subset in _all_subsets(graph):
            assert graph.is_connected(subset) == ref_is_connected(graph, subset)
            assert graph.joins_within(subset) == ref_joins_within(graph, subset)

    def test_joins_between_every_partition(self, shape, seed):
        graph = random_graph(shape, seed)
        for left, right in enumerate_partitions(graph.relation_set):
            assert graph.joins_between(left, right) == ref_joins_between(
                graph, left, right
            )

    def test_count_join_trees(self, shape, seed):
        graph = random_graph(shape, seed)
        assert graph.count_join_trees() == ref_count_join_trees(graph)


class TestShapes:
    def test_two_components_have_no_connected_root_partition(self):
        graph = random_graph("two_components", 0)
        assert not graph.is_connected(graph.relation_set)
        assert graph.connected_partitions(graph.relation_set) == []
        assert graph.count_join_trees() == 0

    def test_chain_root_has_one_split_per_edge_each_way(self):
        names = tuple(f"R{i}" for i in range(6))
        joins = tuple(
            JoinPredicate(Attribute(a, "k", 10), Attribute(b, "j", 10))
            for a, b in zip(names, names[1:])
        )
        graph = QueryGraph(relations=names, joins=joins)
        partitions = graph.connected_partitions(graph.relation_set)
        assert len(partitions) == 2 * (len(names) - 1)
        assert {(r, l) for l, r, _ in partitions} == {(l, r) for l, r, _ in partitions}

    def test_chain_enumerates_connected_sets_only(self):
        # Output-sensitive: a 6-chain has 21 connected sets of 63 sub-masks.
        names = tuple(f"R{i}" for i in range(6))
        joins = tuple(
            JoinPredicate(Attribute(a, "k", 10), Attribute(b, "j", 10))
            for a, b in zip(names, names[1:])
        )
        index = QueryGraph(relations=names, joins=joins)._index
        found = index.connected_submasks(0b111111)
        assert len(found) == len(set(found)) == 21
        assert all(index.is_connected(mask) for mask in found)

    def test_unknown_relation_is_a_typed_error(self):
        graph = random_graph("chain", 0)
        with pytest.raises(OptimizationError, match="NOPE"):
            graph.is_connected(frozenset({"NOPE"}))

    def test_predicate_relations_computed_once(self):
        join = JoinPredicate(Attribute("A", "x", 5), Attribute("B", "y", 5))
        assert join.relations == frozenset({"A", "B"})
        assert join.relations is join.relations
        # Derived, so equality and hashing still see only the two sides.
        again = JoinPredicate(Attribute("A", "x", 5), Attribute("B", "y", 5))
        assert join == again and hash(join) == hash(again)
