"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.pair_types import DegreePairTyping, ExplicitPairTyping
from repro.graph.distance_store import StoreConfig
from repro.graph.graph import Graph


@st.composite
def graphs(draw, min_vertices: int = 2, max_vertices: int = 12,
           edge_probability: float = 0.35) -> Graph:
    """Random simple graphs with a bounded number of vertices.

    Every possible edge is included independently, so the strategy covers
    empty graphs, sparse graphs, and (rarely) near-complete graphs.
    """
    num_vertices = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    edges = []
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if draw(st.booleans() if edge_probability == 0.5
                    else st.floats(min_value=0.0, max_value=1.0)) < edge_probability:
                edges.append((u, v))
    return Graph(num_vertices, edges=edges)


@st.composite
def graphs_with_edge(draw, **kwargs):
    """Random graphs guaranteed to contain at least one edge, plus one of its edges."""
    graph = draw(graphs(**kwargs))
    if graph.num_edges == 0:
        graph.add_edge(0, 1)
    edges = graph.edge_list()
    index = draw(st.integers(min_value=0, max_value=len(edges) - 1))
    return graph, edges[index]


@st.composite
def edit_scripts(draw, max_edits: int = 8):
    """A graph plus a feasible sequence of alternating random edits.

    Each entry is ``("remove" | "insert", edge)``; feasibility (edges exist /
    are absent at that point) is guaranteed by replaying the script while it
    is generated.
    """
    graph = draw(graphs(max_vertices=10))
    working = graph.copy()
    script = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edits))):
        edges = working.edge_list()
        non_edges = sorted(working.non_edges())
        choices = []
        if edges:
            choices.append("remove")
        if non_edges:
            choices.append("insert")
        if not choices:
            break
        kind = draw(st.sampled_from(choices))
        pool = edges if kind == "remove" else non_edges
        edge = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        if kind == "remove":
            working.remove_edge(*edge)
        else:
            working.add_edge(*edge)
        script.append((kind, edge))
    return graph, script


@st.composite
def combined_edit_scripts(draw, max_edits: int = 4, max_ops: int = 3):
    """A graph plus a feasible sequence of combined edits.

    Each entry is ``(removals, insertions)`` with 1 to ``max_ops`` ops in
    all: present edges to remove, then edges absent once those are gone
    to insert, the order in which one edit applies them.  Feasibility is
    guaranteed by replaying the script while it is generated.
    """
    graph = draw(graphs())
    working = graph.copy()
    script = []

    def distinct(pool, count):
        if count == 0:
            return []
        return draw(st.lists(st.sampled_from(pool), unique=True,
                             min_size=count, max_size=count))

    for _ in range(draw(st.integers(min_value=0, max_value=max_edits))):
        ops = draw(st.integers(min_value=1, max_value=max_ops))
        removals = distinct(working.edge_list(), draw(st.integers(
            min_value=0, max_value=min(ops, working.num_edges))))
        working.edit(removals, ())
        non_edges = sorted(working.non_edges())
        insertions = distinct(non_edges,
                              min(ops - len(removals), len(non_edges)))
        working.edit((), insertions)
        if removals or insertions:
            script.append((removals, insertions))
    return graph, script


@st.composite
def typings(draw, graph: Graph):
    """The degree-pair typing, or a random explicit typing of some pairs."""
    if draw(st.booleans()):
        return DegreePairTyping(graph)
    labels = st.sampled_from([None, "a", "b", "c"])
    assignment = {}
    for u in range(graph.num_vertices):
        for v in range(u + 1, graph.num_vertices):
            label = draw(labels)
            if label is not None:
                assignment[(u, v)] = label
    return ExplicitPairTyping(assignment)


length_bounds = st.integers(min_value=1, max_value=4)
thetas = st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9, 1.0])

#: The scale budget that picks each L = 2 state representation: the
#: default budget holds the triu planes of any test graph, and one byte
#: holds none of a graph with two or more vertices, which keeps the sorted
#: codes.
TWO_HOP_BUDGETS = {"plane": None, "sorted": 1}


def two_hop_config(state: str):
    """The ``store_config`` of an L = 2 session on representation ``state``."""
    budget = TWO_HOP_BUDGETS[state]
    return None if budget is None else StoreConfig(budget_bytes=budget)


@st.composite
def combination_levels(draw):
    """A graph, a typing, and one batch of candidate rows over its pairs.

    ``endpoints`` lists the graph's edges, then its non-edges.  Each row of
    ``members`` names one candidate by endpoint index, and ``gained``
    holds one insertion flag per column: a flagged column draws from the
    non-edges, the others from the edges.  The flags are all removals or
    all insertions — a look-ahead level, rows sorted as
    ``search_best_combination`` draws them — or mixed, swap-like rows of
    up to four members whose first insertion may share the type of their
    first removal, so the type nets to zero.  ``edits`` is a ragged
    ``evaluate_edits`` list over the same rows: each cut to a random
    prefix, with empty edits ``((), ())`` among them.
    """
    graph = draw(graphs(max_vertices=9))
    typing = draw(typings(graph))
    edges = graph.edge_list()
    endpoints = np.array(edges + sorted(graph.non_edges()),
                         dtype=np.int64).reshape(-1, 2)
    shape = draw(st.sampled_from(["remove", "insert", "mixed", "mixed"]))
    if shape == "mixed":
        # Up to a GADES swap's width, with a removal and an insertion.
        size = draw(st.integers(min_value=2, max_value=4))
        flags = draw(st.permutations([False, True] + draw(st.lists(
            st.booleans(), min_size=size - 2, max_size=size - 2))))
    else:
        size = draw(st.integers(min_value=1, max_value=3))
        flags = [shape == "insert"] * size
    pools = {False: range(len(edges)), True: range(len(edges), len(endpoints))}
    columns = {flag: [column for column in range(size) if flags[column] == flag]
               for flag in (False, True)}
    rows = []
    if all(len(columns[flag]) <= len(pools[flag]) for flag in (False, True)):
        for _ in range(draw(st.integers(min_value=0, max_value=15))):
            row = [0] * size
            for flag in (False, True):
                picked = draw(st.permutations(pools[flag]))[:len(columns[flag])]
                if shape != "mixed":
                    picked = sorted(picked)
                for column, member in zip(columns[flag], picked):
                    row[column] = member
            if columns[False] and columns[True] and draw(st.booleans()):
                removed = typing.type_of(*endpoints[row[columns[False][0]]])
                same = [member for member in pools[True] if member not in row
                        and typing.type_of(*endpoints[member]) == removed]
                if same:
                    row[columns[True][0]] = draw(st.sampled_from(same))
            rows.append(row)
    members = np.array(rows, dtype=np.int64).reshape(len(rows), size)
    edits = []
    for row in rows:
        if draw(st.booleans()):
            edits.append(((), ()))
        cut = draw(st.integers(min_value=0, max_value=size))
        kept = list(zip(row[:cut], flags[:cut]))
        edits.append(
            (tuple(tuple(endpoints[j].tolist()) for j, flag in kept if not flag),
             tuple(tuple(endpoints[j].tolist()) for j, flag in kept if flag)))
    return graph, typing, np.array(flags), endpoints, members, edits


@st.composite
def messy_levels(draw, broken: bool = False):
    """A level whose rows may hold invalid or self-cancelling members.

    Members draw from a handful of cells with a random insertion flag
    each.  The cells are pairs of the graph (edges and non-edges, in
    either orientation), so removals of absent edges, insertions of
    present ones, repeats within a row and a removal re-inserted by the
    same row (valid: it nets to nothing) all occur.  With ``broken`` some
    cells are self-loops or name a vertex outside ``0 .. n - 1``.
    """
    graph = draw(graphs(min_vertices=2, max_vertices=8))
    typing = draw(typings(graph))
    n = graph.num_vertices
    cell = st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)])
    if broken:
        vertex = st.integers(min_value=0, max_value=n - 1)
        cell = st.one_of(cell, cell, vertex.map(lambda v: (v, v)),
                         st.tuples(st.sampled_from([-1, n, n + 2]), vertex))
    # A handful of cells, so rows often repeat one.
    cells = draw(st.lists(cell, min_size=1, max_size=6, unique=True))
    endpoints = np.array([draw(st.sampled_from([pair, pair[::-1]]))
                          for pair in cells], dtype=np.int64).reshape(-1, 2)
    width = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=6))
    member = st.integers(min_value=-1, max_value=len(cells) - 1)
    members = np.array(draw(st.lists(st.lists(member, min_size=width,
                                              max_size=width),
                                     min_size=count, max_size=count)),
                       dtype=np.int64).reshape(count, width)
    gained = np.array(draw(st.lists(st.lists(st.booleans(), min_size=width,
                                             max_size=width),
                                    min_size=count, max_size=count)),
                      dtype=bool).reshape(count, width)
    return graph, typing, endpoints, members, gained
