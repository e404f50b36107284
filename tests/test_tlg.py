"""Unit tests for the time-lines graph model."""

import hashlib
import itertools
import sys
import threading
import tracemalloc

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from newcomb import (
    GAME_UNFOLD,
    EventKind,
    EventNode,
    GraphStructureError,
    Player,
    TLGraph,
    UnfoldSpec,
    UnsupportedGraphError,
    ValidationError,
    base_chain,
    detect_twist,
    entanglement_closure,
    game_graph,
    is_chain,
    player_timeline,
    to_dot,
    unfold,
    validate_linearity,
)
from newcomb.tlg import MAX_TWISTS

GAME_EDGES = {(1, 2), (2, 3), (3, 4), (3, 5), (5, 2), (2, 6), (6, 7)}


def brute_force_closure(graph):
    """Independent oracle: iterate the transmission rule over all pairs.

    It starts from the graph's classes plus a singleton for each node in
    no class, and returns the classes of two or more members.
    """
    classes = [set(c) for c in graph.entanglement]
    classes += [{n.id} for n in graph.nodes if not any(n.id in c for c in classes)]

    def find(x):
        for idx, cls in enumerate(classes):
            if x in cls:
                return idx
        raise AssertionError(f"{x} not in partition")

    ids = [n.id for n in graph.nodes]
    changed = True
    while changed:
        changed = False
        for a in ids:
            for b in ids:
                if a == b or find(a) != find(b):
                    continue
                for c in graph.successors(a):
                    for d in graph.successors(b):
                        if c == d or graph.node(c).kind is not graph.node(d).kind:
                            continue
                        ci, di = find(c), find(d)
                        if ci != di:
                            classes[ci] |= classes[di]
                            del classes[di]
                            changed = True
    return {frozenset(c) for c in classes if len(c) > 1}


# ── base_chain ─────────────────────────────────────────────────────


def test_base_chain_game_preset():
    chain = base_chain(4)
    assert [n.id for n in chain.nodes] == [1, 2, 3, 4]
    assert set(chain.edges) == {(1, 2), (2, 3), (3, 4)}
    assert [n.kind for n in chain.nodes] == [
        EventKind.ORACLE_START,
        EventKind.S_CHOICE,
        EventKind.C_CHOICE,
        EventKind.OUTCOME,
    ]
    assert chain.entanglement == ()


def test_base_chain_holds_no_entanglement_class():
    for n in (1, 2, 4, 9):
        assert base_chain(n).entanglement == ()


def test_nontrivial_classes_is_the_entanglement_the_bench_reads():
    # an alias kept only for the benchmark's checks and layer metrics
    for g in (base_chain(4), unfold(base_chain(4), GAME_UNFOLD)):
        assert g.nontrivial_classes is g.entanglement


def test_base_chain_single_node():
    chain = base_chain(1)
    assert len(chain.nodes) == 1
    assert chain.edges == frozenset()


def test_base_chain_three_nodes_is_generic():
    chain = base_chain(3)
    assert set(chain.edges) == {(1, 2), (2, 3)}
    assert all(n.kind is EventKind.GENERIC for n in chain.nodes)


@pytest.mark.parametrize(
    "bad", [0, -1, 2.5, "3", 2**16 + 1, 2**63, pytest.param(10**5000, id="10**5000"), True, 4.0]
)
def test_base_chain_rejects_bad_length(bad):
    # lengths 1 and 4 cached: a lookup by key alone would take True and 4.0
    base_chain(1), base_chain(4)
    with pytest.raises(ValidationError):
        base_chain(bad)


def test_base_chain_shares_one_graph_per_length():
    for n in (1, 4, 40):
        chain = base_chain(n)
        assert base_chain(n) is chain
        _assert_equals_checked_rebuild(chain)


def test_cached_chains_hold_at_most_max_chain_length_nodes(monkeypatch):
    import newcomb.tlg as tlg_module

    monkeypatch.setattr(tlg_module, "_chains", {})
    monkeypatch.setattr(tlg_module, "MAX_CHAIN_LENGTH", 10)
    cached = tlg_module._chains
    # after each call: the cached lengths, least recently used first
    for n, lengths in [(4, [4]), (5, [4, 5]), (4, [5, 4]), (3, [4, 3]), (2, [4, 3, 2]),
                       (1, [4, 3, 2, 1]), (6, [2, 1, 6]), (10, [10]), (1, [1])]:
        chain = base_chain(n)
        assert list(cached) == lengths and cached[n] is chain and len(chain.nodes) == n
        assert sum(len(g.nodes) for g in cached.values()) <= 10
    with pytest.raises(ValidationError):
        base_chain(11)


def test_base_chain_from_many_threads(monkeypatch):
    # a small bound, so that the threads evict each other's chains all the time
    import newcomb.tlg as tlg_module

    monkeypatch.setattr(tlg_module, "_chains", {})
    monkeypatch.setattr(tlg_module, "MAX_CHAIN_LENGTH", 12)
    expected = {n: TLGraph.build(base_chain(n).nodes, base_chain(n).edges) for n in range(1, 9)}
    errors, wrong = [], []

    def work(offset):
        try:
            for i in range(10000):
                n = 1 + (i * 3 + offset) % 8
                if base_chain(n) != expected[n]:
                    wrong.append(n)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
    assert sum(len(g.nodes) for g in tlg_module._chains.values()) <= 12


# ── unfold ─────────────────────────────────────────────────────────


def test_unfold_game_preset_structure():
    g = unfold(base_chain(4), GAME_UNFOLD)
    assert {n.id for n in g.nodes} == {1, 2, 3, 4, 5, 6, 7}
    assert set(g.edges) == GAME_EDGES
    assert {frozenset(c) for c in g.entanglement} == {
        frozenset({3, 6}),
        frozenset({4, 7}),
    }
    assert g.node(5).kind is EventKind.ELABORATION
    assert g.node(6).copy_of == 3 and g.node(6).kind is EventKind.C_CHOICE
    assert g.node(7).copy_of == 4 and g.node(7).kind is EventKind.OUTCOME


def test_unfold_smallest_legal_case():
    g = unfold(base_chain(2), UnfoldSpec(n=2, k=1, m=2))
    assert {n.id for n in g.nodes} == {1, 2, 3, 4}
    assert set(g.edges) == {(1, 2), (2, 3), (3, 1), (1, 4)}
    assert {frozenset(c) for c in g.entanglement} == {frozenset({2, 4})}
    assert g.node(3).kind is EventKind.ELABORATION
    assert g.node(4).copy_of == 2


def test_unfold_copies_every_event_after_the_delivery_point():
    g = unfold(base_chain(4), UnfoldSpec(n=4, k=1, m=4))
    assert len(g.nodes) == 8
    assert {frozenset(c) for c in g.entanglement} == {
        frozenset({2, 6}),
        frozenset({3, 7}),
        frozenset({4, 8}),
    }
    assert set(g.edges) == {
        (1, 2), (2, 3), (3, 4),  # original chain
        (4, 5), (5, 1),          # oracle detour
        (1, 6), (6, 7), (7, 8),  # copied branch
    }


def test_unfold_classes_are_exactly_its_copy_pairs():
    # the pairs (j, copy of j), sorted by their least member, and nothing else
    for n, k, m in [(2, 1, 2), (4, 2, 3), (4, 1, 4), (9, 4, 7)]:
        g = unfold(base_chain(n), UnfoldSpec(n, k, m))
        assert g.entanglement == tuple(frozenset({j, n + 1 + j - k}) for j in range(k + 1, n + 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_unfold_node_and_edge_counts(data):
    n = data.draw(st.integers(2, 25))
    k = data.draw(st.integers(1, n - 1))
    m = data.draw(st.integers(k + 1, n))
    g = unfold(base_chain(n), UnfoldSpec(n=n, k=k, m=m))
    assert len(g.nodes) == 2 * n - k + 1
    assert len(g.edges) == 2 * n - k + 1
    # copies pair off with their originals and nothing else
    assert {frozenset(c) for c in g.entanglement} == {
        frozenset({j, n + 1 + (j - k)}) for j in range(k + 1, n + 1)
    }


@pytest.mark.parametrize("n, k, m", [(4, 2, 2), (4, 3, 2), (4, 0, 3), (4, 2, 5)])
def test_unfold_spec_rejects_bad_indices(n, k, m):
    with pytest.raises(ValidationError):
        UnfoldSpec(n=n, k=k, m=m)


def test_unfold_rejects_non_chain_input():
    events = [EventNode(i, EventKind.GENERIC) for i in range(1, 5)]
    shuffled = TLGraph.build(events, [(1, 3), (3, 2), (2, 4)])
    with pytest.raises(GraphStructureError, match="input graph is not a chain"):
        unfold(shuffled, UnfoldSpec(4, 2, 3))
    # every chain edge, and one more
    with_a_shortcut = TLGraph.build(events, [(1, 2), (2, 3), (3, 4), (1, 3)])
    with pytest.raises(GraphStructureError, match="input graph is not a chain"):
        unfold(with_a_shortcut, UnfoldSpec(4, 2, 3))
    # the right edges, but node 4 is a copy of node 3
    holding_a_copy = TLGraph.build([*events[:3], EventNode(4, EventKind.GENERIC, 3)], [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(GraphStructureError, match=r"expected the original events 1\.\.4, with no copy"):
        unfold(holding_a_copy, UnfoldSpec(4, 2, 3))


def test_unfold_rejects_length_mismatch():
    with pytest.raises(GraphStructureError):
        unfold(base_chain(3), GAME_UNFOLD)
    with pytest.raises(GraphStructureError):
        unfold(base_chain(4), UnfoldSpec(10**12, 2, 3))
    with pytest.raises(GraphStructureError, match="too large to show"):
        unfold(base_chain(4), UnfoldSpec(10**5000, 2, 3))


def test_unfold_rejects_pre_entangled_chain():
    tangled = TLGraph.build(
        [EventNode(1, EventKind.GENERIC), EventNode(2, EventKind.GENERIC)],
        [(1, 2)],
        [(1, 2)],
    )
    with pytest.raises(GraphStructureError):
        unfold(tangled, UnfoldSpec(n=2, k=1, m=2))


def _unfold_by_closure(chain, n, k, m):
    """unfold as the closure builds it: seed each copy with its original, then close."""
    copy = {j: n + 1 + j - k for j in range(k + 1, n + 1)}
    nodes = [
        *chain.nodes,
        EventNode(n + 1, EventKind.ELABORATION),
        *(EventNode(c, chain.node(j).kind, copy_of=j) for j, c in copy.items()),
    ]
    edges = set(chain.edges) | {(m, n + 1), (n + 1, k), (k, copy[k + 1])}
    edges |= {(copy[j], copy[j + 1]) for j in range(k + 1, n)}
    return entanglement_closure(TLGraph.build(nodes, edges, copy.items()))


def _assert_unfold_is_closed(chain, n, k, m):
    unfolded = unfold(chain, UnfoldSpec(n, k, m))
    assert entanglement_closure(unfolded) == unfolded
    assert _unfold_by_closure(chain, n, k, m) == unfolded


def test_unfold_partition_is_transmission_closed_for_every_small_spec():
    count = 0
    for n in range(2, 31):
        chain = base_chain(n)
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                _assert_unfold_is_closed(chain, n, k, m)
                count += 1
    assert count == 4495


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unfold_partition_is_transmission_closed_for_long_chains(data):
    n = data.draw(st.integers(2, 200))
    k = data.draw(st.integers(1, n - 1))
    m = data.draw(st.integers(k + 1, n))
    _assert_unfold_is_closed(base_chain(n), n, k, m)


def test_unfold_builds_one_graph_without_the_closure(monkeypatch):
    import newcomb.tlg as tlg_module

    def forbidden(*args, **kwargs):
        raise AssertionError("unfold and base_chain must not reach this")

    monkeypatch.setattr(tlg_module, "entanglement_closure", forbidden)
    monkeypatch.setattr(tlg_module, "_DisjointSet", forbidden)
    # both build valid graphs by construction: no checked constructor runs
    monkeypatch.setattr(TLGraph, "__init__", forbidden)
    monkeypatch.setattr(EventNode, "__init__", forbidden)
    built = []
    unchecked_graph = tlg_module._graph

    def counting_graph(*fields, **views):
        built.append(unchecked_graph(*fields, **views))
        return built[-1]

    monkeypatch.setattr(tlg_module, "_graph", counting_graph)
    # an empty cache: OMEGA_ORDER cached base_chain(4) at import
    monkeypatch.setattr(tlg_module, "_chains", {})
    with pytest.raises(AssertionError):
        TLGraph.build(_TWO_NODES, [])  # the patch bites on the build path
    for n, k, m in [(2, 1, 2), (4, 2, 3), (40, 9, 23)]:
        built.clear()
        chain = base_chain(n)
        assert built == [chain]
        built.clear()
        assert base_chain(n) is chain and built == []  # the second call builds nothing
        unfolded = unfold(chain, UnfoldSpec(n, k, m))
        assert len(built) == 1 and built[0] is unfolded


def _assert_equals_checked_rebuild(graph):
    """A graph built unchecked equals the checked constructor's rebuild of it."""
    rebuilt = TLGraph(nodes=graph.nodes, edges=graph.edges, entanglement=graph.entanglement)
    for field in ("nodes", "edges", "entanglement"):
        ours, theirs = getattr(graph, field), getattr(rebuilt, field)
        assert type(ours) is type(theirs) and ours == theirs
    for node in graph.nodes:
        # every field is set (an unset slot raises) to what __init__ stores
        assert node._values() == EventNode(node.id, node.kind, node.copy_of)._values()
    assert graph == rebuilt and hash(graph) == hash(rebuilt)


def test_library_graphs_equal_their_checked_rebuild_for_every_small_spec():
    count = 0
    for n in range(1, 31):
        chain = base_chain(n)
        _assert_equals_checked_rebuild(chain)
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                _assert_equals_checked_rebuild(unfold(chain, UnfoldSpec(n, k, m)))
                count += 1
    assert count == 4495  # n = 4 among them: the game's kinds and the game graph


def test_dot_bytes_of_every_unfold_up_to_n_40_are_pinned():
    digest = hashlib.sha256()
    for n in range(2, 41):
        chain = base_chain(n)
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                digest.update(to_dot(unfold(chain, UnfoldSpec(n, k, m))).encode())
    assert digest.hexdigest() == "cebdd52d740c01dea691856e9a95ea764b7563f0f8680effc99d2cb8624616bf"


_VIEWS = ("_by_id", "_successors", "_base_order")


def _assert_held_views_are_derived(g, names):
    """Each named view g holds equals, key order included, what TLGraph derives once it is popped."""
    for name in names:
        held = vars(g).pop(name)  # a KeyError if g was not handed it
        derived = getattr(g, name)
        assert held == derived and list(held) == list(derived), name


def test_unfold_hands_its_graph_the_views_it_would_derive():
    count = 0
    for n in range(2, 41):
        chain = base_chain(n)
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                _assert_held_views_are_derived(unfold(chain, UnfoldSpec(n, k, m)), _VIEWS)
                count += 1
    assert count == 10660


@pytest.mark.parametrize("n, k, m, successors", [
    # m == n: n's one successor is the elaboration 5
    (4, 2, 4, {1: (2,), 2: (3, 6), 3: (4,), 4: (5,), 5: (2,), 6: (7,), 7: ()}),
    # k = 1: event 1 fans out to 2 and its copy 6, and the detour comes back to 1
    (4, 1, 2, {1: (2, 6), 2: (3, 5), 3: (4,), 4: (), 5: (1,), 6: (7,), 7: (8,), 8: ()}),
    (5, 1, 5, {1: (2, 7), 2: (3,), 3: (4,), 4: (5,), 5: (6,), 6: (1,), 7: (8,), 8: (9,), 9: (10,), 10: ()}),
], ids=["m-is-n", "k-is-1", "k-is-1-and-m-is-n"])
def test_unfold_views_at_the_edges_of_the_spec(n, k, m, successors):
    chain = base_chain(n)
    g = unfold(chain, UnfoldSpec(n, k, m))
    assert list(vars(g)["_successors"].items()) == list(successors.items())
    assert list(vars(g)["_by_id"]) == list(successors) == [node.id for node in g.nodes]
    assert vars(g)["_base_order"] is chain._base_order  # shared, not rebuilt
    _assert_held_views_are_derived(g, _VIEWS)


# ── graph validation ───────────────────────────────────────────────


def test_graph_rejects_duplicate_ids():
    with pytest.raises(ValidationError):
        TLGraph.build(
            [EventNode(1, EventKind.GENERIC), EventNode(1, EventKind.GENERIC)], []
        )


def test_graph_rejects_unknown_edge_endpoint():
    with pytest.raises(ValidationError):
        TLGraph.build([EventNode(1, EventKind.GENERIC)], [(1, 9)])


def test_graph_rejects_self_loop():
    with pytest.raises(ValidationError):
        TLGraph.build([EventNode(1, EventKind.GENERIC)], [(1, 1)])


def test_graph_rejects_mixed_kind_entanglement():
    nodes = [EventNode(1, EventKind.GENERIC), EventNode(2, EventKind.ELABORATION)]
    with pytest.raises(ValidationError):
        TLGraph.build(nodes, [], [(1, 2)])


def test_graph_rejects_copy_of_unknown_node():
    with pytest.raises(ValidationError):
        TLGraph.build([EventNode(1, EventKind.GENERIC, copy_of=5)], [])


def test_graph_rejects_copy_with_different_kind():
    nodes = [
        EventNode(1, EventKind.GENERIC),
        EventNode(2, EventKind.ELABORATION, copy_of=1),
    ]
    with pytest.raises(ValidationError):
        TLGraph.build(nodes, [])


_TWO_NODES = [EventNode(1, EventKind.GENERIC), EventNode(2, EventKind.GENERIC)]


def _direct(edges, entanglement=()):
    return TLGraph(nodes=tuple(_TWO_NODES), edges=edges, entanglement=entanglement)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: EventNode(2, EventKind.GENERIC, copy_of=[]), id="copy_of-list"),
        pytest.param(lambda: EventNode(2, EventKind.GENERIC, copy_of=1.0), id="copy_of-float"),
        pytest.param(lambda: EventNode(2, EventKind.GENERIC, copy_of=0), id="copy_of-zero"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [(1,)]), id="edge-of-one"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [(1, 2, 3)]), id="edge-of-three"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [[1]]), id="list-edge-of-one"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [[1, 2, 3]]), id="list-edge-of-three"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [[[1], 2]]), id="edge-of-unhashable-ids"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], [(1,)]), id="pair-of-one"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], [(1, 2, 3)]), id="pair-of-three"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [5]), id="edge-not-a-sequence"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [{1, 2}]), id="edge-as-set"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [frozenset({1, 2})]), id="edge-as-frozenset"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [{1: 0, 2: 0}]), id="edge-as-dict"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, 5), id="edges-not-iterable"),
        pytest.param(lambda: _direct([(1,)]), id="direct-edge-of-one"),
        pytest.param(lambda: _direct([(1, 2, 3)]), id="direct-edge-of-three"),
        pytest.param(lambda: _direct([[1]]), id="direct-list-edge-of-one"),
        pytest.param(lambda: _direct([[1, 2, 3]]), id="direct-list-edge-of-three"),
        pytest.param(lambda: _direct([5]), id="direct-edge-not-a-sequence"),
        pytest.param(lambda: _direct([{1, 2}]), id="direct-edge-as-set"),
        pytest.param(lambda: _direct([{1: 0, 2: 0}]), id="direct-edge-as-dict"),
        pytest.param(lambda: _direct(5), id="direct-edges-not-iterable"),
        pytest.param(
            lambda: TLGraph(
                nodes=tuple(_TWO_NODES),
                edges=frozenset({frozenset({1, 2})}),
                entanglement=(),
            ),
            id="direct-edge-as-frozenset",
        ),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], [5]), id="pair-not-a-sequence"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], [([1], 2)]), id="pair-of-unhashable-ids"),
        pytest.param(
            lambda: TLGraph(
                nodes=tuple(_TWO_NODES),
                edges=frozenset(),
                entanglement=(frozenset(),),
            ),
            id="empty-class",
        ),
        pytest.param(
            lambda: TLGraph(nodes=tuple(_TWO_NODES), edges=frozenset(), entanglement=(1, 2)),
            id="class-not-iterable",
        ),
        pytest.param(
            lambda: TLGraph(
                nodes=(1, 2),
                edges=frozenset(),
                entanglement=(),
            ),
            id="direct-node-not-an-event",
        ),
        pytest.param(lambda: TLGraph.build([1, 2], []), id="built-node-not-an-event"),
        pytest.param(lambda: TLGraph.build(5, []), id="built-nodes-not-iterable"),
        pytest.param(
            lambda: TLGraph(nodes=5, edges=frozenset(), entanglement=()),
            id="direct-nodes-not-iterable",
        ),
        pytest.param(
            lambda: TLGraph(
                nodes=tuple(_TWO_NODES),
                edges=[([1], 2)],
                entanglement=(),
            ),
            id="direct-edge-of-unhashable-ids",
        ),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], 5), id="pairs-not-iterable"),
        pytest.param(lambda: validate_linearity([[1]], game_graph()), id="linearity-unhashable-id"),
        pytest.param(lambda: validate_linearity(5, game_graph()), id="linearity-walk-not-iterable"),
        pytest.param(lambda: detect_twist(5, game_graph()), id="twist-walk-not-iterable"),
        pytest.param(lambda: detect_twist([[1]], game_graph()), id="twist-unhashable-id"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], [{1: "x", 2: "y"}]), id="pair-as-dict"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], [{1, 2}]), id="pair-as-set"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], [frozenset({1, 2})]), id="pair-as-frozenset"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], [range(1, 3)]), id="pair-as-range"),
        pytest.param(lambda: base_chain(2).with_entanglement([{1: "x", 2: "y"}]), id="with-pair-as-dict"),
        pytest.param(lambda: base_chain(2).with_entanglement([{1, 2}]), id="with-pair-as-set"),
        # equal to a node id, but not an int: the DOT would print True or 1.0
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [(True, 2)]), id="edge-with-bool-endpoint"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [(1, 2.0)]), id="edge-with-float-endpoint"),
        pytest.param(lambda: TLGraph.build(_TWO_NODES, [], [(1.0, 2)]), id="pair-with-float-member"),
        pytest.param(lambda: _direct([(1, 2)], [{1.0, 2}]), id="class-with-float-member"),
        pytest.param(lambda: validate_linearity([True, 2, 3, 4], game_graph()), id="linearity-bool-id"),
        pytest.param(lambda: detect_twist([1, 3.0, 5, 2, 6, 7], game_graph()), id="twist-float-id"),
        pytest.param(lambda: game_graph().node(True), id="node-bool-id"),
        pytest.param(lambda: game_graph().successors(2.0), id="successors-float-id"),
        pytest.param(lambda: TLGraph.build([EventNode(1, EventKind.GENERIC, copy_of=1)], []), id="self-copy"),
        pytest.param(
            lambda: TLGraph.build(
                [EventNode(1, EventKind.GENERIC, copy_of=2), EventNode(2, EventKind.GENERIC, copy_of=1)], []
            ),
            id="mutual-copy",
        ),
        pytest.param(
            lambda: TLGraph.build(
                [
                    EventNode(1, EventKind.GENERIC),
                    EventNode(2, EventKind.GENERIC, copy_of=1),
                    EventNode(3, EventKind.GENERIC, copy_of=2),
                ],
                [],
            ),
            id="copy-of-copy",
        ),
    ],
)
def test_malformed_graph_input_raises_validation_error(make):
    with pytest.raises(ValidationError):
        make()


@pytest.mark.parametrize(
    "entanglement",
    [
        pytest.param((frozenset({1}),), id="singleton"),
        pytest.param((frozenset(), frozenset({1, 2})), id="empty"),
        pytest.param((frozenset({1, 2}), frozenset({2, 3})), id="overlapping"),
    ],
)
def test_constructor_takes_only_disjoint_classes_of_two_or_more(entanglement):
    nodes = [EventNode(i, EventKind.GENERIC) for i in (1, 2, 3)]
    with pytest.raises(ValidationError, match="disjoint classes of two or more node ids"):
        TLGraph(nodes=tuple(nodes), edges=frozenset(), entanglement=entanglement)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g: unfold(g, GAME_UNFOLD), id="unfold"),
        pytest.param(entanglement_closure, id="entanglement_closure"),
        pytest.param(to_dot, id="to_dot"),
        pytest.param(is_chain, id="is_chain"),
        pytest.param(lambda g: validate_linearity([1], g), id="validate_linearity"),
        pytest.param(lambda g: detect_twist([1], g), id="detect_twist"),
        pytest.param(lambda g: player_timeline(g, Player.C), id="player_timeline"),
    ],
)
def test_graph_argument_must_be_a_tlgraph(call):
    with pytest.raises(ValidationError, match="must be of type TLGraph"):
        call(None)


def test_list_edges_build_the_same_graph_as_tuple_edges():
    want = TLGraph.build(_TWO_NODES, [(1, 2)], [(1, 2)])
    for got in (
        TLGraph.build(_TWO_NODES, [[1, 2]], [[1, 2]]),
        TLGraph.build(_TWO_NODES, {(1, 2)}, [(1, 2)]),
        TLGraph.build(_TWO_NODES, iter([[1, 2]]), [(1, 2)]),
        _direct([[1, 2]], [{1, 2}]),
        _direct(iter([[1, 2]]), [{1, 2}]),
    ):
        assert got == want
        assert hash(got) == hash(want)


def test_unfold_builds_its_edge_set_in_one_go():
    # a frozenset grown by union keeps a table about twice this size
    g = unfold(base_chain(384), UnfoldSpec(384, 100, 200))
    assert sys.getsizeof(g.edges) == sys.getsizeof(frozenset(list(g.edges)))


# ── player_timeline ────────────────────────────────────────────────


def test_player_timelines_match_the_game_story():
    g = game_graph()
    assert player_timeline(g, Player.C) == (1, 2, 3, 4)
    assert player_timeline(g, Player.S) == (1, 2, 6, 7)
    assert player_timeline(g, Player.OMEGA) == (1, 3, 5, 2, 6, 7)


def test_player_timeline_rejects_other_graphs():
    with pytest.raises(UnsupportedGraphError):
        player_timeline(base_chain(4), Player.C)
    with pytest.raises(UnsupportedGraphError):
        player_timeline(game_graph().with_entanglement([(3, 6)]), Player.C)
    with pytest.raises(UnsupportedGraphError):
        player_timeline(unfold(base_chain(5), UnfoldSpec(5, 1, 3)), Player.OMEGA)


def _expected_walks(n, k, m):
    """The walks restated from the story: copies of k+1..n are n+2..2n+1-k."""
    copies = list(range(n + 2, 2 * n + 2 - k))
    return {
        Player.C: list(range(1, n + 1)),
        Player.S: list(range(1, k + 1)) + copies,
        Player.OMEGA: list(range(1, k)) + [m, n + 1, k] + copies,
    }


def _assert_timelines_follow_the_rule(n, k, m):
    graph = unfold(base_chain(n), UnfoldSpec(n, k, m))
    for player, walk in _expected_walks(n, k, m).items():
        if player is Player.OMEGA and k == 1:
            with pytest.raises(UnsupportedGraphError):
                player_timeline(graph, player)
            continue
        timeline = player_timeline(graph, player)
        assert list(timeline) == walk
        assert validate_linearity(timeline, graph)
        twists = detect_twist(timeline, graph)
        if player is Player.OMEGA:
            # only m comes early: before k and before the copies of k+1..m-1
            assert twists == [(m, k)] + [(m, n + 1 + j - k) for j in range(k + 1, m)]
        else:
            assert twists == []


def test_player_timelines_follow_the_rule_on_every_small_unfold():
    count = 0
    for n in range(2, 21):
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                _assert_timelines_follow_the_rule(n, k, m)
                count += 1
    assert count == 1330


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_player_timelines_follow_the_rule_on_long_chains(data):
    n = data.draw(st.integers(2, 200))
    k = data.draw(st.integers(1, n - 1))
    m = data.draw(st.integers(k + 1, n))
    _assert_timelines_follow_the_rule(n, k, m)


def test_player_timelines_of_an_unfolded_hand_built_chain():
    # its kinds differ from base_chain(3)'s GENERIC events
    chain = TLGraph.build([EventNode(i, EventKind.C_CHOICE) for i in (1, 2, 3)], [(1, 2), (2, 3)])
    graph = unfold(chain, UnfoldSpec(3, 2, 3))
    assert player_timeline(graph, Player.C) == (1, 2, 3)
    assert player_timeline(graph, Player.S) == (1, 2, 5)
    assert player_timeline(graph, Player.OMEGA) == (1, 3, 4, 2, 5)
    graph = unfold(chain, UnfoldSpec(3, 1, 2))
    assert player_timeline(graph, Player.C) == (1, 2, 3)
    assert player_timeline(graph, Player.S) == (1, 5, 6)
    with pytest.raises(UnsupportedGraphError, match="needs k >= 2"):
        player_timeline(graph, Player.OMEGA)


def test_c_and_s_timelines_are_defined_at_k_1():
    graph = unfold(base_chain(3), UnfoldSpec(3, 1, 2))
    assert player_timeline(graph, Player.C) == (1, 2, 3)
    assert player_timeline(graph, Player.S) == (1, 5, 6)


def test_player_timeline_rejects_unknown_player():
    with pytest.raises(ValidationError):
        player_timeline(game_graph(), "C")


# ── validate_linearity ─────────────────────────────────────────────


def test_all_player_timelines_are_linear():
    g = game_graph()
    for player in Player:
        assert validate_linearity(player_timeline(g, player), g)


def test_repeated_node_is_not_linear():
    assert not validate_linearity([1, 2, 3, 4, 1], game_graph())


def test_backward_hop_is_not_linear():
    # 3 -> 2 is no edge, and 2 comes before 3 in the base chain
    assert not validate_linearity([1, 3, 2], game_graph())


def test_full_graph_walk_is_not_linear():
    g = game_graph()
    assert not validate_linearity([1, 2, 3, 4, 5, 6, 7], g)
    assert not is_chain(g)


def test_chains_are_linear_and_chain_shaped():
    chain = base_chain(4)
    assert validate_linearity([1, 2, 3, 4], chain)
    assert is_chain(chain)
    assert is_chain(base_chain(1))


def _is_linear_by_reference(walk, g):
    """Reference from the nodes: distinct ids, each hop an edge or from an original to a later one."""
    originals = _base_chain_ids(g)
    return (
        bool(walk)
        and len(set(walk)) == len(walk)
        and all(
            (a, b) in g.edges or (a in originals and b in originals and originals.index(a) < originals.index(b))
            for a, b in zip(walk, walk[1:])
        )
    )


def test_every_hop_on_every_small_unfold_follows_the_one_rule():
    # every ordered pair of distinct nodes, on every unfold with n <= 10
    for n in range(2, 11):
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                g = unfold(base_chain(n), UnfoldSpec(n, k, m))
                for hop in itertools.permutations([node.id for node in g.nodes], 2):
                    assert validate_linearity(hop, g) == _is_linear_by_reference(hop, g), (n, k, m, hop)


def test_a_jump_goes_forward_in_the_order_twists_are_measured_against():
    # the edges between originals run 3 -> 1 -> 2, against id order; a
    # jump must still go forward in original_ids(), as detect_twist reads it
    g = TLGraph.build([EventNode(i, EventKind.GENERIC) for i in (1, 2, 3)], [(3, 1), (1, 2)])
    assert g.original_ids() == (1, 2, 3)
    assert validate_linearity([3, 2], g) is False
    assert detect_twist([3, 2], g) == [(3, 2)]
    assert validate_linearity([1, 3], g) is True
    assert detect_twist([1, 3], g) == []


def _is_chain_by_degrees(tlg):
    """Reference: every in- and out-degree at most 1, one source, all nodes reached."""
    n = len(tlg.nodes)
    if n == 0 or len(tlg.edges) != n - 1:
        return False
    out_deg = {node.id: 0 for node in tlg.nodes}
    in_deg = {node.id: 0 for node in tlg.nodes}
    for u, v in tlg.edges:
        out_deg[u] += 1
        in_deg[v] += 1
    if any(d > 1 for d in out_deg.values()) or any(d > 1 for d in in_deg.values()):
        return False
    sources = [i for i, d in in_deg.items() if d == 0]
    if len(sources) != 1:
        return False
    visited = 1
    current = sources[0]
    while tlg.successors(current):
        current = tlg.successors(current)[0]
        visited += 1
    return visited == n


@st.composite
def small_digraphs(draw):
    """Graphs of 1-6 nodes: random edges, half of them XORed onto a random chain."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, n + 1)))
    edges = set(zip(order, order[1:])) if draw(st.booleans()) else set()
    ids = st.integers(1, n)
    edges ^= {(u, v) for u, v in draw(st.sets(st.tuples(ids, ids), max_size=n)) if u != v}
    return _generic_graph(n, edges, [])


@settings(max_examples=1000, deadline=None)
@given(g=small_digraphs())
def test_is_chain_matches_the_degree_count(g):
    assert is_chain(g) == _is_chain_by_degrees(g)


def test_is_chain_rejects_a_chain_plus_a_cycle():
    # one source and n-1 edges, but 3 and 4 form a cycle the walk never reaches
    assert not is_chain(_generic_graph(4, [(1, 2), (3, 4), (4, 3)], []))
    assert not is_chain(TLGraph.build([], []))


def test_empty_walk_is_not_linear():
    assert not validate_linearity([], game_graph())


def test_unknown_node_in_walk_raises():
    with pytest.raises(ValidationError):
        validate_linearity([1, 2, 99], game_graph())


class _Id(int):
    """An int subclass: a valid node id, though not of type int."""


def test_id_rule_is_the_same_for_int_subclasses_and_bad_ids():
    g = game_graph()
    walk = player_timeline(g, Player.OMEGA)
    subclassed = [_Id(i) for i in walk]
    assert validate_linearity(subclassed, g) is True
    assert detect_twist(subclassed, g) == detect_twist(walk, g)
    assert g.node(_Id(5)) is g.node(5) and g.successors(_Id(2)) == (3, 6)
    # the first value that breaks the rule is named: True before 2.0
    for bad_walk, named in (([1, True, 2.0], "True"), ([1, [2]], "[2]"), ([1, 2, 99], "99")):
        for check in (validate_linearity, detect_twist):
            with pytest.raises(ValidationError) as caught:
                check(bad_walk, g)
            assert str(caught.value) == f"timeline id must be an int id of a node in the graph, got {named}"
    for bad_id in ([5], 99, True, 5.0):
        with pytest.raises(ValidationError, match="^node_id must be an int id"):
            g.node(bad_id)


# ── entanglement_closure ───────────────────────────────────────────


def test_closure_transmits_choice_entanglement_to_outcomes():
    seeded = game_graph().with_entanglement([(3, 6)])
    assert {frozenset(c) for c in seeded.entanglement} == {frozenset({3, 6})}
    closed = entanglement_closure(seeded)
    assert {frozenset(c) for c in closed.entanglement} == {
        frozenset({3, 6}),
        frozenset({4, 7}),
    }


def test_closure_without_seeds_is_identity():
    chain = base_chain(5)
    assert entanglement_closure(chain) == chain
    bare_game = game_graph().with_entanglement([])
    closed = entanglement_closure(bare_game)
    assert closed.entanglement == ()


def test_closure_is_idempotent():
    for g in (
        game_graph().with_entanglement([(3, 6)]),
        unfold(base_chain(6), UnfoldSpec(6, 2, 4)),
        unfold(base_chain(4), UnfoldSpec(4, 1, 4)),
    ):
        once = entanglement_closure(g)
        assert entanglement_closure(once) == once


def test_closure_already_fixed_point_on_full_seeds():
    g = unfold(base_chain(4), UnfoldSpec(4, 1, 4))
    assert entanglement_closure(g) == g


def test_closure_matches_brute_force_oracle():
    cases = [
        game_graph().with_entanglement([(3, 6)]),
        game_graph().with_entanglement([(4, 7)]),
        unfold(base_chain(4), UnfoldSpec(4, 1, 4)),
        unfold(base_chain(7), UnfoldSpec(7, 3, 5)).with_entanglement([(4, 9)]),
        unfold(base_chain(2), UnfoldSpec(2, 1, 2)),
    ]
    for g in cases:
        closed = entanglement_closure(g)
        assert set(closed.entanglement) == brute_force_closure(g)


_CLOSURE_KINDS = (EventKind.GENERIC, EventKind.C_CHOICE, EventKind.OUTCOME)


@st.composite
def small_entangled_graphs(draw):
    """Graphs of 1-14 nodes, 1-3 kinds, free out-degree, same-kind seed pairs."""
    n = draw(st.integers(1, 14))
    kinds = draw(st.lists(st.sampled_from(_CLOSURE_KINDS[: draw(st.integers(1, 3))]),
                          min_size=n, max_size=n))
    ids = st.integers(1, n)
    edges = draw(st.sets(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                         max_size=3 * n))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=4))
    return TLGraph.build(
        [EventNode(i + 1, kind) for i, kind in enumerate(kinds)],
        edges,
        [(a, b) for a, b in pairs if kinds[a - 1] is kinds[b - 1]],
    )


@settings(max_examples=500, deadline=None)
@given(g=small_entangled_graphs())
def test_closure_matches_brute_force_on_random_graphs(g):
    assert set(entanglement_closure(g).entanglement) == brute_force_closure(g)


@settings(max_examples=300, deadline=None)
@given(g=small_entangled_graphs())
def test_closure_equals_its_checked_rebuild_on_random_graphs(g):
    _assert_equals_checked_rebuild(entanglement_closure(g))


def _generic_graph(n, edges, pairs):
    return TLGraph.build([EventNode(i, EventKind.GENERIC) for i in range(1, n + 1)],
                         edges, pairs)


def test_closure_keeps_a_lone_nodes_successors_apart():
    g = _generic_graph(3, [(1, 2), (1, 3)], [])
    assert entanglement_closure(g).entanglement == ()
    assert brute_force_closure(g) == set(g.entanglement)


def test_closure_merges_successors_from_two_members():
    # a = 1 has successors 3 and 4, b = 2 has 5; all three merge
    g = _generic_graph(5, [(1, 3), (1, 4), (2, 5)], [(1, 2)])
    closed = entanglement_closure(g)
    assert set(closed.entanglement) == {frozenset({1, 2}), frozenset({3, 4, 5})}
    assert set(closed.entanglement) == brute_force_closure(g)


def test_closure_adds_nothing_for_one_shared_successor():
    g = _generic_graph(3, [(1, 3), (2, 3)], [(1, 2)])
    assert entanglement_closure(g) == g
    assert brute_force_closure(g) == set(g.entanglement)


def test_closure_passes_on_the_views_its_input_built():
    unfolded = unfold(base_chain(7), UnfoldSpec(7, 3, 5))
    closed = entanglement_closure(unfolded)
    for name in _VIEWS:
        assert vars(closed)[name] is vars(unfolded)[name]
    _assert_held_views_are_derived(closed, _VIEWS)
    # a hand-built graph holds only the views read from it so far
    g = unfold(base_chain(7), UnfoldSpec(7, 3, 5)).with_entanglement([(4, 9)])
    assert not set(_VIEWS) & set(vars(entanglement_closure(g)))
    g.successors(4)  # builds _by_id and _successors
    closed = entanglement_closure(g)
    assert set(vars(closed)) == {"_by_id", "_successors"}
    _assert_held_views_are_derived(closed, ("_by_id", "_successors"))
    g.original_ids()  # and _base_order
    _assert_held_views_are_derived(entanglement_closure(g), _VIEWS)


def test_closure_partition_laws():
    g = entanglement_closure(game_graph().with_entanglement([(3, 6)]))
    seen = set()
    for cls in g.entanglement:
        assert not (seen & cls)
        seen |= cls
        assert len(cls) >= 2
        assert len({g.node(i).kind for i in cls}) == 1


def test_closure_only_merges_never_splits():
    seeded = game_graph().with_entanglement([(3, 6)])
    closed = entanglement_closure(seeded)
    for cls in seeded.entanglement:
        assert any(cls <= bigger for bigger in closed.entanglement)


# ── detect_twist ───────────────────────────────────────────────────


def test_twist_only_in_the_oracle_frame():
    g = game_graph()
    assert detect_twist(player_timeline(g, Player.C), g) == []
    assert detect_twist(player_timeline(g, Player.S), g) == []
    twists = detect_twist(player_timeline(g, Player.OMEGA), g)
    assert twists == [(3, 2)]


def test_copy_of_a_copy_is_rejected_before_any_walk():
    # 3 copies 2, which copies 1: a copy of a copy would have no base position
    with pytest.raises(ValidationError, match="copy 3 must copy an original of its kind, got copy_of=2"):
        TLGraph.build(
            [
                EventNode(1, EventKind.GENERIC),
                EventNode(2, EventKind.GENERIC, copy_of=1),
                EventNode(3, EventKind.GENERIC, copy_of=2),
            ],
            [(1, 2), (2, 3)],
        )


def _base_chain_ids(g):
    """Reference originals, from the nodes and not g.original_ids(): no copy or elaboration, by id."""
    return sorted(node.id for node in g.nodes if node.copy_of is None and node.kind is not EventKind.ELABORATION)


def _twists_by_double_loop(walk, g):
    """Reference: compare every pair of mapped positions."""
    position = {node_id: idx for idx, node_id in enumerate(_base_chain_ids(g))}
    mapped = []
    for node_id in walk:
        node = g.node(node_id)
        if node.kind is EventKind.ELABORATION:
            continue
        mapped.append((node_id, position[node.copy_of or node.id]))
    twists = []
    for i in range(len(mapped)):
        for j in range(i + 1, len(mapped)):
            if mapped[i][1] > mapped[j][1]:
                twists.append((mapped[i][0], mapped[j][0]))
    return twists


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_twist_matches_the_double_loop(data):
    n = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(1, n - 1))
    m = data.draw(st.integers(k + 1, n))
    g = unfold(base_chain(n), UnfoldSpec(n, k, m))
    walk = data.draw(st.lists(st.sampled_from([node.id for node in g.nodes]), max_size=20))
    walk.insert(data.draw(st.integers(0, len(walk))), n + 1)  # the elaboration node
    assert detect_twist(walk, g) == _twists_by_double_loop(walk, g)


_COPY_KINDS = (EventKind.GENERIC, EventKind.C_CHOICE, EventKind.ELABORATION)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_built_graph_maps_every_walk(data):
    # random copy_of, edges and same-kind pairs; on a graph the constructor
    # accepts, any walk of distinct nodes gets the references' answers
    n = data.draw(st.integers(1, 6))
    ids = st.integers(1, n)
    kinds = data.draw(st.lists(st.sampled_from(_COPY_KINDS), min_size=n, max_size=n))
    copies = data.draw(st.lists(st.none() | ids, min_size=n, max_size=n))
    edges = data.draw(st.sets(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=2 * n))
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=3))
    nodes = [EventNode(i + 1, kind, copy) for i, (kind, copy) in enumerate(zip(kinds, copies))]
    try:
        g = TLGraph.build(nodes, edges, [(a, b) for a, b in pairs if kinds[a - 1] is kinds[b - 1]])
    except ValidationError:
        return
    walk = data.draw(st.lists(ids, unique=True))
    assert validate_linearity(walk, g) == _is_linear_by_reference(walk, g)
    assert detect_twist(walk, g) == _twists_by_double_loop(walk, g)


def test_twist_excludes_elaboration_pairs():
    g = game_graph()
    twists = detect_twist(player_timeline(g, Player.OMEGA), g)
    assert all(5 not in pair for pair in twists)


def test_twist_raises_past_its_bound_before_building_every_pair():
    # a reversed walk on 4096 events inverts 8 386 560 pairs, over 450 MB of
    # tuples; the list stops growing once it passes MAX_TWISTS (2^20)
    n = 1 << 12
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"more than {MAX_TWISTS} twists"):
            detect_twist(range(n, 0, -1), base_chain(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


# ── to_dot ─────────────────────────────────────────────────────────


def _dot_statement_counts(text):
    nodes = edges = tangles = 0
    for line in text.splitlines():
        line = line.strip()
        if "->" in line:
            if "dir=none" in line:
                tangles += 1
            else:
                edges += 1
        elif "[label=" in line:
            nodes += 1
    return nodes, edges, tangles


def test_dot_game_graph_statement_counts():
    text = to_dot(game_graph())
    assert _dot_statement_counts(text) == (7, 7, 2)
    assert text.startswith("digraph tlg {")
    assert text.count("style=solid") == 3
    assert text.count("style=dashed") == 4


def test_dot_single_node():
    text = to_dot(base_chain(1))
    assert _dot_statement_counts(text) == (1, 0, 0)


def test_dot_plain_chain_is_all_solid():
    text = to_dot(base_chain(4))
    nodes, edges, tangles = _dot_statement_counts(text)
    assert (nodes, edges, tangles) == (4, 3, 0)
    assert text.count("style=solid") == 3
    assert "style=dashed" not in text


def test_dot_writes_a_pair_in_ascending_order():
    # CPython iterates frozenset({1, 8}) as (8, 1), so this pair needs the swap
    assert tuple(frozenset({1, 8})) == (8, 1)
    text = to_dot(_generic_graph(8, [], [(1, 8)]))
    assert "\n  1 -> 8 [dir=none, style=dotted, constraint=false];\n" in text
    assert "8 -> 1" not in text


def test_dot_output_is_byte_stable():
    assert to_dot(game_graph()) == to_dot(game_graph())
    assert to_dot(base_chain(6)) == to_dot(base_chain(6))


def _reference_dot(g):
    """The DOT text by its rule: nodes by id, sorted(edges), each class's members ascending."""
    originals = set(_base_chain_ids(g))
    lines = ["digraph tlg {", "  rankdir=LR;"]
    for node in sorted(g.nodes, key=lambda node: node.id):
        lines.append(f'  {node.id} [label="{node.id}: {node.kind.value}"];')
    for u, v in sorted(g.edges):
        style = "solid" if u in originals and v in originals else "dashed"
        lines.append(f"  {u} -> {v} [style={style}];")
    for cls in sorted(g.entanglement, key=min):
        members = sorted(cls)
        for a, b in zip(members, members[1:]):
            lines.append(f"  {a} -> {b} [dir=none, style=dotted, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def hand_built_graphs(draw):
    """Graphs from TLGraph.build: ids 1-30 given out of order, any kinds, copies, fan-out, classes."""
    ids = draw(st.lists(st.integers(1, 30), min_size=1, max_size=12, unique=True))
    kinds = draw(st.permutations(list(EventKind)))[: draw(st.integers(1, len(EventKind)))]
    nodes = []
    for node_id in ids:
        originals = [node for node in nodes if node.copy_of is None]
        original = draw(st.none() | st.sampled_from(originals)) if originals else None
        if original is None:
            nodes.append(EventNode(node_id, draw(st.sampled_from(kinds))))
        else:
            nodes.append(EventNode(node_id, original.kind, original.id))
    kind_of = {node.id: node.kind for node in nodes}
    endpoints = st.sampled_from(ids)
    edges = draw(st.sets(st.tuples(endpoints, endpoints).filter(lambda e: e[0] != e[1]),
                         max_size=3 * len(ids)))
    pairs = draw(st.lists(st.tuples(endpoints, endpoints), max_size=2 * len(ids)))
    return TLGraph.build(nodes, edges, [(a, b) for a, b in pairs if kind_of[a] is kind_of[b]])


# Every kind, two copies (11 of 7, 4 of 2), fan-out from 1 and 2, the
# class {2, 4, 5}, and nodes given out of id order.
_MIXED_GRAPH = TLGraph.build(
    [EventNode(12, EventKind.OUTCOME), EventNode(3, EventKind.S_CHOICE),
     EventNode(7, EventKind.C_CHOICE), EventNode(1, EventKind.ORACLE_START),
     EventNode(10, EventKind.ELABORATION), EventNode(2, EventKind.GENERIC),
     EventNode(5, EventKind.GENERIC), EventNode(11, EventKind.C_CHOICE, 7),
     EventNode(4, EventKind.GENERIC, 2)],
    [(1, 3), (1, 12), (1, 10), (3, 7), (7, 12), (10, 2), (2, 5), (2, 4), (11, 12), (3, 11)],
    [(2, 5), (5, 4), (11, 7)],
)


@pytest.mark.parametrize("has", [
    lambda g: any(len(g.successors(node.id)) > 1 for node in g.nodes),
    lambda g: any(len(cls) > 2 for cls in g.entanglement),
    lambda g: any(node.copy_of is not None for node in g.nodes),
    *(lambda g, kind=kind: any(node.kind is kind for node in g.nodes) for kind in EventKind),
], ids=["fan-out", "class-of-three", "copy", *(kind.name for kind in EventKind)])
def test_hand_built_graphs_reach_each_shape(has):
    assert has(_MIXED_GRAPH)
    find(hand_built_graphs(), has, settings=settings(database=None, derandomize=True, phases=[Phase.generate]))


def test_original_ids_skip_copies_and_elaborations_in_id_order():
    # 10 is the elaboration, 11 and 4 are copies; the nodes were given out of order
    assert _MIXED_GRAPH.original_ids() == (1, 2, 3, 5, 7, 12)


@settings(max_examples=300, deadline=None)
@given(g=hand_built_graphs())
@example(g=_MIXED_GRAPH)
def test_dot_of_hand_built_graphs_follows_its_rule(g):
    assert to_dot(g) == _reference_dot(g)


@settings(max_examples=300, deadline=None)
@given(g=hand_built_graphs())
@example(g=_MIXED_GRAPH)
def test_successors_ascend_and_run_through_the_sorted_edges(g):
    # to_dot reads sorted(edges) off the successor lists in node order
    ids = sorted(node.id for node in g.nodes)
    for u in ids:
        assert list(g.successors(u)) == sorted(g.successors(u))
    assert [(u, v) for u in ids for v in g.successors(u)] == sorted(g.edges)


# ── misc structure ─────────────────────────────────────────────────


def test_game_graph_node_two_is_the_bottleneck():
    g = game_graph()
    out_deg = sum(1 for u, _ in g.edges if u == 2)
    in_deg = sum(1 for _, v in g.edges if v == 2)
    assert out_deg == 2 and in_deg == 2
