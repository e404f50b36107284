"""Time-lines graph (TLG): events, causal edges, and entanglement.

A play of the game is first written down as a causal chain of events
(1) -> (2) -> ... -> (n). Consulting the oracle breaks the chain: the
oracle jumps ahead to the event it must inspect (m), elaborates its
answer in an extra node, and delivers it back at event (k). Delivering
the answer perturbs everything after (k), so each later event splits
into a copy, and each copy is entangled with its original: both must
resolve to the same outcome. Entanglement then propagates forward,
because consequences of entangled events are entangled too.

Three structural rules govern the result:

* every single player's walk through the graph is chain-shaped, with
  one starting cause and one final effect;
* a retrocausal loop splits the events after the answer's delivery
  point into entangled copies;
* entanglement is transmitted to same-kind successors.

For the standard game (chain of 4, answer delivered at 2, inspecting
3) the unfolded graph has seven nodes, numbered so the elaboration is
5 and the copies of 3 and 4 are 6 and 7.

Graphs are immutable once built; every function here is pure.

TLGraph(...), TLGraph.build and with_entanglement check all they are
given. base_chain, unfold and entanglement_closure skip that check: from
checked arguments they build graphs valid by construction (see unfold).
"""

from __future__ import annotations

import math
from _thread import allocate_lock  # threading's Lock, without importing threading
from collections.abc import Iterable, Sequence
from enum import Enum
from functools import cached_property

from . import _PUBLIC
from ._record import Record, set_field
from ._validate import as_tuple, check_int, check_pair, check_type, show
from .errors import GraphStructureError, UnsupportedGraphError, ValidationError

__all__ = list(_PUBLIC["tlg"])


class EventKind(Enum):
    """What an event node represents."""

    ORACLE_START = "oracle_start"
    S_CHOICE = "s_choice"
    C_CHOICE = "c_choice"
    OUTCOME = "outcome"
    ELABORATION = "elaboration"
    GENERIC = "generic"


class Player(Enum):
    C = "C"
    S = "S"
    OMEGA = "Omega"


# Kinds of the 4-event game chain: start the oracle, S hears the answer
# and chooses, C chooses, the result lands.
_GAME_CHAIN_KINDS = (
    EventKind.ORACLE_START,
    EventKind.S_CHOICE,
    EventKind.C_CHOICE,
    EventKind.OUTCOME,
)


class EventNode(Record):
    """One event; copy_of is set when the node is a retrocausal copy."""

    __slots__ = ("id", "kind", "copy_of")

    def __init__(self, id: int, kind: EventKind, copy_of: int | None = None):
        check_int(id, "node id", 1)
        check_type(kind, "node kind", EventKind)
        if copy_of is not None:
            check_int(copy_of, "copy_of", 1)
        set_field(self, "id", id)
        set_field(self, "kind", kind)
        set_field(self, "copy_of", copy_of)


# Only base_chain, unfold and entanglement_closure build through _node and
# _graph, which skip the checks of __init__ (a checked rebuild of unfold's
# output costs about three times base_chain and unfold): each passes fields it
# checked or derived, in the form __init__ would store. _node sets them through
# the slots' own __set__, which pays in unfold's copies now that base_chain builds
# each length once: with set_field, tlg-large-style operations (n = 128 to 384)
# ran about 4 % slower (2 vCPU Xeon, Python 3.11).
_set_id, _set_kind, _set_copy_of = (vars(EventNode)[name].__set__ for name in EventNode.__slots__)


def _node(id: int, kind: EventKind, copy_of: int | None = None) -> EventNode:
    node = object.__new__(EventNode)
    _set_id(node, id)
    _set_kind(node, kind)
    _set_copy_of(node, copy_of)
    return node


def _known_ids(ids, values: Sequence, name: str) -> None:
    """Raise ValidationError unless each value is an int, not a bool, and a key of ids."""
    if {*map(type, values)} <= {int} and all(map(ids.__contains__, values)):
        return
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int) or value not in ids:
            raise ValidationError(f"{name} must be an int id of a node in the graph, got {show(value)}")


def _id_pairs(items, name: str, ids) -> list[tuple[int, int]]:
    """The items as tuples; each must be an ordered pair, a tuple or list, of two known ids."""
    pairs = [check_pair(item, name) for item in as_tuple(items, f"{name}s")]
    _known_ids(ids, [i for pair in pairs for i in pair], f"{name} member")
    return pairs


class _DisjointSet:
    # union-find with path compression; elements are node ids
    def __init__(self, elements: Iterable[int]):
        self.parent = {e: e for e in elements}

    def find(self, e: int) -> int:
        root = e
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[e] != root:
            self.parent[e], e = root, self.parent[e]
        return root

    def union(self, a: int, b: int) -> tuple[int, int] | None:
        # returns (kept root, absorbed root), or None if already joined
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        root, absorbed = min(ra, rb), max(ra, rb)
        self.parent[absorbed] = root
        return root, absorbed

    def classes(self) -> tuple[frozenset[int], ...]:
        # groups of two or more; a lone element is entangled with nothing
        groups: dict[int, set[int]] = {}
        for e in self.parent:
            groups.setdefault(self.find(e), set()).add(e)
        return tuple(frozenset(g) for g in groups.values() if len(g) > 1)


class TLGraph(Record):
    """Immutable event graph: nodes, directed causal edges, entanglement.

    The entanglement field holds disjoint classes of two or more node
    ids; a node in no class is entangled with nothing.
    """

    # __dict__ holds the cached_property values, which are not fields.
    __slots__ = ("nodes", "edges", "entanglement", "__dict__")

    def __init__(
        self,
        nodes: tuple[EventNode, ...],
        edges: frozenset[tuple[int, int]],
        entanglement: tuple[frozenset[int], ...],
    ):
        nodes = as_tuple(nodes, "nodes")
        by_id = {check_type(n, "node", EventNode).id: n for n in nodes}
        if len(by_id) != len(nodes):
            raise ValidationError("node ids must be unique")
        for node in nodes:
            if node.copy_of is not None:
                original = by_id.get(node.copy_of)
                if original is None or original.copy_of is not None or original.kind is not node.kind:
                    raise ValidationError(
                        f"copy {show(node.id)} must copy an original of its kind, got copy_of={show(node.copy_of)}"
                    )
        edges = frozenset(_id_pairs(edges, "edge", by_id))
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop on node {show(u)}")

        classes = [as_tuple(c, "entanglement class") for c in as_tuple(entanglement, "entanglement")]
        members = [i for cls in classes for i in cls]
        _known_ids(by_id, members, "entanglement member")
        classes = [frozenset(cls) for cls in classes]
        if any(len(cls) < 2 for cls in classes) or sum(map(len, classes)) != len(set(members)):
            raise ValidationError("entanglement must be disjoint classes of two or more node ids")
        classes = tuple(sorted(classes, key=min))
        for cls in classes:
            members = iter(cls)
            kind = by_id[next(members)].kind
            for i in members:
                if by_id[i].kind is not kind:
                    raise ValidationError(
                        f"entanglement class {show(set(cls))} mixes kinds"
                        f" {kind.value} and {by_id[i].kind.value}"
                    )
        set_field(self, "nodes", tuple(sorted(nodes, key=lambda n: n.id)))
        set_field(self, "edges", edges)
        set_field(self, "entanglement", classes)

    @classmethod
    def build(
        cls,
        nodes: Iterable[EventNode],
        edges: Iterable[tuple[int, int]],
        entangled_pairs: Iterable[tuple[int, int]] = (),
    ) -> "TLGraph":
        """Construct a graph, merging the given pairs into classes; TLGraph checks the edges.

        A pair, like an edge, is a tuple or a list of two known node ids.
        """
        nodes = as_tuple(nodes, "nodes")
        ds = _DisjointSet(check_type(n, "node", EventNode).id for n in nodes)
        for a, b in _id_pairs(entangled_pairs, "entangled pair", ds.parent):
            ds.union(a, b)
        return cls(nodes=nodes, edges=edges, entanglement=ds.classes())

    def with_entanglement(self, pairs: Iterable[tuple[int, int]]) -> "TLGraph":
        """Same nodes and edges, classes rebuilt from the given pairs."""
        return TLGraph.build(self.nodes, self.edges, pairs)

    @cached_property
    def _by_id(self) -> dict[int, EventNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _successors(self) -> dict[int, tuple[int, ...]]:
        # node -> its successors ascending, in node (id) order, so to_dot reads
        # sorted(edges) off it with no sort of all edges. unfold hands its graphs
        # this view, so only hand-built graphs and their closures derive it here
        out: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for u, v in self.edges:
            out[u].append(v)
        return {u: tuple(sorted(vs) if len(vs) > 1 else vs) for u, vs in out.items()}

    def node(self, node_id: int) -> EventNode:
        """The node with this int id; any other id, True or 1.0 included, raises ValidationError."""
        _known_ids(self._by_id, (node_id,), "node_id")
        return self._by_id[node_id]

    def successors(self, node_id: int) -> tuple[int, ...]:
        self.node(node_id)
        return self._successors[node_id]

    @property
    def nontrivial_classes(self) -> tuple[frozenset[int], ...]:
        """The entanglement classes; the name is kept for the bench, which reads it."""
        return self.entanglement

    def original_ids(self) -> tuple[int, ...]:
        """Ids of base-chain events: not copies, not elaborations."""
        return tuple(self._base_order)

    @cached_property
    def _base_order(self) -> dict[int, int]:
        # original id -> its place in base order, in id order
        elaboration = EventKind.ELABORATION  # one Enum lookup, not one per node
        originals = [n.id for n in self.nodes if n.copy_of is None and n.kind is not elaboration]
        return dict(zip(originals, range(len(originals))))


def _graph(nodes, edges, entanglement, **views) -> TLGraph:
    graph = object.__new__(TLGraph)
    set_field(graph, "nodes", nodes)
    set_field(graph, "edges", edges)
    set_field(graph, "entanglement", entanglement)
    vars(graph).update(views)  # views the builder knows, where cached_property keeps them
    return graph


class UnfoldSpec(Record):
    """Where the oracle acts on a chain of length n.

    The answer is delivered at event k and concerns event m, with
    1 <= k < m <= n.
    """

    __slots__ = ("n", "k", "m")

    def __init__(self, n: int, k: int, m: int):
        check_int(n, "n", 1)
        check_int(k, "k", 1)
        check_int(m, "m", 1)
        if not k < m <= n:
            raise ValidationError(f"need 1 <= k < m <= n, got n={show(n)}, k={show(k)}, m={show(m)}")
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "m", m)


GAME_UNFOLD = UnfoldSpec(n=4, k=2, m=3)

# The longest chain base_chain builds. At k = 1, the most copies, base_chain and
# unfold took 0.27-0.38 s and 109 MB peak RSS, 32 MB of it the views unfold builds
# up front; with to_dot, which reads them, 0.40-0.57 s and 164 MB (2 vCPU Xeon, Python 3.11).
MAX_CHAIN_LENGTH = 1 << 16
# The most inversions detect_twist returns; a walk with more raises. The
# oracle's walk on unfold(base_chain(2^16), UnfoldSpec(2^16, 2, 2^16)) has
# 65 534, but a reversed walk on that chain would have 2^31.
MAX_TWISTS = 1 << 20


# base_chain's graphs by length, least recently used first. They hold at most
# MAX_CHAIN_LENGTH nodes in all: at worst one 2^16-event chain, 16 MB, or 29 MB
# with its views. The lock makes each lookup, build and eviction one step.
_chains: dict[int, TLGraph] = {}
_chains_lock = allocate_lock()


def base_chain(n: int) -> TLGraph:
    """A causal chain (1) -> (2) -> ... -> (n) with no entanglement.

    A length-4 chain gets the game's event kinds; any other length is
    a generic action list. Graphs are immutable, so each length's chain
    is built once and shared: calls return the same graph while it is
    cached, and the cached chains hold at most MAX_CHAIN_LENGTH nodes in
    all, the least recently used going first.
    """
    check_int(n, "chain length", 1, MAX_CHAIN_LENGTH)
    with _chains_lock:
        chain = _chains.pop(n, None)
        if chain is None:
            kinds = _GAME_CHAIN_KINDS if n == 4 else (EventKind.GENERIC,) * n
            nodes = tuple(map(_node, range(1, n + 1), kinds))
            chain = _graph(nodes, frozenset(zip(range(1, n), range(2, n + 1))), ())
            while n + sum(_chains) > MAX_CHAIN_LENGTH:  # the keys are the lengths
                del _chains[next(iter(_chains))]
        _chains[n] = chain  # now the most recently used
    return chain


def _require_chain(graph: TLGraph, n: int) -> None:
    # sizes first: the spec's n can be far larger than any graph
    if len(graph.nodes) != n:
        raise GraphStructureError(f"expected a chain of {show(n)} events, got {len(graph.nodes)}")
    if graph.original_ids() != tuple(range(1, n + 1)):
        raise GraphStructureError(f"expected the original events 1..{n}, with no copy or elaboration")
    # n - 1 distinct chain edges, all in a set of n - 1 edges, are that set
    if len(graph.edges) != n - 1 or not graph.edges.issuperset(zip(range(1, n), range(2, n + 1))):
        raise GraphStructureError("input graph is not a chain")
    if graph.entanglement:
        raise GraphStructureError("input chain must carry no entanglement")


def unfold(chain: TLGraph, spec: UnfoldSpec) -> TLGraph:
    """Apply one oracle query to a pristine chain.

    Adds the elaboration node (id n+1), the detour edges m -> E -> k,
    and a copy of every event after k (ids n+2 onward), each entangled
    with its original. Those classes are already transmission-closed,
    so entanglement_closure would leave them as they are:

    * a pair (j, copy of j) has the successors j+1 and copy of j+1,
      which are themselves a pair;
    * the elaboration node is m's only successor of its kind;
    * k is in no class, so its two successors k+1 and copy of k+1 stay
      apart.

    The nodes come out sorted by id and the classes by their least
    member, as TLGraph stores them, so the graph is built unchecked.
    """
    check_type(chain, "chain", TLGraph)
    check_type(spec, "spec", UnfoldSpec)
    _require_chain(chain, spec.n)
    n, k, m = spec.n, spec.k, spec.m

    elaboration = n + 1
    # the copy of event j is n+1+j-k; chain.nodes[k:] are events k+1..n
    copy_ids = range(n + 2, 2 * n + 2 - k)
    copies = map(_node, copy_ids, [node.kind for node in chain.nodes[k:]], range(k + 1, n + 1))
    # one build: a frozenset grown by union keeps a table twice this size
    edges = frozenset((
        *chain.edges,
        (m, elaboration),
        (elaboration, k),
        (k, n + 2),
        *zip(copy_ids, copy_ids[1:]),
    ))
    entanglement = tuple(map(frozenset, zip(range(k + 1, n + 1), copy_ids)))
    nodes = (*chain.nodes, _node(elaboration, EventKind.ELABORATION), *copies)
    # the views TLGraph would derive: ids 1..2n+1-k; successors i+1 along chain
    # and copies, the detour m -> E -> k and k's branch; the chain's originals
    ids = range(1, copy_ids.stop)
    successors = dict(zip(ids, zip(range(2, copy_ids.stop + 1))))
    successors[n] = successors[copy_ids[-1]] = ()
    successors[m] += (elaboration,)
    successors[elaboration] = (k,)
    successors[k] = (k + 1, n + 2)
    views = {"_by_id": dict(zip(ids, nodes)), "_successors": successors, "_base_order": chain._base_order}
    return _graph(nodes, edges, entanglement, **views)


def game_graph() -> TLGraph:
    """The standard 7-node game graph."""
    return unfold(base_chain(4), GAME_UNFOLD)


def player_timeline(tlg: TLGraph, player: Player) -> tuple[int, ...]:
    """A player's walk through an unfolded chain, as a tuple of node ids.

    The graph must be unfold(chain, UnfoldSpec(n, k, m)) for a chain of
    n events and some k and m; n, k and m are read back from the original
    events and the detour m -> E -> k through the elaboration node
    E = n+1, and the chain is the graph's first n nodes. The
    copies n+2 .. 2n+1-k carry the events after k. C walks the plain
    chain 1..n; S walks 1..k, then follows the answer into the copies;
    the oracle walks 1..k-1, runs ahead to m, elaborates in E, comes
    back to k, and then rides the copies. On the standard game graph,
    for C, S and the oracle in turn:

    >>> [player_timeline(game_graph(), player) for player in Player]
    [(1, 2, 3, 4), (1, 2, 6, 7), (1, 3, 5, 2, 6, 7)]

    Any other graph raises UnsupportedGraphError, and so does the
    oracle at k = 1, where its walk would not start at event 1.
    """
    check_type(tlg, "graph", TLGraph)
    check_type(player, "player", Player)
    n = len(tlg._base_order)
    # the detour edges, sorted: (m, n+1) comes before (n+1, k) since m <= n
    detour = sorted(edge for edge in tlg.edges if n + 1 in edge)
    try:
        (m, _), (_, k) = detour
        # the graph's own first n nodes, joined 1 -> 2 -> ... -> n
        chain = _graph(tlg.nodes[:n], frozenset(zip(range(1, n), range(2, n + 1))), ())
        unfolded = unfold(chain, UnfoldSpec(n, k, m))
    except (ValueError, GraphStructureError):
        # not two detour edges, a ValidationError from the spec, or
        # first nodes that are not the original events 1..n
        unfolded = None
    if tlg != unfolded:
        raise UnsupportedGraphError("timelines are only defined for an unfolded chain")
    copies = range(n + 2, 2 * n + 2 - k)
    if player is Player.C:
        return tuple(range(1, n + 1))
    if player is Player.S:
        return (*range(1, k + 1), *copies)
    if k == 1:
        raise UnsupportedGraphError(
            "the oracle's timeline needs k >= 2: at k = 1 it would not start at event 1"
        )
    return (*range(1, k), m, n + 1, k, *copies)


# The oracle's walk on the game graph, the order sim resolves a play in.
OMEGA_ORDER = player_timeline(game_graph(), Player.OMEGA)


def validate_linearity(timeline: Sequence[int], tlg: TLGraph) -> bool:
    """Check that a walk is chain-shaped: distinct nodes, valid hops.

    A hop is valid when it is a graph edge or a jump forward along the
    base chain: from one tlg.original_ids() event to a later one, the
    order detect_twist measures twists against. Returns False on any
    violation; an id node() rejects raises.
    """
    check_type(tlg, "graph", TLGraph)
    sequence = as_tuple(timeline, "timeline")
    _known_ids(tlg._by_id, sequence, "timeline id")
    if not sequence or len(set(sequence)) != len(sequence):
        return False
    edges, position = tlg.edges, tlg._base_order
    # a node off the base chain has no position, so no jump starts or ends there
    hops = zip(sequence, sequence[1:])
    return all((a, b) in edges or position.get(a, math.inf) < position.get(b, -1) for a, b in hops)


def is_chain(tlg: TLGraph) -> bool:
    """True iff the whole graph is a single path from one source to one sink."""
    check_type(tlg, "graph", TLGraph)
    targets = {v for _, v in tlg.edges}
    sources = [node.id for node in tlg.nodes if node.id not in targets]
    if len(sources) != 1 or len(tlg.edges) != len(tlg.nodes) - 1:
        return False
    # The n-1 other nodes each have an incoming edge and there are n-1
    # edges, so each has exactly one: the walk never reaches a node twice,
    # and at a branch it leaves the other successor unreached.
    successors = tlg._successors
    visited = 1
    current = sources[0]
    while successors[current]:
        current = successors[current][0]
        visited += 1
    return visited == len(tlg.nodes)


def entanglement_closure(tlg: TLGraph) -> TLGraph:
    """Transmit entanglement to same-kind successors until stable.

    Whenever two distinct entangled nodes a and b have distinct
    successors c and d of the same kind, c and d become entangled.
    Restated per class C and kind K: if the K-successors of C's
    members come from at least two distinct members, they all become
    one class; if they all come from one member, none of them merge,
    so a lone node's same-kind successors stay apart.

    This is a congruence closure (Downey, Sethi & Tarjan, JACM 1980;
    Nelson & Oppen, JACM 1980), computed with a union-find and a
    worklist of pending unions. Each class root keeps, per kind, the
    successors not yet united: one member's own, until a merge brings
    a second member's, which queues their unions and leaves one
    representative in their place. Every edge's successor is queued
    O(1) times, so the cost is O((N + E) log N) for N nodes and E
    edges. The result is the same least fixpoint as rescanning every
    pair of nodes until nothing changes: the smallest closure of the
    input classes, so applying it twice changes nothing.

    unfold does not call it: the classes unfold builds are already
    closed. The closure serves graphs built by hand, for example with
    TLGraph.build or with_entanglement. It keeps tlg's nodes and edges
    and merges only same-kind classes, so its result is built unchecked.
    """
    check_type(tlg, "graph", TLGraph)
    kind = {node.id: node.kind for node in tlg.nodes}
    ds = _DisjointSet(kind)
    # class root -> kind -> the class's successors of that kind not yet united
    pending_of: dict[int, dict[EventKind, list[int]]] = {}
    for a, c in tlg.edges:
        pending_of.setdefault(a, {}).setdefault(kind[c], []).append(c)

    worklist: list[tuple[int, int]] = []
    for cls in tlg.entanglement:
        members = tuple(cls)
        worklist.extend(zip(members, members[1:]))
    while worklist:
        joined = ds.union(*worklist.pop())
        if joined is None:
            continue
        root, absorbed = joined
        theirs = pending_of.pop(absorbed, None)
        if not theirs:
            continue
        ours = pending_of.setdefault(root, {})
        for k, their_successors in theirs.items():
            our_successors = ours.get(k)
            if our_successors is None:
                ours[k] = their_successors
                continue
            rep = our_successors[0]
            worklist.extend((rep, c) for c in our_successors[1:])
            worklist.extend((rep, c) for c in their_successors)
            ours[k] = [rep]
    classes = tuple(sorted(ds.classes(), key=min))
    # the views depend only on the nodes and edges, which the closure keeps
    built = vars(tlg)
    views = {name: built[name] for name in ("_by_id", "_successors", "_base_order") if name in built}
    return _graph(tlg.nodes, tlg.edges, classes, **views)


def detect_twist(timeline: Sequence[int], tlg: TLGraph) -> list[tuple[int, int]]:
    """Find visit-order inversions against base-chain causal order.

    Copies count as their originals in tlg.original_ids(); elaboration
    nodes have no base position and are skipped. Returns every pair
    (a, b) where a is visited before b but a's base event comes causally
    after b's. An id node() rejects raises, and so does a walk with more
    than MAX_TWISTS inversions.
    """
    check_type(tlg, "graph", TLGraph)
    sequence = as_tuple(timeline, "timeline")
    _known_ids(tlg._by_id, sequence, "timeline id")
    position, by_id = tlg._base_order, tlg._by_id
    # (timeline id, base position); elaborations, and copies of them, have none
    mapped = [(i, position[base]) for i in sequence if (base := by_id[i].copy_of or i) in position]

    # later_min[i] is the least base position after i; an i whose own
    # position is no greater than that starts no twist and is skipped
    later_min = []
    least = math.inf
    for _, pos in reversed(mapped):
        later_min.append(least)
        least = min(least, pos)
    later_min.reverse()

    twists = []
    for i, (a, a_pos) in enumerate(mapped):
        if a_pos > later_min[i]:
            twists.extend((a, b) for b, b_pos in mapped[i + 1:] if a_pos > b_pos)
            if len(twists) > MAX_TWISTS:
                raise ValidationError(f"timeline has more than {MAX_TWISTS} twists")
    return twists


def to_dot(tlg: TLGraph) -> str:
    """Render the graph as deterministic DOT text.

    Base-chain edges are solid, the oracle branch (detour and copies)
    is dashed, and entangled nodes are joined by undirected dotted
    edges that do not constrain the layout. Output bytes are a pure
    function of the graph.
    """
    check_type(tlg, "graph", TLGraph)
    originals = tlg._base_order
    lines = ["digraph tlg {", "  rankdir=LR;"]
    # _value_ is a plain attribute; Enum's .value is a Python-level property
    lines += [f'  {node.id} [label="{node.id}: {node.kind._value_}"];' for node in tlg.nodes]
    for u, vs in tlg._successors.items():  # in node order, so sorted(edges)
        for v in vs:
            style = "solid" if u in originals and v in originals else "dashed"
            lines.append(f"  {u} -> {v} [style={style}];")
    for cls in tlg.entanglement:
        if len(cls) == 2:  # every class unfold makes: a swap, not a sort
            a, b = cls
            if a > b:
                a, b = b, a
            lines.append(f"  {a} -> {b} [dir=none, style=dotted, constraint=false];")
            continue
        a, *rest = sorted(cls)
        for b in rest:
            lines.append(f"  {a} -> {b} [dir=none, style=dotted, constraint=false];")
            a = b
    lines.append("}")
    return "\n".join(lines) + "\n"
