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
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from ._validate import as_tuple, check_int, check_type, show
from .errors import GraphStructureError, UnsupportedGraphError, ValidationError

__all__ = [
    "EventKind",
    "Player",
    "EventNode",
    "TLGraph",
    "UnfoldSpec",
    "GAME_UNFOLD",
    "base_chain",
    "unfold",
    "game_graph",
    "player_timeline",
    "OMEGA_ORDER",
    "validate_linearity",
    "entanglement_closure",
    "detect_twist",
    "is_chain",
    "to_dot",
]


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


@dataclass(frozen=True)
class EventNode:
    """One event; copy_of is set when the node is a retrocausal copy."""

    id: int
    kind: EventKind
    copy_of: int | None = None

    def __post_init__(self) -> None:
        check_int(self.id, "node id", 1)
        check_type(self.kind, "node kind", EventKind)
        if self.copy_of is not None:
            check_int(self.copy_of, "copy_of", 1)


# Only base_chain, unfold and entanglement_closure build through _node and
# _graph, which skip __post_init__: each passes fields it checked or derived,
# in the form __post_init__ would store. Fields are set as the dataclass
# __init__ sets them; filling __dict__ instead would double a node's size.
_set = object.__setattr__


def _node(id: int, kind: EventKind, copy_of: int | None = None) -> EventNode:
    node = object.__new__(EventNode)
    _set(node, "id", id)
    _set(node, "kind", kind)
    _set(node, "copy_of", copy_of)
    return node


def _known_ids(ids, values, name: str) -> None:
    """Raise ValidationError unless each value is an int, not a bool, and a key of ids."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int) or value not in ids:
            raise ValidationError(f"{name} must be an int id of a node in the graph, got {show(value)}")


def _id_pairs(items, name: str, ids) -> list[tuple[int, int]]:
    """The items as tuples; each must be an ordered pair, a tuple or list, of two known ids."""
    pairs = []
    for item in as_tuple(items, f"{name}s"):
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise ValidationError(f"{name} must be a tuple or list of two node ids, got {show(item)}")
        pairs.append(tuple(item))
    _known_ids(ids, (i for pair in pairs for i in pair), f"{name} member")
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
        groups: dict[int, set[int]] = {}
        for e in self.parent:
            groups.setdefault(self.find(e), set()).add(e)
        return tuple(map(frozenset, groups.values()))


@dataclass(frozen=True)
class TLGraph:
    """Immutable event graph: nodes, directed causal edges, entanglement.

    The entanglement field is a full partition of the node-id set;
    singleton classes mean "entangled with nothing".
    """

    nodes: tuple[EventNode, ...]
    edges: frozenset[tuple[int, int]]
    entanglement: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        nodes = as_tuple(self.nodes, "nodes")
        by_id = {check_type(n, "node", EventNode).id: n for n in nodes}
        if len(by_id) != len(nodes):
            raise ValidationError("node ids must be unique")
        for node in nodes:
            if node.copy_of is not None:
                original = by_id.get(node.copy_of)
                if original is None:
                    raise ValidationError(
                        f"node {show(node.id)} copies unknown node {show(node.copy_of)}"
                    )
                if original.kind is not node.kind:
                    raise ValidationError(
                        f"copy {show(node.id)} must share its original's kind"
                    )
        edges = frozenset(_id_pairs(self.edges, "edge", by_id))
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop on node {show(u)}")
        object.__setattr__(self, "nodes", tuple(sorted(nodes, key=lambda n: n.id)))
        object.__setattr__(self, "edges", edges)

        classes = [as_tuple(c, "entanglement class") for c in as_tuple(self.entanglement, "entanglement")]
        members = [i for cls in classes for i in cls]
        _known_ids(by_id, members, "entanglement member")
        if not all(classes) or len(members) != len(by_id) or set(members) != by_id.keys():
            raise ValidationError("entanglement must partition the node-id set into non-empty classes")
        classes = tuple(sorted(map(frozenset, classes), key=min))
        for cls in classes:
            if len(cls) == 1:
                continue
            members = iter(cls)
            kind = by_id[next(members)].kind
            for i in members:
                if by_id[i].kind is not kind:
                    raise ValidationError(
                        f"entanglement class {show(set(cls))} mixes kinds"
                        f" {kind.value} and {by_id[i].kind.value}"
                    )
        object.__setattr__(self, "entanglement", classes)

    @classmethod
    def build(
        cls,
        nodes: Iterable[EventNode],
        edges: Iterable[tuple[int, int]],
        entangled_pairs: Iterable[tuple[int, int]] = (),
    ) -> "TLGraph":
        """Construct a graph, merging the given pairs into the partition; TLGraph checks the edges.

        A pair, like an edge, is a tuple or a list of two known node ids.
        """
        nodes = as_tuple(nodes, "nodes")
        ds = _DisjointSet(check_type(n, "node", EventNode).id for n in nodes)
        for a, b in _id_pairs(entangled_pairs, "entangled pair", ds.parent):
            ds.union(a, b)
        return cls(nodes=nodes, edges=edges, entanglement=ds.classes())

    def with_entanglement(self, pairs: Iterable[tuple[int, int]]) -> "TLGraph":
        """Same nodes and edges, partition rebuilt from the given pairs."""
        return TLGraph.build(self.nodes, self.edges, pairs)

    @cached_property
    def _by_id(self) -> dict[int, EventNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _successors(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for u, v in sorted(self.edges):
            out[u].append(v)
        return {u: tuple(vs) for u, vs in out.items()}

    def node(self, node_id: int) -> EventNode:
        """The node with this int id; any other id, True or 1.0 included, raises ValidationError."""
        _known_ids(self._by_id, (node_id,), "node_id")
        return self._by_id[node_id]

    def successors(self, node_id: int) -> tuple[int, ...]:
        self.node(node_id)
        return self._successors[node_id]

    @property
    def nontrivial_classes(self) -> tuple[frozenset[int], ...]:
        """Entanglement classes with at least two members."""
        return tuple(cls for cls in self.entanglement if len(cls) >= 2)

    def original_ids(self) -> tuple[int, ...]:
        """Ids of base-chain events: not copies, not elaborations."""
        return self._original_ids

    @cached_property
    def _original_ids(self) -> tuple[int, ...]:
        return tuple(
            n.id
            for n in self.nodes
            if n.copy_of is None and n.kind is not EventKind.ELABORATION
        )


def _graph(nodes, edges, entanglement) -> TLGraph:
    graph = object.__new__(TLGraph)
    _set(graph, "nodes", nodes)
    _set(graph, "edges", edges)
    _set(graph, "entanglement", entanglement)
    return graph


@dataclass(frozen=True)
class UnfoldSpec:
    """Where the oracle acts on a chain of length n.

    The answer is delivered at event k and concerns event m, with
    1 <= k < m <= n.
    """

    n: int
    k: int
    m: int

    def __post_init__(self) -> None:
        for name in ("n", "k", "m"):
            check_int(getattr(self, name), name, 1)
        if not self.k < self.m <= self.n:
            raise ValidationError(
                f"need 1 <= k < m <= n, got n={show(self.n)}, k={show(self.k)}, m={show(self.m)}"
            )


GAME_UNFOLD = UnfoldSpec(n=4, k=2, m=3)

# The longest chain base_chain builds; with unfold that takes about 1 s and 100 MB.
MAX_CHAIN_LENGTH = 1 << 16


def base_chain(n: int) -> TLGraph:
    """A causal chain (1) -> (2) -> ... -> (n) with no entanglement.

    A length-4 chain gets the game's event kinds; any other length is
    a generic action list.
    """
    check_int(n, "chain length", 1, MAX_CHAIN_LENGTH)
    kinds = _GAME_CHAIN_KINDS if n == 4 else (EventKind.GENERIC,) * n
    nodes = tuple(_node(i + 1, kinds[i]) for i in range(n))
    edges = frozenset((i, i + 1) for i in range(1, n))
    singletons = tuple(frozenset((i,)) for i in range(1, n + 1))
    return _graph(nodes, edges, singletons)


def _require_chain(graph: TLGraph, n: int) -> None:
    # sizes first: the spec's n can be far larger than any graph
    if len(graph.nodes) != n:
        raise GraphStructureError(f"expected a chain of {show(n)} events, got {len(graph.nodes)}")
    if graph.original_ids() != tuple(range(1, n + 1)):
        raise GraphStructureError(f"expected the original events 1..{n}, with no copy or elaboration")
    if graph.edges != frozenset(zip(range(1, n), range(2, n + 1))):
        raise GraphStructureError("input graph is not a chain")
    if graph.nontrivial_classes:
        raise GraphStructureError("input chain must carry no entanglement")


def unfold(chain: TLGraph, spec: UnfoldSpec) -> TLGraph:
    """Apply one oracle query to a pristine chain.

    Adds the elaboration node (id n+1), the detour edges m -> E -> k,
    and a copy of every event after k (ids n+2 onward), each entangled
    with its original. That partition is already transmission-closed,
    so entanglement_closure would leave it as it is:

    * a pair (j, copy of j) has the successors j+1 and copy of j+1,
      which are themselves a pair;
    * the elaboration node is m's only successor of its kind;
    * k is a singleton, so its two successors k+1 and copy of k+1 stay
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
    copies = tuple(
        _node(n + 1 + j - k, node.kind, j)
        for j, node in enumerate(chain.nodes[k:], k + 1)
    )
    # one build: a frozenset grown by union keeps a table twice this size
    edges = frozenset((
        *chain.edges,
        (m, elaboration),
        (elaboration, k),
        (k, n + 2),
        *zip(range(n + 2, 2 * n + 1 - k), range(n + 3, 2 * n + 2 - k)),
    ))
    entanglement = (
        *(frozenset((j,)) for j in range(1, k + 1)),
        *(frozenset((j, n + 1 + j - k)) for j in range(k + 1, n + 1)),
        frozenset((elaboration,)),
    )
    nodes = (*chain.nodes, _node(elaboration, EventKind.ELABORATION), *copies)
    return _graph(nodes, edges, entanglement)


def game_graph() -> TLGraph:
    """The standard 7-node game graph."""
    return unfold(base_chain(4), GAME_UNFOLD)


def player_timeline(tlg: TLGraph, player: Player) -> tuple[int, ...]:
    """A player's walk through an unfolded chain, as a tuple of node ids.

    The graph must be unfold(base_chain(n), UnfoldSpec(n, k, m)) for
    some n, k and m; they are read back from the original events and
    the detour m -> E -> k through the elaboration node E = n+1. The
    copies n+2 .. 2n+1-k carry the events after k. C walks the plain
    chain 1..n; S walks 1..k, then follows the answer into the copies;
    the oracle walks 1..k-1, runs ahead to m, elaborates in E, comes
    back to k, and then rides the copies. On the standard game graph
    these are (1, 2, 3, 4), (1, 2, 6, 7) and (1, 3, 5, 2, 6, 7).

    Any other graph raises UnsupportedGraphError, and so does the
    oracle at k = 1, where its walk would not start at event 1.
    """
    check_type(tlg, "graph", TLGraph)
    check_type(player, "player", Player)
    n = len(tlg.original_ids())
    # the detour edges, sorted: (m, n+1) comes before (n+1, k) since m <= n
    detour = sorted(edge for edge in tlg.edges if n + 1 in edge)
    try:
        (m, _), (_, k) = detour
        spec = UnfoldSpec(n, k, m)
    except ValueError:  # not two detour edges, or ValidationError from the spec
        spec = None
    if spec is None or tlg != unfold(base_chain(n), spec):
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


def _chain_skip_allowed(tlg: TLGraph, originals: set[int], a: int, b: int) -> bool:
    # A walk may fast-forward along base-chain edges (the oracle's jump
    # into the future); any other non-edge hop is invalid. originals is
    # set(tlg.original_ids()), so a and b are known ids.
    if a not in originals or b not in originals:
        return False
    successors = tlg._successors
    frontier = deque([a])
    seen = {a}
    while frontier:
        u = frontier.popleft()
        for v in successors[u]:
            if v == b:
                return True
            if v in originals and v not in seen:
                seen.add(v)
                frontier.append(v)
    return False


def validate_linearity(timeline: Sequence[int], tlg: TLGraph) -> bool:
    """Check that a walk is chain-shaped: distinct nodes, valid hops.

    A hop is valid when it is a graph edge or a forward jump along the
    base chain. Returns False on any violation; an id node() rejects raises.
    """
    check_type(tlg, "graph", TLGraph)
    sequence = as_tuple(timeline, "timeline")
    _known_ids(tlg._by_id, sequence, "timeline id")
    if not sequence or len(set(sequence)) != len(sequence):
        return False
    originals = set(tlg.original_ids())
    for a, b in zip(sequence, sequence[1:]):
        if (a, b) not in tlg.edges and not _chain_skip_allowed(tlg, originals, a, b):
            return False
    return True


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
    input partition, so applying it twice changes nothing.

    unfold does not call it: the partition unfold builds is already
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
    return _graph(tlg.nodes, tlg.edges, classes)


def detect_twist(timeline: Sequence[int], tlg: TLGraph) -> list[tuple[int, int]]:
    """Find visit-order inversions against base-chain causal order.

    Copies count as their originals in tlg.original_ids(); elaboration
    nodes have no base position and are skipped. Returns every pair
    (a, b) where a is visited before b but a's base event comes causally
    after b's. An id node() rejects raises, and so does a copy of a copy.
    """
    check_type(tlg, "graph", TLGraph)
    sequence = as_tuple(timeline, "timeline")
    _known_ids(tlg._by_id, sequence, "timeline id")
    position = {node_id: idx for idx, node_id in enumerate(tlg.original_ids())}

    mapped: list[tuple[int, int]] = []  # (timeline id, base position)
    for node_id in sequence:
        node = tlg._by_id[node_id]
        if node.kind is EventKind.ELABORATION:
            continue
        base_id = node.copy_of if node.copy_of is not None else node.id
        if base_id not in position:
            raise ValidationError(f"node {show(node_id)} has no position in the base order")
        mapped.append((node_id, position[base_id]))

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
    return twists


def to_dot(tlg: TLGraph) -> str:
    """Render the graph as deterministic DOT text.

    Base-chain edges are solid, the oracle branch (detour and copies)
    is dashed, and entangled nodes are joined by undirected dotted
    edges that do not constrain the layout. Output bytes are a pure
    function of the graph.
    """
    check_type(tlg, "graph", TLGraph)
    originals = set(tlg.original_ids())
    lines = ["digraph tlg {", "  rankdir=LR;"]
    for node in tlg.nodes:
        lines.append(f'  {node.id} [label="{node.id}: {node.kind.value}"];')
    for u, v in sorted(tlg.edges):
        style = "solid" if u in originals and v in originals else "dashed"
        lines.append(f"  {u} -> {v} [style={style}];")
    for cls in tlg.nontrivial_classes:
        members = sorted(cls)
        for a, b in zip(members, members[1:]):
            lines.append(f"  {a} -> {b} [dir=none, style=dotted, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
