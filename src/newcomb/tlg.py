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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Iterable, Sequence

from ._validate import check_int, check_type
from .errors import GraphStructureError, UnsupportedGraphError, ValidationError

__all__ = [
    "EventKind",
    "Player",
    "EventNode",
    "TLGraph",
    "Timeline",
    "UnfoldSpec",
    "GAME_UNFOLD",
    "base_chain",
    "unfold",
    "game_graph",
    "player_timeline",
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
        return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


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
        ids = [n.id for n in self.nodes]
        id_set = set(ids)
        if len(ids) != len(id_set):
            raise ValidationError("node ids must be unique")
        by_id = {n.id: n for n in self.nodes}
        for node in self.nodes:
            if node.copy_of is not None:
                original = by_id.get(node.copy_of)
                if original is None:
                    raise ValidationError(
                        f"node {node.id} copies unknown node {node.copy_of}"
                    )
                if original.kind is not node.kind:
                    raise ValidationError(
                        f"copy {node.id} must share its original's kind"
                    )
        for edge in self.edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {edge!r} must be a pair (u, v)") from None
            if u not in id_set or v not in id_set:
                raise ValidationError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise ValidationError(f"self-loop on node {u}")
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=lambda n: n.id)))
        object.__setattr__(self, "edges", frozenset(self.edges))

        classes = tuple(sorted((frozenset(c) for c in self.entanglement), key=min))
        covered: set[int] = set()
        for cls in classes:
            if covered & cls:
                raise ValidationError("entanglement classes must be disjoint")
            covered |= cls
            kinds = {by_id[i].kind for i in cls if i in by_id}
            if cls - id_set:
                raise ValidationError(f"entanglement class {set(cls)} has unknown ids")
            if len(kinds) > 1:
                raise ValidationError(
                    f"entanglement class {set(cls)} mixes kinds {kinds}"
                )
        if covered != id_set:
            raise ValidationError("entanglement must partition the node-id set")
        object.__setattr__(self, "entanglement", classes)

    @classmethod
    def build(
        cls,
        nodes: Iterable[EventNode],
        edges: Iterable[tuple[int, int]],
        entangled_pairs: Iterable[tuple[int, int]] = (),
    ) -> "TLGraph":
        """Construct a graph, merging the given pairs into the partition."""
        nodes = tuple(nodes)
        ds = _DisjointSet(n.id for n in nodes)
        for pair in entangled_pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise ValidationError(f"entangled pair {pair!r} must be a pair (a, b)") from None
            if a not in ds.parent or b not in ds.parent:
                raise ValidationError(f"entangled pair ({a}, {b}) references unknown node")
            ds.union(a, b)
        return cls(nodes=nodes, edges=frozenset(edges), entanglement=ds.classes())

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

    @cached_property
    def _class_of(self) -> dict[int, frozenset[int]]:
        return {i: cls for cls in self.entanglement for i in cls}

    def node(self, node_id: int) -> EventNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._by_id

    def successors(self, node_id: int) -> tuple[int, ...]:
        self.node(node_id)
        return self._successors[node_id]

    def entangled_class(self, node_id: int) -> frozenset[int]:
        self.node(node_id)
        return self._class_of[node_id]

    def are_entangled(self, a: int, b: int) -> bool:
        return b in self.entangled_class(a)

    @property
    def nontrivial_classes(self) -> tuple[frozenset[int], ...]:
        """Entanglement classes with at least two members."""
        return tuple(cls for cls in self.entanglement if len(cls) >= 2)

    def original_ids(self) -> tuple[int, ...]:
        """Ids of base-chain events: not copies, not elaborations."""
        return tuple(
            n.id
            for n in self.nodes
            if n.copy_of is None and n.kind is not EventKind.ELABORATION
        )


@dataclass(frozen=True)
class Timeline:
    """One player's ordered walk through the graph."""

    player: Player
    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequence", tuple(self.sequence))


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
                f"need 1 <= k < m <= n, got n={self.n}, k={self.k}, m={self.m}"
            )


GAME_UNFOLD = UnfoldSpec(n=4, k=2, m=3)


def base_chain(n: int) -> TLGraph:
    """A causal chain (1) -> (2) -> ... -> (n) with no entanglement.

    A length-4 chain gets the game's event kinds; any other length is
    a generic action list.
    """
    check_int(n, "chain length", 1)
    kinds = _GAME_CHAIN_KINDS if n == 4 else (EventKind.GENERIC,) * n
    nodes = tuple(EventNode(id=i + 1, kind=kinds[i]) for i in range(n))
    edges = tuple((i, i + 1) for i in range(1, n))
    return TLGraph.build(nodes, edges)


def _require_chain(graph: TLGraph, n: int) -> None:
    ids = sorted(node.id for node in graph.nodes)
    if ids != list(range(1, n + 1)):
        raise GraphStructureError(f"expected a chain with ids 1..{n}, got {ids}")
    expected_edges = {(i, i + 1) for i in range(1, n)}
    if set(graph.edges) != expected_edges:
        raise GraphStructureError("input graph is not a chain")
    for node in graph.nodes:
        if node.copy_of is not None or node.kind is EventKind.ELABORATION:
            raise GraphStructureError("input chain was already unfolded")
    if any(len(cls) > 1 for cls in graph.entanglement):
        raise GraphStructureError("input chain must carry no entanglement")


def unfold(chain: TLGraph, spec: UnfoldSpec) -> TLGraph:
    """Apply one oracle query to a pristine chain.

    Adds the elaboration node (id n+1), the detour edges m -> E -> k,
    and a copy of every event after k (ids n+2 onward), each entangled
    with its original. The returned graph is transmission-closed, so
    consequences of the copies are entangled with their counterparts
    as well.
    """
    check_type(spec, "spec", UnfoldSpec)
    _require_chain(chain, spec.n)
    n, k, m = spec.n, spec.k, spec.m

    elaboration_id = n + 1
    copy_id = {j: n + 1 + (j - k) for j in range(k + 1, n + 1)}

    nodes = list(chain.nodes)
    nodes.append(EventNode(id=elaboration_id, kind=EventKind.ELABORATION))
    nodes.extend(
        EventNode(id=copy_id[j], kind=chain.node(j).kind, copy_of=j)
        for j in range(k + 1, n + 1)
    )

    edges = set(chain.edges)
    edges.add((m, elaboration_id))
    edges.add((elaboration_id, k))
    edges.add((k, copy_id[k + 1]))
    edges.update((copy_id[j], copy_id[j + 1]) for j in range(k + 1, n))

    seeds = [(j, copy_id[j]) for j in range(k + 1, n + 1)]
    return entanglement_closure(TLGraph.build(nodes, edges, seeds))


def game_graph() -> TLGraph:
    """The standard 7-node game graph."""
    return unfold(base_chain(4), GAME_UNFOLD)


@cache
def _game_shape() -> tuple[tuple[EventNode, ...], frozenset[tuple[int, int]]]:
    # nodes and edges of the standard game graph, built on first use
    game = game_graph()
    return game.nodes, game.edges


_TIMELINES = {
    Player.C: (1, 2, 3, 4),
    Player.S: (1, 2, 6, 7),
    Player.OMEGA: (1, 3, 5, 2, 6, 7),
}


def player_timeline(tlg: TLGraph, player: Player) -> Timeline:
    """A player's walk through the standard game graph.

    C sees the plain chain; S follows the answer into the copied
    branch; the oracle runs ahead to C's choice, elaborates, comes
    back, and then rides the copies. Only the standard game graph is
    supported.
    """
    check_type(player, "player", Player)
    if (tlg.nodes, tlg.edges) != _game_shape():
        raise UnsupportedGraphError(
            "timelines are only defined for the standard game graph"
        )
    return Timeline(player=player, sequence=_TIMELINES[player])


def _chain_skip_allowed(tlg: TLGraph, originals: set[int], a: int, b: int) -> bool:
    # A walk may fast-forward along base-chain edges (the oracle's jump
    # into the future); any other non-edge hop is invalid. originals is
    # set(tlg.original_ids()).
    if a not in originals or b not in originals:
        return False
    frontier = deque([a])
    seen = {a}
    while frontier:
        u = frontier.popleft()
        for v in tlg.successors(u):
            if v == b:
                return True
            if v in originals and v not in seen:
                seen.add(v)
                frontier.append(v)
    return False


def _as_sequence(timeline: Timeline | Sequence[int]) -> tuple[int, ...]:
    if isinstance(timeline, Timeline):
        return timeline.sequence
    return tuple(timeline)


def validate_linearity(timeline: Timeline | Sequence[int], tlg: TLGraph) -> bool:
    """Check that a walk is chain-shaped: distinct nodes, valid hops.

    A hop is valid when it is a graph edge or a forward jump along the
    base chain. Returns False on any violation; unknown node ids raise.
    """
    sequence = _as_sequence(timeline)
    for node_id in sequence:
        tlg.node(node_id)
    if not sequence or len(set(sequence)) != len(sequence):
        return False
    originals = set(tlg.original_ids())
    for a, b in zip(sequence, sequence[1:]):
        if (a, b) not in tlg.edges and not _chain_skip_allowed(tlg, originals, a, b):
            return False
    return True


def is_chain(tlg: TLGraph) -> bool:
    """True iff the whole graph is a single path from one source to one sink."""
    n = len(tlg.nodes)
    if n == 0:
        return False
    if len(tlg.edges) != n - 1:
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
    """
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
    return TLGraph(nodes=tlg.nodes, edges=tlg.edges, entanglement=ds.classes())


def detect_twist(
    timeline: Timeline | Sequence[int],
    tlg: TLGraph,
    base_order: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """Find visit-order inversions against base-chain causal order.

    Copies count as their originals; elaboration nodes have no base
    position and are skipped. Returns every pair (a, b) where a is
    visited before b but a's base event comes causally after b's.
    """
    sequence = _as_sequence(timeline)
    if base_order is None:
        base_order = tlg.original_ids()
    position = {node_id: idx for idx, node_id in enumerate(base_order)}

    mapped: list[tuple[int, int]] = []  # (timeline id, base position)
    for node_id in sequence:
        node = tlg.node(node_id)
        if node.kind is EventKind.ELABORATION:
            continue
        base_id = node.copy_of if node.copy_of is not None else node.id
        if base_id not in position:
            raise ValidationError(f"node {node_id} has no position in the base order")
        mapped.append((node_id, position[base_id]))

    twists = []
    for i in range(len(mapped)):
        for j in range(i + 1, len(mapped)):
            if mapped[i][1] > mapped[j][1]:
                twists.append((mapped[i][0], mapped[j][0]))
    return twists


def to_dot(tlg: TLGraph) -> str:
    """Render the graph as deterministic DOT text.

    Base-chain edges are solid, the oracle branch (detour and copies)
    is dashed, and entangled nodes are joined by undirected dotted
    edges that do not constrain the layout. Output bytes are a pure
    function of the graph.
    """
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
