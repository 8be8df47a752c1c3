"""Static reachability and q-path enumeration over the coupling graph.

The graph is V itself: its edges are the operator's entries, one per
nonzero off-diagonal pair, each with its one coupling kind. Scheduled
pulses are not edges; they relabel the whole search frontier to
photon-added partners, opening the next layer, exactly as pulse
injection acts on a state vector. Over these (ket, pulse layer) nodes one
breadth-first search gives witness and closure, and, run backward from
the target, the distances that cut the depth-first enumeration.

A q-path is a mechanism skeleton: an ordered ket sequence whose graph
steps carry a (dLambda, dS) ledger and whose injections consume the pulse
budget. Path magnitudes are out of scope; reachability is topological.
Non-radiative channels have no coupling kind here and are unsupported.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .basis import BasisSet, photon_partner
from .operators import OperatorPair, VEntry
from .scheme import PulseDecl

INJECT = "inject"
INF = float("inf")
MAX_PATHS = 100_000  # ceiling on the q-paths one enumeration may list

Steps = Callable[[int, int], Iterable[tuple[int, str]]]  # (ket, layer) -> (next ket, kind)


@dataclass(frozen=True)
class CouplingGraph:
    """The kets of V and its entries, which are the graph's undirected edges."""

    n: int
    edges: tuple[VEntry, ...]


@dataclass(frozen=True)
class QPath:
    """An ordered ket sequence with its per-step bookkeeping.

    ``kinds`` holds one entry per step: a coupling kind for graph steps or
    ``inject`` for pulse relabelings. ``ledger`` records (dLambda, dS) per
    step; injections contribute (0, 0). ``prepared_quanta`` counts the
    photons already present in the start ket, so the photon budget covers
    both the laboratory preparation and the scheduled injections.
    """

    kets: tuple[int, ...]
    kinds: tuple[str, ...]
    injected: tuple[str, ...]
    ledger: tuple[tuple[int, int], ...]
    prepared_quanta: int

    def __len__(self) -> int:
        return len(self.kinds)

    def to_dict(self, b: BasisSet) -> dict:
        return {
            "kets": [b.ket_names[i] for i in self.kets],
            "kinds": list(self.kinds),
            "injected": list(self.injected),
            "ledger": [list(x) for x in self.ledger],
            "photon_budget": photon_budget(self),
        }


def photon_budget(p: QPath) -> int:
    """Quanta consumed along a path: prepared photons plus injections."""
    return p.prepared_quanta + len(p.injected)


def build_graph(op: OperatorPair) -> CouplingGraph:
    """The coupling graph of V: its entries are the edges, not a copy of them."""
    return CouplingGraph(op.dimension, op.entries)


def _layered(g: CouplingGraph, b: BasisSet, pulses: Sequence[PulseDecl]) -> tuple[Steps, Steps]:
    """The moves out of a (ket, pulse layer) node: its edges, then its next-layer partner;
    and the moves into it: its edges, then the previous-layer kets whose partner it is."""
    moves: list[list[tuple[int, str]]] = [[] for _ in range(g.n)]
    for e in g.edges:
        moves[e.a].append((e.b, e.kind))
        moves[e.b].append((e.a, e.kind))
    partners = [[photon_partner(b, ket, u.mode) for ket in b.kets] for u in pulses]
    # each layer's partner table inverted: adding a quantum never maps two kets to one
    sources = [{p: ket for ket, p in enumerate(table) if p is not None} for table in partners]

    def steps(ket: int, layer: int) -> Iterable[tuple[int, str]]:
        partner = partners[layer][ket] if layer < len(partners) else None
        return moves[ket] if partner is None else chain(moves[ket], ((partner, INJECT),))

    def back(ket: int, layer: int) -> Iterable[tuple[int, str]]:
        source = sources[layer - 1].get(ket) if layer else None
        return moves[ket] if source is None else chain(moves[ket], ((source, INJECT),))

    return steps, back


def _bfs(steps: Steps, sources: Iterable[tuple[int, int]], sign: int = 1) -> dict:
    """Breadth-first search over (ket, pulse layer) nodes from all ``sources`` at once, where
    an injection moves a node ``sign`` layers (-1 over reversed moves): the parent map
    {node: (parent, step kind)} of the nodes reached, in visit order, None for a source."""
    prev: dict = dict.fromkeys(sources)
    queue = deque(prev)
    while queue:
        ket, layer = node = queue.popleft()
        for nxt, kind in steps(ket, layer):
            step = (nxt, layer + sign * (kind == INJECT))
            if step not in prev:
                prev[step] = (node, kind)
                queue.append(step)
    return prev


def _qpath(b: BasisSet, pulses: Sequence[PulseDecl], kets: list[int], kinds: list[str]) -> QPath:
    """The q-path along ``kets``: its injected modes, ledger and prepared quanta."""
    matter = [b.kets[i].matter for i in kets]
    ledger = tuple((y.lam - x.lam, y.spin - x.spin) for x, y in zip(matter, matter[1:]))
    injected = tuple(u.mode.id for u in pulses[: kinds.count(INJECT)])
    return QPath(tuple(kets), tuple(kinds), injected, ledger, b.kets[kets[0]].total_occupation)


def _witness(b: BasisSet, pulses: Sequence[PulseDecl], prev: dict, node: tuple) -> QPath:
    """The q-path from the search start to ``node`` along the parent map of ``_bfs``."""
    kets, kinds = [node[0]], []
    while prev[node] is not None:
        node, kind = prev[node]
        kets.append(node[0])
        kinds.append(kind)
    return _qpath(b, pulses, kets[::-1], kinds[::-1])


def reachable(
    g: CouplingGraph, b: BasisSet, start: int, target: int, pulses: Sequence[PulseDecl] = ()
) -> tuple[bool, Optional[QPath]]:
    """Layered search for the target, returning a minimal-length witness.

    Within a layer the search walks graph edges; consuming the next
    scheduled pulse moves a frontier ket to its photon-added partner
    (when present) and opens the next layer. The witness is a shortest
    walk over (ket, pulse layer) nodes. Start equal to target is
    trivially reachable with an empty path. It is ``witnesses`` for one target.
    """
    witness = witnesses(g, b, start, (target,), pulses)[target]
    return witness is not None, witness


def witnesses(g: CouplingGraph, b: BasisSet, start: int, targets: Iterable[int],
              pulses: Sequence[PulseDecl] = ()) -> dict[int, Optional[QPath]]:
    """``reachable``'s witness for each target (None if unreachable), from one search."""
    prev = _bfs(_layered(g, b, pulses)[0], [(start, 0)])
    first = {node[0]: node for node in reversed(prev)}  # the earliest node of each ket wins
    return {t: _witness(b, pulses, prev, first[t]) if t in first else None for t in targets}


def reachable_set(g: CouplingGraph, b: BasisSet, start: int,
                  pulses: Sequence[PulseDecl] = ()) -> set[int]:
    """All kets reachable from the start across every pulse layer."""
    return {ket for ket, _ in _bfs(_layered(g, b, pulses)[0], [(start, 0)])}


def enumerate_qpaths(
    g: CouplingGraph, b: BasisSet, start: int, target: int,
    pulses: Sequence[PulseDecl] = (), max_len: int = 12,
) -> tuple[list[QPath], bool]:
    """All simple q-paths from start to target, up to ``max_len`` steps.

    Paths never revisit a ket and come in depth-first order: graph edges
    in edge order, then the next injection. A move is cut when its fewest
    moves to the target, a bound that ignores the kets visited, exceed the
    steps left, so no path within ``max_len`` is lost. The second return
    value flags truncation: a cut move could still reach the target, so a
    longer simple path may exist. False proves the list complete at any
    length, and a target no walk reaches is never truncated. The search
    keeps an explicit stack, so a path may be longer than the recursion limit.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    paths, kets, kinds, visited = [], [start], [], {start}
    if start == target:
        return [_qpath(b, pulses, kets, kinds)], False
    steps, back = _layered(g, b, pulses)
    # dist[layer][ket]: the fewest moves from a node to the target ket in any layer (inf if
    # none), from the target's nodes over the reversed moves; a parent precedes its children
    dist = [[INF] * g.n for _ in range(len(pulses) + 1)]
    for (ket, layer), parent in _bfs(back, [(target, n) for n in range(len(dist))], -1).items():
        dist[layer][ket] = 0 if parent is None else dist[parent[0][1]][parent[0][0]] + 1
    if dist[0][start] == INF:
        return [], False
    truncated = False
    # one frame per path ket short of the target: its remaining moves and its pulse layer
    stack = [(iter(steps(start, 0)), 0)]
    while stack:
        moves, layer = stack[-1]
        left = max_len - len(kinds)
        for nxt, kind in moves:
            if nxt in visited:
                continue
            step = layer + (kind == INJECT)
            if dist[step][nxt] >= left:  # the target lies more than `left` moves away
                truncated |= dist[step][nxt] < INF
                continue
            kets.append(nxt)
            kinds.append(kind)
            if nxt != target:
                visited.add(nxt)
                stack.append((iter(steps(nxt, step)), step))
                break
            if len(paths) == MAX_PATHS:
                raise ValueError(f"q-path enumeration exceeds {MAX_PATHS} paths")
            paths.append(_qpath(b, pulses, kets, kinds))
            kets.pop()
            kinds.pop()
        if stack[-1][0] is moves:  # every move from this ket is done
            stack.pop()
            visited.remove(kets.pop())
            del kinds[-1:]
    return paths, truncated
