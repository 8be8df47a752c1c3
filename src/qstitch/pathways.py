"""Static reachability and q-path enumeration over the coupling graph.

The graph mirrors the exact sparsity of V: an undirected edge exists
wherever V has a nonzero off-diagonal entry, annotated with the coupling
kinds behind it. Scheduled pulses are not edges; they relabel the whole
search frontier to photon-added partners, opening the next layer, exactly
as pulse injection acts on a state vector. Over these (ket, pulse layer)
nodes breadth-first search gives witness and closure, depth-first search
the enumeration.

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

from .basis import BasisSet, ket_name, photon_partner
from .operators import OperatorPair, coupled_pairs
from .scheme import PulseDecl

INJECT = "inject"

Steps = Callable[[int, int], Iterable[tuple[int, str]]]  # (ket, layer) -> (next ket, kind)


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    kinds: tuple[str, ...]


@dataclass(frozen=True)
class CouplingGraph:
    """Adjacency view of the nonzero off-diagonal pattern of V."""

    n: int
    edges: tuple[Edge, ...]


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
            "kets": [ket_name(b.kets[i]) for i in self.kets],
            "kinds": list(self.kinds),
            "injected": list(self.injected),
            "ledger": [list(x) for x in self.ledger],
            "photon_budget": photon_budget(self),
        }


def photon_budget(p: QPath) -> int:
    """Quanta consumed along a path: prepared photons plus injections."""
    return p.prepared_quanta + len(p.injected)


def build_graph(op: OperatorPair) -> CouplingGraph:
    """Extract the exact adjacency of V, annotated with coupling kinds."""
    return CouplingGraph(op.dimension, tuple(Edge(a, b, k) for a, b, k in coupled_pairs(op)))


def _layered(g: CouplingGraph, b: BasisSet, pulses: Sequence[PulseDecl]) -> Steps:
    """The moves out of a (ket, pulse layer) node: its edges, then its next-layer partner."""
    moves: list[list[tuple[int, str]]] = [[] for _ in range(g.n)]
    for e in g.edges:
        # one kind per edge: only a dipole moves a quantum, only a transfer hops sectors
        moves[e.a].append((e.b, e.kinds[0]))
        moves[e.b].append((e.a, e.kinds[0]))
    partners = [[photon_partner(b, ket, u.mode) for ket in b.kets] for u in pulses]

    def steps(ket: int, layer: int) -> Iterable[tuple[int, str]]:
        partner = partners[layer][ket] if layer < len(partners) else None
        return moves[ket] if partner is None else chain(moves[ket], ((partner, INJECT),))

    return steps


def _bfs(steps: Steps, start: int, target: Optional[int] = None) -> tuple[dict, Optional[tuple]]:
    """Breadth-first search over (ket, pulse layer) nodes from (start, 0).

    Returns the parent map {node: (parent, step kind)} of the nodes reached,
    None for the start, and the first node whose ket is ``target``.
    """
    init = (start, 0)
    prev: dict = {init: None}
    queue = deque([init])
    while queue:
        ket, layer = node = queue.popleft()
        if ket == target:
            return prev, node
        for nxt, kind in steps(ket, layer):
            step = (nxt, layer + (kind == INJECT))
            if step not in prev:
                prev[step] = (node, kind)
                queue.append(step)
    return prev, None


def _qpath(b: BasisSet, pulses: Sequence[PulseDecl], kets: list[int], kinds: list[str]) -> QPath:
    """The q-path along ``kets``: its injected modes, ledger and prepared quanta."""
    matter = [b.kets[i].matter for i in kets]
    ledger = tuple((y.lam - x.lam, y.spin - x.spin) for x, y in zip(matter, matter[1:]))
    injected = tuple(u.mode.id for u in pulses[: kinds.count(INJECT)])
    return QPath(tuple(kets), tuple(kinds), injected, ledger, b.kets[kets[0]].total_occupation)


def reachable(
    g: CouplingGraph, b: BasisSet, start: int, target: int, pulses: Sequence[PulseDecl] = ()
) -> tuple[bool, Optional[QPath]]:
    """Layered search for the target, returning a minimal-length witness.

    Within a layer the search walks graph edges; consuming the next
    scheduled pulse moves a frontier ket to its photon-added partner
    (when present) and opens the next layer. The witness is a shortest
    walk over (ket, pulse layer) nodes. Start equal to target is
    trivially reachable with an empty path.
    """
    prev, goal = _bfs(_layered(g, b, pulses), start, target)
    if goal is None:
        return False, None
    kets, kinds, node = [goal[0]], [], goal
    while prev[node] is not None:
        node, kind = prev[node]
        kets.append(node[0])
        kinds.append(kind)
    return True, _qpath(b, pulses, kets[::-1], kinds[::-1])


def reachable_set(g: CouplingGraph, b: BasisSet, start: int,
                  pulses: Sequence[PulseDecl] = ()) -> set[int]:
    """All kets reachable from the start across every pulse layer."""
    prev, _ = _bfs(_layered(g, b, pulses), start)
    return {ket for ket, _ in prev}


def enumerate_qpaths(
    g: CouplingGraph, b: BasisSet, start: int, target: int,
    pulses: Sequence[PulseDecl] = (), max_len: int = 12,
) -> tuple[list[QPath], bool]:
    """All simple q-paths from start to target, up to ``max_len`` steps.

    Paths never revisit a ket and come in depth-first order: graph edges
    in edge order, then the next injection. The second return value flags
    truncation: a path of ``max_len`` steps that did not end at the target
    had an unvisited next ket, so longer paths may exist.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    steps = _layered(g, b, pulses)
    paths, kets, kinds, visited = [], [start], [], {start}

    def walk(ket: int, layer: int) -> bool:
        """Collect the paths on from (ket, layer); True if the length bound cut one off."""
        if ket == target:
            paths.append(_qpath(b, pulses, kets, kinds))
            return False
        cut = False
        for nxt, kind in steps(ket, layer):
            if nxt in visited:
                continue
            if len(kinds) == max_len:
                return True
            visited.add(nxt)
            kets.append(nxt)
            kinds.append(kind)
            cut |= walk(nxt, layer + (kind == INJECT))
            visited.remove(nxt)
            kets.pop()
            kinds.pop()
        return cut

    truncated = walk(start, 0)
    return paths, truncated
