"""Static reachability and q-path enumeration over the coupling graph.

The graph mirrors the exact sparsity of V: an undirected edge exists
wherever V has a nonzero off-diagonal entry, annotated with the coupling
kinds behind it. Scheduled pulses are not edges; they relabel the whole
search frontier to photon-added partners, opening the next layer, exactly
as pulse injection acts on a state vector.

A q-path is a mechanism skeleton: an ordered ket sequence whose graph
steps carry a (dLambda, dS) ledger and whose injections consume the pulse
budget. Path magnitudes are out of scope; reachability is topological.
Non-radiative channels have no coupling kind here and are unsupported.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import BasisSet
from .operators import OperatorPair
from .scheme import PulseDecl


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
            "kets": [b.names()[i] for i in self.kets],
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
    n = op.dimension
    kinds: dict[tuple[int, int], set[str]] = {}
    for e in op.entries:
        kinds.setdefault((e.a, e.b), set()).add(e.kind)
    edges = []
    rows, cols = np.nonzero(op.V)
    for i, j in zip(rows, cols):
        if i < j:
            edges.append(Edge(int(i), int(j), tuple(sorted(kinds.get((int(i), int(j)), ())))))
    return CouplingGraph(n=n, edges=tuple(edges))


def _adjacency(g: CouplingGraph) -> dict[int, list[tuple[int, Edge]]]:
    adj: dict[int, list[tuple[int, Edge]]] = {i: [] for i in range(g.n)}
    for e in g.edges:
        adj[e.a].append((e.b, e))
        adj[e.b].append((e.a, e))
    return adj


def _step_ledger(b: BasisSet, i: int, j: int) -> tuple[int, int]:
    ka, kb = b.kets[i], b.kets[j]
    return (kb.matter.lam - ka.matter.lam, kb.matter.spin - ka.matter.spin)


def _step_kind(b: BasisSet, e: Edge, i: int, j: int) -> str:
    if len(e.kinds) == 1:
        return e.kinds[0]
    ka, kb = b.kets[i], b.kets[j]
    if ka.sector != kb.sector:
        return "transfer"
    return e.kinds[0] if e.kinds else "coupling"


def _partner_map(b: BasisSet, pulse: PulseDecl) -> dict[int, int]:
    from .basis import photon_partner

    out = {}
    for i, ket in enumerate(b.kets):
        j = photon_partner(b, ket, pulse.mode)
        if j is not None:
            out[i] = j
    return out


def reachable(
    g: CouplingGraph,
    b: BasisSet,
    start: int,
    target: int,
    pulses: Sequence[PulseDecl] = (),
) -> tuple[bool, Optional[QPath]]:
    """Layered search for the target, returning a minimal-length witness.

    Within a layer the search walks graph edges; consuming the next
    scheduled pulse moves a frontier ket to its photon-added partner
    (when present) and opens the next layer. Start equal to target is
    trivially reachable with an empty path.
    """
    adj = _adjacency(g)
    partner_maps = [_partner_map(b, u) for u in pulses]
    init = (start, 0)
    prev: dict[tuple[int, int], tuple[tuple[int, int], str]] = {init: (None, "")}
    queue = deque([init])
    goal: Optional[tuple[int, int]] = (init if start == target else None)

    while queue and goal is None:
        node = queue.popleft()
        ket, layer = node
        moves: list[tuple[tuple[int, int], str]] = [
            ((nxt, layer), _step_kind(b, e, ket, nxt)) for nxt, e in adj[ket]
        ]
        if layer < len(pulses) and ket in partner_maps[layer]:
            moves.append(((partner_maps[layer][ket], layer + 1), "inject"))
        for nxt, kind in moves:
            if nxt in prev:
                continue
            prev[nxt] = (node, kind)
            if nxt[0] == target:
                goal = nxt
                break
            queue.append(nxt)

    if goal is None:
        return False, None

    kets: list[int] = []
    kinds: list[str] = []
    node = goal
    while node is not None:
        kets.append(node[0])
        parent, kind = prev[node]
        if parent is not None:
            kinds.append(kind)
        node = parent
    kets.reverse()
    kinds.reverse()

    injected = []
    ledger = []
    layer = 0
    for idx, kind in enumerate(kinds):
        ledger.append(_step_ledger(b, kets[idx], kets[idx + 1]))
        if kind == "inject":
            injected.append(pulses[layer].mode.id)
            layer += 1
    path = QPath(
        kets=tuple(kets),
        kinds=tuple(kinds),
        injected=tuple(injected),
        ledger=tuple(ledger),
        prepared_quanta=b.kets[start].total_occupation,
    )
    return True, path


def reachable_set(
    g: CouplingGraph, b: BasisSet, start: int, pulses: Sequence[PulseDecl] = ()
) -> set[int]:
    """All kets reachable from the start across every pulse layer."""
    adj = _adjacency(g)
    partner_maps = [_partner_map(b, u) for u in pulses]
    seen = {(start, 0)}
    queue = deque([(start, 0)])
    while queue:
        ket, layer = queue.popleft()
        nexts = [(nxt, layer) for nxt, _ in adj[ket]]
        if layer < len(pulses) and ket in partner_maps[layer]:
            nexts.append((partner_maps[layer][ket], layer + 1))
        for node in nexts:
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return {ket for ket, _ in seen}


def enumerate_qpaths(
    g: CouplingGraph,
    b: BasisSet,
    start: int,
    target: int,
    pulses: Sequence[PulseDecl] = (),
    max_len: int = 12,
) -> tuple[list[QPath], bool]:
    """All simple q-paths from start to target, up to ``max_len`` steps.

    Paths never revisit a ket. The second return value flags truncation:
    some branch hit the length bound while unexplored continuations
    remained, so longer paths may exist.
    """
    adj = _adjacency(g)
    partner_maps = [_partner_map(b, u) for u in pulses]
    paths: list[QPath] = []
    truncated = False

    def emit(kets: list[int], kinds: list[str]) -> None:
        injected = []
        layer = 0
        ledger = []
        for idx, kind in enumerate(kinds):
            ledger.append(_step_ledger(b, kets[idx], kets[idx + 1]))
            if kind == "inject":
                injected.append(pulses[layer].mode.id)
                layer += 1
        paths.append(
            QPath(
                kets=tuple(kets),
                kinds=tuple(kinds),
                injected=tuple(injected),
                ledger=tuple(ledger),
                prepared_quanta=b.kets[start].total_occupation,
            )
        )

    def walk(kets: list[int], kinds: list[str], layer: int, visited: set[int]) -> None:
        nonlocal truncated
        node = kets[-1]
        if node == target:
            emit(kets, kinds)
            return
        moves: list[tuple[int, str, int]] = [
            (nxt, _step_kind(b, e, node, nxt), layer) for nxt, e in adj[node]
        ]
        if layer < len(pulses) and node in partner_maps[layer]:
            moves.append((partner_maps[layer][node], "inject", layer + 1))
        for nxt, kind, nxt_layer in moves:
            if nxt in visited:
                continue
            if len(kinds) >= max_len:
                truncated = True
                continue
            visited.add(nxt)
            kets.append(nxt)
            kinds.append(kind)
            walk(kets, kinds, nxt_layer, visited)
            kets.pop()
            kinds.pop()
            visited.remove(nxt)

    if start == target:
        emit([start], [])
        return paths, truncated
    walk([start], [], 0, {start})
    return paths, truncated
