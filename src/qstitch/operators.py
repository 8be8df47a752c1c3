"""Hamiltonian and coupling-matrix assembly.

The diagonal H holds each ket's total energy. The hermitian V collects,
for every declared coupling, the ket pairs that survive the selection
rules and the hard energy gate:

    dipole     |dLambda| = 1, spin multiplicity unchanged, occupation
               changes by exactly one quantum in the coupling's mode
    spinorbit  |dS| = 2 (singlet <-> triplet), |dLambda| = 1,
               occupations identical
    transfer   sector hop between label-identical kets of a unit
               (same matter level, same occupations)

Any pair whose total energies differ by more than the gate tolerance
contributes an exact zero; the gate is applied before the entry is
written, never as a post-hoc mask. Sector transfers are generated from
the basis itself (one per entangled ket with a label-identical product
partner), weighted by the scheme's transfer strength for the ket's root
stitch mode.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .basis import SECTOR_ENTANGLED, SECTOR_PRODUCT, BasisKet, BasisSet, ket_name
from .scheme import Diagnostic, Scheme, WARNING, level_violation

KINDS = ("dipole", "spinorbit", "transfer")


@dataclass(frozen=True)
class SelectionVerdict:
    """Outcome of a selection-rule check; ``rule`` names the first refusal."""

    allowed: bool
    rule: Optional[str] = None
    detail: str = ""


@dataclass(frozen=True)
class VEntry:
    """One nonzero upper-triangle pair of V: its coupling kind and summed weight."""

    a: int
    b: int
    kind: str
    weight: complex
    mode: Optional[str] = None


class EigenBlock(NamedTuple):
    """Eigenpairs of H + V on one connected component of the coupling graph."""

    kets: np.ndarray  # basis indices of the component, ascending
    w: np.ndarray  # eigenvalues, ascending
    q: np.ndarray  # eigenvectors as columns; row r belongs to ket kets[r]


@dataclass
class OperatorPair:
    """Diagonal H plus hermitian V over a fixed basis, gate included."""

    basis: BasisSet
    H: np.ndarray
    V: np.ndarray
    gate: float
    entries: tuple[VEntry, ...]
    warnings: list[Diagnostic] = field(default_factory=list)
    _blocks: Optional[tuple[EigenBlock, ...]] = field(default=None, repr=False)
    _eig: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.H)

    def eigenblocks(self) -> tuple[EigenBlock, ...]:
        """One eigendecomposition per connected component of V, cached.

        No coupling links two components, so H + V is exactly
        block-diagonal over them and the blocks hold its whole spectrum.
        Components are ordered by their first ket.
        """
        if self._blocks is None:
            rows, cols = np.nonzero(self.V)
            # hermiticity is guaranteed by construction; check before handing
            # the matrix to a solver that silently assumes it (entries zero
            # on both sides of the diagonal cannot break it)
            skew = np.abs(self.V[rows, cols] - self.V[cols, rows].conj()).max(initial=0.0)
            if skew != 0.0:
                raise ValueError(f"coupling matrix V is not hermitian (max |V - V^H| = {skew:g})")
            # one stacked eigh per component size: components are many and small
            by_size: dict[int, list[np.ndarray]] = {}
            for kets in _components(self.dimension, rows, cols):
                by_size.setdefault(len(kets), []).append(kets)
            blocks = []
            for size, group in by_size.items():
                kets = np.array(group)
                h = self.V[kets[:, :, None], kets[:, None, :]]
                h[:, range(size), range(size)] += self.H[kets]
                w, q = np.linalg.eigh(h)
                blocks += map(EigenBlock, kets, w, q)
            self._blocks = tuple(sorted(blocks, key=lambda blk: blk.kets[0]))
        return self._blocks

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of H + V (ascending w, unitary Q), cached.

        Assembled from ``eigenblocks``: each column of Q is zero outside
        the component its eigenvalue belongs to.
        """
        if self._eig is None:
            n = self.dimension
            blocks = self.eigenblocks()
            w = np.zeros(n)
            col = 0
            for blk in blocks:
                w[col : col + len(blk.w)] = blk.w
                col += len(blk.w)
            order = np.argsort(w, kind="stable")
            rank = np.empty(n, dtype=int)
            rank[order] = np.arange(n)
            q = np.zeros((n, n), dtype=complex)
            col = 0
            for blk in blocks:
                q[np.ix_(blk.kets, rank[col : col + len(blk.w)])] = blk.q
                col += len(blk.w)
            self._eig = (w[order], q)
        return self._eig


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Ket index arrays of the connected components of the graph with edges (rows, cols)."""
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([root(i) for i in range(n)], dtype=int)
    order = np.argsort(roots, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(roots[order])) + 1) if n else []


def _occupation_diff(a: BasisKet, b: BasisKet) -> dict[str, int]:
    diff: dict[str, int] = {}
    for m, n in a.photons:
        diff[m] = diff.get(m, 0) + n
    for m, n in b.photons:
        diff[m] = diff.get(m, 0) - n
    return {m: d for m, d in diff.items() if d != 0}


def _stitch_step_ok(a: BasisKet, b: BasisKet, mode_id: str) -> bool:
    """Stitch bookkeeping for dipole steps inside the entangled sector.

    The photon-holding side keeps its labels; the absorbing side either
    shares them or appends the consumed mode as a new stitch.
    """
    lo, hi = (a, b) if a.occupation(mode_id) > b.occupation(mode_id) else (b, a)
    return hi.stitches == lo.stitches or hi.stitches == lo.stitches + (mode_id,)


def selection_check(
    kind: str,
    a: BasisKet,
    b: BasisKet,
    mode: Optional[str] = None,
    gate_tolerance: float = 1e-6,
) -> SelectionVerdict:
    """Decide whether a coupling of ``kind`` may connect two basis kets.

    Checks run in a fixed order (sector, photon count, spin, parity,
    energy gate) and the verdict reports the first rule that fires.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown coupling kind {kind!r}")
    if a == b:
        raise ValueError("selection_check requires two distinct kets")

    if kind == "transfer":
        if a.sector == b.sector:
            return SelectionVerdict(False, "sector", "transfer connects the two sectors")
        if a.matter != b.matter or a.photons != b.photons:
            return SelectionVerdict(
                False, "sector", "sector transfer requires label-identical kets"
            )
    else:
        if a.sector != b.sector:
            return SelectionVerdict(
                False,
                "sector",
                f"{kind} coupling cannot hop sectors ({a.sector} vs {b.sector})",
            )

        diff = _occupation_diff(a, b)
        if kind == "dipole":
            if len(diff) != 1 or abs(next(iter(diff.values()))) != 1:
                return SelectionVerdict(
                    False,
                    "photon-count",
                    f"dipole step must move exactly one quantum in one mode, got {diff}",
                )
            step_mode = next(iter(diff))
            if mode is not None and step_mode != mode:
                return SelectionVerdict(
                    False,
                    "photon-count",
                    f"quantum moves in {step_mode!r}, coupling mode is {mode!r}",
                )
            if not _stitch_step_ok(a, b, step_mode):
                return SelectionVerdict(
                    False, "sector", "stitch labels inconsistent with the absorbed mode"
                )
        else:
            if diff:
                return SelectionVerdict(
                    False, "photon-count", f"spin-orbit mixing conserves occupations, got {diff}"
                )

        violation = level_violation(kind, a.matter, b.matter)
        if violation is not None:
            rule, detail = violation
            return SelectionVerdict(False, rule, detail)

    if abs(a.energy - b.energy) > gate_tolerance:
        return SelectionVerdict(
            False,
            "energy-gate",
            f"total energies differ by {abs(a.energy - b.energy):g} "
            f"> gate {gate_tolerance:g}",
        )
    return SelectionVerdict(True)


def assemble(b: BasisSet, s: Scheme, delta: Optional[float] = None) -> OperatorPair:
    """Assemble H and V for a basis enumerated from a scheme.

    Every declared coupling is expanded over all ket pairs whose matter
    labels match its endpoints; pairs that fail any rule are skipped
    (gated pairs are exact zeros). A coupling that induces no pair at all
    is reported as a dead-coupling warning. ``entries`` holds each ket
    pair once, with the sum of its weights; V is written from them.
    """
    if delta is None:
        delta = s.gate_tolerance
    if delta <= 0:
        raise ValueError("gate tolerance must be positive")

    H = np.array([k.energy for k in b.kets], dtype=float)
    # (lo, hi) -> [kind, mode, weight summed in contribution order]
    pairs: dict[tuple[int, int], list] = {}
    warnings: list[Diagnostic] = []

    by_matter: dict = {}
    for i, ket in enumerate(b.kets):
        by_matter.setdefault(ket.matter, []).append(i)

    for c in s.couplings:
        weight = c.strength * cmath.exp(1j * c.phase)
        mode_id = c.mode.id if c.mode is not None else None
        hits = 0
        for i in by_matter.get(c.a, []):
            for j in by_matter.get(c.b, []):
                lo, hi = (i, j) if i < j else (j, i)
                verdict = selection_check(
                    c.kind, b.kets[lo], b.kets[hi], mode=mode_id, gate_tolerance=delta
                )
                if not verdict.allowed:
                    continue
                pairs.setdefault((lo, hi), [c.kind, mode_id, 0j])[2] += weight
                hits += 1
        if hits == 0:
            warnings.append(
                Diagnostic(
                    WARNING,
                    "dead-coupling",
                    f"{c.kind} {c.a.ref} {c.b.ref} induces no allowed ket pair",
                    c.line,
                )
            )

    product_index = {
        (ket.matter, ket.photons): i
        for i, ket in enumerate(b.kets)
        if ket.sector == SECTOR_PRODUCT
    }
    for i, ket in enumerate(b.kets):
        if ket.sector != SECTOR_ENTANGLED:
            continue
        j = product_index.get((ket.matter, ket.photons))
        if j is None:
            continue
        root = b.modes[ket.stitches[0]]
        tau = s.transfer_strength(root)
        if tau and selection_check("transfer", b.kets[j], ket, gate_tolerance=delta).allowed:
            pairs.setdefault((min(i, j), max(i, j)), ["transfer", root.id, 0j])[2] += tau

    # a pair whose weights cancel is no coupling
    entries = tuple(VEntry(lo, hi, kind, weight, mode)
                    for (lo, hi), (kind, mode, weight) in sorted(pairs.items()) if weight != 0)
    V = np.zeros((len(b), len(b)), dtype=complex)
    for e in entries:
        V[e.a, e.b] = e.weight
    # mirrored by addition, so the lower triangle holds 0 + conj(w), signed zeros included
    V += V.conj().T
    return OperatorPair(basis=b, H=H, V=V, gate=delta, entries=entries, warnings=warnings)


def operator_dump(op: OperatorPair) -> dict:
    """JSON-ready dump: dimension, diagonal, and the nonzero triplets of V."""
    triplets = [
        {"a": e.a, "b": e.b, "re": e.weight.real, "im": e.weight.imag, "kinds": [e.kind]}
        for e in op.entries
    ]
    return {
        "schema": 1,
        "dimension": op.dimension,
        "gate": op.gate,
        "diagonal": [float(x) for x in op.H],
        "kets": [ket_name(k) for k in op.basis.kets],
        "entries": triplets,
    }
