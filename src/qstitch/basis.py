"""Ordered Hilbert/Fock basis enumeration.

Basis elements pair one matter level with a photon occupation record and a
sector tag. The direct-product (non-entangled) sector always precedes the
entangled sector, whose kets additionally carry an ordered list of stitch
labels: the modes whose quantum is bound into the ket, each recorded at
occupation 0 (absorbed) or 1 (present).

The enumeration is deterministic for a given scheme: within each sector,
kets sort by (family declaration order, j, g, occupation, stitch labels).
A scenario basis is one closure of the enumerated units under pulse
partners and gated coupling steps, sorted once; two-photon stitching then
appends at the entangled tail without disturbing existing indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .scheme import LevelLabel, PhotonMode, Scheme, level_violation

SECTOR_PRODUCT = "non-entangled"
SECTOR_ENTANGLED = "entangled"

_SECTOR_RANK = {SECTOR_PRODUCT: 0, SECTOR_ENTANGLED: 1}

# Ceiling on the scenario basis closure. max-photons-per-mode has no upper
# bound and the closure grows with it (two_photon at cap 565 closes to
# 16,413 kets); the ceiling sits above the 10,170 kets of the 512-family
# synthetic scheme.
MAX_SCENARIO_KETS = 16384

_OCC_RE = re.compile(r"^(?:(\d+)\*)?([A-Za-z_][A-Za-z0-9_\-]*)$")
_STITCH_RE = re.compile(r"^(\d+)_([A-Za-z_][A-Za-z0-9_\-]*)$")


@dataclass(frozen=True)
class BasisKet:
    """One basis element: matter level + photon record + sector tag.

    ``photons`` holds only positive occupations, sorted by mode id; a mode
    absent from the tuple has occupation 0. ``energy`` is the invariant
    total: matter energy plus one quantum per recorded occupation. It is
    derived, so it does not participate in equality.
    """

    matter: LevelLabel
    photons: tuple[tuple[str, int], ...]
    sector: str
    stitches: tuple[str, ...] = ()
    energy: float = field(default=0.0, compare=False)

    def occupation(self, mode_id: str) -> int:
        for m, n in self.photons:
            if m == mode_id:
                return n
        return 0

    @property
    def total_occupation(self) -> int:
        return sum(n for _, n in self.photons)


def make_ket(
    matter: LevelLabel,
    photons: Mapping[str, int],
    sector: str,
    stitches: tuple[str, ...],
    modes: Mapping[str, PhotonMode],
) -> BasisKet:
    """Construct a ket, canonicalizing the occupation record and computing energy."""
    if sector == SECTOR_ENTANGLED and not stitches:
        raise ValueError("entangled kets carry at least one stitch label")
    if sector == SECTOR_PRODUCT and stitches:
        raise ValueError("non-entangled kets carry no stitch labels")
    occ = tuple(sorted((m, n) for m, n in photons.items() if n > 0))
    for m, _ in occ:
        if m not in modes:
            raise KeyError(f"unknown mode {m!r} in photon record")
    energy = matter.energy + sum(n * modes[m].omega for m, n in occ)
    return BasisKet(matter=matter, photons=occ, sector=sector, stitches=stitches, energy=energy)


def ket_name(ket: BasisKet) -> str:
    """Canonical printable name, parseable by ``parse_ket_spec``.

    Examples: ``Z.S0``, ``Z.S0+wZ01``, ``Z.S1;0_wZ01``, ``Z.S1;0_wZ01+push``.
    """
    name = ket.matter.ref
    if ket.sector == SECTOR_ENTANGLED:
        name += ";" + ",".join(f"{ket.occupation(m)}_{m}" for m in ket.stitches)
    for m, n in ket.photons:
        if m not in ket.stitches:
            name += f"+{m}" if n == 1 else f"+{n}*{m}"
    return name


@dataclass(frozen=True)
class BasisSet:
    """An ordered, de-duplicated sequence of kets over one scheme, with an index map."""

    kets: tuple[BasisKet, ...]
    scheme: Scheme
    index: Mapping[BasisKet, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen: dict[BasisKet, int] = {}
        last_sector = 0
        for i, k in enumerate(self.kets):
            if k in seen:
                raise ValueError(f"duplicate basis ket {ket_name(k)}")
            seen[k] = i
            rank = _SECTOR_RANK[k.sector]
            if rank < last_sector:
                raise ValueError("entangled kets must follow all non-entangled kets")
            last_sector = rank
        object.__setattr__(self, "index", seen)

    @property
    def modes(self) -> Mapping[str, PhotonMode]:
        return self.scheme.modes_by_id

    def __len__(self) -> int:
        return len(self.kets)

    @cached_property
    def ket_names(self) -> tuple[str, ...]:
        """Canonical names in basis order, built once per basis."""
        return tuple(ket_name(k) for k in self.kets)

    def find(self, spec: Union[int, str, BasisKet]) -> int:
        """Resolve a ket given as index, canonical name, or ket value."""
        if isinstance(spec, BasisKet):
            return self.index[spec]
        if isinstance(spec, int):
            if not 0 <= spec < len(self.kets):
                raise KeyError(f"ket index {spec} out of range 0..{len(self.kets) - 1}")
            return spec
        ket = parse_ket_spec(spec, self)
        return self.index[ket]


def parse_ket_spec(spec: str, basis: BasisSet) -> BasisKet:
    """Parse a canonical ket name against the levels and modes of a basis' scheme."""
    spec = spec.strip()
    matter_part, semi, rest = spec.partition(";")
    extras = ""
    if not semi:
        matter_part, _, extras = spec.partition("+")
        rest = ""
    try:
        level = basis.scheme.level(matter_part)
    except KeyError:
        raise KeyError(f"unknown level reference {matter_part!r} in ket spec {spec!r}") from None

    photons: dict[str, int] = {}
    stitches: tuple[str, ...] = ()
    if semi:
        stitch_part, _, extras = rest.partition("+")
        labels = []
        for piece in stitch_part.split(","):
            m = _STITCH_RE.match(piece.strip())
            if not m:
                raise ValueError(f"bad stitch entry {piece!r} in ket spec {spec!r}")
            occ, mode_id = int(m.group(1)), m.group(2)
            labels.append(mode_id)
            if occ:
                photons[mode_id] = occ
        stitches = tuple(labels)
    for piece in extras.split("+") if extras else []:
        m = _OCC_RE.match(piece.strip())
        if not m:
            raise ValueError(f"bad occupation entry {piece!r} in ket spec {spec!r}")
        count = int(m.group(1)) if m.group(1) else 1
        photons[m.group(2)] = photons.get(m.group(2), 0) + count

    sector = SECTOR_ENTANGLED if semi else SECTOR_PRODUCT
    ket = make_ket(level, photons, sector, stitches, basis.modes)
    if ket not in basis.index:
        raise KeyError(f"ket {ket_name(ket)} not in basis")
    return ket


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _sorted_basis(s: Scheme, kets: Iterable[BasisKet]) -> BasisSet:
    """The basis over ``kets`` and ``s``, in canonical order: sector, family
    declaration order, j, g, occupation, stitch labels."""
    ranks = s.family_rank

    def key(k: BasisKet):
        return (_SECTOR_RANK[k.sector], ranks.get(k.matter.family, len(ranks)),
                k.matter.j, k.matter.g, k.photons, k.stitches)

    return BasisSet(kets=tuple(sorted(kets, key=key)), scheme=s)


def _unit_kets(ground: LevelLabel, excited: LevelLabel, mode: PhotonMode) -> tuple[BasisKet, ...]:
    """The four kets of the coherence cell over one gap, in unit order:
    |excited> x |0>, |ground> x |1>, |ground;1>, |excited;0>."""
    modes = {mode.id: mode}
    return (
        make_ket(excited, {}, SECTOR_PRODUCT, (), modes),
        make_ket(ground, {mode.id: 1}, SECTOR_PRODUCT, (), modes),
        make_ket(ground, {mode.id: 1}, SECTOR_ENTANGLED, (mode.id,), modes),
        make_ket(excited, {}, SECTOR_ENTANGLED, (mode.id,), modes),
    )


def build_entanglement_unit(ground: LevelLabel, excited: LevelLabel, mode: PhotonMode) -> BasisSet:
    """Build the four-ket coherence cell over one gap.

    Returned order: |excited> x |0>, |ground> x |1>, |ground;1>, |excited;0>.
    The gap must match the mode quantum within the resonance tolerance of
    the unit's scheme; at exact resonance all four kets are degenerate.
    """
    s = Scheme(families=tuple(dict.fromkeys((ground.family, excited.family))),
               levels=(ground, excited), modes=(mode,))
    detuning = (excited.energy - ground.energy) - mode.omega
    if abs(detuning) > s.resonance_tolerance:
        raise ValueError(
            f"off-resonance: gap {ground.ref} -> {excited.ref} detuned from "
            f"{mode.id} by {detuning:g} (tolerance {s.resonance_tolerance:g})"
        )
    return BasisSet(kets=_unit_kets(ground, excited, mode), scheme=s)


def _gap_units(s: Scheme) -> list[tuple[LevelLabel, LevelLabel, PhotonMode]]:
    """All (ground, excited, mode) unit seeds a scheme induces.

    A unit arises whenever a declared mode is resonant with a family
    ground gap, or a declared dipole coupling is resonant with its own
    mode (the latter admits excited roots and deliberate cross-family
    gaps).
    """
    units: list[tuple[LevelLabel, LevelLabel, PhotonMode]] = []
    for fam in s.families:
        ground = s.family_ground(fam)
        for lv in s.levels_of(fam):
            if lv != ground:
                units += ((ground, lv, m) for m in s.modes_near(lv.energy - ground.energy))
    for c in s.couplings:
        if c.kind != "dipole" or c.mode is None:
            continue
        lo, hi = sorted((c.a, c.b), key=lambda lv: lv.energy)
        if abs((hi.energy - lo.energy) - c.mode.omega) <= s.resonance_tolerance:
            units.append((lo, hi, c.mode))
    return units


def _seed_kets(s: Scheme) -> dict[BasisKet, None]:
    """The kets of every gap unit, plus the bare ground of each untouched family."""
    pool: dict[BasisKet, None] = {}
    for ground, excited, mode in _gap_units(s):
        for ket in _unit_kets(ground, excited, mode):
            pool.setdefault(ket, None)
    covered = {k.matter.ref for k in pool}
    for fam in s.families:
        ground = s.family_ground(fam)
        if ground.ref not in covered:
            pool.setdefault(make_ket(ground, {}, SECTOR_PRODUCT, (), s.modes_by_id), None)
    return pool


def enumerate_basis(s: Scheme) -> BasisSet:
    """Enumerate the ordered basis a scheme induces.

    Every gap unit contributes its four kets; families untouched by any
    unit contribute their bare ground ket so a photon-free scheme still
    has a rest state. The result is de-duplicated and sorted with the
    non-entangled sector first.
    """
    return _sorted_basis(s, _seed_kets(s))


def _shifted(ket: BasisKet, mode_id: Optional[str], delta: int, cap: int) -> Optional[dict]:
    """``ket``'s photon record with ``delta`` quanta added to mode ``mode_id``
    (unchanged for None); None when that leaves [0, cap]."""
    occ = dict(ket.photons)
    if mode_id is None:
        return occ
    n = occ.get(mode_id, 0) + delta
    if not 0 <= n <= cap:
        return None
    occ[mode_id] = n
    return occ


def photon_partner(b: BasisSet, ket: BasisKet, mode: PhotonMode) -> Optional[int]:
    """Index of ``ket`` with one extra quantum in ``mode``, if the basis has it.

    Returns None when the partner is absent or the ket already sits at the
    per-mode occupation cap. Pulse injection and reachability layering both
    move kets through this same relabeling.
    """
    occ = _shifted(ket, mode.id, 1, b.scheme.max_photons)
    if occ is None or mode.id not in b.modes:
        return None
    partner = make_ket(ket.matter, occ, ket.sector, ket.stitches, b.modes)
    return b.index.get(partner)


def _stitched_ket(b: BasisSet, root: BasisKet, second: PhotonMode) -> BasisKet:
    """The ket stitching ``second`` onto ``root``: the same-family level one
    quantum above the root's, with every stitch quantum absorbed. Raises
    ValueError when no level sits there within the resonance tolerance."""
    target = root.matter.energy + second.omega
    candidates = [lv for lv in b.scheme.levels_near(target) if lv.family == root.matter.family]
    if not candidates:
        raise ValueError(
            f"no {root.matter.family}-family level within tolerance of "
            f"{target:g} to absorb {second.id}"
        )
    upper = min(candidates, key=lambda lv: (abs(lv.energy - target), lv.j, lv.g))
    occ = {m: n for m, n in root.photons if m != second.id}
    return make_ket(upper, occ, SECTOR_ENTANGLED, root.stitches + (second.id,), b.modes)


def extend_two_photon(b: BasisSet, root: BasisKet, second: PhotonMode) -> BasisSet:
    """Stitch a second gap onto an entangled root ket.

    Appends, at the tail of the entangled sector, the ket whose matter
    level sits one ``second`` quantum above the root's matter level (same
    family, within the resonance tolerance) and which carries the root's
    stitch labels plus the new one, all at occupation zero. Existing
    indices are unchanged.
    """
    if root not in b.index:
        raise ValueError(f"root ket {ket_name(root)} is not in the basis")
    if root.sector != SECTOR_ENTANGLED:
        raise ValueError("root ket must belong to the entangled sector")
    if second.id in root.stitches:
        raise ValueError(f"mode {second.id!r} is already a stitch label of the root")

    new_ket = _stitched_ket(b, root, second)
    if new_ket in b.index:
        raise ValueError(f"ket {ket_name(new_ket)} already present")
    return replace(b, kets=b.kets + (new_ket,))


def _stitch_consistent(ket: BasisKet, s: Scheme) -> bool:
    """Check that a ket's stitch labels unwind onto declared level energies.

    Walking the stitch list backwards, every absorbed quantum (occupation
    0) must step down onto some level's energy and every pending quantum
    (occupation 1) must step up onto one, within the resonance tolerance.
    Kets failing this are not gap-related and are excluded from closure.
    """
    e = ket.matter.energy
    for m in reversed(ket.stitches):
        omega = s.mode(m).omega
        probe = e + omega if ket.occupation(m) else e - omega
        if not s.levels_near(probe):
            return False
        if not ket.occupation(m):
            e = probe
    return True


def scenario_basis(s: Scheme, two_photon: bool = True) -> BasisSet:
    """Build the full basis a scenario run needs.

    Starts from the enumerated units and closes them with one worklist:
    each new ket gains its photon-added partner for every scheduled pulse
    mode (same sector and stitch labels, up to the per-mode occupation
    cap) and every gated step of a legal declared coupling at its matter
    level. A dipole coupling steps to the other endpoint's level while
    moving one quantum in its mode; a spin-orbit coupling swaps the level
    at fixed occupations. Coupling steps keep the sector and stitch
    labels, must pass the energy gate, and must stay stitch-consistent;
    this is how spectator-photon kets (one quantum absorbed, one pending)
    enter the basis. The closure is sorted once, and the stitched upper
    kets of the two-photon extension are appended at the entangled tail.
    """
    modes = s.modes_by_id
    cap = s.max_photons
    # matter level -> (level after the step, mode, quanta moved, gated) of each
    # step from it: the ungated pulse partners, then each legal coupling step
    steps = {lv: [(lv, u.mode.id, 1, False) for u in s.pulses] for lv in s.levels}
    for c in s.couplings:
        if level_violation(c.kind, c.a, c.b) is None:
            shifts = [(c.mode.id, 1), (c.mode.id, -1)] if c.kind == "dipole" else [(None, 0)]
            for here, other in ((c.a, c.b), (c.b, c.a)):
                steps.setdefault(here, []).extend((other, m, d, True) for m, d in shifts)

    pool = _seed_kets(s)
    work = list(pool)
    for ket in work:  # the worklist grows as it is walked; each ket is expanded once
        for other, mode_id, delta, gated in steps.get(ket.matter, ()):
            occ = _shifted(ket, mode_id, delta, cap)
            if occ is None:
                continue
            cand = make_ket(other, occ, ket.sector, ket.stitches, modes)
            if gated and not (abs(cand.energy - ket.energy) <= s.gate_tolerance
                              and _stitch_consistent(cand, s)):
                continue
            if cand not in pool:
                pool[cand] = None
                work.append(cand)
        if len(pool) > MAX_SCENARIO_KETS:
            raise ValueError(f"scenario basis exceeds {MAX_SCENARIO_KETS} kets")

    b = _sorted_basis(s, pool)
    return apply_two_photon_extensions(b) if two_photon else b


def apply_two_photon_extensions(b: BasisSet,
                                modes: Optional[Iterable[PhotonMode]] = None) -> BasisSet:
    """Stitch every applicable (root, mode) pair onto the basis.

    Roots are entangled kets with all stitch quanta absorbed (all
    occupations zero); each mode that lifts a root's matter level onto
    another level of the same family appends the corresponding stitched
    ket. Modes are taken in order, and kets stitched for one mode are
    roots for the next. Modes default to the pulses scheduled in the
    basis' scheme, so this is a no-op for pulse-free schemes.
    """
    if modes is None:
        modes = [p.mode for p in b.scheme.pulses]
    kets = dict.fromkeys(b.kets)
    for mode in modes:
        for root in list(kets):
            if root.sector != SECTOR_ENTANGLED or root.photons or mode.id in root.stitches:
                continue
            try:
                ket = _stitched_ket(b, root, mode)
            except ValueError:
                continue
            kets.setdefault(ket, None)
    if len(kets) == len(b):
        return b
    return replace(b, kets=tuple(kets))
