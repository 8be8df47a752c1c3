"""Shared fixtures: shipped schemes, small inline schemes, random corpus, path and
population oracles."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from qstitch import parse_scheme, scenario_basis, validate_scheme
from qstitch.basis import photon_partner
from qstitch.scheme import Scheme, has_errors

REPO = Path(__file__).resolve().parents[1]
SCHEMES = REPO / "schemes"

TWO_LEVEL_TEXT = """\
gate-tolerance = 0.001
transfer = 0.0

[family A]
G j=0 g=0 term=Sigma spin=1 energy=0.0
X j=1 g=0 term=Pi spin=1 energy=1.0

[modes]
w omega=1.0

[couplings]
dipole A.G A.X mode=w strength=0.05
"""

UNIT_TEXT = """\
gate-tolerance = 0.001
transfer = 0.01

[family A]
G j=0 g=0 term=Sigma spin=1 energy=0.0
X j=1 g=0 term=Pi spin=1 energy=1.0

[modes]
w omega=1.0

[couplings]
dipole A.G A.X mode=w strength=0.02
"""


def load_scheme(path: Path) -> Scheme:
    result = parse_scheme(path.read_text(encoding="utf-8"))
    assert result.ok, result.diagnostics
    diags = validate_scheme(result.scheme)
    assert not has_errors(diags), diags
    return result.scheme


def parse_ok(text: str) -> Scheme:
    result = parse_scheme(text)
    assert result.ok, result.diagnostics
    return result.scheme


@pytest.fixture(scope="session")
def one_photon() -> Scheme:
    return load_scheme(SCHEMES / "one_photon.scheme")


@pytest.fixture(scope="session")
def two_photon() -> Scheme:
    return load_scheme(SCHEMES / "two_photon.scheme")


@pytest.fixture(scope="session")
def two_level() -> Scheme:
    return parse_ok(TWO_LEVEL_TEXT)


@pytest.fixture(scope="session")
def unit_scheme() -> Scheme:
    return parse_ok(UNIT_TEXT)


# ---------------------------------------------------------------------------
# Random scheme corpus
# ---------------------------------------------------------------------------

_GAPS = (0.8, 1.0, 1.2)


def _compose(rng: np.random.Generator) -> str:
    """One random but physically coherent scheme document.

    Gaps sit exactly on mode frequencies; singlet/triplet partners are
    split by 1e-4, inside the 1e-3 gate but outside the 1e-6 resonance
    tolerance, so unit spawning stays clean while mixing stays open.
    """
    two_fam = rng.random() < 0.45
    transfer = 0.0 if rng.random() < 0.4 else round(float(rng.uniform(0.02, 0.06)), 4)
    lines = [
        "gate-tolerance = 0.001",
        f"transfer = {transfer}",
        "",
    ]
    modes: list[str] = []
    couplings: list[str] = []
    pulses: list[str] = []

    def family(name: str, ground: float, gap: float) -> None:
        lines.append(f"[family {name}]")
        lines.append(f"G j=0 g=0 term=Sigma spin=1 energy={ground}")
        lines.append(f"P j=1 g=0 term=Pi spin=1 energy={ground + gap}")
        has_triplet = rng.random() < 0.75
        if has_triplet:
            lines.append(f"T j=2 g=0 term=Delta spin=3 energy={ground + gap + 1e-4}")
        has_decoy = name == "A" and rng.random() < 0.6
        if has_decoy:
            # a shell 0.7 above the one-photon budget: its unit must stay
            # silent under any pulse schedule used here (pulses add 0.55)
            lines.append(f"H j=9 g=0 term=Pi spin=1 energy={ground + gap + 0.7}")
        lines.append("")
        mode_id = f"w{name}"
        modes.append(f"{mode_id} omega={gap}")
        if has_decoy:
            modes.append(f"wH omega={gap + 0.7}")
            if rng.random() < 0.7:
                strength = round(float(rng.uniform(0.05, 0.15)), 4)
                couplings.append(f"dipole {name}.G {name}.H mode=wH strength={strength}")
        if rng.random() < 0.85:
            strength = round(float(rng.uniform(0.05, 0.15)), 4)
            couplings.append(f"dipole {name}.G {name}.P mode={mode_id} strength={strength}")
        if has_triplet and rng.random() < 0.8:
            strength = round(float(rng.uniform(0.02, 0.08)), 4)
            couplings.append(f"spinorbit {name}.P {name}.T strength={strength}")

    gap_a = float(rng.choice(_GAPS))
    family("A", 0.3, gap_a)
    if two_fam:
        gap_b = float(rng.choice(_GAPS))
        family("B", 0.0, gap_b)
        # cross-family mixing: a B triplet degenerate with A's singlet shell
        if rng.random() < 0.6:
            lines.insert(
                lines.index("[family B]") + 2,
                f"TX j=3 g=0 term=Delta spin=3 energy={0.3 + gap_a + 1e-4}",
            )
            strength = round(float(rng.uniform(0.02, 0.08)), 4)
            couplings.append(f"spinorbit A.P B.TX strength={strength}")

    if rng.random() < 0.5:
        modes.append("wD omega=0.55")
        if rng.random() < 0.6:
            pulses.append("wD time=400.0")

    lines.append("[modes]")
    lines.extend(modes)
    lines.append("")
    lines.append("[couplings]")
    lines.extend(couplings)
    lines.append("")
    lines.append("[pulses]")
    lines.extend(pulses)
    return "\n".join(lines) + "\n"


def random_scheme(seed: int, max_kets: int = 12) -> Scheme:
    """Deterministic random scheme whose scenario basis stays small."""
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt])
        text = _compose(rng)
        result = parse_scheme(text)
        assert result.ok, (result.diagnostics, text)
        diags = validate_scheme(result.scheme)
        assert not has_errors(diags), (diags, text)
        if len(scenario_basis(result.scheme)) <= max_kets:
            return result.scheme
    raise AssertionError(f"no small scheme found for seed {seed}")


# ---------------------------------------------------------------------------
# Path oracle
# ---------------------------------------------------------------------------


def brute_force_paths(op, b, start, target, pulses, max_len) -> set[tuple[int, ...]]:
    """Independent brute-force enumeration of simple q-paths straight off V.

    Neighbours come from the nonzero entries of the dense matrix and the
    pulse layers from ``photon_partner``, not from the coupling graph.
    """
    n = op.dimension
    adj = {i: [j for j in range(n) if j != i and op.V[i, j] != 0] for i in range(n)}
    partners = [
        {i: photon_partner(b, b.kets[i], u.mode) for i in range(n)} for u in pulses
    ]
    found = set()

    def go(seq, layer):
        node = seq[-1]
        if node == target:
            found.add(tuple(seq))
            return
        if len(seq) - 1 >= max_len:
            return
        for j in adj[node]:
            if j not in seq:
                go(seq + [j], layer)
        if layer < len(pulses):
            j = partners[layer].get(node)
            if j is not None and j not in seq:
                go(seq + [j], layer + 1)

    go([start], 0)
    return found


# ---------------------------------------------------------------------------
# Population oracle
# ---------------------------------------------------------------------------


def sampled_max_pops(op, b, start, pulses, t_end, per_segment=400):
    """Each ket's largest population on a sample grid, pulses applied between segments.

    Independent of the propagator: the spectrum comes from ``np.linalg.eigh``
    on the dense H + V, not from the operator's eigenblocks.
    """
    n = op.dimension
    w, q = np.linalg.eigh(np.diag(op.H).astype(complex) + op.V)
    psi = np.zeros(n, complex)
    psi[start] = 1.0
    bounds = [0.0] + [u.time for u in pulses] + [t_end]
    max_pops = np.zeros(n)
    for si in range(len(bounds) - 1):
        ts = np.linspace(0.0, bounds[si + 1] - bounds[si], per_segment)
        coef = q.conj().T @ psi
        amps = q @ (np.exp(-1j * np.outer(w, ts)) * coef[:, None])
        max_pops = np.maximum(max_pops, (np.abs(amps) ** 2).max(axis=1))
        psi = amps[:, -1]
        if si < len(pulses):
            moved = np.zeros(n, complex)
            for i in range(n):
                if psi[i] != 0:
                    j = photon_partner(b, b.kets[i], pulses[si].mode)
                    if j is not None:
                        moved[j] += psi[i]
                    else:
                        assert abs(psi[i]) < 1e-12, "populated ket lacks a pulse partner"
            psi = moved
    return max_pops
