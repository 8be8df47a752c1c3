"""Acceptance suite: one test per criterion, printed pass lines included.

Criteria are checked at their stated tolerances:

  AC1  unitarity and energy conservation over 1e4 exact steps (< 5 s)
  AC2  two-level population matches sin^2(vt) within 1e-8 (< 1 s)
  AC3  one-photon scenario: target unreachable AND dynamically silent
  AC4  two-photon scenario: reachable with a torsion-route witness AND
       the emission precursor develops population; detector fires once
  AC5  gate soundness over 100 random schemes (silence above budget)
  AC6  reachability equals population development on 100 random schemes
  AC7  q-path enumeration equals brute-force DFS on the same corpus
  AC8  first firing time exceeds the primary Rabi period (seeded baseline)
  AC9  parse/serialize fixed point over 500 generated schemes; shipped
       schemes validate with exit 0
"""

import time

import numpy as np
import pytest

from qstitch import (
    assemble,
    build_graph,
    enumerate_basis,
    enumerate_qpaths,
    evolve,
    parse_scheme,
    photon_budget,
    prepare,
    reachable,
    reachable_set,
    scenario_basis,
    serialize_scheme,
    step,
)
from qstitch.cli import main as cli_main

from conftest import SCHEMES, brute_force_paths, random_scheme, sampled_max_pops

PRIMARY_DIPOLE = 0.02
RABI_PERIOD = 2 * np.pi / (2 * PRIMARY_DIPOLE)
# seeded regression baseline from the first verified run of the shipped scenario
TWO_PHOTON_FIRING_TIME = 437.0

N_RANDOM = 100


def _load(name):
    result = parse_scheme((SCHEMES / name).read_text(encoding="utf-8"))
    assert result.ok
    return result.scheme


def test_ac1_unitarity_and_energy_conservation():
    s = _load("one_photon.scheme")
    b = enumerate_basis(s)
    assert len(b) == 16
    op = assemble(b, s)
    assert np.count_nonzero(op.V) > 0
    c = prepare(b, {"Z.S0+wZ01": 1.0, "E.S0+wE01": 0.5, "Z.S1": 0.25j})
    h = np.diag(op.H).astype(complex) + op.V
    e0 = float(np.real(c.amplitudes.conj() @ (h @ c.amplitudes)))
    t0 = time.perf_counter()
    worst_norm = 0.0
    worst_energy = 0.0
    for i in range(10_000):
        c = step(c, op, 0.1)
        if i % 100 == 0 or i == 9_999:
            worst_norm = max(worst_norm, abs(c.norm - 1.0))
            e = float(np.real(c.amplitudes.conj() @ (h @ c.amplitudes)))
            worst_energy = max(worst_energy, abs(e - e0))
    elapsed = time.perf_counter() - t0
    assert worst_norm < 1e-9
    assert worst_energy < 1e-9
    assert elapsed < 5.0
    print(f"\n[AC1] PASS unitarity drift {worst_norm:.2e}, "
          f"energy drift {worst_energy:.2e}, {elapsed:.2f}s for 1e4 steps")


def test_ac2_rabi_oracle(two_level):
    b = enumerate_basis(two_level)
    op = assemble(b, two_level)
    v = 0.05
    c = prepare(b, {"A.G+w": 1.0})
    target = b.find("A.X")
    t0 = time.perf_counter()
    worst = 0.0
    t = 0.0
    for _ in range(1000):
        c = step(c, op, 0.1)
        t += 0.1
        worst = max(worst, abs(c.populations()[target] - np.sin(v * t) ** 2))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 1.0
    print(f"\n[AC2] PASS max |pop - sin^2(vt)| = {worst:.2e} in {elapsed:.2f}s")


def test_ac3_one_photon_impossibility():
    s = _load("one_photon.scheme")
    b = scenario_basis(s)
    op = assemble(b, s)
    target = b.find("E.S0+wE01")
    start = b.find("Z.S0+wZ01")

    ok, witness = reachable(build_graph(op), b, start, target, s.pulses)
    assert ok is False and witness is None

    c = prepare(b, {"Z.S0+wZ01": 1.0})
    traj = evolve(c, op, pulses=s.pulses, detectors=s.detectors, t_end=600.0, dt=0.25)
    peak = traj.max_population(target)
    assert peak < 1e-12
    assert traj.emission is None
    print(f"\n[AC3] PASS target unreachable, dynamic peak {peak:.2e} < 1e-12")


def test_ac4_two_photon_opening():
    s = _load("two_photon.scheme")
    b = scenario_basis(s)
    op = assemble(b, s)
    start = b.find("Z.S0+wZ01")
    target = b.find("E.S0+wE01+wEt")

    ok, witness = reachable(build_graph(op), b, start, target, s.pulses)
    assert ok is True and witness is not None
    assert photon_budget(witness) == 2
    # the ledger realizes the torsion route: into the triplet manifold and
    # out via Delta(E) -> Pi(E) -> Sigma(E) with one family crossing
    assert any(d_s == 2 for _, d_s in witness.ledger)
    assert witness.ledger[-2:] == ((-1, -2), (-1, 0))
    tail = [b.kets[i].matter for i in witness.kets[-3:]]
    assert [m.term for m in tail] == ["Delta", "Pi", "Sigma"]
    assert all(m.family == "E" for m in tail)
    families = [b.kets[i].matter.family for i in witness.kets]
    crossings = sum(1 for x, y in zip(families, families[1:]) if x != y)
    assert crossings == 1

    c = prepare(b, {"Z.S0+wZ01": 1.0})
    traj = evolve(
        c, op, pulses=s.pulses, detectors=s.detectors,
        t_end=600.0, dt=0.25, detect_mode="threshold", collapse=True,
    )
    emissions = [e for e in traj.events if e["type"] == "emission"]
    assert len(emissions) == 1
    assert traj.emission.detector == "emE"
    # coherent development before the collapse, not the projected tail
    coherent = traj.times < traj.emission.time
    peak = float(traj.populations[coherent, target].max())
    assert peak > 100 * 1e-10
    # the two-stitch upper ket participates in the coherent evolution
    seventeenth = b.find("Z.SN;0_wZ01,0_push")
    assert float(traj.populations[coherent, seventeenth].max()) > 1e-8
    print(f"\n[AC4] PASS reachable with torsion witness, precursor peak {peak:.2e}, "
          f"one emission at t={traj.emission.time}")


def test_ac5_gate_soundness_over_random_schemes():
    checked_kets = 0
    worst = 0.0
    for seed in range(N_RANDOM):
        s = random_scheme(seed)
        b = scenario_basis(s)
        op = assemble(b, s)
        start = b.find(f"{s.families[0]}.G+w{s.families[0]}")
        budget = b.kets[start].energy + sum(u.mode.omega for u in s.pulses)
        over = [i for i, k in enumerate(b.kets)
                if k.energy > budget + s.gate_tolerance + 1e-9]
        if not over:
            continue
        pops = sampled_max_pops(op, b, start, s.pulses, t_end=2500.0)
        checked_kets += len(over)
        worst = max(worst, float(pops[over].max()))
    assert checked_kets > 100
    assert worst < 1e-12
    print(f"\n[AC5] PASS {checked_kets} above-budget kets across {N_RANDOM} schemes, "
          f"worst population {worst:.2e}")


def test_ac6_reachability_dynamics_equivalence():
    agree = 0
    total = 0
    for seed in range(N_RANDOM):
        s = random_scheme(seed)
        b = scenario_basis(s)
        assert len(b) <= 12
        op = assemble(b, s)
        g = build_graph(op)
        start = b.find(f"{s.families[0]}.G+w{s.families[0]}")
        reach = reachable_set(g, b, start, s.pulses)
        pops = sampled_max_pops(op, b, start, s.pulses, t_end=2500.0)
        for i in range(len(b)):
            total += 1
            assert (i in reach) == (pops[i] > 1e-8), (
                f"seed {seed}: ket {i} reach={i in reach} pop={pops[i]:.3e}"
            )
            agree += 1
    assert total >= N_RANDOM
    print(f"\n[AC6] PASS {agree}/{total} ket verdicts agree over {N_RANDOM} schemes")


def test_ac7_path_enumeration_oracle():
    compared = 0
    for seed in range(N_RANDOM):
        s = random_scheme(seed)
        b = scenario_basis(s)
        op = assemble(b, s)
        g = build_graph(op)
        start = 0
        for target in range(len(b)):
            mine, _ = enumerate_qpaths(g, b, start, target, s.pulses, max_len=8)
            oracle = brute_force_paths(op, b, start, target, s.pulses, max_len=8)
            assert {p.kets for p in mine} == oracle, f"seed {seed} target {target}"
            compared += len(oracle)
    print(f"\n[AC7] PASS enumeration matches DFS oracle ({compared} paths compared)")


def test_ac8_timescale_ordering():
    s = _load("two_photon.scheme")
    b = scenario_basis(s)
    op = assemble(b, s)
    c = prepare(b, {"Z.S0+wZ01": 1.0})
    traj = evolve(c, op, pulses=s.pulses, detectors=s.detectors,
                  t_end=600.0, dt=0.25)
    assert traj.emission is not None
    t_star = traj.emission.time
    assert t_star > RABI_PERIOD
    assert t_star == pytest.approx(TWO_PHOTON_FIRING_TIME, abs=1e-9)
    print(f"\n[AC8] PASS t* = {t_star} exceeds primary Rabi period "
          f"{RABI_PERIOD:.2f} (baseline {TWO_PHOTON_FIRING_TIME})")


# ---------------------------------------------------------------------------
# AC9 corpus generator (shared with the parser test module)
# ---------------------------------------------------------------------------

_TERMS = ("Sigma", "Pi", "Delta")


def random_document(rng: np.random.Generator) -> str:
    """A random parseable, validation-clean scheme document."""
    lines = []
    if rng.random() < 0.3:
        lines.append(f"unit = {'eV' if rng.random() < 0.5 else 'model'}")
    if rng.random() < 0.5:
        lines.append(f"max-photons-per-mode = {int(rng.integers(1, 4))}")
    if rng.random() < 0.5:
        lines.append(f"transfer = {float(rng.uniform(0, 0.1))}")
    if rng.random() < 0.3:
        lines.append(f"gate-tolerance = {float(10.0 ** rng.uniform(-8, -2))}")

    n_fam = int(rng.integers(1, 4))
    refs = []
    by_family = {}
    grounds = sorted(rng.uniform(0, 0.5, size=n_fam), reverse=True)
    for fi in range(n_fam):
        fam = f"F{fi}"
        lines.append(f"[family {fam}]")
        n_lv = int(rng.integers(1, 5))
        members = []
        for j in range(n_lv):
            term = _TERMS[j % 3]
            spin = 1 if j % 2 == 0 else 3
            energy = grounds[fi] + (0.0 if j == 0 else float(rng.uniform(0.5, 3.0)))
            lines.append(
                f"L{j} j={j} g={int(rng.integers(0, 3))} term={term} spin={spin} "
                f"energy={energy}"
            )
            members.append((f"{fam}.L{j}", term, spin))
        by_family[fam] = members
        refs.extend(members)

    n_modes = int(rng.integers(0, 4))
    mode_ids = []
    if n_modes:
        lines.append("[modes]")
        for k in range(n_modes):
            mode_ids.append(f"M{k}")
            note = f" note=probe{k}" if rng.random() < 0.4 else ""
            tr = f" transfer={float(rng.uniform(0, 0.05))}" if rng.random() < 0.3 else ""
            lines.append(f"M{k} omega={float(rng.uniform(0.1, 3.0))}{note}{tr}")

    # selection-legal couplings only: Sigma-Pi same-spin dipoles and
    # Pi-Delta singlet/triplet spin-orbit pairs
    legal_dipoles = [
        (a, b)
        for a, ta, sa in refs
        for b, tb, sb in refs
        if a < b and sa == sb and {ta, tb} in ({"Sigma", "Pi"}, {"Pi", "Delta"})
    ]
    legal_so = [
        (a, b)
        for a, ta, sa in refs
        for b, tb, sb in refs
        if a < b and abs(sa - sb) == 2 and {ta, tb} in ({"Sigma", "Pi"}, {"Pi", "Delta"})
    ]
    couplings = []
    if mode_ids and legal_dipoles and rng.random() < 0.9:
        for _ in range(int(rng.integers(1, 4))):
            a, b = legal_dipoles[int(rng.integers(len(legal_dipoles)))]
            m = mode_ids[int(rng.integers(len(mode_ids)))]
            phase = f" phase={float(rng.uniform(0.1, 3.0))}" if rng.random() < 0.3 else ""
            couplings.append(
                f"dipole {a} {b} mode={m} strength={float(rng.uniform(0.01, 0.2))}{phase}"
            )
    if legal_so and rng.random() < 0.6:
        a, b = legal_so[int(rng.integers(len(legal_so)))]
        couplings.append(f"spinorbit {a} {b} strength={float(rng.uniform(0.01, 0.1))}")
    if couplings:
        lines.append("[couplings]")
        lines.extend(dict.fromkeys(couplings))

    if mode_ids and rng.random() < 0.4:
        lines.append("[pulses]")
        times = sorted(rng.uniform(0, 100, size=int(rng.integers(1, 3))))
        for t in times:
            lines.append(f"{mode_ids[int(rng.integers(len(mode_ids)))]} time={float(t)}")

    if mode_ids and rng.random() < 0.4:
        lines.append("[detectors]")
        lines.append(
            f"d0 target={refs[0][0]} mode={mode_ids[0]} "
            f"threshold={float(rng.uniform(0.01, 1.0))}"
            + (f" rate={float(rng.uniform(0, 2.0))}" if rng.random() < 0.5 else "")
        )

    return "\n".join(lines) + "\n"


def test_ac9_parser_round_trip_corpus():
    from qstitch.scheme import has_errors
    from qstitch import validate_scheme

    rng = np.random.default_rng(90210)
    for i in range(500):
        doc = random_document(rng)
        first = parse_scheme(doc)
        assert first.ok, (first.diagnostics, doc)
        assert not has_errors(validate_scheme(first.scheme)), doc
        text1 = serialize_scheme(first.scheme)
        second = parse_scheme(text1)
        assert second.ok, (second.diagnostics, text1)
        assert second.scheme == first.scheme
        assert serialize_scheme(second.scheme) == text1

    for name in ("one_photon.scheme", "two_photon.scheme"):
        assert cli_main(["validate", str(SCHEMES / name)]) == 0
    print("\n[AC9] PASS 500-scheme round-trip fixed point; shipped schemes exit 0")
