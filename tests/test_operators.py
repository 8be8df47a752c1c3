"""Selection rules, operator assembly, gate soundness."""

import numpy as np
import pytest

from qstitch import (
    OperatorPair,
    assemble,
    build_entanglement_unit,
    enumerate_basis,
    scenario_basis,
    selection_check,
)
from qstitch.basis import SECTOR_ENTANGLED, SECTOR_PRODUCT, make_ket
from qstitch.operators import operator_dump
from qstitch.scheme import LevelLabel, PhotonMode

from conftest import TWO_LEVEL_TEXT, parse_ok, random_scheme


def _ket(term, spin, energy, occ, modes, sector=SECTOR_PRODUCT, stitches=(), j=0):
    lv = LevelLabel(family="Z", label=f"L{term}{spin}{j}", j=j, g=0, term=term,
                    spin=spin, energy=energy)
    return make_ket(lv, occ, sector, stitches, modes)


MODES = {"w": PhotonMode(id="w", omega=1.0)}


def test_resonant_singlet_dipole_allowed():
    a = _ket("Sigma", 1, 0.0, {"w": 1}, MODES)
    b = _ket("Pi", 1, 1.0, {}, MODES, j=1)
    v = selection_check("dipole", a, b, mode="w", gate_tolerance=1e-6)
    assert v.allowed and v.rule is None


def test_direct_dipole_to_triplet_refused_on_spin():
    a = _ket("Sigma", 1, 0.0, {"w": 1}, MODES)
    b = _ket("Delta", 3, 1.0, {}, MODES, j=1)
    v = selection_check("dipole", a, b, mode="w", gate_tolerance=1e-6)
    assert not v.allowed and v.rule == "spin"


def test_spinorbit_between_degenerate_excited_states_allowed():
    a = _ket("Pi", 1, 1.0, {}, MODES, j=1)
    b = _ket("Delta", 3, 1.0, {}, MODES, j=2)
    v = selection_check("spinorbit", a, b, gate_tolerance=1e-6)
    assert v.allowed


def test_spinorbit_refuses_occupation_change():
    a = _ket("Pi", 1, 1.0, {}, MODES, j=1)
    b = _ket("Delta", 3, 0.0, {"w": 1}, MODES, j=2)
    v = selection_check("spinorbit", a, b, gate_tolerance=1e-6)
    assert not v.allowed and v.rule == "photon-count"


def test_dipole_refuses_two_mode_move():
    modes = dict(MODES, u=PhotonMode(id="u", omega=1.0))
    a = _ket("Sigma", 1, 0.0, {"w": 1}, modes)
    b = _ket("Pi", 1, 1.0, {"u": 1}, modes, j=1)
    v = selection_check("dipole", a, b, gate_tolerance=1e-6)
    assert not v.allowed and v.rule == "photon-count"


def test_energy_gate_fires_last():
    a = _ket("Sigma", 1, 0.0, {"w": 1}, MODES)
    b = _ket("Pi", 1, 1.5, {}, MODES, j=1)
    v = selection_check("dipole", a, b, mode="w", gate_tolerance=1e-6)
    assert not v.allowed and v.rule == "energy-gate"


def test_sector_hop_refused_for_couplings():
    a = _ket("Sigma", 1, 0.0, {"w": 1}, MODES)
    b = _ket("Pi", 1, 1.0, {}, MODES, SECTOR_ENTANGLED, ("w",), j=1)
    v = selection_check("dipole", a, b, gate_tolerance=1e-6)
    assert not v.allowed and v.rule == "sector"


def test_transfer_requires_label_identity():
    lv = LevelLabel(family="Z", label="G", j=0, g=0, term="Sigma", spin=1, energy=0.0)
    prod = make_ket(lv, {"w": 1}, SECTOR_PRODUCT, (), MODES)
    twin = make_ket(lv, {"w": 1}, SECTOR_ENTANGLED, ("w",), MODES)
    assert selection_check("transfer", prod, twin, gate_tolerance=1e-6).allowed
    other = make_ket(lv, {}, SECTOR_ENTANGLED, ("w",), MODES)
    v = selection_check("transfer", prod, other, gate_tolerance=1e-6)
    assert not v.allowed and v.rule == "sector"


def test_verdict_invariant_allowed_iff_no_rule():
    a = _ket("Sigma", 1, 0.0, {"w": 1}, MODES)
    b = _ket("Pi", 1, 1.0, {}, MODES, j=1)
    for kind in ("dipole", "spinorbit"):
        v = selection_check(kind, a, b, gate_tolerance=1e-6)
        assert v.allowed == (v.rule is None)


# -- assembly ----------------------------------------------------------------


def test_zero_couplings_give_zero_matrix():
    s = parse_ok(
        """
        [family A]
        G j=0 g=0 term=Sigma spin=1 energy=0.0
        P j=1 g=0 term=Pi spin=1 energy=1.0
        [modes]
        w omega=1.0
        """
    )
    b = enumerate_basis(s)
    op = assemble(b, s)
    assert np.all(op.V == 0)
    assert np.allclose(op.H, [k.energy for k in b.kets])


def test_eig_rejects_non_hermitian_v(unit_scheme):
    b = enumerate_basis(unit_scheme)
    v = np.zeros((len(b), len(b)), dtype=complex)
    v[0, 1] = 0.1
    op = OperatorPair(basis=b, H=np.zeros(len(b)), V=v, gate=1e-3, entries=())
    with pytest.raises(ValueError, match="not hermitian"):
        op.eig()


def test_four_ket_unit_matches_hand_built_matrix(unit_scheme):
    g = unit_scheme.level("A.G")
    x = unit_scheme.level("A.X")
    w = unit_scheme.mode("w")
    unit = build_entanglement_unit(g, x, w)
    op = assemble(unit, unit_scheme)
    v, tau = 0.02, 0.01
    # unit order: |X>, |G+w>, |G;1w>, |X;0w>
    expected = np.array(
        [
            [0, v, 0, tau],
            [v, 0, tau, 0],
            [0, tau, 0, v],
            [tau, 0, v, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(op.V, expected)
    assert np.array_equal(op.H, np.full(4, 1.0))


def test_hermiticity_and_gate_are_exact(two_photon):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    assert np.abs(op.V - op.V.conj().T).max() == 0.0
    assert np.all(np.diag(op.V) == 0)
    h = op.H
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            if abs(h[i] - h[j]) > op.gate:
                assert op.V[i, j] == 0


def test_shrinking_gate_never_adds_entries(two_photon):
    b = scenario_basis(two_photon)
    wide = assemble(b, two_photon, delta=1e-3)
    narrow = assemble(b, two_photon, delta=1e-7)
    wide_nz = set(zip(*np.nonzero(wide.V)))
    narrow_nz = set(zip(*np.nonzero(narrow.V)))
    assert narrow_nz <= wide_nz
    assert narrow_nz != wide_nz  # the split singlet/triplet pairs drop out


def test_dead_coupling_warned():
    s = parse_ok(
        """
        [family A]
        G j=0 g=0 term=Sigma spin=1 energy=0.0
        P j=1 g=0 term=Pi spin=1 energy=1.0
        X j=2 g=0 term=Sigma spin=1 energy=5.0
        [modes]
        w omega=1.0
        [couplings]
        dipole A.G A.P mode=w strength=0.1
        dipole A.P A.X mode=w strength=0.1
        """
    )
    b = enumerate_basis(s)
    op = assemble(b, s)
    assert any(w.rule == "dead-coupling" for w in op.warnings)


def test_cross_family_entries_only_from_declared_couplings():
    for seed in range(10):
        s = random_scheme(seed)
        b = scenario_basis(s)
        op = assemble(b, s)
        declared_cross = {
            frozenset((c.a.family, c.b.family))
            for c in s.couplings
            if c.a.family != c.b.family
        }
        rows, cols = np.nonzero(op.V)
        for i, j in zip(rows, cols):
            fa, fb = b.kets[i].matter.family, b.kets[j].matter.family
            if fa != fb:
                assert frozenset((fa, fb)) in declared_cross


def test_operator_dump_mirrors_matrix(two_photon):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    dump = operator_dump(op)
    assert dump["dimension"] == len(b)
    nz = {(i, j) for i, j in zip(*np.nonzero(op.V)) if i < j}
    assert {(e["a"], e["b"]) for e in dump["entries"]} == nz
    for e in dump["entries"]:
        assert op.V[e["a"], e["b"]] == complex(e["re"], e["im"])


def _declared_twice(first: float, second: float):
    return parse_ok(TWO_LEVEL_TEXT.replace(
        "dipole A.G A.X mode=w strength=0.05\n",
        f"dipole A.G A.X mode=w strength={first}\ndipole A.G A.X mode=w strength={second}\n",
    ))


def test_entries_list_each_coupled_pair_once_with_its_summed_weight():
    s = _declared_twice(0.02, 0.03)
    op = assemble(scenario_basis(s), s)
    upper = [(int(i), int(j)) for i, j in zip(*np.nonzero(op.V)) if i < j]
    assert upper  # the product and the entangled pair
    assert [(e.a, e.b) for e in op.entries] == upper
    for e in op.entries:
        assert (e.kind, e.mode) == ("dipole", "w")
        assert e.weight == op.V[e.a, e.b] == 0.02 + 0.03
    assert op.warnings == []


def test_cancelling_weights_leave_no_entry_and_a_zero_in_v():
    s = _declared_twice(0.02, -0.02)
    op = assemble(scenario_basis(s), s)
    assert op.entries == ()
    assert np.all(op.V == 0)
    assert operator_dump(op)["entries"] == []
    assert op.warnings == []  # each coupling still induces its pairs
