"""Basis enumeration, ordering, and the two-photon extension."""

import dataclasses

import pytest

from qstitch import (
    SECTOR_ENTANGLED,
    SECTOR_PRODUCT,
    build_entanglement_unit,
    enumerate_basis,
    extend_two_photon,
    ket_name,
    parse_ket_spec,
    photon_partner,
    scenario_basis,
    total_energy,
)
from qstitch.basis import MAX_SCENARIO_KETS, BasisSet, make_ket
from qstitch.scheme import LevelLabel, PhotonMode

from conftest import parse_ok, random_scheme


def _level(family, label, j, term, spin, energy):
    return LevelLabel(family=family, label=label, j=j, g=0, term=term, spin=spin, energy=energy)


def test_unit_order_matches_the_four_ket_layout():
    g = _level("Z", "S0", 0, "Sigma", 1, 0.0)
    e = _level("Z", "S1", 1, "Pi", 1, 1.0)
    w = PhotonMode(id="w", omega=1.0)
    unit = build_entanglement_unit(g, e, w)
    assert len(unit) == 4
    assert [k.sector for k in unit.kets] == [
        SECTOR_PRODUCT, SECTOR_PRODUCT, SECTOR_ENTANGLED, SECTOR_ENTANGLED,
    ]
    assert [ket_name(k) for k in unit.kets] == ["Z.S1", "Z.S0+w", "Z.S0;1_w", "Z.S1;0_w"]
    # exact resonance: photon-dressed ground and bare excited are degenerate
    assert unit.kets[0].energy == pytest.approx(unit.kets[1].energy, abs=1e-15)


def test_unit_rejects_off_resonance_with_measured_detuning():
    g = _level("Z", "S0", 0, "Sigma", 1, 0.0)
    e = _level("Z", "S1", 1, "Pi", 1, 1.05)
    w = PhotonMode(id="w", omega=1.0)
    with pytest.raises(ValueError, match="0.05"):
        build_entanglement_unit(g, e, w)


def test_two_disjoint_units_union_has_eight_kets():
    u1 = build_entanglement_unit(
        _level("Z", "S0", 0, "Sigma", 1, 0.0),
        _level("Z", "S1", 1, "Pi", 1, 1.0),
        PhotonMode(id="w1", omega=1.0),
    )
    u2 = build_entanglement_unit(
        _level("E", "S0", 0, "Sigma", 1, 0.2),
        _level("E", "S1", 1, "Pi", 1, 1.5),
        PhotonMode(id="w2", omega=1.3),
    )
    assert len(set(u1.kets) | set(u2.kets)) == 8


def test_sixteen_ket_layout(one_photon):
    b = enumerate_basis(one_photon)
    assert len(b) == 16
    sectors = [k.sector for k in b.kets]
    assert sectors[:8] == [SECTOR_PRODUCT] * 8
    assert sectors[8:] == [SECTOR_ENTANGLED] * 8
    # first entanglement unit of the layout is embedded as kets 0/2/8/10
    assert ket_name(b.kets[0]) == "Z.S0+wZ01"
    assert ket_name(b.kets[2]) == "Z.S1"
    assert ket_name(b.kets[8]) == "Z.S0;1_wZ01"
    assert ket_name(b.kets[10]) == "Z.S1;0_wZ01"
    # family blocks: Z kets precede E kets within each sector
    fams = [k.matter.family for k in b.kets]
    assert fams[:4] == ["Z"] * 4 and fams[4:8] == ["E"] * 4


def test_single_level_scheme_yields_one_bare_ket():
    s = parse_ok("[family A]\nG j=0 g=0 term=Sigma spin=1 energy=0.0\n")
    b = enumerate_basis(s)
    assert len(b) == 1
    assert ket_name(b.kets[0]) == "A.G"
    assert total_energy(b.kets[0]) == 0.0


def test_enumeration_is_deterministic(one_photon):
    a = enumerate_basis(one_photon)
    b = enumerate_basis(one_photon)
    assert a.kets == b.kets


def test_index_is_bijection_on_random_schemes():
    for seed in range(12):
        b = scenario_basis(random_scheme(seed))
        indices = [b.index_of(k) for k in b.kets]
        assert indices == list(range(len(b)))


def test_duplicate_kets_rejected():
    g = _level("Z", "S0", 0, "Sigma", 1, 0.0)
    w = {"w": PhotonMode(id="w", omega=1.0)}
    k = make_ket(g, {}, SECTOR_PRODUCT, (), w)
    with pytest.raises(ValueError, match="duplicate"):
        BasisSet(kets=(k, k), modes=w, levels=(g,), family_rank={"Z": 0})


def test_sector_partition_enforced():
    g = _level("Z", "S0", 0, "Sigma", 1, 0.0)
    e = _level("Z", "S1", 1, "Pi", 1, 1.0)
    w = {"w": PhotonMode(id="w", omega=1.0)}
    ent = make_ket(e, {}, SECTOR_ENTANGLED, ("w",), w)
    prod = make_ket(g, {}, SECTOR_PRODUCT, (), w)
    with pytest.raises(ValueError, match="entangled"):
        BasisSet(kets=(ent, prod), modes=w, levels=(g, e), family_rank={"Z": 0})


# -- two-photon extension ----------------------------------------------------


def test_seventeenth_ket_appended_last(one_photon):
    b = enumerate_basis(one_photon)
    root = b.kets[b.find("Z.S1;0_wZ01")]
    b17 = extend_two_photon(b, root, one_photon.mode("push"))
    assert len(b17) == 17
    assert ket_name(b17.kets[-1]) == "Z.SN;0_wZ01,0_push"
    assert b17.kets[:16] == b.kets
    # stitched upper carries the root energy plus both quanta
    assert b17.kets[-1].energy == pytest.approx(0.3 + 1.0 + 0.6, abs=1e-12)


def test_extension_rejects_present_stitch(one_photon):
    b = enumerate_basis(one_photon)
    root = b.kets[b.find("Z.S1;0_wZ01")]
    with pytest.raises(ValueError, match="already a stitch"):
        extend_two_photon(b, root, one_photon.mode("wZ01"))


def test_extension_rejects_foreign_root(one_photon):
    b = enumerate_basis(one_photon)
    foreign = make_ket(
        _level("Q", "S1", 1, "Pi", 1, 1.3),
        {},
        SECTOR_ENTANGLED,
        ("wZ01",),
        dict(b.modes),
    )
    with pytest.raises(ValueError, match="not in the basis"):
        extend_two_photon(b, foreign, one_photon.mode("push"))


def test_extend_twice_with_distinct_modes_keeps_indices():
    s = parse_ok(
        """
        [family A]
        G j=0 g=0 term=Sigma spin=1 energy=0.0
        P j=1 g=0 term=Pi spin=1 energy=1.0
        U1 j=2 g=0 term=Sigma spin=1 energy=1.6
        U2 j=3 g=0 term=Delta spin=1 energy=1.8
        [modes]
        w omega=1.0
        p1 omega=0.6
        p2 omega=0.8
        """
    )
    b = enumerate_basis(s)
    assert len(b) == 4
    root = b.kets[b.find("A.P;0_w")]
    b1 = extend_two_photon(b, root, s.mode("p1"))
    b2 = extend_two_photon(b1, root, s.mode("p2"))
    assert len(b2) == 6
    assert b2.kets[:4] == b.kets
    names = {ket_name(k) for k in b2.kets[4:]}
    assert names == {"A.U1;0_w,0_p1", "A.U2;0_w,0_p2"}


# -- energies ----------------------------------------------------------------


def test_total_energy_is_linear_in_occupations():
    g = _level("Z", "S0", 0, "Sigma", 1, 0.25)
    modes = {
        "a": PhotonMode(id="a", omega=0.4),
        "b": PhotonMode(id="b", omega=1.1),
    }
    for na in range(3):
        for nb in range(3):
            k = make_ket(g, {"a": na, "b": nb}, SECTOR_PRODUCT, (), modes)
            assert total_energy(k) == pytest.approx(0.25 + na * 0.4 + nb * 1.1, abs=1e-15)


def test_resonant_pair_energies_match(unit_scheme):
    b = enumerate_basis(unit_scheme)
    dressed = b.kets[b.find("A.G+w")]
    bare = b.kets[b.find("A.X")]
    assert total_energy(dressed) == pytest.approx(total_energy(bare), abs=1e-15)


# -- naming and partners -----------------------------------------------------


def test_ket_names_round_trip(two_photon):
    b = scenario_basis(two_photon)
    for ket in b.kets:
        assert parse_ket_spec(ket_name(ket), b) == ket


def test_photon_partner_respects_cap(unit_scheme):
    b = enumerate_basis(unit_scheme)
    w = unit_scheme.mode("w")
    dressed = b.kets[b.find("A.G+w")]
    assert photon_partner(b, dressed, w) is None  # max-photons-per-mode = 1
    bare = b.kets[b.find("A.X")]
    assert photon_partner(b, bare, w) is None  # partner ket not enumerated


def test_scenario_basis_stops_at_the_ket_ceiling(two_photon):
    # the closure adds about 29 kets per unit of cap, so this would not finish
    huge = dataclasses.replace(two_photon, max_photons=10**6)
    with pytest.raises(ValueError) as exc:
        scenario_basis(huge)
    assert str(exc.value) == f"scenario basis exceeds {MAX_SCENARIO_KETS} kets"
