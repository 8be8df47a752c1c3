"""Coupling-graph extraction, reachability, and q-path enumeration."""

import numpy as np
import pytest

from qstitch import (
    assemble,
    build_entanglement_unit,
    build_graph,
    enumerate_basis,
    enumerate_qpaths,
    photon_budget,
    reachable,
    reachable_set,
    scenario_basis,
    selection_check,
)

from conftest import brute_force_paths, parse_ok, random_scheme


def test_zero_matrix_gives_edgeless_graph():
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
    g = build_graph(assemble(b, s))
    assert g.edges == ()


def test_unit_graph_matches_hand_built_edges(unit_scheme):
    unit = build_entanglement_unit(
        unit_scheme.level("A.G"), unit_scheme.level("A.X"), unit_scheme.mode("w")
    )
    g = build_graph(assemble(unit, unit_scheme))
    edges = {(e.a, e.b) for e in g.edges}
    # unit order |X>, |G+w>, |G;1w>, |X;0w>: dipole pairs and sector transfers
    assert edges == {(0, 1), (2, 3), (1, 2), (0, 3)}


def test_edge_count_mirrors_upper_triangle():
    for seed in range(15):
        s = random_scheme(seed)
        b = scenario_basis(s)
        op = assemble(b, s)
        g = build_graph(op)
        upper = np.triu(op.V, k=1)
        assert len(g.edges) == int(np.count_nonzero(upper))


def test_start_equals_target_is_trivially_reachable(one_photon):
    b = scenario_basis(one_photon)
    op = assemble(b, one_photon)
    g = build_graph(op)
    i = b.find("Z.S0+wZ01")
    ok, path = reachable(g, b, i, i)
    assert ok and len(path) == 0 and path.kets == (i,)


def test_two_level_graph_has_single_path(two_level):
    b = enumerate_basis(two_level)
    op = assemble(b, two_level)
    g = build_graph(op)
    start, target = b.find("A.G+w"), b.find("A.X")
    paths, truncated = enumerate_qpaths(g, b, start, target)
    assert not truncated
    assert len(paths) == 1 and len(paths[0]) == 1
    assert paths[0].kinds == ("dipole",)


def test_witness_ledger_obeys_selection_rules(two_photon):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    g = build_graph(op)
    ok, path = reachable(
        g, b, b.find("Z.S0+wZ01"), b.find("E.S0+wE01+wEt"), two_photon.pulses
    )
    assert ok
    for idx, kind in enumerate(path.kinds):
        a, c = b.kets[path.kets[idx]], b.kets[path.kets[idx + 1]]
        if kind == "inject":
            assert c.total_occupation == a.total_occupation + 1
            continue
        verdict = selection_check(kind, a, c, gate_tolerance=op.gate)
        assert verdict.allowed, (kind, verdict)


def test_budget_counts_preparation_and_injections(two_photon, unit_scheme):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    g = build_graph(op)
    ok, path = reachable(
        g, b, b.find("Z.S0+wZ01"), b.find("E.S0+wE01+wEt"), two_photon.pulses
    )
    assert ok and photon_budget(path) == 2

    # one photon in, one out: the scattering loop consumes a single quantum
    unit = build_entanglement_unit(
        unit_scheme.level("A.G"), unit_scheme.level("A.X"), unit_scheme.mode("w")
    )
    gu = build_graph(assemble(unit, unit_scheme))
    ok, loop = reachable(gu, unit, 1, 1)
    assert ok and photon_budget(loop) == 1

    # a pure matter cascade consumes nothing
    s = parse_ok(
        """
        gate-tolerance = 0.001
        [family A]
        P j=1 g=0 term=Pi spin=1 energy=1.0
        T j=2 g=0 term=Delta spin=3 energy=1.0001
        [couplings]
        spinorbit A.P A.T strength=0.01
        """
    )
    bs = scenario_basis(s)
    ops = assemble(bs, s)
    ok, cascade = reachable(build_graph(ops), bs, bs.find("A.P"), bs.find("A.T"))
    assert ok and photon_budget(cascade) == 0


def test_both_crossing_route_families_enumerated(two_photon):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    g = build_graph(op)
    start = b.find("Z.S0+wZ01")
    target = b.find("E.S0+wE01+wEt")
    paths, _ = enumerate_qpaths(g, b, start, target, two_photon.pulses, max_len=8)
    assert paths
    routes = [[b.kets[i].matter.ref for i in p.kets] for p in paths]
    # triplet crossing: the push quantum carries Delta(Z) onto the E manifold
    assert any("Z.T1" in r and "Z.SN" not in r for r in routes)
    # singlet-rung crossing: through the two-quantum upper level
    assert any("Z.SN" in r for r in routes)
    # every route enters the E family at its triplet ladder and exits at the
    # ground precursor
    for r in routes:
        assert r[-3:] == ["E.T1", "E.S1", "E.S0"]


def test_adding_a_pulse_never_shrinks_reachability():
    for seed in range(20):
        s = random_scheme(seed)
        b = scenario_basis(s)
        op = assemble(b, s)
        g = build_graph(op)
        start = 0
        base = reachable_set(g, b, start, ())
        withp = reachable_set(g, b, start, s.pulses)
        assert base <= withp


def test_enumeration_matches_brute_force_on_small_instances(two_level):
    cases = [random_scheme(seed) for seed in range(10)]
    for s in cases:
        b = scenario_basis(s)
        op = assemble(b, s)
        g = build_graph(op)
        start = 0
        target = len(b) - 1
        mine, _ = enumerate_qpaths(g, b, start, target, s.pulses, max_len=8)
        theirs = brute_force_paths(op, b, start, target, s.pulses, max_len=8)
        assert {p.kets for p in mine} == theirs


@pytest.mark.parametrize("target, count", [("E.S0+wE01+wEt", 1241), ("E.S0+wE01", 0)])
def test_two_photon_enumeration_matches_brute_force_at_length_12(two_photon, target, count):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    g = build_graph(op)
    start, end = b.find("Z.S0+wZ01"), b.find(target)
    mine, _ = enumerate_qpaths(g, b, start, end, two_photon.pulses, max_len=12)
    oracle = brute_force_paths(op, b, start, end, two_photon.pulses, max_len=12)
    assert len(mine) == len(oracle) == count
    assert {p.kets for p in mine} == oracle


def test_negative_length_bound_rejected(two_level):
    b = enumerate_basis(two_level)
    g = build_graph(assemble(b, two_level))
    with pytest.raises(ValueError, match="max_len must be non-negative, got -1"):
        enumerate_qpaths(g, b, b.find("A.G+w"), b.find("A.X"), max_len=-1)


def test_truncation_flag_set_when_bound_cuts():
    s = parse_ok(
        """
        gate-tolerance = 0.001
        transfer = 0.01
        [family A]
        G j=0 g=0 term=Sigma spin=1 energy=0.0
        P j=1 g=0 term=Pi spin=1 energy=1.0
        [modes]
        w omega=1.0
        [couplings]
        dipole A.G A.P mode=w strength=0.05
        """
    )
    b = enumerate_basis(s)
    op = assemble(b, s)
    g = build_graph(op)
    start, target = b.find("A.G+w"), b.find("A.P;0_w")
    paths, truncated = enumerate_qpaths(g, b, start, target, max_len=1)
    assert truncated
    long_paths, not_truncated = enumerate_qpaths(g, b, start, target, max_len=6)
    assert not not_truncated
    assert len(long_paths) >= 1


def test_path_longer_than_the_recursion_limit():
    # 1,100 degenerate levels chained by spin-orbit mixing (Sigma singlet, Pi triplet, ...)
    n = 1100
    levels = [f"L{k} j={k} g=0 term={('Sigma', 'Pi')[k % 2]} spin={(1, 3)[k % 2]} energy=1.0"
              for k in range(n)]
    couplings = [f"spinorbit A.L{k} A.L{k + 1} strength=0.01" for k in range(n - 1)]
    s = parse_ok("\n".join(["[family A]", *levels, "[couplings]", *couplings]))
    b = scenario_basis(s)
    g = build_graph(assemble(b, s))
    paths, truncated = enumerate_qpaths(g, b, b.find("A.L0"), b.find(f"A.L{n - 1}"), max_len=2000)
    assert [len(p) for p in paths] == [n - 1]
    assert not truncated
