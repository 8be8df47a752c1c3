"""Soundness of the pruned q-path search and of the one-search witnesses.

``enumerate_qpaths`` cuts a move when the target lies too far from it, and
reports ``truncated`` only when such a cut target distance was finite. So a
``False`` flag proves the path list complete at any length, and a target no
walk reaches is never truncated. The brute-force oracle of ``conftest``
enumerates straight off V, independent of the search core.
"""

from qstitch import (
    assemble,
    build_graph,
    enumerate_qpaths,
    reachable,
    reachable_set,
    scenario_basis,
    witnesses,
)

from conftest import brute_force_paths, random_scheme


def test_untruncated_path_lists_are_complete():
    checked = complete = 0
    for seed in range(60):
        s = random_scheme(seed)
        b = scenario_basis(s)
        op = assemble(b, s)
        g = build_graph(op)
        for pulses in (s.pulses, ()):
            for start in range(len(b)):
                closure = reachable_set(g, b, start, pulses)
                for target in range(len(b)):
                    every = brute_force_paths(op, b, start, target, pulses, max_len=len(b))
                    for max_len in range(9):
                        paths, truncated = enumerate_qpaths(g, b, start, target, pulses, max_len)
                        listed = {p.kets for p in paths}
                        case = (seed, bool(pulses), start, target, max_len)
                        assert listed == {k for k in every if len(k) <= max_len + 1}, case
                        assert truncated or listed == every, case
                        assert target in closure or not truncated, case
                        checked += 1
                        complete += not truncated
    assert complete > checked // 2  # the flag is not merely always set


def test_witnesses_match_reachable_per_target():
    for seed in range(60):
        s = random_scheme(seed)
        b = scenario_basis(s)
        g = build_graph(assemble(b, s))
        for pulses in (s.pulses, ()):
            for start in range(len(b)):
                found = witnesses(g, b, start, range(len(b)), pulses)
                for target in range(len(b)):
                    ok, witness = reachable(g, b, start, target, pulses)
                    assert found[target] == witness, (seed, bool(pulses), start, target)
                    assert ok is (witness is not None)
