"""Parser, validator, and serializer behavior."""

import numpy as np
import pytest

from qstitch import parse_scheme, serialize_scheme, validate_scheme
from qstitch.scheme import ERROR, WARNING, has_errors

from conftest import parse_ok


def test_empty_document_parses_to_empty_scheme():
    result = parse_scheme("")
    assert result.ok
    s = result.scheme
    assert s.levels == () and s.modes == () and s.couplings == ()


def test_element_counts_match_declarations():
    s = parse_ok(
        """
        [family Z]
        S0 j=0 g=0 term=Sigma spin=1 energy=0.0
        S1 j=1 g=0 term=Pi spin=1 energy=1.0

        [modes]
        w omega=1.0

        [couplings]
        dipole Z.S0 Z.S1 mode=w strength=0.1
        """
    )
    assert len(s.levels) == 2
    assert len(s.modes) == 1
    assert len(s.couplings) == 1


def test_file_order_preserved():
    s = parse_ok(
        """
        [family Q]
        B j=1 g=0 term=Pi spin=1 energy=2.0
        A j=0 g=0 term=Sigma spin=1 energy=0.0

        [modes]
        m2 omega=2.0
        m1 omega=1.0
        """
    )
    assert [lv.label for lv in s.levels] == ["B", "A"]
    assert [m.id for m in s.modes] == ["m2", "m1"]


@pytest.mark.parametrize(
    "text,rule",
    [
        ("[weird]\n", "unknown-section"),
        ("[family Z]\nS0 j=0 g=0 term=Sigma spin=1 energy=0.0\nS0 j=1 g=0 term=Pi spin=1 energy=1.0\n", "duplicate-label"),
        ("[couplings]\ndipole Z.S0 Z.S1 mode=w strength=0.1\n", "unresolved-reference"),
        ("[family Z]\nS0 j=0 g=0 term=Sigma spin=1 energy=abc\n", "non-numeric"),
        ("[family Z]\nS0 j=0 g=0 term=Theta spin=1 energy=0.0\n", "bad-term"),
        ("[family Z]\nS0 j=0 g=0 term=Sigma spin=2 energy=0.0\n", "bad-spin"),
        ("[modes]\nw omega=-1.0\n", "bad-mode"),
        ("[family Z]\nS0 j=0 g=0 term=Sigma spin=1 energy=0.0 zap=1\n", "unknown-field"),
    ],
)
def test_parse_errors_carry_rule_and_location(text, rule):
    result = parse_scheme(text)
    assert not result.ok
    assert any(d.rule == rule for d in result.diagnostics)
    assert all(d.line >= 1 and d.column >= 1 for d in result.diagnostics)


def test_parse_never_returns_both_scheme_and_errors():
    good = parse_scheme("[modes]\nw omega=1.0\n")
    assert good.ok and good.diagnostics == []
    bad = parse_scheme("[modes]\nw omega=oops\n")
    assert bad.scheme is None and bad.diagnostics


def test_duplicate_quantum_numbers_rejected():
    result = parse_scheme(
        "[family Z]\n"
        "S0 j=0 g=0 term=Sigma spin=1 energy=0.0\n"
        "SX j=0 g=0 term=Pi spin=1 energy=1.0\n"
    )
    assert not result.ok
    assert any(d.rule == "duplicate-label" for d in result.diagnostics)


def test_dipole_requires_mode_and_spinorbit_rejects_it():
    base = (
        "[family Z]\n"
        "S0 j=0 g=0 term=Sigma spin=1 energy=0.0\n"
        "S1 j=1 g=0 term=Pi spin=1 energy=1.0\n"
        "[modes]\nw omega=1.0\n[couplings]\n"
    )
    assert not parse_scheme(base + "dipole Z.S0 Z.S1 strength=0.1\n").ok
    assert not parse_scheme(base + "spinorbit Z.S0 Z.S1 mode=w strength=0.1\n").ok


# -- validation --------------------------------------------------------------


def _two_family(z_ground: float, e_ground: float) -> str:
    return f"""
    [family Z]
    S0 j=0 g=0 term=Sigma spin=1 energy={z_ground}
    S1 j=1 g=0 term=Pi spin=1 energy={z_ground + 1.0}

    [family E]
    S0 j=0 g=0 term=Sigma spin=1 energy={e_ground}
    S1 j=1 g=0 term=Pi spin=1 energy={e_ground + 1.2}

    [modes]
    wz omega=1.0
    we omega=1.2

    [couplings]
    dipole Z.S0 Z.S1 mode=wz strength=0.1
    dipole E.S0 E.S1 mode=we strength=0.1
    """


def test_ground_ordering_warning():
    s = parse_ok(_two_family(0.0, 0.3))
    diags = validate_scheme(s)
    hits = [d for d in diags if d.rule == "ground-order"]
    assert hits and hits[0].severity == WARNING
    assert not has_errors(diags)


def test_legal_two_family_scheme_has_no_diagnostics():
    s = parse_ok(_two_family(0.3, 0.0))
    assert validate_scheme(s) == []


def test_forbidden_dipole_between_sigma_grounds():
    s = parse_ok(
        """
        [family Z]
        S0 j=0 g=0 term=Sigma spin=1 energy=0.3
        [family E]
        S0 j=0 g=0 term=Sigma spin=1 energy=0.0
        [modes]
        w omega=0.3
        [couplings]
        dipole Z.S0 E.S0 mode=w strength=0.1
        """
    )
    diags = validate_scheme(s)
    hits = [d for d in diags if d.rule == "selection.parity"]
    assert hits and hits[0].severity == ERROR
    assert "direct EM transition forbidden" in hits[0].message


def test_spin_changing_dipole_rejected():
    s = parse_ok(
        """
        [family Z]
        S0 j=0 g=0 term=Sigma spin=1 energy=0.0
        T1 j=1 g=0 term=Pi spin=3 energy=1.0
        [modes]
        w omega=1.0
        [couplings]
        dipole Z.S0 Z.T1 mode=w strength=0.1
        """
    )
    assert any(d.rule == "selection.spin" for d in validate_scheme(s))


def test_pulse_order_and_detector_threshold():
    s = parse_ok(
        """
        [family Z]
        S0 j=0 g=0 term=Sigma spin=1 energy=0.0
        [modes]
        w omega=1.0
        [pulses]
        w time=5.0
        w time=1.0
        [detectors]
        d1 target=Z.S0 mode=w threshold=1.5
        """
    )
    rules = {d.rule for d in validate_scheme(s)}
    assert "pulse-order" in rules
    assert "detector-threshold" in rules


def test_validation_is_pure(one_photon):
    assert validate_scheme(one_photon) == validate_scheme(one_photon)


# -- serialization -----------------------------------------------------------


def test_serialize_empty_scheme_round_trips():
    s = parse_scheme("").scheme
    text = serialize_scheme(s)
    assert parse_scheme(text).scheme == s


def test_detector_line_count_preserved():
    s = parse_ok(
        """
        [family Z]
        S0 j=0 g=0 term=Sigma spin=1 energy=0.0
        [modes]
        w omega=1.0
        [detectors]
        d1 target=Z.S0 mode=w threshold=0.5 rate=0.1
        """
    )
    text = serialize_scheme(s)
    assert sum("target=" in line for line in text.splitlines()) == 1


def test_shipped_schemes_round_trip(one_photon, two_photon):
    for s in (one_photon, two_photon):
        text = serialize_scheme(s)
        again = parse_scheme(text)
        assert again.ok
        assert again.scheme == s
        assert serialize_scheme(again.scheme) == text


def test_round_trip_fixed_point_over_random_corpus():
    # dedicated 60-scheme spot check; the 500-scheme sweep runs in acceptance
    from test_acceptance import random_document

    rng = np.random.default_rng(2024)
    for _ in range(60):
        doc = random_document(rng)
        first = parse_scheme(doc)
        assert first.ok, (first.diagnostics, doc)
        text1 = serialize_scheme(first.scheme)
        second = parse_scheme(text1)
        assert second.ok
        assert second.scheme == first.scheme
        assert serialize_scheme(second.scheme) == text1


# -- header ranges -----------------------------------------------------------

# (header line, the diagnostic it gives without its position)
BAD_HEADERS = [
    ("gate-tolerance = nan",
     "error: [non-numeric] header 'gate-tolerance' must be finite, got 'nan'"),
    ("max-photons-per-mode = inf",
     "error: [non-numeric] header 'max-photons-per-mode' must be finite, got 'inf'"),
    ("max-photons-per-mode = nan",
     "error: [non-numeric] header 'max-photons-per-mode' must be finite, got 'nan'"),
    ("gate-tolerance = 0", "error: [bad-header] header 'gate-tolerance' must be positive, got 0.0"),
    ("gate-tolerance = -1",
     "error: [bad-header] header 'gate-tolerance' must be positive, got -1.0"),
    ("resonance-tolerance = -1",
     "error: [bad-header] header 'resonance-tolerance' must be non-negative, got -1.0"),
    ("transfer = inf", "error: [non-numeric] header 'transfer' must be finite, got 'inf'"),
]


@pytest.mark.parametrize("line, diagnostic", BAD_HEADERS, ids=[h for h, _ in BAD_HEADERS])
def test_out_of_range_header_value_is_one_diagnostic(line, diagnostic):
    result = parse_scheme(f"{line}\n[modes]\nw omega=1.0\n")
    assert result.scheme is None
    assert [str(d) for d in result.diagnostics] == [f"1:1: {diagnostic}"]


def test_header_bounds_are_inclusive_where_documented():
    s = parse_ok("resonance-tolerance = 0\ngate-tolerance = 1e-300\nmax-photons-per-mode = 0\n")
    assert (s.resonance_tolerance, s.gate_tolerance, s.max_photons) == (0.0, 1e-300, 0)
