"""Propagation, pulse injection, detection, and full scenario runs."""

import tracemalloc

import numpy as np
import pytest

from qstitch import (
    EmissionEvent,
    OperatorPair,
    StateVector,
    assemble,
    build_entanglement_unit,
    detect,
    enumerate_basis,
    evolve,
    inject_pulse,
    prepare,
    scenario_basis,
    step,
)
from qstitch.scheme import DetectorDecl, PulseDecl

from conftest import parse_ok
from test_ket_order_golden import _synth
from test_propagator_differential import _scheme


def _setup(scheme):
    b = enumerate_basis(scheme)
    return b, assemble(b, scheme)


def test_prepare_single_ket_gives_unit_vector(one_photon):
    b = enumerate_basis(one_photon)
    c = prepare(b, {"Z.S0+wZ01": 1.0})
    assert c.norm == pytest.approx(1.0, abs=1e-15)
    assert abs(c.amplitudes[0]) == pytest.approx(1.0, abs=1e-15)
    assert c.time == 0.0


def test_prepare_two_kets_normalizes(one_photon):
    b = enumerate_basis(one_photon)
    c = prepare(b, {"Z.S0+wZ01": 1.0, "E.S0+wE01": 1.0})
    pops = c.populations()
    assert pops[b.find("Z.S0+wZ01")] == pytest.approx(0.5, abs=1e-15)
    assert pops[b.find("E.S0+wE01")] == pytest.approx(0.5, abs=1e-15)


def test_prepare_complex_weights_normalize(one_photon):
    b = enumerate_basis(one_photon)
    c = prepare(b, {"Z.S0+wZ01": 0.3 + 0.4j, "Z.S1": 1.2j, "E.S1": -0.7})
    assert c.norm == pytest.approx(1.0, abs=1e-12)


def test_prepare_rejects_unknown_and_empty(one_photon):
    b = enumerate_basis(one_photon)
    with pytest.raises(KeyError):
        prepare(b, {"Z.S9": 1.0})
    with pytest.raises(ValueError):
        prepare(b, {})
    with pytest.raises(ValueError):
        prepare(b, {"Z.S1": 0.0})


def test_prepare_rejects_two_keys_naming_one_ket(one_photon):
    b = enumerate_basis(one_photon)
    i = b.find("Z.S0+wZ01")
    for spec in ({"Z.S0+wZ01": 1.0, "Z.S0+1*wZ01": 1.0}, {i: 1.0, b.kets[i]: 0.5}):
        with pytest.raises(ValueError, match=r"^preparation assigns Z\.S0\+wZ01 twice$"):
            prepare(b, spec)


def test_diagonal_phase_rotation(two_level):
    # kill the coupling so evolution is purely diagonal
    import dataclasses

    s = dataclasses.replace(two_level, couplings=())
    b, op = _setup(s)
    c = prepare(b, {"A.X": 1.0})
    idx = b.find("A.X")
    c2 = step(c, op, 0.7)
    expected = np.exp(-1j * b.kets[idx].energy * 0.7)
    assert c2.amplitudes[idx] == pytest.approx(expected, abs=1e-12)
    assert c2.populations()[idx] == pytest.approx(1.0, abs=1e-14)


def test_two_level_rabi_closed_form(two_level):
    b, op = _setup(two_level)
    v = 0.05
    c = prepare(b, {"A.G+w": 1.0})
    target = b.find("A.X")
    t = 0.0
    for _ in range(200):
        c = step(c, op, 0.5)
        t += 0.5
        assert c.populations()[target] == pytest.approx(np.sin(v * t) ** 2, abs=1e-10)


def test_norm_drift_per_step(two_level):
    b, op = _setup(two_level)
    c = prepare(b, {"A.G+w": 1.0})
    for _ in range(100):
        before = c.norm
        c = step(c, op, 0.3)
        assert abs(c.norm - before) < 1e-12


def test_time_reversal(two_level):
    b, op = _setup(two_level)
    c = prepare(b, {"A.G+w": 1.0, "A.X": 0.5j})
    fwd = step(c, op, 2.0)
    back = step(fwd, op, -2.0)
    assert np.abs(back.amplitudes - c.amplitudes).max() < 1e-10


def test_step_rejects_zero_dt(two_level):
    b, op = _setup(two_level)
    c = prepare(b, {"A.G+w": 1.0})
    with pytest.raises(ValueError, match="^dt must be nonzero$"):
        step(c, op, 0.0)


def test_step_rejects_a_dimension_mismatch(two_level):
    b, op = _setup(two_level)
    c = prepare(b, {"A.G+w": 1.0})
    with pytest.raises(ValueError, match="^state and operator dimensions differ$"):
        step(StateVector(np.append(c.amplitudes, 0.0)), op, 0.1)


def test_step_needs_no_dense_eigendecomposition(monkeypatch):
    s = _scheme("two_photon", 3)
    b = scenario_basis(s)
    op = assemble(b, s)
    c = prepare(b, {"Z.S0+wZ01": 1.0, "E.S0+wE01": 0.5j, "Z.S1": -0.25})
    # reference: the dense kernel, Q exp(-i w dt) Q^H over the full eigendecomposition
    w, q = op.eig()
    dense = c.amplitudes
    for _ in range(20):
        dense = q @ (np.exp(-1j * w * 0.25) * (q.conj().T @ dense))

    def refuse(self):
        raise AssertionError("step built the dense eigendecomposition")

    monkeypatch.setattr(OperatorPair, "eig", refuse)
    for _ in range(20):
        c = step(c, op, 0.25)
    assert c.time == 5.0
    assert np.abs(c.amplitudes - dense).max() <= 1e-12


def test_step_keeps_an_all_zero_state_at_zero(one_photon):
    b, op = _setup(one_photon)
    c = step(StateVector(np.zeros(len(b), dtype=complex), time=1.0), op, 0.5)
    assert c.time == 1.5
    assert c.amplitudes.shape == (len(b),) and not c.amplitudes.any()


# -- pulse injection ----------------------------------------------------------


def test_inject_moves_single_ket(two_photon):
    b = scenario_basis(two_photon)
    c = prepare(b, {"Z.S1": 1.0})
    c2 = inject_pulse(c, b, two_photon.mode("push"))
    assert c2.populations()[b.find("Z.S1+push")] == pytest.approx(1.0, abs=1e-15)
    assert c2.norm == pytest.approx(1.0, abs=1e-15)


def test_inject_preserves_phases(two_photon):
    b = scenario_basis(two_photon)
    amp_a, amp_b = 0.6, 0.8j
    c = prepare(b, {"Z.S1": amp_a, "Z.T1": amp_b})
    c2 = inject_pulse(c, b, two_photon.mode("push"))
    ia, ib = b.find("Z.S1+push"), b.find("Z.T1+push")
    ratio = c2.amplitudes[ib] / c2.amplitudes[ia]
    assert ratio == pytest.approx((amp_b / amp_a), abs=1e-12)


def test_inject_errors_name_the_missing_partner(unit_scheme):
    b = enumerate_basis(unit_scheme)
    c = prepare(b, {"A.G+w": 1.0})
    with pytest.raises(ValueError, match="A.G\\+w"):
        inject_pulse(c, b, unit_scheme.mode("w"))  # already at the occupation cap


# -- detection ----------------------------------------------------------------


def test_detector_never_fires_on_empty_ket(one_photon):
    b = enumerate_basis(one_photon)
    op = assemble(b, one_photon)
    c = prepare(b, {"Z.S0+wZ01": 1.0})
    traj = evolve(c, op, detectors=one_photon.detectors, t_end=50.0, dt=0.1)
    assert traj.emission is None


def test_threshold_first_crossing_matches_closed_form(two_level):
    b, op = _setup(two_level)
    v = 0.05
    det = DetectorDecl(
        id="d",
        target=two_level.level("A.G"),
        mode=two_level.mode("w"),
        threshold=0.5,
    )
    c = prepare(b, {"A.X": 1.0})  # monitored ket A.G+w starts empty
    dt = 0.01
    traj = evolve(c, op, detectors=[det], t_end=40.0, dt=dt)
    assert traj.emission is not None
    t_oracle = np.arcsin(np.sqrt(0.5)) / v  # first t with sin^2(vt) = 0.5
    assert traj.emission.time == pytest.approx(t_oracle, abs=dt)
    assert traj.emission.collapse_applied


def test_detect_rejects_bad_threshold(two_level):
    b, op = _setup(two_level)
    det = DetectorDecl(
        id="d", target=two_level.level("A.G"), mode=two_level.mode("w"), threshold=1.5
    )
    c = prepare(b, {"A.X": 1.0})
    with pytest.raises(ValueError, match="threshold must lie in"):
        detect(c, b, [det])
    # evolve checks thresholds up front, in either mode, with the same message
    for mode in ("threshold", "stochastic"):
        with pytest.raises(ValueError, match="threshold must lie in"):
            evolve(c, op, detectors=[det], t_end=10.0, dt=0.1, detect_mode=mode, seed=1)


def test_detect_fires_at_the_threshold_and_not_below(two_level):
    b, _ = _setup(two_level)
    c = prepare(b, {"A.G+w": 1.0, "A.X": 1.0})
    ket = b.find("A.G+w")
    pop = float(c.populations()[ket])
    at = DetectorDecl(id="d", target=two_level.level("A.G"), mode=two_level.mode("w"),
                      threshold=pop)
    hit = detect(c, b, [at])
    assert hit == EmissionEvent(c.time, "d", ket, "w", pop, False)
    above = DetectorDecl(id="d", target=two_level.level("A.G"), mode=two_level.mode("w"),
                         threshold=float(np.nextafter(pop, 1.0)))
    assert detect(c, b, [above]) is None


def test_stochastic_detect_needs_rng_and_dt(two_level):
    b, _ = _setup(two_level)
    det = DetectorDecl(id="d", target=two_level.level("A.G"), mode=two_level.mode("w"),
                       threshold=0.5, rate=2.0)
    c = prepare(b, {"A.G+w": 1.0})
    for kwargs in ({}, {"rng": np.random.default_rng(0)}, {"dt": 1.0}):
        with pytest.raises(ValueError, match="stochastic detection needs rng and dt"):
            detect(c, b, [det], mode="stochastic", **kwargs)
    # rate * population * dt = 2: every draw falls below it
    hit = detect(c, b, [det], rng=np.random.default_rng(0), dt=1.0, mode="stochastic")
    assert hit is not None and hit.ket == b.find("A.G+w")


def test_stochastic_detection_is_seed_deterministic(two_level):
    b, op = _setup(two_level)
    det = DetectorDecl(
        id="d",
        target=two_level.level("A.G"),
        mode=two_level.mode("w"),
        threshold=0.9,
        rate=0.8,
    )
    c = prepare(b, {"A.X": 1.0})
    runs = [
        evolve(c, op, detectors=[det], t_end=120.0, dt=0.05,
               detect_mode="stochastic", seed=42)
        for _ in range(2)
    ]
    assert runs[0].emission is not None
    assert runs[0].emission.time == runs[1].emission.time
    other = evolve(c, op, detectors=[det], t_end=120.0, dt=0.05,
                   detect_mode="stochastic", seed=43)
    assert other.emission is None or other.emission.time != runs[0].emission.time


# -- full scenario ------------------------------------------------------------


def test_flat_populations_without_couplings(two_level):
    import dataclasses

    s = dataclasses.replace(two_level, couplings=())
    b, op = _setup(s)
    c = prepare(b, {"A.G+w": 1.0, "A.X": 1.0})
    traj = evolve(c, op, t_end=30.0, dt=0.1)
    assert np.abs(traj.populations - traj.populations[0]).max() < 1e-12


def test_rayleigh_unit_run_brackets_evolution_with_transfers(unit_scheme):
    g = unit_scheme.level("A.G")
    x = unit_scheme.level("A.X")
    w = unit_scheme.mode("w")
    b = build_entanglement_unit(g, x, w)
    op = assemble(b, unit_scheme)
    det = DetectorDecl(id="ray", target=g, mode=w, threshold=0.98)
    c = prepare(b, {"A.G+w": 1.0})
    traj = evolve(c, op, detectors=[det], t_end=400.0, dt=0.05)
    kinds = [e["transfer"] for e in traj.events]
    assert kinds.count("+") == 1 and kinds.count("-") == 1
    assert traj.events[0]["type"] == "prepare"
    assert traj.events[-1]["type"] == "emission"
    assert traj.emission.time > 0
    # all four kets of the unit took part in the coherent segment
    assert (traj.populations.max(axis=0) > 1e-4).all()


def test_pulse_schedule_validated(two_level):
    b, op = _setup(two_level)
    c = prepare(b, {"A.G+w": 1.0})
    w = two_level.mode("w")
    bad = [PulseDecl(mode=w, time=5.0), PulseDecl(mode=w, time=1.0)]
    with pytest.raises(ValueError):
        evolve(c, op, pulses=bad, t_end=10.0, dt=0.1)
    with pytest.raises(ValueError):
        evolve(c, op, pulses=[PulseDecl(mode=w, time=99.0)], t_end=10.0, dt=0.1)


def test_evolve_rejects_a_pulse_it_would_drop(two_level):
    b, op = _setup(two_level)
    c = prepare(b, {"A.G+w": 1.0})
    w = two_level.mode("w")
    with pytest.raises(ValueError, match="whole number"):
        evolve(c, op, t_end=1.0, dt=0.4)
    # injection happens at step boundaries, the last of which is t_end - dt
    for t in (1.2, 1.0):
        with pytest.raises(ValueError, match="pulse times"):
            evolve(c, op, pulses=[PulseDecl(mode=w, time=t)], t_end=1.2, dt=0.4)


def test_pulse_window_starts_at_the_start_time(two_photon):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    c = prepare(b, {"Z.S0+wZ01": 1.0})
    c = StateVector(c.amplitudes, time=5.0)
    push = two_photon.pulses[0].mode
    # a pulse before the start is rejected, not injected at the start
    with pytest.raises(ValueError, match=r"\[5, 14\.75\]"):
        evolve(c, op, pulses=[PulseDecl(mode=push, time=2.0)], t_end=10.0, dt=0.25)
    # the last boundary is start + t_end - dt
    traj = evolve(c, op, pulses=[PulseDecl(mode=push, time=14.75)], t_end=10.0, dt=0.25)
    assert [e["time"] for e in traj.events if e["type"] == "pulse"] == [14.75]


@pytest.mark.parametrize("t", [1e308, float("inf"), float("-inf"), float("nan")])
def test_pulse_time_too_large_or_not_finite_is_out_of_the_window(two_photon, t):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    c = prepare(b, {"Z.S0+wZ01": 1.0})
    push = two_photon.pulses[0].mode
    with pytest.raises(ValueError, match=r"^pulse times must lie within .* = \[0, 9\.75\]$"):
        evolve(c, op, pulses=[PulseDecl(mode=push, time=t)], t_end=10.0, dt=0.25)


def test_pulse_on_a_boundary_goes_in_on_time(two_photon):
    # 2000 accumulated steps of 0.1 read 199.99999999999292, one step short
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    c = prepare(b, {"Z.S0+wZ01": 1.0})
    traj = evolve(c, op, pulses=two_photon.pulses, t_end=210.0, dt=0.1, sample_every=100)
    assert [e["time"] for e in traj.events if e["type"] == "pulse"] == [200.0]
    assert traj.times[-1] == 210.0


def test_energy_constant_between_pulses(two_photon):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    c = prepare(b, {"Z.S0+wZ01": 1.0})
    traj = evolve(c, op, pulses=two_photon.pulses, t_end=400.0, dt=0.25, sample_every=2)
    push_at = two_photon.pulses[0].time
    seg1 = traj.energies[traj.times < push_at]
    seg2 = traj.energies[traj.times > push_at]
    assert np.abs(seg1 - seg1[0]).max() < 1e-9
    assert np.abs(seg2 - seg2[0]).max() < 1e-9
    # the pulse raises the energy expectation by one push quantum
    assert seg2[0] - seg1[0] == pytest.approx(0.6, abs=1e-9)


def test_forbidden_kets_stay_silent(two_photon):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    c = prepare(b, {"Z.S0+wZ01": 1.0})
    traj = evolve(c, op, pulses=two_photon.pulses, t_end=600.0, dt=0.25, sample_every=2)
    budget = b.kets[b.find("Z.S0+wZ01")].energy + sum(
        u.mode.omega for u in two_photon.pulses
    )
    over = [i for i, k in enumerate(b.kets)
            if k.energy > budget + two_photon.gate_tolerance + 1e-9]
    assert over
    worst_amp = max(np.sqrt(traj.max_population(i)) for i in over)
    assert worst_amp < 1e-12


def test_step_size_insensitivity(two_photon):
    b = scenario_basis(two_photon)
    op = assemble(b, two_photon)
    c = prepare(b, {"Z.S0+wZ01": 1.0})
    coarse = evolve(c, op, pulses=two_photon.pulses, t_end=300.0, dt=0.5, sample_every=2)
    fine = evolve(c, op, pulses=two_photon.pulses, t_end=300.0, dt=0.25, sample_every=4)
    assert np.allclose(coarse.times, fine.times)
    assert np.abs(coarse.populations - fine.populations).max() < 1e-8


@pytest.mark.parametrize(
    "t_end, dt, message",
    [
        (float("inf"), 0.25, "t_end must be finite and positive, got inf"),
        (10.0, float("nan"), "dt must be finite and positive, got nan"),
        (-5.0, 0.25, "t_end must be finite and positive, got -5.0"),
        (0.0, 0.25, "t_end must be finite and positive, got 0.0"),
        (10.0, 0.0, "dt must be finite and positive, got 0.0"),
    ],
)
def test_run_length_must_be_finite_and_positive(two_level, t_end, dt, message):
    b, op = _setup(two_level)
    c = prepare(b, {"A.G+w": 1.0})
    with pytest.raises(ValueError) as exc:
        evolve(c, op, t_end=t_end, dt=dt)
    assert str(exc.value) == message


@pytest.mark.parametrize("amp", [complex("nan"), complex("inf"), complex(0.5, float("nan"))])
def test_prepare_rejects_non_finite_amplitudes(two_level, amp):
    b, _ = _setup(two_level)
    with pytest.raises(ValueError) as exc:
        prepare(b, {"A.G+w": amp})
    assert str(exc.value) == f"preparation amplitude for A.G+w must be finite, got {amp}"


def test_prepare_scales_huge_amplitudes_before_the_norm(one_photon):
    b = enumerate_basis(one_photon)
    huge = prepare(b, {"Z.S0+wZ01": 1e200}).amplitudes
    assert np.array_equal(huge, prepare(b, {"Z.S0+wZ01": 1.0}).amplitudes)
    pair = prepare(b, {"Z.S0+wZ01": 1e200, "E.S0+wE01": 1e200j})
    assert pair.amplitudes[b.find("Z.S0+wZ01")] == 1 / np.sqrt(2)
    assert pair.amplitudes[b.find("E.S0+wE01")] == 1j / np.sqrt(2)


@pytest.mark.parametrize("amp, message", [
    (1e200, "the initial state must have norm 1, got 1e+200"),
    (2.0, "the initial state must have norm 1, got 2"),
    (1 + 1e-8, "the initial state must have norm 1, got 1.00000001"),
    (float("nan"), "the initial state must have norm 1, got nan"),
    (float("inf"), "the initial state must have norm 1, got inf"),
    (0.0, "the initial state has no amplitude"),
])
def test_evolve_rejects_a_start_state_off_the_unit_sphere(one_photon, amp, message):
    b = scenario_basis(one_photon)
    op = assemble(b, one_photon)
    amps = np.zeros(len(b), dtype=complex)
    amps[b.find("Z.S0+wZ01")] = amp
    with pytest.raises(ValueError) as exc:
        evolve(StateVector(amps), op, t_end=10, dt=0.25)
    assert str(exc.value) == message


def test_assemble_and_evolve_stay_sparse_at_1024_kets():
    # a dense V over these kets alone would take 1024**2 * 16 bytes = 16.8 MB
    s = parse_ok(_synth().synthetic_scheme(64, np.random.default_rng(0)))
    b = scenario_basis(s)
    assert len(b) == 1024
    c0 = prepare(b, {"F0.S0+w0": 1.0})
    tracemalloc.start()
    try:
        op = assemble(b, s)
        evolve(c0, op, pulses=s.pulses, detectors=s.detectors, t_end=400.0, dt=0.25,
               sample_every=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
