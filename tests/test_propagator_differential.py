"""Differential tests: segment-batched ``evolve`` against a per-step oracle.

The oracle below is the step-by-step loop ``evolve`` used before it
evaluated whole segments: two dense matrix-vector products per step with
a full eigendecomposition of H + V, per-step threshold arming, and one
generator draw per monitored ket and step in stochastic mode. At dt 0.25
both clocks are exact, so event lists must match exactly (times within
1e-9) and populations, norms and energies within 1e-11, which covers the
oracle's own accumulated round-off.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from qstitch import StateVector, assemble, evolve, parse_scheme, prepare, scenario_basis
from qstitch.cli import _default_preparation
from qstitch.propagator import FLOOR, collapse_onto, inject_pulse, monitored_kets
from qstitch.scheme import DetectorDecl

from conftest import SCHEMES

DT = 0.25
T_END = 600.0
TOL = 1e-11


def _oracle_evolve(c0, op, pulses, detectors, t_end, dt, sample_every, detect_mode,
                   collapse, seed):
    b = op.basis
    h = np.diag(op.H).astype(complex) + op.V
    w, q = np.linalg.eigh(h)
    propagator = q @ np.diag(np.exp(-1j * w * dt)) @ q.conj().T
    rng = np.random.default_rng(seed)
    names = b.ket_names
    amps, time = c0.amplitudes.copy(), c0.time
    events = [{"type": "prepare", "transfer": "+", "time": time,
               "kets": [names[i] for i in range(len(b)) if abs(amps[i]) > FLOOR]}]

    def energy(a):
        return float(np.real(a.conj() @ (h @ a)))

    pending = list(pulses)
    fired = set()
    pops = np.abs(amps) ** 2
    armed = {d.id: all(pops[i] < d.threshold for i in monitored_kets(b, d))
             for d in detectors}
    samples = [(time, pops.copy(), np.linalg.norm(amps), energy(amps))]
    for step_i in range(1, int(round(t_end / dt)) + 1):
        emission = None
        while pending and pending[0].time <= time + 1e-12:
            pulse = pending.pop(0)
            amps = inject_pulse(StateVector(amps, time), b, pulse.mode).amplitudes
            events.append({"type": "pulse", "transfer": "+", "time": time,
                           "mode": pulse.mode.id})
        amps = propagator @ amps
        time += dt
        pops = np.abs(amps) ** 2
        for d in detectors:
            if d.id in fired:
                continue
            kets = monitored_kets(b, d)
            if not kets:
                continue
            if detect_mode == "threshold":
                top = max(kets, key=lambda i: pops[i])
                if not armed[d.id]:
                    if pops[top] < d.threshold:
                        armed[d.id] = True
                    continue
                if pops[top] >= d.threshold and pops[top] > FLOOR:
                    emission = (d, top)
            else:
                for i in kets:
                    if pops[i] <= FLOOR or d.rate is None:
                        continue
                    if rng.random() < d.rate * pops[i] * dt:
                        emission = (d, i)
                        break
            if emission is not None:
                fired.add(d.id)
                events.append({"type": "emission", "transfer": "-", "time": time,
                               "detector": d.id, "ket": names[emission[1]],
                               "mode": d.mode.id, "population": float(pops[emission[1]]),
                               "collapsed": collapse})
                break
        stop = emission is not None and collapse
        if stop:
            amps = collapse_onto(StateVector(amps, time), emission[1]).amplitudes
            pops = np.abs(amps) ** 2
        if step_i % sample_every == 0 or step_i == int(round(t_end / dt)) or stop:
            samples.append((time, pops.copy(), np.linalg.norm(amps), energy(amps)))
        if stop:
            break
    return events, samples


def _scheme(name, cap):
    text = (SCHEMES / f"{name}.scheme").read_text(encoding="utf-8")
    text = text.replace("max-photons-per-mode = 1", f"max-photons-per-mode = {cap}")
    result = parse_scheme(text)
    assert result.ok, result.diagnostics
    return result.scheme


def _compare(scheme, detectors, detect_mode, collapse, seed, sample_every=4):
    b = scenario_basis(scheme)
    op = assemble(b, scheme)
    c0 = prepare(b, {_default_preparation(scheme, b): 1.0})
    kwargs = dict(pulses=scheme.pulses, detectors=detectors, t_end=T_END, dt=DT,
                  sample_every=sample_every, detect_mode=detect_mode,
                  collapse=collapse, seed=seed)
    traj = evolve(c0, op, **kwargs)
    events, samples = _oracle_evolve(c0, op, **kwargs)

    assert len(traj.events) == len(events)
    for got, want in zip(traj.events, events):
        assert got.keys() == want.keys()
        assert abs(got["time"] - want["time"]) <= 1e-9
        for key in got.keys() - {"time", "population"}:
            assert got[key] == want[key], (key, got, want)
        if "population" in want:
            assert got["population"] == pytest.approx(want["population"], abs=TOL)

    assert len(traj.times) == len(samples)
    t, pops, norms, energies = (np.array(x) for x in zip(*samples))
    assert np.abs(traj.times - t).max() <= 1e-9
    assert np.abs(traj.populations - pops).max() <= TOL
    assert np.abs(traj.norms - norms).max() <= TOL
    assert np.abs(traj.energies - energies).max() <= TOL
    return traj


RUNS = [
    ("threshold", True, None),
    ("threshold", False, None),
    ("threshold", True, 7),
    ("threshold", False, 7),
    ("stochastic", True, 7),
    ("stochastic", False, 7),
]


@pytest.mark.parametrize("name", ["one_photon", "two_photon"])
@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("detect_mode, collapse, seed", RUNS)
def test_evolve_matches_per_step_oracle(name, cap, detect_mode, collapse, seed):
    # stochastic runs need a seed on both sides: seed None draws fresh entropy
    s = _scheme(name, cap)
    _compare(s, s.detectors, detect_mode, collapse, seed)


@pytest.mark.parametrize("detect_mode", ["threshold", "stochastic"])
@pytest.mark.parametrize("order", [1, -1], ids=["emE-first", "emZ-first"])
def test_two_detectors_without_collapse_match_oracle(detect_mode, order):
    s = _scheme("two_photon", 1)
    # the pumped ket starts above 0.05, so emZ arms when it drains and
    # fires when the population comes back above 0.05
    emz = DetectorDecl(id="emZ", target=s.level("Z.S0"), mode=s.mode("wZ01"),
                       threshold=0.05, rate=0.02)
    # a high rate makes emE fire by chance too, after emZ's hit
    eme = dataclasses.replace(s.detectors[0], rate=50.0)
    traj = _compare(s, [eme, emz][::order], detect_mode, False, 7, sample_every=1)
    assert [e["detector"] for e in traj.events if e["type"] == "emission"] == ["emZ", "emE"]


@pytest.mark.parametrize("name", ["one_photon", "two_photon"])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_block_eig_is_a_full_eigendecomposition(name, cap):
    s = _scheme(name, cap)
    op = assemble(scenario_basis(s), s)
    w, q = op.eig()
    h = np.diag(op.H).astype(complex) + op.V
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm(q.conj().T @ q - np.eye(len(w))) <= 1e-10
    assert np.linalg.norm(h @ q - q * w) <= 1e-10
    assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-12
    # one block per connected component, and the blocks tile the basis
    kets = np.sort(np.concatenate([blk.kets for blk in op.eigenblocks()]))
    assert np.array_equal(kets, np.arange(len(w)))


def test_kets_outside_the_populated_components_stay_exactly_zero():
    s = _scheme("two_photon", 1)
    op = assemble(scenario_basis(s), s)
    c0 = prepare(op.basis, {"Z.S0+wZ01": 1.0})
    traj = evolve(c0, op, pulses=s.pulses, t_end=T_END, dt=DT)
    held = {int(k) for blk in op.eigenblocks() for k in blk.kets
            if traj.populations[:, blk.kets].any()}
    silent = [i for i in range(len(op.basis)) if i not in held]
    assert silent and not traj.populations[:, silent].any()


def test_a_firing_row_is_not_checked_for_later_detectors():
    from qstitch.propagator import _first_firing, _Monitor

    s = _scheme("two_photon", 1)
    a = _Monitor(s.detectors[0], np.array([0]), armed=True)
    b = _Monitor(s.detectors[0], np.array([1]), armed=False)
    # row 1: a fires while b's ket is below threshold; row 2: b's ket is above
    pops = np.array([[0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
    assert _first_firing(pops, [a, b], "threshold") == (1, 0, 0)
    # b was skipped on row 1, so it never armed and cannot fire on row 2
    assert not b.armed
    assert _first_firing(pops[2:], [b], "threshold") is None
