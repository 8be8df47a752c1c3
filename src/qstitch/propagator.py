"""Amplitude-vector propagation, pulse injection, and emission detection.

Coherent evolution follows i dC/dt = (H + V) C with hbar = 1. Steps use
the exact spectral propagator of the (small, dense) hermitian H + V, so
unitarity holds to round-off and the step size only controls sampling and
event-check granularity, not accuracy.

Laboratory transfers sit outside Hilbert-space evolution and appear as
events: a preparation or pulse injection is logged with the "+" transfer
tag, an emission detection with "-". Detection is either deterministic
(population threshold, with arming so a monitor does not fire before its
ket has ever left the threshold region) or stochastic (seeded rate draw
per step). On firing with collapse enabled, the state is projected onto
the precursor ket, renormalized, and the coherent segment ends.

Populations |C_k|^2 are reported as a numerical observable; for coherent
states they are amplitude weights, not classical occupancies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .basis import SECTOR_PRODUCT, BasisKet, BasisSet, ket_name, photon_partner
from .operators import OperatorPair
from .scheme import DetectorDecl, PhotonMode, PulseDecl

# Amplitudes below this magnitude are treated as numerically unpopulated.
FLOOR = 1e-12


@dataclass
class StateVector:
    """Complex amplitudes over an ordered basis at one instant."""

    amplitudes: np.ndarray
    time: float = 0.0

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class EmissionEvent:
    """A detector firing: the '-' transfer out of coherent evolution."""

    time: float
    detector: str
    ket: int
    mode: str
    population: float
    collapse_applied: bool


@dataclass
class Trajectory:
    """Sampled populations, norm, and energy, plus the lab-event log."""

    ket_names: list[str]
    times: np.ndarray
    populations: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    events: list[dict] = field(default_factory=list)
    emission: Optional[EmissionEvent] = None

    def max_population(self, ket: int) -> float:
        return float(self.populations[:, ket].max())


def prepare(b: BasisSet, spec: Mapping[Union[int, str, BasisKet], complex]) -> StateVector:
    """Build the normalized start vector from named amplitude assignments.

    The assignment keys are basis indices, canonical ket names, or kets.
    The vector is normalized; preparation is logged as a '+' transfer by
    ``evolve``, not stored in the vector itself.
    """
    if not spec:
        raise ValueError("empty preparation: assign at least one amplitude")
    amps = np.zeros(len(b), dtype=complex)
    for key, value in spec.items():
        amps[b.find(key)] += complex(value)
    norm = np.linalg.norm(amps)
    if norm <= FLOOR:
        raise ValueError("preparation amplitudes are all zero")
    return StateVector(amplitudes=amps / norm, time=0.0)


def step(c: StateVector, op: OperatorPair, dt: float) -> StateVector:
    """Advance by dt under the exact unitary exp(-i (H+V) dt).

    Negative dt runs the coherent segment backwards; only dt = 0 is
    rejected. Norm is preserved to round-off.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if len(c.amplitudes) != op.dimension:
        raise ValueError("state and operator dimensions differ")
    w, q = op.eig()
    phases = np.exp(-1j * w * dt)
    amps = q @ (phases * (q.conj().T @ c.amplitudes))
    return StateVector(amplitudes=amps, time=c.time + dt)


def inject_pulse(c: StateVector, b: BasisSet, mode: PhotonMode) -> StateVector:
    """Move every populated ket to its photon-added partner (the '+' transfer).

    Relative phases are preserved; the operation is linear and, when all
    partners exist, exactly norm-preserving. A populated ket without a
    partner in the basis is an error naming the offending ket.
    """
    new = np.zeros_like(c.amplitudes)
    for i, amp in enumerate(c.amplitudes):
        if amp == 0:
            continue
        j = photon_partner(b, b.kets[i], mode)
        if j is None:
            if abs(amp) > FLOOR:
                raise ValueError(
                    f"basis has no partner for {ket_name(b.kets[i])} plus one "
                    f"quantum of {mode.id} (population {abs(amp) ** 2:g})"
                )
            continue
        new[j] += amp
    return StateVector(amplitudes=new, time=c.time)


def collapse_onto(c: StateVector, ket: int) -> StateVector:
    """Project onto one ket and renormalize."""
    amps = np.zeros_like(c.amplitudes)
    amp = c.amplitudes[ket]
    if abs(amp) <= FLOOR:
        raise ValueError("cannot collapse onto an unpopulated ket")
    amps[ket] = amp / abs(amp)
    return StateVector(amplitudes=amps, time=c.time)


def monitored_kets(b: BasisSet, d: DetectorDecl) -> list[int]:
    """Product-sector kets holding the detector's emitted quantum."""
    return [
        i
        for i, k in enumerate(b.kets)
        if k.sector == SECTOR_PRODUCT
        and k.matter == d.target
        and k.occupation(d.mode.id) >= 1
    ]


def detect(
    c: StateVector,
    b: BasisSet,
    detectors: Sequence[DetectorDecl],
    rng: Optional[np.random.Generator] = None,
    dt: Optional[float] = None,
    mode: str = "threshold",
) -> Optional[EmissionEvent]:
    """Instantaneous detector check against the current populations.

    Threshold mode fires when a monitored ket's population reaches the
    detector threshold. Stochastic mode needs the step length and a
    seeded generator; each monitored ket fires with probability
    rate * population * dt. The returned event is not yet collapsed;
    run-level arming and collapse live in ``evolve``.
    """
    pops = c.populations()
    for d in detectors:
        if not (0.0 < d.threshold <= 1.0):
            raise ValueError(f"detector {d.id}: threshold must lie in (0, 1]")
        for i in monitored_kets(b, d):
            pop = float(pops[i])
            if pop <= FLOOR:
                continue
            if mode == "threshold":
                if pop >= d.threshold:
                    return EmissionEvent(c.time, d.id, i, d.mode.id, pop, False)
            elif mode == "stochastic":
                if d.rate is None:
                    continue
                if rng is None or dt is None:
                    raise ValueError("stochastic detection needs rng and dt")
                if rng.random() < d.rate * pop * dt:
                    return EmissionEvent(c.time, d.id, i, d.mode.id, pop, False)
            else:
                raise ValueError(f"unknown detect mode {mode!r}")
    return None


def _energy(c: StateVector, h: np.ndarray) -> float:
    return float(np.real(c.amplitudes.conj() @ (h @ c.amplitudes)))


def evolve(
    c0: StateVector,
    op: OperatorPair,
    pulses: Sequence[PulseDecl] = (),
    detectors: Sequence[DetectorDecl] = (),
    t_end: float = 1.0,
    dt: float = 0.01,
    sample_every: int = 1,
    detect_mode: str = "threshold",
    collapse: bool = True,
    seed: Optional[int] = None,
) -> Trajectory:
    """Run a full scenario: coherent segments alternated with lab transfers.

    The run takes t_end / dt steps, which must be a whole number. Pulses
    are injected at the first step boundary at or after their scheduled
    time, so each must lie at or before the last boundary, t_end - dt.
    Detectors are checked every step. Threshold detectors arm once their
    monitored population has been below threshold and fire on the next
    upward crossing; each detector fires at most once per run. On a
    collapse the trajectory ends at the event.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end {t_end:g} is not a whole number of dt {dt:g} steps")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    times = [u.time for u in pulses]
    if any(t0 > t1 for t0, t1 in zip(times, times[1:])):
        raise ValueError("pulse times must be sorted")
    last = t_end - dt
    if any(t < 0 or t > last + 1e-12 for t in times):
        raise ValueError(f"pulse times must lie within [0, t_end - dt] = [0, {last:g}]")

    b = op.basis
    h = np.diag(op.H).astype(complex) + op.V
    rng = np.random.default_rng(seed)
    state = c0
    names = b.names()
    events: list[dict] = []
    prepared = [names[i] for i in range(len(b)) if abs(state.amplitudes[i]) > FLOOR]
    events.append({"type": "prepare", "transfer": "+", "time": state.time, "kets": prepared})

    pending = list(pulses)
    armed: dict[str, bool] = {}
    fired: set[str] = set()
    pops = state.populations()
    for d in detectors:
        below = all(pops[i] < d.threshold for i in monitored_kets(b, d))
        armed[d.id] = below

    sample_t = [state.time]
    sample_pop = [pops.copy()]
    sample_norm = [state.norm]
    sample_energy = [_energy(state, h)]
    first_emission: Optional[EmissionEvent] = None

    for step_i in range(1, n_steps + 1):
        emission: Optional[EmissionEvent] = None
        while pending and pending[0].time <= state.time + 1e-12:
            pulse = pending.pop(0)
            state = inject_pulse(state, b, pulse.mode)
            events.append(
                {"type": "pulse", "transfer": "+", "time": state.time, "mode": pulse.mode.id}
            )

        state = step(state, op, dt)
        pops = state.populations()

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
                    emission = EmissionEvent(
                        state.time, d.id, int(top), d.mode.id, float(pops[top]), collapse
                    )
            elif detect_mode == "stochastic":
                hit = detect(state, b, [d], rng=rng, dt=dt, mode="stochastic")
                if hit is not None:
                    emission = EmissionEvent(
                        hit.time, hit.detector, hit.ket, hit.mode, hit.population, collapse
                    )
            else:
                raise ValueError(f"unknown detect mode {detect_mode!r}")
            if emission is not None:
                fired.add(d.id)
                if first_emission is None:
                    first_emission = emission
                events.append(
                    {
                        "type": "emission",
                        "transfer": "-",
                        "time": emission.time,
                        "detector": emission.detector,
                        "ket": names[emission.ket],
                        "mode": emission.mode,
                        "population": emission.population,
                        "collapsed": emission.collapse_applied,
                    }
                )
                break

        stop = emission is not None and collapse
        if stop:
            state = collapse_onto(state, emission.ket)
            pops = state.populations()

        if step_i % sample_every == 0 or step_i == n_steps or stop:
            sample_t.append(state.time)
            sample_pop.append(pops.copy())
            sample_norm.append(state.norm)
            sample_energy.append(_energy(state, h))

        if stop:
            break

    return Trajectory(
        ket_names=names,
        times=np.array(sample_t),
        populations=np.array(sample_pop),
        norms=np.array(sample_norm),
        energies=np.array(sample_energy),
        events=events,
        emission=first_emission,
    )
