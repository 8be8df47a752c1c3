"""Amplitude-vector propagation, pulse injection, and emission detection.

Coherent evolution follows i dC/dt = (H + V) C with hbar = 1. Steps use
the exact spectral propagator of the hermitian H + V, so unitarity holds
to round-off and the step size only controls sampling and event-check
granularity, not accuracy. The energy gate makes H + V block-diagonal
over the connected components of V; ``step`` and ``evolve`` evaluate a
coherent segment from the eigenpairs of the components holding
amplitude, ``evolve`` many steps at once.

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

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .basis import SECTOR_PRODUCT, BasisKet, BasisSet, ket_name, photon_partner
from .operators import OperatorPair, block_diagonal
from .scheme import DetectorDecl, PhotonMode, PulseDecl

# Amplitudes below this magnitude are treated as numerically unpopulated.
FLOOR = 1e-12

# The most steps one run may take (t_end / dt); the shipped default is 2,400.
MAX_STEPS = 10_000_000


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

    The assignment keys are basis indices, canonical ket names, or kets;
    two keys may not name one ket, and the amplitudes must be finite. The
    vector is normalized; preparation is logged as a '+' transfer by
    ``evolve``, not stored in the vector itself.
    """
    if not spec:
        raise ValueError("empty preparation: assign at least one amplitude")
    amps = np.zeros(len(b), dtype=complex)
    assigned: set[int] = set()
    for key, value in spec.items():
        i, amp = b.find(key), complex(value)
        if i in assigned:
            raise ValueError(f"preparation assigns {b.ket_names[i]} twice")
        if not np.isfinite(amp):
            raise ValueError(f"preparation amplitude for {key} must be finite, got {value}")
        assigned.add(i)
        amps[i] = amp
    # scaled by the largest magnitude first: the norm of amplitudes above
    # about 1e154 overflows
    peak = np.abs(amps).max()
    if peak <= FLOOR and np.linalg.norm(amps) <= FLOOR:
        raise ValueError(f"preparation amplitudes are all at or below {FLOOR:g}")
    amps /= peak
    return StateVector(amplitudes=amps / np.linalg.norm(amps), time=0.0)


def step(c: StateVector, op: OperatorPair, dt: float) -> StateVector:
    """Advance by dt under the exact unitary exp(-i (H+V) dt).

    Like ``evolve``, it evaluates only the components holding amplitude.
    Negative dt runs backwards; only dt = 0 is rejected.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if len(c.amplitudes) != op.dimension:
        raise ValueError("state and operator dimensions differ")
    seg = _Segment(op, c.amplitudes)
    amps = np.zeros(op.dimension, dtype=complex)
    amps[seg.kets] = seg.amplitudes(np.array([dt]))[0]
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


@dataclass
class _Monitor:
    """A detector that can still fire, with its monitored kets."""

    detector: DetectorDecl
    kets: np.ndarray
    armed: bool = True


def _check_detection(detectors: Sequence[DetectorDecl], mode: str) -> None:
    if mode not in ("threshold", "stochastic"):
        raise ValueError(f"unknown detect mode {mode!r}")
    for d in detectors:
        if not (0.0 < d.threshold <= 1.0):
            raise ValueError(f"detector {d.id}: threshold must lie in (0, 1]")


def _monitors(b: BasisSet, detectors: Sequence[DetectorDecl], mode: str) -> list[_Monitor]:
    """The detectors able to fire in ``mode``: some monitored ket, and a rate if stochastic."""
    out = []
    for d in detectors:
        kets = np.array(monitored_kets(b, d), dtype=int)
        if len(kets) and (mode == "threshold" or d.rate is not None):
            out.append(_Monitor(d, kets))
    return out


def _first_draw_below(rng: np.random.Generator, probs: np.ndarray) -> Optional[int]:
    """Index of the first of ``len(probs)`` draws that falls below its probability.

    The generator ends exactly where one ``rng.random()`` per draw, up to
    and including that one (or all of them, on no hit), would leave it:
    ``random(k)`` yields the same numbers as k single draws.
    """
    state = rng.bit_generator.state
    hits = np.flatnonzero(rng.random(len(probs)) < probs)
    if not len(hits):
        return None
    rng.bit_generator.state = state
    rng.random(hits[0] + 1)
    return int(hits[0])


def _first_firing(
    pops: np.ndarray,
    monitors: Sequence[_Monitor],
    mode: str,
    rng: Optional[np.random.Generator] = None,
    dt: Optional[float] = None,
) -> Optional[tuple[int, int, int]]:
    """Earliest firing over the rows (consecutive steps) of ``pops``.

    Returns (row, index into ``monitors``, ket) or None. Within a row the
    monitors are checked in order and the first to fire ends the row.

    threshold: an armed monitor fires on a row where its most populated
    ket reaches the threshold (and exceeds FLOOR); an unarmed one arms on
    a row where that population is below the threshold, and may fire from
    the next row on. Arming flags are updated in place through the last
    row each monitor was checked on.

    stochastic: each monitored ket above FLOOR draws once per row, in
    (row, monitor, ket) order, and fires when its draw is below
    rate * population * dt.
    """
    if not monitors:
        return None
    if mode == "stochastic":
        kets = np.concatenate([m.kets for m in monitors])
        sizes = [len(m.kets) for m in monitors]
        owner = np.repeat(np.arange(len(monitors)), sizes)
        rates = np.repeat([float(m.detector.rate) for m in monitors], sizes)
        sub = pops[:, kets]
        live = sub > FLOOR
        hit = _first_draw_below(rng, (rates * sub * dt)[live])
        if hit is None:
            return None
        rows, cols = np.nonzero(live)
        return int(rows[hit]), int(owner[cols[hit]]), int(kets[cols[hit]])

    n = len(pops)
    tops, belows, fire_rows = [], [], []
    for m in monitors:
        sub = pops[:, m.kets]
        top = sub.argmax(axis=1)
        val = sub[np.arange(n), top]
        below = val < m.detector.threshold
        fires = ~below & (val > FLOOR)
        if not m.armed:
            arm = np.flatnonzero(below)
            fires[: arm[0] + 1 if len(arm) else n] = False
        rows = np.flatnonzero(fires)
        tops.append(top)
        belows.append(below)
        fire_rows.append(int(rows[0]) if len(rows) else n)
    first = min(range(len(monitors)), key=fire_rows.__getitem__)
    row = fire_rows[first]
    for i, m in enumerate(monitors):
        # monitors after the firing one are not checked on its row
        m.armed = m.armed or bool(belows[i][: row + (i < first)].any())
    if row == n:
        return None
    return row, first, int(monitors[first].kets[tops[first][row]])


def detect(
    c: StateVector,
    b: BasisSet,
    detectors: Sequence[DetectorDecl],
    rng: Optional[np.random.Generator] = None,
    dt: Optional[float] = None,
    mode: str = "threshold",
) -> Optional[EmissionEvent]:
    """Instantaneous detector check against the current populations.

    Threshold mode fires when a detector's most populated monitored ket
    reaches the threshold. Stochastic mode needs the step length and a
    seeded generator; each monitored ket fires with probability
    rate * population * dt. Detectors are checked in order and the first
    firing is returned, not yet collapsed; run-level arming and collapse
    live in ``evolve``, which shares this check.
    """
    _check_detection(detectors, mode)
    if mode == "stochastic" and (rng is None or dt is None):
        raise ValueError("stochastic detection needs rng and dt")
    monitors = _monitors(b, detectors, mode)
    pops = c.populations()[None, :]
    hit = _first_firing(pops, monitors, mode, rng, dt)
    if hit is None:
        return None
    _, i, ket = hit
    d = monitors[i].detector
    return EmissionEvent(c.time, d.id, ket, d.mode.id, float(pops[0, ket]), False)


# Steps evaluated as one product. It bounds the per-block arrays (steps x
# kets), not the accuracy: every step is exact.
CHUNK = 128


class _Segment:
    """Exact evolution of one coherent segment over the components holding amplitude.

    H + V is block-diagonal over the connected components of V, so
    amplitude never leaves them and every other ket stays exactly zero.
    """

    def __init__(self, op: OperatorPair, amps: np.ndarray) -> None:
        live = set(np.flatnonzero(amps).tolist())
        held = [blk for blk in op.eigenblocks() if not live.isdisjoint(blk.kets.tolist())]
        self.kets, self.w, self.q, self.h = block_diagonal(held)
        self.coef = self.q.conj().T @ amps[self.kets]

    def amplitudes(self, elapsed: np.ndarray) -> np.ndarray:
        """Amplitudes on ``kets``, one row per elapsed time since the segment start."""
        return (np.exp(-1j * np.outer(elapsed, self.w)) * self.coef) @ self.q.T

    def energies(self, amps: np.ndarray) -> np.ndarray:
        """<c|H + V|c> for each row of amplitudes on ``kets``."""
        return np.real(np.sum(amps.conj() * (amps @ self.h.T), axis=1))


def _check_spectrum(op: OperatorPair, t_end: float) -> None:
    """Reject an H + V whose phases w * t over the run, or whose energies
    <c|H + V|c> on a unit state, can overflow.

    Both are bounded by the largest absolute row sum of H + V (Gershgorin);
    the factor 4 covers the real and imaginary parts of complex products.
    """
    ends = [e.a for e in op.entries] + [e.b for e in op.entries]
    with np.errstate(over="ignore"):
        weights = np.abs(np.array([e.weight for e in op.entries], dtype=complex))
        rows = np.abs(op.H) + np.bincount(np.array(ends, dtype=int), np.tile(weights, 2),
                                          minlength=op.dimension)
        radius = rows.max()
        reach = 4 * radius * max(t_end, 1.0)
    if not np.isfinite(reach):
        raise ValueError(f"H + V is too large to propagate: its row sums reach {radius:g}, "
                         f"so phases over t_end {t_end:g} or energies would overflow")


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

    t_end and dt must be finite and positive, and the run takes t_end / dt
    steps, which must be a whole number of at most MAX_STEPS; step k ends
    at c0.time + k * dt.
    Pulses are injected at the first step boundary at or after their
    scheduled time, so each must lie between the start and the last
    boundary, in [c0.time, c0.time + t_end - dt].
    Detectors are checked every step. Threshold detectors arm once their
    monitored population has been below threshold and fire on the next
    upward crossing; each detector fires at most once per run. On a
    collapse the trajectory ends at the event.

    Between pulses the state evolves as one exact segment: its amplitudes
    are evaluated in blocks of CHUNK steps over the coupling components
    that hold amplitude, and detection is checked over each block at once.
    A start state whose norm is not 1 within 1e-9, and an H + V large
    enough to overflow the phases or energies, are rejected before any step.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(f"t_end {t_end:g} / dt {dt:g} is {t_end / dt:g} steps, "
                         f"above the ceiling of {MAX_STEPS:,}")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end {t_end:g} is not a whole number of dt {dt:g} steps")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    _check_detection(detectors, detect_mode)
    times = [u.time for u in pulses]
    if any(t0 > t1 for t0, t1 in zip(times, times[1:])):
        raise ValueError("pulse times must be sorted")
    t0 = c0.time
    # a pulse goes in at the first boundary t0 + k*dt at or after its time; one outside
    # [t0, t0 + t_end], or nan, is out of the window before its boundary can overflow
    at = [max(0, math.ceil((t - t0 - 1e-12) / dt)) if 0 <= t - t0 <= t_end else n_steps
          for t in times]
    if any(k >= n_steps for k in at):
        raise ValueError(
            "pulse times must lie within [start, start + t_end - dt] = "
            f"[{t0:g}, {t0 + t_end - dt:g}]"
        )

    b = op.basis
    n = len(b)
    names = list(b.ket_names)
    rng = np.random.default_rng(seed)
    amps = np.asarray(c0.amplitudes, dtype=complex)
    if not amps.any():
        raise ValueError("the initial state has no amplitude")
    norm = math.hypot(*np.abs(amps))  # no overflow for finite amplitudes
    if not abs(norm - 1) <= 1e-9:
        raise ValueError(f"the initial state must have norm 1, got {norm:.12g}")
    _check_spectrum(op, t_end)
    pops = np.abs(amps) ** 2
    events: list[dict] = [{"type": "prepare", "transfer": "+", "time": t0,
                           "kets": [names[i] for i in np.flatnonzero(np.abs(amps) > FLOOR)]}]
    monitors = _monitors(b, detectors, detect_mode)
    for m in monitors:
        m.armed = bool(pops[m.kets].max() < m.detector.threshold)
    first_emission: Optional[EmissionEvent] = None
    samples: list[tuple] = []  # (times, populations, norms, energies) per sampled block

    def sample_state(c: StateVector, seg: _Segment) -> None:
        samples.append(([c.time], c.populations()[None, :], [c.norm],
                        seg.energies(c.amplitudes[seg.kets][None, :])))

    def trajectory() -> Trajectory:
        times, populations, norms, energies = (np.concatenate(x) for x in zip(*samples))
        return Trajectory(names, times, populations, norms, energies, events, first_emission)

    sample_state(c0, _Segment(op, amps))
    k0, p = 0, 0
    while k0 < n_steps:
        while p < len(pulses) and at[p] <= k0:
            amps = inject_pulse(StateVector(amps, t0 + k0 * dt), b, pulses[p].mode).amplitudes
            events.append({"type": "pulse", "transfer": "+", "time": t0 + k0 * dt,
                           "mode": pulses[p].mode.id})
            p += 1
        k1 = at[p] if p < len(pulses) else n_steps
        seg = _Segment(op, amps)
        for lo in range(k0, k1, CHUNK):
            steps = np.arange(lo + 1, min(lo + CHUNK, k1) + 1)
            block = seg.amplitudes((steps - k0) * dt)
            pops = np.zeros((len(steps), n))
            pops[:, seg.kets] = np.abs(block) ** 2
            stop = None
            row = 0
            while row < len(steps):
                hit = _first_firing(pops[row:], monitors, detect_mode, rng, dt)
                if hit is None:
                    break
                r, i, ket = hit
                row += r
                d = monitors.pop(i).detector
                emission = EmissionEvent(t0 + int(steps[row]) * dt, d.id, ket, d.mode.id,
                                         float(pops[row, ket]), collapse)
                first_emission = first_emission or emission
                events.append({
                    "type": "emission",
                    "transfer": "-",
                    "time": emission.time,
                    "detector": emission.detector,
                    "ket": names[ket],
                    "mode": emission.mode,
                    "population": emission.population,
                    "collapsed": collapse,
                })
                if collapse:
                    stop = row
                    break
                row += 1

            keep = np.flatnonzero((steps % sample_every == 0) | (steps == n_steps))
            if stop is not None:
                keep = keep[keep < stop]
            samples.append((t0 + steps[keep] * dt, pops[keep],
                            np.linalg.norm(block[keep], axis=1), seg.energies(block[keep])))
            if stop is not None:
                amps = np.zeros(n, dtype=complex)
                amps[seg.kets] = block[stop]
                sample_state(collapse_onto(StateVector(amps, emission.time), ket), seg)
                return trajectory()
        amps = np.zeros(n, dtype=complex)
        amps[seg.kets] = block[-1]
        k0 = k1
    return trajectory()
