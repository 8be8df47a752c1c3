"""Seeded synthetic N-family scheme generator.

Each family ``Fk`` copies the Z family of the shipped schemes: S0, S1 one
gap above it, T1 at S1 + 2e-4 and SN at S1 + 0.6, with gap 1.0 + 0.003k
and a pump mode ``wk`` of its own. Each family declares a pump dipole,
an S1-T1 spin-orbit mixing and a ``push`` dipole S1-SN. All families
share one ``push`` pulse at t=200; there are no detectors, no
cross-family couplings and no transfer between sectors.

The seed varies the coupling strengths and the declaration order of every
family but F0; the basis size depends on N alone (``REFERENCE_KETS``).
"""

from __future__ import annotations

import numpy as np

PUSH_OMEGA = 0.6
PUSH_TIME = 200.0
TRIPLET_SPLIT = 2e-4

# Scenario basis size per family count, measured on the generator at
# several seeds; a changed size means the basis layer changed.
REFERENCE_KETS = {2: 32, 4: 64, 8: 128, 16: 256, 32: 512}


def synthetic_scheme(n_families: int, rng: np.random.Generator) -> str:
    """Scheme text with ``n_families`` Z-like families, drawn from ``rng``."""
    # F0 stays first, so the CLI's default preparation is F0.S0+w0
    order = [0] + [1 + int(k) for k in rng.permutation(n_families - 1)]
    lines = [
        "unit = model",
        "max-photons-per-mode = 1",
        "resonance-tolerance = 1e-06",
        "gate-tolerance = 0.001",
        "transfer = 0.0",
        "",
    ]
    modes, couplings = [], []
    for pos, k in enumerate(order):
        # grounds descend in declaration order, as validation expects
        ground = round(0.3 - 1e-3 * pos, 6)
        gap = round(1.0 + 0.003 * k, 6)
        s1 = round(ground + gap, 6)
        lines += [
            f"[family F{k}]",
            f"S0 j=0 g=0 term=Sigma spin=1 energy={ground!r}",
            f"S1 j=1 g=0 term=Pi    spin=1 energy={s1!r}",
            f"T1 j=2 g=0 term=Delta spin=3 energy={round(s1 + TRIPLET_SPLIT, 6)!r}",
            f"SN j=3 g=0 term=Sigma spin=1 energy={round(s1 + PUSH_OMEGA, 6)!r}",
            "",
        ]
        dip, so, push = (round(float(x), 5) for x in rng.uniform([0.01, 0.002, 0.01],
                                                                   [0.03, 0.006, 0.03]))
        modes.append(f"w{k} omega={gap!r} note=pump")
        couplings += [
            f"dipole F{k}.S0 F{k}.S1 mode=w{k} strength={dip!r}",
            f"spinorbit F{k}.S1 F{k}.T1 strength={so!r}",
            f"dipole F{k}.S1 F{k}.SN mode=push strength={push!r}",
        ]
    modes.append(f"push omega={PUSH_OMEGA!r} note=push")
    lines += ["[modes]", *modes, "", "[couplings]", *couplings, "",
              "[pulses]", f"push time={PUSH_TIME!r}", "", "[detectors]", ""]
    return "\n".join(lines)
