"""Golden operators: V to the bit, H, the coupling graph, the dump and the spectrum.

``operator_golden.json`` holds, per case, a line count and the sha256 of
these lines for one assembled operator: the sha256 of ``V.tobytes()``
(signed zeros included, both triangles), of ``H.tobytes()``, the
``(a, b, kinds)`` of every ``build_graph`` edge, the ``operator_dump``
JSON, the kets and eigenvalue bytes of every eigenblock, and ``str`` of
each warning. The digests were recorded from the assembly that summed
every contribution straight into a dense V, before ``entries`` listed
each coupled pair once, so any change of a bit of V or of what is derived
from it shows here.

Cases: both shipped schemes at max-photons-per-mode 1/2/3, over the
scenario and the enumerated basis, at the scheme's gate and at gate 1e-3
and 1e-7; the random corpus (``random_scheme``, seeds 0-99); the
benchmark's synthetic generator at N = 2/4/8/16, seeds 0/1. Regenerate,
only when a change of these operators is intended, from the repository
root:

    PYTHONPATH=src python tests/test_operator_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from qstitch import assemble, build_graph, enumerate_basis, operator_dump, scenario_basis

from conftest import REPO, SCHEMES, load_scheme, parse_ok, random_scheme
from test_ket_order_golden import SHIPPED, _digest, _synth

GOLDEN = REPO / "tests" / "operator_golden.json"
GATES = {"default": None, "1e-3": 1e-3, "1e-7": 1e-7}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _operator_lines(b, s, delta=None):
    op = assemble(b, s if delta is None else dataclasses.replace(s, gate_tolerance=delta))
    yield f"V {op.V.dtype} {op.V.shape} {_sha(op.V.tobytes())}"
    yield f"H {op.H.dtype} {_sha(op.H.tobytes())}"
    yield from (f"edge {e.a} {e.b} {(e.kind,)}" for e in build_graph(op).edges)
    yield json.dumps(operator_dump(op), sort_keys=True)
    for blk in op.eigenblocks():
        yield f"block {blk.kets.tolist()} {_sha(blk.w.tobytes())}"
    yield from (f"warning {w}" for w in op.warnings)


def shipped_cases() -> dict:
    out = {}
    for name in SHIPPED:
        base = load_scheme(SCHEMES / f"{name}.scheme")
        for cap in (1, 2, 3):
            s = dataclasses.replace(base, max_photons=cap)
            for label, b in (("scenario", scenario_basis(s)), ("enumerate", enumerate_basis(s))):
                for gate, delta in GATES.items():
                    out[f"{name}/cap{cap}/{label}/gate-{gate}"] = _digest(
                        _operator_lines(b, s, delta))
    return out


def corpus_cases() -> dict:
    out = {}
    for seed in range(100):
        s = random_scheme(seed)
        out[f"corpus/{seed}"] = _digest(_operator_lines(scenario_basis(s), s))
    return out


def synthetic_cases() -> dict:
    synth = _synth()
    out = {}
    for n in (2, 4, 8, 16):
        for seed in (0, 1):
            s = parse_ok(synth.synthetic_scheme(n, np.random.default_rng(seed)))
            out[f"synthetic/N{n}/seed{seed}"] = _digest(_operator_lines(scenario_basis(s), s))
    return out


GROUPS = {
    "shipped": shipped_cases,
    "corpus": corpus_cases,
    "synthetic": synthetic_cases,
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_operators_match_golden(group):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[group]
    got = GROUPS[group]()
    assert sorted(got) == sorted(golden)
    changed = [case for case in golden if got[case] != golden[case]]
    assert not changed, f"operator changed in {len(changed)} cases, first: {changed[:5]}"


if __name__ == "__main__":
    record = {group: build() for group, build in GROUPS.items()}
    GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")
