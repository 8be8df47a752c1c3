"""Golden ket order of every basis construction path.

``ket_order_golden.json`` holds, per case, the basis size and the sha256
of its ket names and energies in index order (for the CLI cases, of the
``basis --format json`` output). The digests were recorded from the
multi-pass construction that the single worklist closure replaced, so any
change of ket names, order or energies on these schemes shows here.

Cases: both shipped schemes at max-photons-per-mode 1/2/3, the seeded
random corpus (``_compose``, seeds 0-99), the benchmark's synthetic
generator at N = 2/4/8/16, and the CLI ``basis`` paths. Regenerate, only
when a change of ket order is intended, from the repository root:

    PYTHONPATH=src python tests/test_ket_order_golden.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json

import numpy as np
import pytest

from qstitch import apply_two_photon_extensions, enumerate_basis, ket_name, scenario_basis
from qstitch.cli import main
from qstitch.scheme import Scheme

from conftest import REPO, SCHEMES, _compose, load_scheme, parse_ok

GOLDEN = REPO / "tests" / "ket_order_golden.json"
SHIPPED = ("one_photon", "two_photon")


def _synth():
    spec = importlib.util.spec_from_file_location(
        "perfbench_synth", REPO / "perfbench" / "synth.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(lines) -> dict:
    lines = list(lines)
    data = "\n".join(lines).encode("utf-8")
    return {"size": len(lines), "sha256": hashlib.sha256(data).hexdigest()}


def _basis_digest(b) -> dict:
    return _digest(f"{ket_name(k)} {k.energy!r}" for k in b.kets)


def _variants(s: Scheme) -> dict:
    """Every library construction path over one scheme."""
    all_modes = list(s.modes)
    return {
        "scenario": scenario_basis(s),
        "scenario-one-photon": scenario_basis(s, two_photon=False),
        "enumerate": enumerate_basis(s),
        "two-photon-default": apply_two_photon_extensions(enumerate_basis(s), s),
        "two-photon-all": apply_two_photon_extensions(enumerate_basis(s), s, all_modes),
        "closed-two-photon-all": apply_two_photon_extensions(
            scenario_basis(s, two_photon=False), s, all_modes
        ),
    }


def _group(schemes: dict) -> dict:
    return {
        f"{name}/{variant}": _basis_digest(b)
        for name, s in schemes.items()
        for variant, b in _variants(s).items()
    }


def shipped_cases() -> dict:
    schemes = {}
    for name in SHIPPED:
        s = load_scheme(SCHEMES / f"{name}.scheme")
        for cap in (1, 2, 3):
            schemes[f"{name}/cap{cap}"] = dataclasses.replace(s, max_photons=cap)
    return _group(schemes)


def corpus_cases() -> dict:
    return _group(
        {f"corpus/{seed}": parse_ok(_compose(np.random.default_rng(seed)))
         for seed in range(100)}
    )


def synthetic_cases() -> dict:
    synth = _synth()
    return _group(
        {f"synthetic/N{n}/seed{seed}": parse_ok(
            synth.synthetic_scheme(n, np.random.default_rng(seed)))
         for n in (2, 4, 8, 16) for seed in (0, 1)}
    )


CLI_FLAGS = {
    "enumerate": [],
    "two-photon": ["--two-photon"],
    "two-photon-push": ["--two-photon", "push"],
    "full": ["--full"],
}


def cli_cases() -> dict:
    out = {}
    for name in SHIPPED:
        for label, flags in CLI_FLAGS.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["basis", str(SCHEMES / f"{name}.scheme"), "--format", "json",
                             *flags])
            assert code == 0
            out[f"cli/{name}/{label}"] = _digest(buf.getvalue().splitlines())
    return out


GROUPS = {
    "shipped": shipped_cases,
    "corpus": corpus_cases,
    "synthetic": synthetic_cases,
    "cli": cli_cases,
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_ket_order_matches_golden(group):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[group]
    got = GROUPS[group]()
    assert sorted(got) == sorted(golden)
    changed = [case for case in golden if got[case] != golden[case]]
    assert not changed, f"ket order changed in {len(changed)} cases, first: {changed[:5]}"


if __name__ == "__main__":
    record = {group: build() for group, build in GROUPS.items()}
    GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")
