"""Golden output of reachability, q-path enumeration and the operator dump.

``paths_golden.json`` holds, per case, a line count and the sha256 of the
output. The digests were recorded from the pathways module that the single
search core replaced, so any change of a witness, a path, its order or its
fields, or a byte of the CLI ``paths``/``operator`` JSON shows here.
``truncated`` has a group of its own: the CLI ``paths`` digests are taken
over the report without that key, and the ``truncated`` group holds each CLI
case's value and a digest per corpus seed of the library flags. A change of
the truncation rule then moves only that group, and the other digests show
every path and witness unchanged. That group was re-recorded when the
search began to cut moves by their distance to the target.

Cases: the CLI ``paths`` report on the shipped schemes (open and closed
targets at ``--max-len`` 8/10/12 and without pulses, a start equal to the
target), the CLI ``operator`` dump of both shipped schemes, and the library
``reachable`` witness, ``reachable_set`` and ``enumerate_qpaths`` (max_len 8)
for every (start, target) pair of the random corpus, seeds 0-59, with and
without the pulse schedule. CLI cases run from the repository root with
relative scheme paths, because the report echoes the path. Regenerate,
only when a change of these outputs is intended, from the repository root:

    PYTHONPATH=src python tests/test_paths_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import pytest

from qstitch import (
    assemble,
    build_graph,
    enumerate_qpaths,
    reachable,
    reachable_set,
    scenario_basis,
)
from qstitch.cli import main

from conftest import REPO, random_scheme

GOLDEN = REPO / "tests" / "paths_golden.json"
ONE = "schemes/one_photon.scheme"
TWO = "schemes/two_photon.scheme"
START = "Z.S0+wZ01"
OPEN = "E.S0+wE01+wEt"
CLOSED = "E.S0+wE01"


def _digest(lines) -> dict:
    lines = list(lines)
    data = "\n".join(lines).encode("utf-8")
    return {"size": len(lines), "sha256": hashlib.sha256(data).hexdigest()}


CLI_CASES = {
    **{f"paths/two/{label}/max{n}": ["paths", TWO, "--from", START, "--to", to,
                                     "--max-len", str(n)]
       for label, to in (("open", OPEN), ("closed", CLOSED)) for n in (8, 10, 12)},
    "paths/two/open/no-pulses": ["paths", TWO, "--from", START, "--to", OPEN, "--no-pulses"],
    "paths/two/closed/no-pulses": ["paths", TWO, "--from", START, "--to", CLOSED,
                                   "--no-pulses"],
    "paths/one/closed": ["paths", ONE, "--from", START, "--to", CLOSED],
    "paths/one/from-is-to": ["paths", ONE, "--from", "Z.S1", "--to", "Z.S1"],
    "paths/two/from-is-to": ["paths", TWO, "--from", START, "--to", START],
    "operator/one": ["operator", ONE],
    "operator/two": ["operator", TWO],
}


def _cli_output(argv) -> str:
    """Run from the repository root: the report echoes the scheme path."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def cli_cases() -> dict:
    out = {}
    for case, argv in CLI_CASES.items():
        text = _cli_output(argv)
        if argv[0] == "paths":
            report = json.loads(text)
            del report["truncated"]
            text = json.dumps(report, sort_keys=True, indent=2)
        out[case] = _digest(text.splitlines())
    return out


def _path_line(p, b) -> str:
    fields = (p.kets, p.kinds, p.injected, p.ledger, p.prepared_quanta)
    return f"{fields!r} {json.dumps(p.to_dict(b), sort_keys=True)}"


def _library_lines(seed: int, flags: list):
    """The library lines of one corpus seed; the truncation flags go to ``flags``."""
    s = random_scheme(seed)
    b = scenario_basis(s)
    g = build_graph(assemble(b, s))
    for label, pulses in (("pulses", s.pulses), ("none", ())):
        for start in range(len(b)):
            yield f"{label} set {start} {sorted(reachable_set(g, b, start, pulses))}"
            for target in range(len(b)):
                ok, witness = reachable(g, b, start, target, pulses)
                yield f"{label} reach {start} {target} {ok}"
                if witness is not None:
                    yield _path_line(witness, b)
                paths, truncated = enumerate_qpaths(g, b, start, target, pulses, max_len=8)
                flags.append(f"{label} truncated {start} {target} {truncated}")
                yield f"{label} paths {start} {target} {len(paths)}"
                yield from (_path_line(p, b) for p in paths)


def library_cases() -> dict:
    return {f"library/seed{seed}": _digest(_library_lines(seed, [])) for seed in range(60)}


def truncated_cases() -> dict:
    out = {f"cli/{case}": json.loads(_cli_output(argv))["truncated"]
           for case, argv in CLI_CASES.items() if argv[0] == "paths"}
    for seed in range(60):
        flags: list = []
        for _ in _library_lines(seed, flags):
            pass
        out[f"library/seed{seed}"] = _digest(flags)
    return out


GROUPS = {
    "cli": cli_cases,
    "library": library_cases,
    "truncated": truncated_cases,
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_paths_match_golden(group, monkeypatch):
    monkeypatch.chdir(REPO)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[group]
    got = GROUPS[group]()
    assert sorted(got) == sorted(golden)
    changed = [case for case in golden if got[case] != golden[case]]
    assert not changed, f"output changed in {len(changed)} cases, first: {changed[:5]}"


if __name__ == "__main__":
    os.chdir(REPO)
    record = {group: build() for group, build in GROUPS.items()}
    GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")
