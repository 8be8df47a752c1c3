"""Golden parser and serializer output over valid and one-fault documents.

``scheme_golden.json`` holds, per case, a document count and the sha256 of
what the parser and serializer make of each document: the ``ok`` flag,
``str(d)`` of every diagnostic in order, and the serialized text when the
document parses. The digests were recorded from the parser that the
table-driven one replaced, so any change of an accepted document, a
diagnostic (rule, message, line, column or order) or a serialized byte
shows here.

Cases: both shipped schemes; ``test_acceptance.random_document`` on seeds
0-299; and, for each of those documents, one variant per applicable fault
in ``FAULTS``. Each variant changes one line, or adds one, so that no line
carries more than one fault; a fault can still cascade into later lines,
such as references to a level that was not declared. Header values that
the table-driven parser newly rejects (non-finite numbers, a tolerance out
of range) are left out. Regenerate, only when a change of parser output is
intended, from the repository root:

    PYTHONPATH=src python tests/test_scheme_golden.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from qstitch import parse_scheme, serialize_scheme

from conftest import REPO, SCHEMES

GOLDEN = REPO / "tests" / "scheme_golden.json"
SEEDS = range(300)
SECTIONS = {"family": "level", "modes": "mode", "couplings": "coupling",
            "pulses": "pulse", "detectors": "detector"}


def _record(text: str) -> str:
    result = parse_scheme(text)
    parts = [str(result.ok), *map(str, result.diagnostics)]
    if result.ok:
        parts.append(serialize_scheme(result.scheme))
    return "\n".join(parts)


def _digest(records: list[str]) -> dict:
    data = "\x00".join(records).encode("utf-8")
    return {"size": len(records), "sha256": hashlib.sha256(data).hexdigest()}


def _declarations(lines: list[str]) -> dict[str, list[int]]:
    """Indices of the declaration lines of each kind, and of header and section lines."""
    found: dict[str, list[int]] = {"header": [], "section": []}
    kind = "header"
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        if line.startswith("["):
            found["section"].append(i)
            kind = SECTIONS[line[1:-1].split()[0]]
            continue
        found.setdefault(kind, []).append(i)
    return found


def _keys(line: str) -> list[str]:
    return [tok.partition("=")[0] for tok in line.split() if "=" in tok]


def _set(line: str, key: str, value) -> str:
    return " ".join(f"{key}={value}" if tok.startswith(f"{key}=") else tok
                    for tok in line.split())


def _drop(line: str, key: str) -> str:
    return " ".join(tok for tok in line.split() if not tok.startswith(f"{key}="))


def _head(line: str, i: int, value: str) -> str:
    toks = line.split()
    toks[i] = value
    return " ".join(toks)


# One line edit per fault: (kind of line, edit). An edit returns the new
# line (None when the fault does not apply to that line); a "+" prefix adds
# the line after the edited one instead of replacing it.
NUMERIC = {"level": ("j", "g", "energy"), "mode": ("omega", "transfer"),
           "coupling": ("strength", "phase"), "pulse": ("time",),
           "detector": ("threshold", "rate")}
REQUIRED = {"level": ("j", "g", "term", "spin", "energy"), "mode": ("omega",),
            "coupling": ("mode", "strength"), "pulse": ("time",),
            "detector": ("target", "mode", "threshold")}


def _faults() -> dict:
    faults = {}
    for kind in SECTIONS.values():
        for key in REQUIRED[kind]:
            faults[f"{kind}/missing-{key}"] = (
                kind, lambda ln, k=key: _drop(ln, k) if f"{k}=" in ln else None)
        for key in NUMERIC[kind]:
            for label, bad in (("non-numeric", "abc"), ("non-finite", "inf")):
                faults[f"{kind}/{label}-{key}"] = (
                    kind, lambda ln, k=key, v=bad: _set(ln, k, v) if f"{k}=" in ln else None)
        faults[f"{kind}/duplicate-field"] = (
            kind, lambda ln: f"{ln} {ln.split()[-1]}" if _keys(ln) else None)
        faults[f"{kind}/unknown-field"] = (kind, lambda ln: f"{ln} zap=1")
        faults[f"{kind}/not-key-value"] = (kind, lambda ln: f"{ln} junk")
    faults.update({
        "level/bad-term": ("level", lambda ln: _set(ln, "term", "Theta")),
        "level/bad-spin": ("level", lambda ln: _set(ln, "spin", 2)),
        "level/non-integer-spin": ("level", lambda ln: _set(ln, "spin", "x")),
        "level/non-integer-j": ("level", lambda ln: _set(ln, "j", "1.5")),
        "level/negative-j": ("level", lambda ln: _set(ln, "j", -1)),
        "level/negative-g": ("level", lambda ln: _set(ln, "g", -2)),
        "level/bad-label": ("level", lambda ln: _head(ln, 0, "1bad")),
        "level/duplicate": ("level", lambda ln: "+" + _set(ln, "energy", 9.0)),
        "level/duplicate-quantum-numbers": ("level", lambda ln: "+" + _head(ln, 0, "Twin")),
        "mode/bad-id": ("mode", lambda ln: _head(ln, 0, "9m")),
        "mode/duplicate": ("mode", lambda ln: "+" + _set(ln, "omega", 7.0)),
        "mode/zero-omega": ("mode", lambda ln: _set(ln, "omega", 0)),
        "coupling/unknown-level": ("coupling", lambda ln: _head(ln, 2, "F0.NOPE")),
        "coupling/unknown-mode": ("coupling", lambda ln: _set(ln, "mode", "NOPE")
                                  if "mode=" in ln else None),
        "coupling/equal-endpoints": ("coupling", lambda ln: _head(ln, 2, ln.split()[1])),
        "coupling/bad-kind": ("coupling", lambda ln: _head(ln, 0, "tunnel")),
        "coupling/too-short": ("coupling", lambda ln: " ".join(ln.split()[:2])),
        "coupling/spinorbit-with-mode": ("coupling", lambda ln: _head(ln, 0, "spinorbit")
                                         if ln.startswith("dipole") else None),
        "coupling/spinorbit-with-unknown-mode": ("coupling", lambda ln: f"{ln} mode=NOPE"
                                                 if ln.startswith("spinorbit") else None),
        "pulse/unknown-mode": ("pulse", lambda ln: _head(ln, 0, "NOPE")),
        "pulse/negative-time": ("pulse", lambda ln: _set(ln, "time", -1.0)),
        "detector/bad-id": ("detector", lambda ln: _head(ln, 0, "-d")),
        "detector/duplicate": ("detector", lambda ln: "+" + ln),
        "detector/unknown-target": ("detector", lambda ln: _set(ln, "target", "F0.NOPE")),
        "detector/unknown-mode": ("detector", lambda ln: _set(ln, "mode", "NOPE")),
        "section/unknown": ("section", lambda ln: "+[weird]"),
        "section/unterminated": ("section", lambda ln: "+[modes"),
        "section/commented": ("section", lambda ln: f"{ln} # trailing comment"),
        "section/bad-family-name": ("section", lambda ln: "+[family 1x]"),
        "section/replaced": ("section", lambda ln: "[weird]"),
        "header/unknown-key": ("top", lambda ln: "colour = red"),
        "header/no-equals": ("top", lambda ln: "unit model"),
        "header/bad-unit": ("top", lambda ln: "unit = SI"),
        "header/non-integer-cap": ("top", lambda ln: "max-photons-per-mode = 1.5"),
        "header/negative-cap": ("top", lambda ln: "max-photons-per-mode = -1"),
        **{f"header/non-numeric-{key}": ("top", lambda ln, k=key: f"{k} = abc")
           for key in ("max-photons-per-mode", "resonance-tolerance", "gate-tolerance",
                       "transfer")},
    })
    return faults


FAULTS = _faults()


def _variant(text: str, seed: int, kind: str, edit) -> str | None:
    lines = text.splitlines()
    if kind == "top":
        return "\n".join([edit(""), *lines]) + "\n"
    candidates = _declarations(lines).get(kind, [])
    if not candidates:
        return None
    i = candidates[seed % len(candidates)]
    new = edit(lines[i])
    if new is None:
        return None
    if new.startswith("+"):
        lines.insert(i + 1, new[1:])
    else:
        lines[i] = new
    return "\n".join(lines) + "\n"


def _documents() -> list[str]:
    from test_acceptance import random_document

    return [random_document(np.random.default_rng(seed)) for seed in SEEDS]


def build() -> dict:
    docs = _documents()
    cases = {
        "shipped": _digest([_record((SCHEMES / f"{name}.scheme").read_text(encoding="utf-8"))
                            for name in ("one_photon", "two_photon")]),
        "valid": _digest([_record(doc) for doc in docs]),
    }
    for name, (kind, edit) in FAULTS.items():
        variants = [_variant(doc, seed, kind, edit) for seed, doc in enumerate(docs)]
        cases[name] = _digest([_record(v) for v in variants if v is not None])
    return cases


def test_scheme_parse_and_serialize_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = build()
    assert sorted(got) == sorted(golden)
    changed = [case for case in golden if got[case] != golden[case]]
    assert not changed, f"parser output changed in {len(changed)} cases: {changed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build(), sort_keys=True, indent=1) + "\n", encoding="utf-8")
