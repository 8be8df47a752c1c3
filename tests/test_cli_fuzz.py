"""Seeded fuzz corpus for the command line, run in-process through ``cli.main``.

Each case mutates the shipped ``two_photon`` scheme once (a numeric value
becomes a boundary value, or a line is deleted, repeated or swapped with
another) and runs one subcommand on it with one flag set to a value drawn
from a fixed list of boundary values; the other flags keep their
defaults, so a failing run points at one value. Every value is of the
type argparse expects, so each run reaches the subcommand. Whatever the
input, ``main`` must return 0, 1 or 2 without raising, and each error it
reports must be one line. A case that fails is a defect to mend or to
mark, never a reason to change the seed, the case count or the lists.

``--max-len`` stays at most 12 and ``--t-end`` at most 600, so the whole
corpus runs in about 3 s. Run one case by its id, e.g.
``pytest "tests/test_cli_fuzz.py::test_cli_exits_cleanly_on_mutated_input[0-paths]"``.
"""

from __future__ import annotations

import random
import re

import pytest

from qstitch.cli import main

from conftest import SCHEMES

SEED = 20261020
CASES = 240

BASE = (SCHEMES / "two_photon.scheme").read_text(encoding="utf-8").splitlines()
# a value after "=" or a space: field values and header values, not the digits of names
NUMBER = re.compile(r"(?<=[=\s])[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?(?=\s|$)")
NUMBERS = ("0", "-1", "1e308", "-1e308", "nan", "inf", "1e-320",
           "12345678901234567890", "", "text")

KETS = ("Z.S0+wZ01", "Z.S0+1*wZ01", "E.S0+wE01+wEt", "E.S0+wE01", "Z.S1;0_wZ01", "Z.S0",
        "NOSUCH", "0", "Z.S0+bogus")
# the flags every run of a subcommand passes
FIXED = {"validate": [], "basis": ["--full"], "operator": [],
         "paths": ["--from", "Z.S0+wZ01", "--to", "E.S0+wE01+wEt"], "evolve": []}
# the boundary values of each flag; "" sets a switch, None leaves the flag out
FLAGS = {
    "validate": {},
    "basis": {"--format": ("table", "json")},
    "operator": {},
    "paths": {"--from": KETS, "--to": KETS, "--max-len": ("0", "1", "8", "12"),
              "--no-pulses": (None, "")},
    "evolve": {"--t-end": ("600", "10", "0", "-1", "nan", "1e-300"),
               "--dt": ("0.25", "0", "-0.25", "inf", "1e-300", "600"),
               "--sample-every": ("4", "1", "0", "-1"),
               "--seed": ("7", "0", "-1"),
               "--detect-mode": ("threshold", "stochastic"),
               "--collapse": ("on", "off"),
               "--prepare": (None, "Z.S0+wZ01=1", "Z.S0+wZ01=0", "Z.S0+wZ01=nan",
                             "Z.S0+wZ01=1;Z.S0+1*wZ01=1", "=1", ";;", "Z.S1;0_wZ01=1e308"),
               "--watch": (None, "Z.S1", "Z.S0+1*wZ01", "NOSUCH")},
}


def _mutate(rng: random.Random) -> list[str]:
    """The lines of the base scheme after one mutation."""
    lines = list(BASE)
    body = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    kind = rng.choice(("number", "number", "number", "delete", "repeat", "swap"))
    if kind == "number":
        i = rng.choice([i for i in body if NUMBER.search(lines[i])])
        spans = [m.span() for m in NUMBER.finditer(lines[i])]
        lo, hi = rng.choice(spans)
        lines[i] = lines[i][:lo] + rng.choice(NUMBERS) + lines[i][hi:]
        return lines
    i, j = rng.sample(body, 2)
    if kind == "delete":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return lines


def _corpus() -> list[tuple[str, str, list[str]]]:
    rng = random.Random(SEED)
    out = []
    for n in range(CASES):
        lines = _mutate(rng)
        command = rng.choice(tuple(FLAGS))
        flags = list(FIXED[command])
        if FLAGS[command]:
            flag = rng.choice(tuple(FLAGS[command]))
            value = rng.choice(FLAGS[command][flag])
            if value is not None:
                flags += [flag] if value == "" else [flag, value]
        out.append((f"{n}-{command}", "\n".join(lines) + "\n", [command, *flags]))
    return out


CORPUS = _corpus()


@pytest.mark.parametrize("case, text, argv", CORPUS, ids=[c[0] for c in CORPUS])
def test_cli_exits_cleanly_on_mutated_input(tmp_path, capsys, case, text, argv):
    path = tmp_path / "fuzz.scheme"
    path.write_text(text, encoding="utf-8")
    argv = [argv[0], str(path), *argv[1:]]
    if argv[0] == "evolve":
        argv += ["--out", str(tmp_path / "run")]
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2)
    # a finding names the scheme file; anything else is one "error:" line
    assert all(line.startswith(("error: ", f"{path}:")) for line in err), err
    assert sum(line.startswith("error: ") for line in err) <= 1, err
    assert code == 0 or err
