"""Level-scheme file parsing, validation, and serialization.

A scheme file is the single configuration surface of the toolkit. It
declares the matter levels (grouped into conformer families), the photon
modes, the couplings between levels, the pulse schedule, and the emission
detectors. Everything downstream (basis enumeration, operator assembly,
propagation, reachability) is derived from a parsed ``Scheme``.

Format: UTF-8, line oriented, ``#`` comments, one declaration per line,
bracketed section headers. Header keys appear before the first section:

    unit = model | eV
    max-photons-per-mode = 1        a non-negative integer
    resonance-tolerance = 1e-06     >= 0
    gate-tolerance = 1e-06          > 0
    transfer = 0.0

Sections and declaration shapes:

    [family <name>]  LABEL j=.. g=.. term=Sigma|Pi|Delta spin=1|3 energy=..
    [modes]          ID omega=.. [note=..] [transfer=..]
    [couplings]      dipole A.X B.Y mode=ID strength=.. [phase=..]
                     spinorbit A.X B.Y strength=.. [phase=..]
    [pulses]         MODE_ID time=..
    [detectors]      ID target=A.X mode=ID threshold=.. [rate=..]

The field tables (``_LEVEL_FIELDS`` to ``_DETECTOR_FIELDS``, and
``_HEADER``) are the format's single definition: one row per field gives
its key, value kind, requiredness and default, and ``parse_scheme`` reads
every declaration through them as ``serialize_scheme`` writes it. Every
number, header values included, goes through one reader and must be finite.

Level references use ``family.label`` syntax (e.g. ``Z.S1``). Energies
and frequencies are in model units with hbar = 1; ``unit = eV`` only
switches the time-axis annotation downstream (model time unit becomes
hbar/eV), it does not rescale stored values.

Validation rules (``validate_scheme``):

    ground-order        first-family ground not above second-family ground  WARNING
    selection.spin      coupling declaration violates the spin rule         ERROR
    selection.parity    coupling declaration violates the orbital rule      ERROR
    pulse-order         pulse times decrease in file order                  ERROR
    detector-threshold  threshold outside (0, 1]                            ERROR
    detector-rate       negative stochastic rate                            ERROR

Parsing and validation never raise on bad input; they report diagnostics
with line/column positions and stable rule identifiers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

# Orbital label -> Lambda quantum number, used as the parity proxy.
LAMBDA = {"Sigma": 0, "Pi": 1, "Delta": 2}

SPINS = (1, 3)

# hbar in eV*fs; one model time unit equals this many fs when unit=eV.
HBAR_EV_FS = 0.6582119569

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")
_TOKEN_RE = re.compile(r"\S+")

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One parse or validation finding, tied to a source location."""

    severity: str
    rule: str
    message: str
    line: int
    column: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class LevelLabel:
    """One matter (electronuclear) base state."""

    family: str
    label: str
    j: int
    g: int
    term: str
    spin: int
    energy: float
    line: int = field(default=0, compare=False)

    @property
    def ref(self) -> str:
        return f"{self.family}.{self.label}"

    @property
    def lam(self) -> int:
        return LAMBDA[self.term]


@dataclass(frozen=True)
class PhotonMode:
    """One photon mode: its quantum energy and bookkeeping notes."""

    id: str
    omega: float
    note: str = ""
    transfer: Optional[float] = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CouplingDecl:
    """A declared coupling between two levels (dipole or spinorbit)."""

    kind: str
    a: LevelLabel
    b: LevelLabel
    mode: Optional[PhotonMode]
    strength: float
    phase: float = 0.0
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class PulseDecl:
    """A scheduled photon injection: one quantum of ``mode`` at ``time``."""

    mode: PhotonMode
    time: float
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DetectorDecl:
    """An emission monitor on the precursor matter state of one mode."""

    id: str
    target: LevelLabel
    mode: PhotonMode
    threshold: float
    rate: Optional[float] = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Scheme:
    """A fully resolved level scheme."""

    unit: str = "model"
    max_photons: int = 1
    resonance_tolerance: float = 1e-6
    gate_tolerance: float = 1e-6
    transfer: float = 0.0
    families: tuple[str, ...] = ()
    levels: tuple[LevelLabel, ...] = ()
    modes: tuple[PhotonMode, ...] = ()
    couplings: tuple[CouplingDecl, ...] = ()
    pulses: tuple[PulseDecl, ...] = ()
    detectors: tuple[DetectorDecl, ...] = ()

    def level(self, ref: str) -> LevelLabel:
        for lv in self.levels:
            if lv.ref == ref:
                return lv
        raise KeyError(f"unknown level reference {ref!r}")

    def mode(self, mode_id: str) -> PhotonMode:
        for m in self.modes:
            if m.id == mode_id:
                return m
        raise KeyError(f"unknown mode {mode_id!r}")

    def levels_of(self, family: str) -> tuple[LevelLabel, ...]:
        return tuple(lv for lv in self.levels if lv.family == family)

    def family_ground(self, family: str) -> LevelLabel:
        members = self.levels_of(family)
        if not members:
            raise KeyError(f"family {family!r} has no levels")
        return min(members, key=lambda lv: (lv.energy, lv.j, lv.g))

    def transfer_strength(self, mode: PhotonMode) -> float:
        return self.transfer if mode.transfer is None else mode.transfer

    @property
    def family_rank(self) -> dict[str, int]:
        return {fam: i for i, fam in enumerate(self.families)}


@dataclass
class ParseResult:
    """Outcome of ``parse_scheme``: a scheme or error diagnostics, never both."""

    scheme: Optional[Scheme]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.scheme is not None


# ---------------------------------------------------------------------------
# Level-pair selection rules (shared by validation, basis closure and assembly)
# ---------------------------------------------------------------------------


def level_violation(kind: str, a: LevelLabel, b: LevelLabel) -> Optional[tuple[str, str]]:
    """Return (rule, detail) if a ``kind`` coupling may not link levels a and b.

    A dipole keeps the spin multiplicity, a spin-orbit mixing links singlet
    and triplet; both change Lambda by exactly one.
    """
    dlam = abs(a.lam - b.lam)
    if kind == "dipole":
        if a.spin != b.spin:
            return ("spin", f"dipole cannot change spin multiplicity ({a.spin} -> {b.spin})")
        if dlam != 1:
            return ("parity", f"direct EM transition forbidden: |dLambda| = {dlam}, need 1 "
                              f"({a.term} <-> {b.term})")
    else:
        if abs(a.spin - b.spin) != 2:
            return ("spin", "spin-orbit mixing links singlet and triplet, "
                            f"got {a.spin} <-> {b.spin}")
        if dlam != 1:
            return ("parity", f"spin-orbit mixing requires |dLambda| = 1, got {dlam} "
                              f"({a.term} <-> {b.term})")
    return None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Fault(Exception):
    """A value or declaration that cannot be read: its rule, message and column."""

    def __init__(self, rule: str, message: str, col: int = 1) -> None:
        super().__init__(message)
        self.rule, self.col = rule, col


def _number(raw: str, what: str, integer: bool = False) -> float:
    """The one number reader: an int or a finite float, else a ``non-numeric`` fault."""
    try:
        value = int(raw) if integer else float(raw)
    except ValueError:
        raise _Fault("non-numeric", f"{what} is not {'an integer' if integer else 'a number'}: "
                                    f"{raw!r}") from None
    if not math.isfinite(value):
        raise _Fault("non-numeric", f"{what} must be finite, got {raw!r}")
    return value


def _term(p: _Parser, raw: str, what: str) -> str:
    if raw not in LAMBDA:
        raise _Fault("bad-term", f"term must be one of {sorted(LAMBDA)}, got {raw!r}")
    return raw


def _spin(p: _Parser, raw: str, what: str) -> int:
    spin = _number(raw, what, integer=True)
    if spin not in SPINS:
        raise _Fault("bad-spin", f"spin multiplicity must be 1 or 3, got {spin}")
    return spin


def _unit(p: _Parser, raw: str, what: str) -> str:
    if raw not in ("model", "eV"):
        raise _Fault("bad-header", f"unit must be 'model' or 'eV', got {raw!r}")
    return raw


def _cap(p: _Parser, raw: str, what: str) -> int:
    num = _number(raw, what)
    if num != int(num) or num < 0:
        raise _Fault("bad-header", "max-photons-per-mode must be a non-negative integer")
    return int(num)


def _tolerance(positive: bool):
    """Reader of a tolerance header: non-negative, or positive for the energy gate."""

    def read(p: _Parser, raw: str, what: str) -> float:
        num = _number(raw, what)
        if num < 0 or (positive and num == 0):
            bound = "positive" if positive else "non-negative"
            raise _Fault("bad-header", f"{what} must be {bound}, got {num}")
        return num

    return read


def _resolve(table: dict, key: str, noun: str):
    if key not in table:
        raise _Fault("unresolved-reference", f"unknown {noun} {key!r}")
    return table[key]


def _ident(noun: str, tok: tuple[str, int]) -> tuple[str, int]:
    if not _IDENT_RE.match(tok[0]):
        raise _Fault("bad-label", f"invalid {noun} {tok[0]!r}", tok[1])
    return tok


class _Kind(NamedTuple):
    """How one kind of value is read from its file text and written back."""

    read: Callable  # (parser, raw text, "field 'key'") -> value; raises _Fault
    write: Callable  # value -> file text


_FLOAT = _Kind(lambda p, raw, what: _number(raw, what), lambda x: repr(float(x)))
_INT = _Kind(lambda p, raw, what: _number(raw, what, integer=True), str)
_TEXT = _Kind(lambda p, raw, what: raw, str)
_LEVEL = _Kind(lambda p, raw, what: _resolve(p.levels, raw, "level reference"),
               lambda lv: lv.ref)
_MODE = _Kind(lambda p, raw, what: _resolve(p.modes, raw, "mode"), lambda m: m.id)


class _Field(NamedTuple):
    """One key=value field of a declaration; the key is the dataclass attribute."""

    key: str
    kind: _Kind
    required: bool = True
    default: object = None  # of an optional field: taken when absent, and not written


# The field tables: the single definition of each declaration's key=value
# fields, read by ``parse_scheme`` and written by ``serialize_scheme``.
_LEVEL_FIELDS = (_Field("j", _INT), _Field("g", _INT), _Field("term", _Kind(_term, str)),
                 _Field("spin", _Kind(_spin, str)), _Field("energy", _FLOAT))
_MODE_FIELDS = (_Field("omega", _FLOAT), _Field("note", _TEXT, False, ""),
                _Field("transfer", _FLOAT, False))
_COUPLING_FIELDS = (_Field("mode", _MODE, False), _Field("strength", _FLOAT),
                    _Field("phase", _FLOAT, False, 0.0))
_PULSE_FIELDS = (_Field("time", _FLOAT),)
_DETECTOR_FIELDS = (_Field("target", _LEVEL), _Field("mode", _MODE),
                    _Field("threshold", _FLOAT), _Field("rate", _FLOAT, False))

# header key -> (Scheme attribute, kind); absent keys keep the Scheme defaults
_HEADER = {
    "unit": ("unit", _Kind(_unit, str)),
    "max-photons-per-mode": ("max_photons", _Kind(_cap, str)),
    "resonance-tolerance": ("resonance_tolerance", _FLOAT._replace(read=_tolerance(False))),
    "gate-tolerance": ("gate_tolerance", _FLOAT._replace(read=_tolerance(True))),
    "transfer": ("transfer", _FLOAT),
}

# the sections after the families: (name = Scheme attribute, declaration head, field table)
_SECTIONS = (
    ("modes", lambda m: m.id, _MODE_FIELDS),
    ("couplings", lambda c: f"{c.kind} {c.a.ref} {c.b.ref}", _COUPLING_FIELDS),
    ("pulses", lambda u: u.mode.id, _PULSE_FIELDS),
    ("detectors", lambda d: d.id, _DETECTOR_FIELDS),
)
_DEFERRED = ("couplings", "pulses", "detectors")


def _tokens(text: str) -> list[tuple[str, int]]:
    """Split a line into (token, 1-based column) pairs, dropping comments."""
    hash_pos = text.find("#")
    if hash_pos >= 0:
        text = text[:hash_pos]
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(text)]


class _Parser:
    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []
        self.header: dict[str, object] = {}
        self.families: list[str] = []
        self.levels: dict[str, LevelLabel] = {}  # by reference, in file order
        self.quantum_numbers: dict[tuple[str, int, int], LevelLabel] = {}
        self.modes: dict[str, PhotonMode] = {}
        # coupling, pulse and detector rows, resolved once every level and mode exists
        self.deferred: dict[str, list] = {name: [] for name in _DEFERRED}

    def error(self, rule: str, msg: str, line: int, col: int = 1) -> None:
        self.diags.append(Diagnostic(ERROR, rule, msg, line, col))

    def declare(self, read: Callable, *args):
        """Call ``read(*args)``, whose last argument is the line number; a fault is reported."""
        try:
            return read(*args)
        except _Fault as fault:
            self.error(fault.rule, str(fault), args[-1], fault.col)
            return None

    def take(self, kind: _Kind, raw: str, what: str, line: int, col: int):
        """Read one value, reporting its fault at ``col``; None when it cannot be read."""
        try:
            return kind.read(self, raw, what)
        except _Fault as fault:
            self.error(fault.rule, str(fault), line, col)
            return None

    def split(self, toks: list[tuple[str, int]], line: int) -> Optional[dict[str, tuple[str, int]]]:
        """The key=value tokens by key; None after a token that is not one or a repeated key."""
        given: dict[str, tuple[str, int]] = {}
        for tok, col in toks:
            if "=" not in tok:
                self.error("bad-field", f"expected key=value, got {tok!r}", line, col)
                return None
            key, _, value = tok.partition("=")
            if key in given:
                self.error("duplicate-field", f"field {key!r} given twice", line, col)
                return None
            given[key] = (value, col)
        return given

    def fields(self, given: Optional[dict[str, tuple[str, int]]], table: tuple[_Field, ...],
               line: int) -> Optional[dict[str, object]]:
        """Read the split fields through a field table, reporting every fault.

        Returns the values by attribute, with an absent or faulty optional
        field at its default, or None when the split failed or a required
        field is absent or faulty. Keys outside the table are reported but
        do not fail the line.
        """
        if given is None:
            return None
        values = {f.key: f.default for f in table if not f.required}
        for f in table:
            if f.key in given:
                raw, col = given.pop(f.key)
                value = self.take(f.kind, raw, f"field {f.key!r}", line, col)
                if value is not None:
                    values[f.key] = value
            elif f.required:
                self.error("missing-field", f"missing required field {f.key!r}", line)
        for key, (_, col) in given.items():
            self.error("unknown-field", f"unknown field {key!r}", line, col)
        return values if len(values) == len(table) else None

    # -- lines: each raises the _Fault that stops it ---------------------------

    def header_line(self, toks: list[tuple[str, int]], line: int) -> None:
        # header lines are "key = value" or "key=value"
        key, eq, value = "".join(t for t, _ in toks).partition("=")
        if not eq:
            raise _Fault("bad-header", "expected key = value before first section")
        if key not in _HEADER:
            raise _Fault("unknown-field", f"unknown header key {key!r}")
        attr, kind = _HEADER[key]
        self.header[attr] = kind.read(self, value, f"header {key!r}")

    def level_line(self, family: str, toks: list[tuple[str, int]], line: int) -> None:
        label, col = _ident("level label", toks[0])
        values = self.fields(self.split(toks[1:], line), _LEVEL_FIELDS, line)
        if values is None:
            return
        j, g = values["j"], values["g"]
        if j < 0 or g < 0:
            raise _Fault("bad-label", "j and g must be non-negative")
        if f"{family}.{label}" in self.levels:
            raise _Fault("duplicate-label", f"level {family}.{label} already declared", col)
        if (twin := self.quantum_numbers.get((family, j, g))) is not None:
            raise _Fault("duplicate-label",
                         f"quantum numbers (j={j}, g={g}) already used by {twin.ref}", col)
        lv = LevelLabel(family=family, label=label, line=line, **values)
        self.levels[lv.ref] = self.quantum_numbers[(family, j, g)] = lv

    def mode_line(self, toks: list[tuple[str, int]], line: int) -> None:
        mode_id, col = _ident("mode id", toks[0])
        if mode_id in self.modes:
            raise _Fault("duplicate-label", f"mode {mode_id!r} already declared", col)
        values = self.fields(self.split(toks[1:], line), _MODE_FIELDS, line)
        if values is None:
            return
        if values["omega"] <= 0:
            raise _Fault("bad-mode", f"mode omega must be positive, got {values['omega']}")
        self.modes[mode_id] = PhotonMode(id=mode_id, line=line, **values)

    def coupling(self, toks: list[tuple[str, int]], line: int) -> Optional[CouplingDecl]:
        if len(toks) < 3:
            raise _Fault("bad-declaration", "coupling needs: kind endpoint endpoint fields...")
        kind, kcol = toks[0]
        if kind not in ("dipole", "spinorbit"):
            raise _Fault("bad-declaration",
                         f"coupling kind must be dipole or spinorbit, got {kind!r}", kcol)
        a, b = (self.take(_LEVEL, ref, "endpoint", line, col) for ref, col in toks[1:3])
        given = self.split(toks[3:], line)
        if a is None or b is None or given is None:
            return None
        if a is b:
            raise _Fault("bad-declaration", "coupling endpoints must be distinct", toks[2][1])
        if kind == "dipole" and "mode" not in given:
            raise _Fault("missing-field", "dipole coupling requires mode=...")
        if kind == "spinorbit" and "mode" in given:
            raise _Fault("bad-declaration", "spinorbit coupling takes no mode", given["mode"][1])
        values = self.fields(given, _COUPLING_FIELDS, line)
        return None if values is None else CouplingDecl(kind=kind, a=a, b=b, line=line, **values)

    def pulse(self, toks: list[tuple[str, int]], line: int) -> Optional[PulseDecl]:
        mode_id, col = toks[0]
        mode = self.take(_MODE, mode_id, "mode", line, col)
        values = self.fields(self.split(toks[1:], line), _PULSE_FIELDS, line)
        if mode is None or values is None:
            return None
        if values["time"] < 0:
            raise _Fault("bad-declaration",
                         f"pulse time must be non-negative, got {values['time']}")
        return PulseDecl(mode=mode, line=line, **values)

    def detector(self, toks: list[tuple[str, int]], line: int) -> Optional[DetectorDecl]:
        det_id, _ = _ident("detector id", toks[0])
        given = self.split(toks[1:], line)
        if given is not None and ("target" not in given or "mode" not in given):
            raise _Fault("missing-field", "detector requires target=... and mode=...")
        values = self.fields(given, _DETECTOR_FIELDS, line)
        return None if values is None else DetectorDecl(id=det_id, line=line, **values)


def parse_scheme(text: str) -> ParseResult:
    """Parse a scheme document.

    Returns a ``ParseResult`` holding either a ``Scheme`` (element order
    preserves file order) or a non-empty list of error diagnostics, never
    both. It never raises on bad input.
    """
    p = _Parser()
    section: Optional[str] = None
    family = ""

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        first, col = toks[0]
        if first.startswith("["):
            header = raw[raw.find("[") :].strip()
            inner = header[1:-1].strip()
            parts = inner.split()
            section = None
            if not header.endswith("]"):
                p.error("bad-section", f"unterminated section header {header!r}", line_no, col)
            elif len(parts) == 2 and parts[0] == "family" and not _IDENT_RE.match(parts[1]):
                p.error("bad-section", f"invalid family name {parts[1]!r}", line_no, col)
            elif len(parts) == 2 and parts[0] == "family":
                section, family = "family", parts[1]
                if family not in p.families:
                    p.families.append(family)
            elif len(parts) == 1 and parts[0] in ("modes", *_DEFERRED):
                section = parts[0]
            else:
                p.error("unknown-section", f"unknown section header [{inner}]", line_no, col)
        elif section is None:
            p.declare(p.header_line, toks, line_no)
        elif section == "family":
            p.declare(p.level_line, family, toks, line_no)
        elif section == "modes":
            p.declare(p.mode_line, toks, line_no)
        else:
            p.deferred[section].append((toks, line_no))

    decls = {name: [d for toks, ln in p.deferred[name]
                    if (d := p.declare(read, toks, ln)) is not None]
             for name, read in zip(_DEFERRED, (p.coupling, p.pulse, p.detector))}
    first_of: dict[str, DetectorDecl] = {}
    for d in decls["detectors"]:
        if first_of.setdefault(d.id, d) is not d:
            p.error("duplicate-label", f"detector {d.id!r} already declared", d.line)

    if p.diags:
        return ParseResult(scheme=None, diagnostics=p.diags)
    scheme = Scheme(**p.header, families=tuple(p.families), levels=tuple(p.levels.values()),
                    modes=tuple(p.modes.values()), **{n: tuple(d) for n, d in decls.items()})
    return ParseResult(scheme=scheme, diagnostics=[])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_scheme(s: Scheme) -> list[Diagnostic]:
    """Check a parsed scheme against the domain rules.

    Pure: repeated calls yield identical diagnostics. Ground-state
    ordering is reported as a warning so inverted schemes stay usable.
    """
    diags: list[Diagnostic] = []

    if len(s.families) >= 2:
        first, second = s.families[0], s.families[1]
        g1, g2 = s.family_ground(first), s.family_ground(second)
        if not g1.energy > g2.energy:
            diags.append(
                Diagnostic(
                    WARNING,
                    "ground-order",
                    f"ground-state ordering: expected {first} ground above {second} ground, "
                    f"got {g1.energy} <= {g2.energy}",
                    g1.line,
                )
            )

    for c in s.couplings:
        violation = level_violation(c.kind, c.a, c.b)
        if violation is not None:
            rule, detail = violation
            diags.append(
                Diagnostic(ERROR, f"selection.{rule}", f"{c.kind} {c.a.ref} {c.b.ref}: {detail}", c.line)
            )

    last_time: Optional[float] = None
    for u in s.pulses:
        if last_time is not None and u.time < last_time:
            diags.append(
                Diagnostic(
                    ERROR,
                    "pulse-order",
                    f"pulse times must be non-decreasing in file order "
                    f"({u.time} after {last_time})",
                    u.line,
                )
            )
        last_time = u.time

    for d in s.detectors:
        if not (0.0 < d.threshold <= 1.0):
            diags.append(
                Diagnostic(
                    ERROR,
                    "detector-threshold",
                    f"detector {d.id}: threshold must lie in (0, 1], got {d.threshold}",
                    d.line,
                )
            )
        if d.rate is not None and d.rate < 0:
            diags.append(
                Diagnostic(
                    ERROR,
                    "detector-rate",
                    f"detector {d.id}: stochastic rate must be non-negative, got {d.rate}",
                    d.line,
                )
            )

    return diags


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diags)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _declaration(head: str, decl, table: tuple[_Field, ...]) -> str:
    values = ((f, getattr(decl, f.key)) for f in table)
    return " ".join([head] + [f"{f.key}={f.kind.write(v)}" for f, v in values
                              if f.required or v != f.default])


def serialize_scheme(s: Scheme) -> str:
    """Render a scheme back to its file form.

    Output re-parses to a structurally equal Scheme (declaration order is
    preserved; numbers are written in round-trip precision).
    """
    out = [f"{key} = {kind.write(getattr(s, attr))}" for key, (attr, kind) in _HEADER.items()]
    for fam in s.families:
        out += ["", f"[family {fam}]"]
        out += [_declaration(lv.label, lv, _LEVEL_FIELDS) for lv in s.levels_of(fam)]
    for name, head, table in _SECTIONS:
        out += ["", f"[{name}]"]
        out += [_declaration(head(d), d, table) for d in getattr(s, name)]
    return "\n".join(out) + "\n"
