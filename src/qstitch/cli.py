"""Command-line entry point.

Subcommands bind the library into scenario runs driven entirely by a
scheme file, for scripted use:

    qstitch validate SCHEME
    qstitch basis SCHEME [--format table|json] [--two-photon [MODE ...] | --full]
    qstitch paths SCHEME --from KET --to KET [--max-len N] [--no-pulses]
    qstitch evolve SCHEME [propagation flags]

Exit codes: 0 success, 1 domain violation (scheme errors, unreachable
references), 2 I/O or usage error. All output is deterministic: identical
inputs and seed produce byte-identical JSON reports; CSV floats are
printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import basis as basis_mod
from .basis import SECTOR_PRODUCT, BasisSet, ket_name, make_ket, scenario_basis
from .scheme import HBAR_EV_FS, Scheme, has_errors, parse_scheme, validate_scheme

# The numeric layers (numpy, operators, pathways, propagator) are imported
# inside the subcommands that use them, so validate and basis load no numpy.
if TYPE_CHECKING:
    from .propagator import Trajectory

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _load(path: str):
    """Read, parse, and validate a scheme file.

    Returns (scheme, diagnostics, text) or raises SystemExit with the
    appropriate code after printing the findings.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    result = parse_scheme(text)
    # a scheme that does not parse is not validated: its parse findings are printed
    diags = validate_scheme(result.scheme) if result.ok else result.diagnostics
    for d in diags:
        print(f"{path}:{d}", file=sys.stderr)
    if not result.ok or has_errors(diags):
        raise SystemExit(EXIT_DOMAIN)
    return result.scheme, diags, text


def _sha256(text: str) -> str:
    import hashlib  # only the paths and evolve reports carry a digest
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cmd_validate(args) -> int:
    scheme, diags, _ = _load(args.scheme)
    print(
        f"{args.scheme}: ok "
        f"({len(scheme.levels)} levels, {len(scheme.modes)} modes, "
        f"{len(scheme.couplings)} couplings, {len(diags)} warnings)"
    )
    return EXIT_OK


def _basis_rows(b: BasisSet) -> list[dict]:
    rows = []
    for i, (k, name) in enumerate(zip(b.kets, b.ket_names)):
        rows.append(
            {
                "index": i,
                "sector": k.sector,
                "matter": k.matter.ref,
                "occupations": {m: n for m, n in k.photons},
                "stitches": list(k.stitches),
                "energy": k.energy,
                "name": name,
            }
        )
    return rows


def cmd_basis(args) -> int:
    scheme, _, _ = _load(args.scheme)
    b = scenario_basis(scheme) if args.full else basis_mod.enumerate_basis(scheme)
    if args.two_photon is not None:
        modes = [scheme.mode(m) for m in args.two_photon] if args.two_photon else None
        b = basis_mod.apply_two_photon_extensions(b, modes)
    rows = _basis_rows(b)
    if args.format == "json":
        print(json.dumps({"schema": 1, "size": len(rows), "kets": rows},
                         sort_keys=True, indent=2))
        return EXIT_OK
    header = f"{'idx':>3}  {'sector':<13} {'matter':<8} {'occupations':<24} {'stitches':<16} {'energy':>12}"
    print(header)
    print("-" * len(header))
    for r in rows:
        occ = ",".join(f"{m}:{n}" for m, n in sorted(r["occupations"].items())) or "-"
        sti = ",".join(r["stitches"]) or "-"
        print(
            f"{r['index']:>3}  {r['sector']:<13} {r['matter']:<8} {occ:<24} "
            f"{sti:<16} {r['energy']:>12.6g}"
        )
    return EXIT_OK


def _run_setup(scheme: Scheme):
    from .operators import assemble

    b = scenario_basis(scheme)
    op = assemble(b, scheme)
    return b, op


def cmd_operator(args) -> int:
    from .operators import operator_dump

    scheme, _, _ = _load(args.scheme)
    b, op = _run_setup(scheme)
    for w in op.warnings:
        print(f"{args.scheme}:{w}", file=sys.stderr)
    print(json.dumps(operator_dump(op), sort_keys=True, indent=2))
    return EXIT_OK


def cmd_paths(args) -> int:
    from . import pathways as paths_mod

    scheme, _, source = _load(args.scheme)
    b, op = _run_setup(scheme)
    graph = paths_mod.build_graph(op)
    pulses = () if args.no_pulses else scheme.pulses
    start = b.find(getattr(args, "from"))
    target = b.find(args.to)
    ok, witness = paths_mod.reachable(graph, b, start, target, pulses)
    all_paths, truncated = paths_mod.enumerate_qpaths(
        graph, b, start, target, pulses, max_len=args.max_len
    )
    report = {
        "schema": 1,
        "scheme": {"path": args.scheme, "sha256": _sha256(source)},
        "basis_size": len(b),
        "from": b.ket_names[start],
        "to": b.ket_names[target],
        "pulses": [{"mode": u.mode.id, "time": u.time} for u in pulses],
        "reachable": ok,
        "witness": witness.to_dict(b) if witness is not None else None,
        "paths": [p.to_dict(b) for p in all_paths],
        "truncated": truncated,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def _default_preparation(scheme: Scheme, b: BasisSet) -> str:
    """Ground state of the first family dressed with one first-mode quantum."""
    ground = scheme.family_ground(scheme.families[0])
    if scheme.modes:
        dressed = make_ket(ground, {scheme.modes[0].id: 1}, SECTOR_PRODUCT, (), b.modes)
        if dressed in b.index:
            return ket_name(dressed)
    return ground.ref


def _parse_prepare(spec: str) -> dict[str, complex]:
    out: dict[str, complex] = {}
    # a ';' followed by a stitch such as '0_wZ01' is inside an entangled ket name
    for piece in re.split(r";(?!\d+_)", spec):
        if not piece.strip():
            continue
        name, _, amp = (x.strip() for x in piece.partition("="))
        if name in out:
            raise ValueError(f"--prepare assigns {name} twice")
        try:
            out[name] = complex(amp) if amp else 1.0
        except ValueError:
            raise ValueError(f"--prepare amplitude {amp!r} for {name} "
                             "is not a number") from None
    return out


# Data rows formatted per write: the whole table at once would hold a
# second copy of the trajectory as text.
CSV_BLOCK = 32


def _write_csv(path: Path, traj: Trajectory, watch: Optional[list[str]] = None) -> None:
    import numpy as np

    columns = list(range(len(traj.ket_names)))
    if watch:
        columns = [traj.ket_names.index(name) for name in watch]
    # a column whose bits are all clear holds +0.0 in every row, which "%.12g"
    # writes as "0"; -0.0 ("-0") and nan have bits set and are formatted
    live = traj.populations.view(np.uint64).any(axis=0).tolist()
    # the bytes csv.writer gives for the same cells: numbers need no quoting
    row = ",".join(["%.12g"] * 3 + ["%.12g" if live[c] else "0" for c in columns]) + "\r\n"
    formatted = [c for c in columns if live[c]]
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t", "norm", "energy"] + [traj.ket_names[c] for c in columns])
        for lo in range(0, len(traj.times), CSV_BLOCK):
            rows = slice(lo, lo + CSV_BLOCK)
            table = np.column_stack([traj.times[rows], traj.norms[rows], traj.energies[rows],
                                     traj.populations[rows][:, formatted]])
            fh.write("".join(row % tuple(r) for r in table.tolist()))


def _error_text(exc: Exception) -> str:
    """The one-line message of an exception; a KeyError's str() adds quotes."""
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)


def _cannot_write(path: Path, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_USAGE


def cmd_evolve(args) -> int:
    from . import pathways as paths_mod
    from .propagator import FLOOR, evolve, monitored_kets, prepare

    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    scheme, diags, source = _load(args.scheme)
    b, op = _run_setup(scheme)
    graph = paths_mod.build_graph(op)

    prep_spec = _parse_prepare(args.prepare) if args.prepare else {
        _default_preparation(scheme, b): 1.0
    }
    state = prepare(b, prep_spec)
    watch = []
    for name in args.watch or ():
        try:
            watch.append(b.ket_names[b.find(name)])
        except (KeyError, ValueError) as exc:
            print(f"error: unknown --watch ket {name!r}: {_error_text(exc)}", file=sys.stderr)
            return EXIT_DOMAIN

    start = int(state.populations().argmax())
    monitored = {d.id: monitored_kets(b, d) for d in scheme.detectors}
    witness = paths_mod.witnesses(graph, b, start, set().union(*monitored.values()), scheme.pulses)
    reach_verdicts = {
        d: [{"ket": b.ket_names[ki], "reachable": witness[ki] is not None,
             "witness": witness[ki].to_dict(b) if witness[ki] is not None else None}
            for ki in kets]
        for d, kets in monitored.items()
    }

    traj = evolve(
        state,
        op,
        pulses=scheme.pulses,
        detectors=scheme.detectors,
        t_end=args.t_end,
        dt=args.dt,
        sample_every=args.sample_every,
        detect_mode=args.detect_mode,
        collapse=(args.collapse == "on"),
        seed=args.seed,
    )

    out_prefix = Path(args.out) if args.out else Path(args.scheme).with_suffix("")
    csv_path = out_prefix.with_suffix(".trajectory.csv")
    report_path = out_prefix.with_suffix(".report.json")
    try:
        _write_csv(csv_path, traj, watch)
    except OSError as exc:
        return _cannot_write(csv_path, exc)

    final = traj.populations[-1]
    report = {
        "schema": 1,
        "scheme": {"path": args.scheme, "sha256": _sha256(source), "unit": scheme.unit},
        "seed": args.seed,
        "parameters": {
            "t_end": args.t_end,
            "dt": args.dt,
            "sample_every": args.sample_every,
            "detect_mode": args.detect_mode,
            "collapse": args.collapse,
        },
        "basis_size": len(b),
        "diagnostics": [str(d) for d in diags],
        "prepared": {name: [complex(v).real, complex(v).imag] for name, v in prep_spec.items()},
        "pulses": [{"mode": u.mode.id, "time": u.time} for u in scheme.pulses],
        "reachability": reach_verdicts,
        "events": traj.events,
        # the first emission event, without its event-log tags
        "emission": next(({k: v for k, v in e.items() if k not in ("type", "transfer")}
                          for e in traj.events if e["type"] == "emission"), None),
        "final_populations": {
            traj.ket_names[i]: float(final[i]) for i in range(len(final)) if final[i] > FLOOR
        },
        "trajectory_csv": str(csv_path),
    }
    if scheme.unit == "eV":
        report["time_unit_fs"] = HBAR_EV_FS
    text = json.dumps(report, sort_keys=True, indent=2)
    try:
        report_path.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        return _cannot_write(report_path, exc)
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstitch",
        description="Photon-dressed level-scheme simulator and reachability analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a scheme file")
    p_val.add_argument("scheme")
    p_val.set_defaults(func=cmd_validate)

    p_bas = sub.add_parser("basis", help="print the enumerated basis")
    p_bas.add_argument("scheme")
    p_bas.add_argument("--format", choices=("table", "json"), default="table")
    extend = p_bas.add_mutually_exclusive_group()
    extend.add_argument(
        "--two-photon",
        nargs="*",
        default=None,
        metavar="MODE",
        help="append stitched upper kets (default: use scheduled pulse modes)",
    )
    extend.add_argument(
        "--full",
        action="store_true",
        help="show the full scenario basis (pulse and coupling closure)",
    )
    p_bas.set_defaults(func=cmd_basis)

    p_op = sub.add_parser("operator", help="dump the assembled operators as JSON")
    p_op.add_argument("scheme")
    p_op.set_defaults(func=cmd_operator)

    p_pth = sub.add_parser("paths", help="reachability and q-path enumeration")
    p_pth.add_argument("scheme")
    p_pth.add_argument("--from", required=True, help="start ket (canonical name)")
    p_pth.add_argument("--to", required=True, help="target ket (canonical name)")
    p_pth.add_argument("--max-len", type=int, default=12)
    p_pth.add_argument("--no-pulses", action="store_true",
                       help="ignore the scheme's pulse schedule")
    p_pth.set_defaults(func=cmd_paths)

    p_evo = sub.add_parser("evolve", help="propagate a scenario and write reports")
    p_evo.add_argument("scheme")
    p_evo.add_argument("--t-end", type=float, default=600.0)
    p_evo.add_argument("--dt", type=float, default=0.25)
    p_evo.add_argument("--sample-every", type=int, default=4)
    p_evo.add_argument("--seed", type=int, default=None)
    p_evo.add_argument("--detect-mode", choices=("threshold", "stochastic"),
                       default="threshold")
    p_evo.add_argument("--collapse", choices=("on", "off"), default="on")
    p_evo.add_argument("--prepare", default=None,
                       help="semicolon list of KET=AMPLITUDE assignments")
    p_evo.add_argument("--watch", action="append", default=None, metavar="KET",
                       help="restrict CSV population columns (repeatable)")
    p_evo.add_argument("--out", default=None, help="output path prefix")
    p_evo.set_defaults(func=cmd_evolve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (KeyError, ValueError) as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
