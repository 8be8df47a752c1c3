"""qstitch: simulator and static analyzer for photon-dressed level schemes.

The package models bound matter states dressed by quantized photon modes:
a declarative scheme file supplies levels, modes, couplings, pulses, and
detectors; the library enumerates the ordered product/entangled basis,
assembles the gated coupling operators, propagates amplitude vectors
exactly, and answers reachability questions over the coupling graph.

Each exported name is imported from its home module on first access
(PEP 562), so ``import qstitch`` loads no numpy until a numeric name is
touched.
"""

import importlib

__version__ = "0.1.0"

# exported name -> home module
_HOME = {name: module for module, names in {
    "basis": ("BasisKet", "BasisSet", "SECTOR_ENTANGLED", "SECTOR_PRODUCT",
              "apply_two_photon_extensions", "build_entanglement_unit", "enumerate_basis",
              "extend_two_photon", "ket_name", "parse_ket_spec", "photon_partner",
              "scenario_basis"),
    "operators": ("OperatorPair", "SelectionVerdict", "assemble", "operator_dump",
                  "selection_check"),
    "pathways": ("CouplingGraph", "QPath", "build_graph", "enumerate_qpaths", "photon_budget",
                 "reachable", "reachable_set", "witnesses"),
    "propagator": ("EmissionEvent", "StateVector", "Trajectory", "collapse_onto", "detect",
                   "evolve", "inject_pulse", "prepare", "step"),
    "scheme": ("CouplingDecl", "DetectorDecl", "Diagnostic", "LevelLabel", "ParseResult",
               "PhotonMode", "PulseDecl", "Scheme", "parse_scheme", "serialize_scheme",
               "validate_scheme"),
}.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
