"""qstitch: simulator and static analyzer for photon-dressed level schemes.

The package models bound matter states dressed by quantized photon modes:
a declarative scheme file supplies levels, modes, couplings, pulses, and
detectors; the library enumerates the ordered product/entangled basis,
assembles the gated coupling operators, propagates amplitude vectors
exactly, and answers reachability questions over the coupling graph.
"""

from .basis import (
    BasisKet,
    BasisSet,
    SECTOR_ENTANGLED,
    SECTOR_PRODUCT,
    apply_two_photon_extensions,
    build_entanglement_unit,
    enumerate_basis,
    extend_two_photon,
    ket_name,
    parse_ket_spec,
    photon_partner,
    scenario_basis,
    total_energy,
)
from .operators import OperatorPair, SelectionVerdict, assemble, operator_dump, selection_check
from .pathways import (
    CouplingGraph,
    QPath,
    build_graph,
    enumerate_qpaths,
    photon_budget,
    reachable,
    reachable_set,
    witnesses,
)
from .propagator import (
    EmissionEvent,
    StateVector,
    Trajectory,
    collapse_onto,
    detect,
    evolve,
    inject_pulse,
    prepare,
    step,
)
from .scheme import (
    CouplingDecl,
    DetectorDecl,
    Diagnostic,
    LevelLabel,
    ParseResult,
    PhotonMode,
    PulseDecl,
    Scheme,
    parse_scheme,
    serialize_scheme,
    validate_scheme,
)

__version__ = "0.1.0"
