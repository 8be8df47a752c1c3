"""The package namespace, and which modules each entry point loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qstitch

from conftest import SCHEMES

# every name `qstitch` exports, under its home module
EXPORTS = {
    "basis": ["BasisKet", "BasisSet", "SECTOR_ENTANGLED", "SECTOR_PRODUCT",
              "apply_two_photon_extensions", "build_entanglement_unit", "enumerate_basis",
              "extend_two_photon", "ket_name", "parse_ket_spec", "photon_partner",
              "scenario_basis"],
    "operators": ["OperatorPair", "SelectionVerdict", "assemble", "operator_dump",
                  "selection_check"],
    "pathways": ["CouplingGraph", "QPath", "build_graph", "enumerate_qpaths", "photon_budget",
                 "reachable", "reachable_set", "witnesses"],
    "propagator": ["EmissionEvent", "StateVector", "Trajectory", "collapse_onto", "detect",
                   "evolve", "inject_pulse", "prepare", "step"],
    "scheme": ["CouplingDecl", "DetectorDecl", "Diagnostic", "LevelLabel", "ParseResult",
               "PhotonMode", "PulseDecl", "Scheme", "parse_scheme", "serialize_scheme",
               "validate_scheme"],
}
NAMES = [name for names in EXPORTS.values() for name in names]

# what `import qstitch`, `validate` and `basis` must not load: the numeric
# layers, and hashlib, which only the paths and evolve reports need
DEFERRED = ("hashlib", "numpy", "qstitch.operators", "qstitch.propagator")
TWO = str(SCHEMES / "two_photon.scheme")


def test_every_export_is_its_home_module_object():
    assert len(NAMES) == len(set(NAMES)) == 45
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"qstitch.{module}")
        for name in names:
            assert getattr(qstitch, name) is getattr(home, name), name


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from qstitch import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(NAMES)


def test_dir_lists_the_exports():
    assert set(NAMES) <= set(dir(qstitch))
    assert "__version__" in dir(qstitch)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        qstitch.nope
    assert not hasattr(qstitch, "nope")
    with pytest.raises(ImportError):
        from qstitch import nope  # noqa: F401


def _loaded_deferred(code: str, *argv: str) -> str:
    """Run ``code`` in a fresh interpreter; the sorted DEFERRED modules it left loaded."""
    probe = f"{code}\nimport sys\nprint(sorted(set({DEFERRED!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(qstitch.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "code, argv",
    [
        ("import qstitch\nassert set(dir(qstitch)) >= set(qstitch.__all__)", ()),
        ("import sys\nfrom qstitch.cli import main\nassert main(sys.argv[1:]) == 0",
         ("validate", TWO)),
        ("import sys\nfrom qstitch.cli import main\nassert main(sys.argv[1:]) == 0",
         ("basis", TWO, "--full")),
    ],
    ids=["import", "validate", "basis-full"],
)
def test_import_validate_and_basis_load_no_numpy(code, argv):
    assert _loaded_deferred(code, *argv) == "[]"


def test_operator_loads_numpy_on_demand():
    # the probe sees numeric modules once a subcommand needs them
    code = "import sys\nfrom qstitch.cli import main\nassert main(['operator', sys.argv[1]]) == 0"
    assert _loaded_deferred(code, TWO) == "['numpy', 'qstitch.operators']"
