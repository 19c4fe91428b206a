"""Package layout: who may import the dense reference, and what each module exports."""

import ast
import importlib
from pathlib import Path

import pytest

import echometry
import echometry.reference

SRC = Path(echometry.__file__).resolve().parent
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [path.stem for path in SOURCES if path.stem not in ("__init__", "__main__")]

# Everything the reference may import from production: model definitions and
# contracts, never a kernel, so that it stays an independent oracle.
REFERENCE_IMPORTS = {
    ".circuit": {"ModelParams", "Schedule", "PERIOD_RESIDUAL_TOL"},
    ".fisher": {"FisherResult"},
    ".spin": {"ContractViolation", "EnsembleDim", "PhaseGenerator", "assert_hermitian"},
    ".states": {"EPS_SPECTRUM", "AncillaState", "SpectralProbe"},
}


def imports(path):
    """(module, name) of every import in a source file; relative modules keep their dots."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield from ((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)


def imports_reference(module, name):
    return module in (".reference", "echometry.reference") or (
        module in (".", "echometry") and name == "reference"
    )


def test_only_experiments_imports_the_reference():
    importers = [path.name for path in SOURCES if any(imports_reference(*pair) for pair in imports(path))]
    assert importers == ["experiments.py"]


def test_reference_imports_no_sector_kernel():
    pairs = list(imports(SRC / "reference.py"))
    production = {}
    for module, name in pairs:
        if module.startswith("."):
            production.setdefault(module, set()).add(name)
    assert production == REFERENCE_IMPORTS
    assert {module for module, _ in pairs if not module.startswith(".")} == {"__future__", "math", "numpy"}


def test_no_module_imports_a_private_name_of_a_sibling():
    private = [
        (path.name, module, name)
        for path in SOURCES
        for module, name in imports(path)
        if module.startswith(".") and name.startswith("_")
    ]
    assert private == []


def test_dense_path_is_defined_and_called_only_in_the_reference():
    # np.kron and every reference name appear nowhere else, bar the oracle
    # calls of run_validation
    dense = set(echometry.reference.__all__) | {"kron"}
    allowed = {"experiments.py": {"output_states_stacked", "qfi_sld_oracle_stacked"}}
    for path in SOURCES:
        if path.name == "reference.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
        assert names & dense <= allowed.get(path.name, set()), path.name


def test_production_types_hold_no_dense_operator():
    # n.J and a probe's density matrix are the reference's spin_matrix and probe_density
    assert not hasattr(echometry.PhaseGenerator, "matrix")
    assert not hasattr(echometry.SpectralProbe, "density")
    assert "collective_ops" not in echometry.__all__ and not hasattr(echometry.spin, "collective_ops")
    assert {"collective_ops", "spin_matrix", "probe_density"} <= set(echometry.reference.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"echometry.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [item for item in module.__all__ if not hasattr(module, item)] == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(set(echometry.__all__)) == len(echometry.__all__)
    assert sorted(echometry.__all__) == sorted(bound)


def test_package_does_not_reexport_the_reference():
    assert not set(echometry.reference.__all__) & set(echometry.__all__)
    assert not [name for name in echometry.reference.__all__ if hasattr(echometry, name)]
