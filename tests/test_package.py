"""The package's public names, and which modules reach into ``poly``."""

import ast
from pathlib import Path

import dulac

SRC = Path(dulac.__file__).parent


def test_every_public_name_resolves_once():
    names = dulac.__all__
    assert len(names) == len(set(names)) == 62
    for name in names:
        assert getattr(dulac, name) is not None, name


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _names(tree) -> set:
    """Every identifier a module names: variables, attributes, imported
    names and identifier strings, such as those of ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_no_module_imports_a_private_poly_name():
    # the numerator kernels and the Gaussian type stay inside poly.py
    for name, tree in _modules().items():
        if name == "poly.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "poly", "dulac.poly"):
                private = [a.name for a in node.names
                           if a.name.startswith("_")]
                assert not private, (name, private)


def test_crat_is_named_only_by_its_readers():
    # CRat is the record of Poly.terms and of Darboux exponents, and the
    # imaginary unit is Poly.i(): no module names a CRat constant
    modules = {name: _names(tree) for name, tree in _modules().items()}
    assert "poly.py" in modules and "darboux.py" in modules
    assert [name for name, names in modules.items() if "CRAT_I" in names] == []
    assert sorted(name for name, names in modules.items()
                  if "CRat" in names) == ["__init__.py", "darboux.py",
                                          "poly.py"]
