"""The package export lists name only what the package defines, and every
public definition has a user outside the tests.  Functions are imported
from the module that defines them, never through a package."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import imcsearch
import imcsearch.nnsim

SRC = Path(imcsearch.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("package", [imcsearch, imcsearch.nnsim],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


@pytest.mark.parametrize("package", [imcsearch, imcsearch.nnsim],
                         ids=lambda p: p.__name__)
def test_every_exported_name_is_a_class(package):
    assert [name for name in package.__all__
            if not inspect.isclass(getattr(package, name))] == []


def _imported_from(path: Path, package: str):
    """The names ``path`` imports with ``from ... import`` out of ``package``
    itself, relative imports resolved against ``path``'s own package."""
    here = list(path.relative_to(SRC.parent).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        base = here[:len(here) + 1 - node.level] if node.level else []
        source = ".".join(base + ([node.module] if node.module else []))
        if source == package:
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("package", [imcsearch, imcsearch.nnsim],
                         ids=lambda p: p.__name__)
def test_no_module_imports_a_function_through_a_package(package):
    functions = [(path.relative_to(SRC).as_posix(), name)
                 for path in SRC.rglob("*.py")
                 for name in _imported_from(path, package.__name__)
                 if inspect.isroutine(getattr(package, name))]
    assert functions == []


def _loaded_names(path: Path, strings: bool):
    """The names ``path`` loads, as a bare name or an attribute; with
    ``strings``, also every word of its string constants, as the benchmark
    names the spans and metrics it reads."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield from re.findall(r"\w+", node.value)


def test_every_public_definition_is_loaded_outside_the_tests():
    # an import or an ``__all__`` entry is no use: a public module-level
    # function or class that nothing in src/ or perfbench/ loads serves
    # only the tests.  The three left are the idle pipeline functions of
    # ROADMAP item 5 (a ``train`` subcommand would call them, or they go)
    # and the FOUND line in CHANGES.md on ``nnsim.network.accuracy``; the
    # set may only shrink
    defined = {node.name for path in SRC.rglob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    loaded = {name for path in SRC.rglob("*.py")
              for name in _loaded_names(path, strings=False)}
    loaded |= {name for path in PERFBENCH.rglob("*.py")
               for name in _loaded_names(path, strings=True)}
    assert sorted(defined - loaded) == ["accuracy", "homogeneous_model",
                                        "save_net"]
