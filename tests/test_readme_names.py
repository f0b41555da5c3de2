"""Every backticked dotted name in README.md and in the package's own
sources names something that exists.

A name counts when it is `qct.<module>[.name[.attr]]` or
`<module>.name[.attr]` for a module of the package; it must import and
resolve attribute by attribute, so a rename or a removal that leaves the
README or a docstring behind fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qct

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(qct.__file__).parent.glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(qct.__path__))
NAME = re.compile(rf"`(?:qct\.)?((?:{'|'.join(MODULES)})(?:\.\w+){{0,2}})`|`qct\.(\w+)`")


def dotted_names(path):
    return sorted({a or b for a, b in NAME.findall(path.read_text())})


def resolves(name):
    module, *attrs = name.split(".")
    try:
        target = importlib.import_module(f"qct.{module}")
    except ImportError:
        return False
    for attr in attrs:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def test_every_dotted_name_in_the_readme_resolves():
    names = dotted_names(README)
    assert len(names) >= 10  # the pattern still finds the README's names
    assert [name for name in names if not resolves(name)] == []


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_dotted_name_in_the_package_resolves(path):
    assert [name for name in dotted_names(path) if not resolves(name)] == []


def test_the_package_sources_name_modules():
    # the pattern still finds the docstrings' names
    assert sum(len(dotted_names(path)) for path in SOURCES) >= 10
