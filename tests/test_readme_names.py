"""Every backticked dotted name in README.md names something that exists.

A name counts when it is `qct.<module>[.name[.attr]]` or
`<module>.name[.attr]` for a module of the package; it must import and
resolve attribute by attribute, so a rename or a removal that leaves the
README behind fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import qct

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(qct.__path__))
NAME = re.compile(rf"`(?:qct\.)?((?:{'|'.join(MODULES)})(?:\.\w+){{0,2}})`|`qct\.(\w+)`")


def readme_names():
    return sorted({a or b for a, b in NAME.findall(README.read_text())})


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
    names = readme_names()
    assert len(names) >= 10  # the pattern still finds the README's names
    assert [name for name in names if not resolves(name)] == []
