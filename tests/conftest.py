"""Child interpreters that the tests start import the `qct` under test.

pytest puts ``src`` on its own path (``pythonpath`` in pyproject.toml);
this passes the same directory on to subprocesses through PYTHONPATH.
"""

import os
from pathlib import Path

import qct

_SRC = str(Path(qct.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
