"""The package resolves its exports on first use, so a command loads only what it runs.

Each test runs in a fresh interpreter: the test session has long since
imported every module.
"""

import os
import subprocess
import sys
from pathlib import Path

import ratiocert

ENV = dict(os.environ, PYTHONPATH=str(Path(ratiocert.__file__).resolve().parent.parent))


def _fresh(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", f"import sys\n{code}"], capture_output=True,
                         text=True, env=ENV, check=True)
    return out.stdout.strip()


def test_import_loads_no_submodule():
    code = "import ratiocert; print(sorted(m for m in sys.modules if m.startswith('ratiocert.')))"
    assert _fresh(code) == "[]"


def test_check_never_loads_paperchecks():
    code = (
        "import contextlib, io, ratiocert.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = ratiocert.cli.main(['check', '--seq', 'fibonacci', '--from', '4',\n"
        "                               '--to', '40', '--direction', 'decreasing'])\n"
        "print(code, 'ratiocert.paperchecks' in sys.modules)"
    )
    assert _fresh(code) == "0 False"


def test_compare_never_loads_sequences():
    code = "import ratiocert.compare; print('ratiocert.sequences' in sys.modules)"
    assert _fresh(code) == "False"


def test_a_name_is_its_module_object():
    code = "import ratiocert; print(ratiocert.check_monotone is ratiocert.compare.check_monotone)"
    assert _fresh(code) == "True"


def test_unknown_name_raises_attribute_error():
    code = (
        "import ratiocert\n"
        "try:\n"
        "    ratiocert.nosuch\n"
        "except AttributeError as e:\n"
        "    print(type(e).__name__, hasattr(ratiocert, 'nosuch'))"
    )
    assert _fresh(code) == "AttributeError False"


def test_dir_lists_every_export():
    code = "import ratiocert; print(set(ratiocert.__all__) <= set(dir(ratiocert)))"
    assert _fresh(code) == "True"
