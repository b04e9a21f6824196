"""su3kit imports each layer on first use; each test starts a new
interpreter, so the modules it sees loaded are the ones its code caused."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "su3kit")
"""


def fresh(code: str):
    """Run ``code`` after PRELUDE in a new interpreter that imports su3kit
    from this checkout; returns the JSON value of its last stdout line."""
    done = subprocess.run([sys.executable, "-c", PRELUDE + code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_the_package_and_cli_only():
    found = fresh("import su3kit, su3kit.cli\n"
                  "print(json.dumps([loaded(), 'numpy' in sys.modules]))")
    assert found == [["su3kit", "su3kit.cli"], True]


def test_compose_command_loads_the_chart_layers_only():
    found = fresh("import contextlib, io, su3kit.cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
                  "    code = su3kit.cli.main(['compose', *['0.5'] * 8])\n"
                  "print(json.dumps([code, 're' in json.loads(out.getvalue()), loaded()]))")
    assert found == [0, True, ["su3kit", "su3kit.algebra", "su3kit.cli", "su3kit.group"]]


def test_frame_does_not_load_the_closed_form_tables():
    found = fresh("from su3kit import cartan\n"
                  "cartan.frame([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])\n"
                  "print(json.dumps(loaded()))")
    assert "su3kit.cartan" in found and "su3kit.closed_forms" not in found


def test_public_names_forward_to_their_layers_and_are_listed():
    # arrays and tuples carry no __module__: these are their defining layers
    constants = {"ANGLE_NAMES": "su3kit.group", "C_TENSOR": "su3kit.algebra",
                 "D_TENSOR": "su3kit.algebra", "LAMBDA": "su3kit.algebra"}
    found = fresh("import su3kit\n"
                  f"constants = {constants!r}\n"
                  "homes = {}\n"
                  "for name in su3kit.__all__:\n"
                  "    obj = getattr(su3kit, name)\n"
                  "    home = constants.get(name) or obj.__module__\n"
                  "    homes[name] = [home, getattr(sys.modules[home], name) is obj]\n"
                  "namespace = {}\n"
                  "exec('from su3kit import *', namespace)\n"
                  "print(json.dumps([homes, sorted(set(namespace) - {'__builtins__'}),\n"
                  "                  sorted(set(su3kit.__all__) - set(dir(su3kit)))]))")
    homes, bound, missing_from_dir = found
    assert len(homes) == 42 and bound == sorted(homes) and missing_from_dir == []
    for name, (home, same) in homes.items():
        assert home.startswith("su3kit.") and same, name


def test_unknown_attribute_raises_attribute_error():
    found = fresh("import su3kit\n"
                  "try:\n"
                  "    su3kit.no_such_name\n"
                  "except AttributeError as exc:\n"
                  "    print(json.dumps([str(exc), hasattr(su3kit, 'no_such_name'), loaded()]))")
    assert found == ["module 'su3kit' has no attribute 'no_such_name'", False, ["su3kit"]]


def test_verify_import_does_not_load_the_thread_pool():
    # concurrent.futures is imported by the first two-thread estimate only
    found = fresh("import su3kit.verify\n"
                  "print(json.dumps(['concurrent.futures' in sys.modules,\n"
                  "                  'su3kit.measure' in loaded()]))")
    assert found == [False, True]
