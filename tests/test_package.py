"""The package surface: ``benford`` re-exports each module's ``__all__``."""

import importlib
import os
import subprocess
import sys

import benford

# the modules import benford re-exports, in order; benford.entropy is the
# function, so each is looked up by its full name
MODULES = [
    importlib.import_module(f"benford.{name}")
    for name in ("errors", "significand", "nb_core", "wrapping", "entropy", "conformance")
]


def test_all_is_each_modules_all_in_order():
    assert benford.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    assert len(set(benford.__all__)) == len(benford.__all__)
    assert "first_digit_probs" in benford.__all__


def test_each_name_is_its_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(benford, name) is getattr(module, name), (module.__name__, name)
    assert isinstance(benford.__version__, str)


def test_fresh_import_holds_all_and_submodules_but_not_the_cli():
    # in a process of its own, since other tests import benford.cli; the CLI
    # pulls in argparse, csv and json, which the library's import does without
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(benford.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, benford; "
        "print(sorted(m for m in ('benford.cli', 'argparse', 'csv', 'json') if m in sys.modules)); "
        "print(sorted(n for n in dir(benford) if not n.startswith('_') and n not in benford.__all__))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout.splitlines()
    assert out == ["[]", str(sorted(["conformance", "errors", "nb_core", "significand", "wrapping"]))]
