"""Every function the benchmark tracer hooks still exists under its name.

`perfbench/tracer.py` wraps package functions by module and attribute
name.  A refactor that renames or removes one of them would only show up
as a missing target in a traced benchmark run; this test resolves every
target against the imported package instead, without installing any
wrapper, so the rename fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracer_module():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _tracer_module()
    missing = []
    for name, mod_name, attr in tracer.TARGETS:
        mod = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        try:
            found = tracer.Tracer._resolve(mod, attr)
        except AttributeError:
            found = []
        if not found:
            missing.append(f"{name} ({mod_name}.{attr})")
    assert missing == []

