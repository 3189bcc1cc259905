"""The packages' lazy exports keep the public API of eager ones.

Every package ``__init__`` maps each re-exported name to its defining
module and imports that module on first access (PEP 562).  These tests
read the map from the source, so a name that is listed but resolves
elsewhere, or is missing from ``__all__`` / ``dir()``, fails here.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.bgp",
    "repro.checkpoint",
    "repro.core",
    "repro.dist",
    "repro.experiments",
    "repro.measured",
    "repro.obs",
    "repro.prefix",
    "repro.sim",
    "repro.stats",
    "repro.topology",
]


def _export_map(package: str) -> dict:
    """``{name: module}`` as written in the package's ``_lazy_exports`` call."""
    init = SRC / Path(*package.split(".")) / "__init__.py"
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_exports":
            modules = ast.literal_eval(node.args[1])
            return {name: module for module, names in modules.items() for name in names}
    raise AssertionError(f"{init} has no _lazy_exports call")


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_modules_object(package):
    exports = _export_map(package)
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(exports)
    listed = dir(module)
    for name, home in exports.items():
        assert getattr(module, name) is getattr(importlib.import_module(home), name)
        assert name in listed


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_star_imports_bind_every_export():
    script = (
        "import json\n"
        + "".join(f"from {package} import *\n" for package in PACKAGES)
        + "print(json.dumps(sorted(k for k in dir() if not k.startswith('__'))))\n"
    )
    bound = set(json.loads(_run(script).splitlines()[-1]))
    expected = {name for package in PACKAGES for name in _export_map(package)}
    assert expected - {"__version__"} <= bound


def test_importing_a_package_loads_none_of_its_modules():
    script = (
        "import json, sys\n"
        "import repro, repro.core, repro.checkpoint, repro.topology, repro.obs\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    loaded = json.loads(_run(script).splitlines()[-1])
    assert loaded == ["repro", "repro.checkpoint", "repro.core", "repro.obs", "repro.topology"]


def test_sweep_unit_and_batch_result_pickle_with_only_the_sweep_module():
    """A pool worker receives units and returns results by pickle; both
    must round-trip where nothing but :mod:`repro.core.sweep` was imported."""
    script = (
        "import json, pickle, sys\n"
        "from repro.core.sweep import SweepUnit, execute_sweep_unit\n"
        "from repro.bgp.config import BGPConfig\n"
        "unit = SweepUnit('BASELINE', 120, 2, 0, 1, 3, BGPConfig(), ())\n"
        "result = execute_sweep_unit(unit)\n"
        "assert type(result).__name__ == 'CEventBatchResult'\n"
        "assert pickle.loads(pickle.dumps(unit)) == unit\n"
        "assert pickle.loads(pickle.dumps(result)) == result\n"
        "print(json.dumps([pickle.dumps(unit).hex(), pickle.dumps(result).hex()]))\n"
    )
    unit_hex, result_hex = json.loads(_run(script).splitlines()[-1])
    # ... and unpickle in an interpreter that imported nothing of repro.
    reload = (
        "import pickle\n"
        f"unit = pickle.loads(bytes.fromhex({unit_hex!r}))\n"
        f"result = pickle.loads(bytes.fromhex({result_hex!r}))\n"
        f"assert pickle.dumps(unit).hex() == {unit_hex!r}\n"
        f"assert pickle.dumps(result).hex() == {result_hex!r}\n"
        "print(unit.n, len(result.origins))\n"
    )
    assert _run(reload).split() == ["120", "2"]


def test_pool_parent_imports_the_checkpointed_unit_runner_before_forking(tmp_path):
    """Lazy packages must not move an import into every forked worker:
    the parent loads :mod:`repro.checkpoint.batch` before it starts a pool
    whose units run checkpointed."""
    script = (
        "import sys\n"
        "from repro.bgp.config import BGPConfig\n"
        "from repro.core.sweep import SweepUnit, UnitQueue\n"
        "unit = SweepUnit('BASELINE', 60, 1, 0, 1, 3, BGPConfig(mrai=2.0), ())\n"
        f"with UnitQueue(2, checkpoint_dir={str(tmp_path)!r}) as queue:\n"
        "    assert 'repro.checkpoint.batch' not in sys.modules\n"
        "    tickets = queue.submit([unit])\n"
        "    assert 'repro.checkpoint.batch' in sys.modules\n"
        "    (result,) = queue.collect(tickets)\n"
        "print(len(result.origins))\n"
    )
    assert _run(script).split() == ["1"]
