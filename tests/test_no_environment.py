"""The program reads no environment variable.

Every number it reports is a function of its inputs — topology, BGP
configuration, seed — and those all arrive as options, config fields or
files, where the campaign identity, the checkpoint keys and the API's
job key see them.  An environment variable would be an input none of
them sees, so no module under ``src/repro`` may read one.  Tests that
need to change how the program behaves wrap it instead (see
``tests/fault_launcher.py``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: what reads the environment, as ``os.<name>`` or ``from os import <name>``
READERS = {"environ", "environb", "getenv", "getenvb"}


def _reads(path: Path) -> list:
    """``line: what`` for every environment read in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                f"{node.lineno}: from os import {alias.name}"
                for alias in node.names
                if alias.name in READERS
            )
    return found


def test_no_module_reads_the_environment():
    reads = {
        str(path.relative_to(SRC)): _reads(path) for path in sorted(SRC.rglob("*.py"))
    }
    assert len(reads) > 100, "the check should see every module"
    assert {module: found for module, found in reads.items() if found} == {}


def test_the_check_sees_a_read(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nfrom os import getenv\nx = os.environ.get('X')\n",
        encoding="utf-8",
    )
    assert _reads(module) == ["2: from os import getenv", "3: .environ"]
