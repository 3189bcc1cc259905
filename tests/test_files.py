"""Atomic artifact writes: a writer that fails midway changes nothing.
The SHA-256 helper gives ``hashlib``'s digests without loading OpenSSL."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.commands import write_json_artifact
from repro import files
from repro.files import atomic_writer, sha256
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.serialization import save_as_rel, save_json, to_json_dict
from repro.topology.types import Relationship


class _Broken(Exception):
    pass


class _EdgesThenFail:
    """A graph whose edge iteration breaks after the first edge."""

    def edges(self):
        yield 0, 1, Relationship.PEER
        raise _Broken("disk full")


def _fail_json_midway(path, monkeypatch):
    # The nodes stream out (two chunks and more), then the links break.
    graph = generate_topology(baseline_params(300), seed=2)
    monkeypatch.setattr(graph, "edges", _EdgesThenFail().edges)
    save_json(graph, path)


WRITERS = {
    "save_json": _fail_json_midway,
    "save_as_rel": lambda path, monkeypatch: save_as_rel(_EdgesThenFail(), path),
    "json_artifact": lambda path, monkeypatch: write_json_artifact(
        {"a": 1, "z": object()}, path, "churn statistics"
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file_and_leaves_no_tmp(writer, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    path.write_text("previous\n", encoding="utf-8")
    with pytest.raises((_Broken, TypeError)):
        WRITERS[writer](path, monkeypatch)
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["artifact"]


def test_atomic_writer_replaces_on_success(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with atomic_writer(path, "wb") as handle:
        handle.write(b"new")
        assert path.read_bytes() == b"old"  # not visible before the block ends
    assert path.read_bytes() == b"new"
    assert [entry.name for entry in tmp_path.iterdir()] == ["out.bin"]


def test_streamed_topology_json_is_byte_identical_to_one_string(tmp_path):
    graph = generate_topology(baseline_params(300), seed=2)
    path = tmp_path / "topo.json"
    save_json(graph, path)
    assert path.read_text(encoding="utf-8") == json.dumps(to_json_dict(graph), indent=1)


def test_json_artifact_is_canonical(tmp_path, capsys):
    path = tmp_path / "deep" / "report.json"
    payload = {"b": [1, 2.5], "a": {"y": None, "x": "s"}}
    write_json_artifact(payload, path, "report")
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert capsys.readouterr().out == f"report written to {path}\n"


#: The empty input, one byte and 4 MiB (many compression blocks).
DIGEST_INPUTS = [b"", b"\x00", bytes(range(256)) * 16384]


@pytest.mark.parametrize("data", DIGEST_INPUTS, ids=["empty", "one-byte", "4MiB"])
def test_sha256_equals_hashlib(data):
    assert sha256(data) == hashlib.sha256(data).hexdigest()


def test_sha256_is_the_built_in_implementation():
    built_in = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert files._sha256_constructor().__module__ == built_in


def test_sha256_falls_back_to_hashlib():
    """Without the built-in modules the helper takes ``hashlib``'s
    constructor, and the digests do not change."""
    script = (
        "import hashlib, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from repro import files\n"
        "assert files._sha256_constructor() is hashlib.sha256\n"
        "inputs = [b'', b'\\x00', bytes(range(256)) * 16384]\n"
        "print(json.dumps([files.sha256(data) for data in inputs]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        hashlib.sha256(data).hexdigest() for data in DIGEST_INPUTS
    ]
