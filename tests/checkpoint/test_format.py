"""Tests for the on-disk checkpoint envelope."""

import json

import pytest

from repro._version import __version__
from repro.checkpoint.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    KIND_CAMPAIGN,
    KIND_NETWORK,
    KIND_SWEEP_UNIT,
    inspect_checkpoint,
    payload_digest,
    read_checkpoint,
    verify_checkpoint,
    write_checkpoint,
)
from repro.errors import CheckpointError
from repro.prefix.prefix import host_prefix

P0 = host_prefix(0)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "state" / "test.json"


class TestWriteRead:
    def test_round_trip(self, path):
        payload = {"alpha": 1, "beta": [1.5, None, "x"]}
        write_checkpoint(path, KIND_CAMPAIGN, payload)
        document = read_checkpoint(path)
        assert document.kind == KIND_CAMPAIGN
        assert document.payload == payload
        assert document.format_version == FORMAT_VERSION
        assert document.code_version == __version__
        assert document.digest_ok

    def test_creates_parent_directories(self, path):
        assert not path.parent.exists()
        write_checkpoint(path, KIND_NETWORK, {})
        assert path.exists()

    def test_no_tmp_file_left_behind(self, path):
        write_checkpoint(path, KIND_NETWORK, {"x": 1})
        assert list(path.parent.iterdir()) == [path]

    def test_rejects_unknown_kind(self, path):
        with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
            write_checkpoint(path, "other", {})

    def test_expected_kind_mismatch(self, path):
        write_checkpoint(path, KIND_NETWORK, {})
        with pytest.raises(CheckpointError, match="expected a 'sweep-unit'"):
            read_checkpoint(path, expected_kind=KIND_SWEEP_UNIT)


class TestEnvelopeBytes:
    PAYLOAD = {"zeta": [1, {"b": 2.5, "a": None}], "alpha": {"y": 1, "x": 2}}

    def test_simulator_state_is_hashed_and_written_as_the_same_bytes(self, path):
        write_checkpoint(path, KIND_SWEEP_UNIT, self.PAYLOAD)
        raw = path.read_bytes()
        canonical = json.dumps(
            self.PAYLOAD, sort_keys=True, separators=(",", ":")
        ).encode("ascii")
        assert raw.endswith(b',"payload":' + canonical + b"}")
        document = read_checkpoint(path)
        assert document.sha256 == payload_digest(self.PAYLOAD)
        assert document.payload == self.PAYLOAD and document.digest_ok

    def test_campaign_state_keeps_its_key_order(self, path):
        # Experiment results are re-rendered from the dicts as parsed, so
        # a resumed campaign's artifact depends on the order surviving.
        write_checkpoint(path, KIND_CAMPAIGN, self.PAYLOAD)
        document = read_checkpoint(path)
        assert list(document.payload) == ["zeta", "alpha"]
        assert list(document.payload["alpha"]) == ["y", "x"]
        assert document.sha256 == payload_digest(self.PAYLOAD)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "nope.json")

    def test_not_json(self, path):
        path.parent.mkdir(parents=True)
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(path)

    def test_foreign_format(self, path):
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"format": "other"}), encoding="utf-8")
        with pytest.raises(CheckpointError, match=f"not a {FORMAT_NAME}"):
            read_checkpoint(path)

    def test_future_format_version(self, path):
        write_checkpoint(path, KIND_NETWORK, {})
        data = json.loads(path.read_text(encoding="utf-8"))
        data["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            read_checkpoint(path)

    def test_corrupted_payload_detected(self, path):
        write_checkpoint(path, KIND_NETWORK, {"value": 1})
        data = json.loads(path.read_text(encoding="utf-8"))
        data["payload"]["value"] = 2  # bit-rot / manual edit
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CheckpointError, match="digest mismatch"):
            read_checkpoint(path)

    def test_foreign_code_version_refused_for_restore(self, path):
        write_checkpoint(path, KIND_NETWORK, {})
        data = json.loads(path.read_text(encoding="utf-8"))
        data["code_version"] = "0.0.0-other"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CheckpointError, match="refusing to restore"):
            read_checkpoint(path)
        # ...but verification is version-agnostic by design.
        assert verify_checkpoint(path).code_version == "0.0.0-other"

    def test_digest_is_format_independent(self):
        # Same payload, different key order -> same digest.
        assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})


def _stamped(path, code_version):
    """Write a checkpoint claiming to come from ``code_version``."""
    write_checkpoint(path, KIND_NETWORK, {"value": 1})
    data = json.loads(path.read_text(encoding="utf-8"))
    data["code_version"] = code_version
    path.write_text(json.dumps(data), encoding="utf-8")


def _next_minor():
    major, minor, _patch = __version__.split(".")
    return f"{major}.{int(minor) + 1}.0"


class TestReleaseRange:
    """Restore takes an ``X.Y.Z`` release from 1.3.0 up to this build's."""

    @pytest.mark.parametrize("version", ["1.3.0", "1.4.0", "1.5.0", __version__])
    def test_releases_in_range_restore(self, path, version):
        _stamped(path, version)
        document = read_checkpoint(path)
        assert document.code_version == version
        assert document.payload == {"value": 1}

    def test_current_release_restores_after_a_version_bump(self, path, monkeypatch):
        write_checkpoint(path, KIND_NETWORK, {"value": 1})
        monkeypatch.setattr("repro.checkpoint.format.__version__", _next_minor())
        assert read_checkpoint(path).code_version == __version__

    @pytest.mark.parametrize(
        "version",
        ["1.0.0", "1.1.0", "1.2.0", _next_minor(), "1.6", "v1.6.0", "1.6.0rc1"],
    )
    def test_other_versions_refused_but_verified_and_inspected(self, path, version):
        _stamped(path, version)
        with pytest.raises(CheckpointError, match="refusing to restore"):
            read_checkpoint(path)
        assert verify_checkpoint(path).code_version == version
        assert inspect_checkpoint(path)["code_version"] == version


class TestInspect:
    def test_inspect_campaign(self, path):
        write_checkpoint(
            path,
            KIND_CAMPAIGN,
            {
                "scale": "tiny",
                "seed": 5,
                "completed": [{"experiment_id": "fig04"}],
            },
        )
        summary = inspect_checkpoint(path)
        assert summary["kind"] == KIND_CAMPAIGN
        assert summary["scale"] == "tiny"
        assert summary["digest_ok"] is True
        assert "fig04" in summary["completed_experiments"]

    def test_inspect_flags_corruption_without_raising(self, path):
        write_checkpoint(path, KIND_CAMPAIGN, {"scale": "tiny"})
        data = json.loads(path.read_text(encoding="utf-8"))
        data["payload"]["scale"] = "edited"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert inspect_checkpoint(path)["digest_ok"] is False

    def test_inspect_reports_rng_encoding_and_bytes_per_section(self, path):
        from repro.checkpoint import snapshot_network
        from repro.checkpoint.format import network_section_bytes
        from repro.sim.network import SimNetwork
        from repro.topology.generator import generate_topology
        from repro.topology.scenarios import scenario_params

        from tests.checkpoint.legacy import legacy_snapshot_network

        graph = generate_topology(scenario_params("baseline", 60), seed=11)
        network = SimNetwork(graph, seed=12)
        network.originate(graph.node_ids[-1], P0)
        network.run_to_convergence()
        payload = snapshot_network(network)
        draws = sum(node.rng_draws for node in network.nodes.values())

        write_checkpoint(path, KIND_NETWORK, payload)
        summary = inspect_checkpoint(path)
        assert summary["rng_encoding"] == f"draw counts ({draws:,} total)"
        sizes = network_section_bytes(payload)
        assert set(sizes) == {"rng", "ribs", "channels", "counters", "engine", "other"}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert sum(sizes.values()) == len(canonical)
        assert summary["network_bytes"] == f"{len(canonical):,}"
        assert summary["bytes_rng"].startswith(f"{sizes['rng']:,} (")
        assert sizes["rng"] < 0.2 * len(canonical)

        write_checkpoint(path, KIND_NETWORK, legacy_snapshot_network(network))
        legacy = inspect_checkpoint(path)
        assert legacy["rng_encoding"] == "full states"
        full = network_section_bytes(read_checkpoint(path).payload)
        assert full["rng"] > 0.5 * sum(full.values())
        assert full["ribs"] >= sizes["ribs"]  # plus the empty fields 1.5.0 wrote


class TestRetiredPartitionKind:
    """1.4.0 added a ``partition`` kind; it is no longer written or restored."""

    #: The shape 1.4.0-1.7.0 wrote: member snapshots plus runner state.
    PAYLOAD = {
        "num_parts": 2,
        "now": 1.25,
        "windows": 7,
        "border_events": 3,
        "pending": [[1.2, 1.201, 4, 9, 0, [4, 2]]],
        "parts": [{"nodes": [[1, {}]]}, {"nodes": [[2, {}], [3, {}]]}],
    }

    def _write_by_hand(self, path):
        envelope = {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "code_version": "1.6.0",
            "kind": "partition",
            "sha256": payload_digest(self.PAYLOAD),
            "payload": self.PAYLOAD,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(envelope, indent=1), encoding="utf-8")

    def test_write_refuses_the_kind(self, path):
        with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
            write_checkpoint(path, "partition", self.PAYLOAD)
        assert not path.exists()

    def test_an_intact_file_still_verifies_and_inspects(self, path):
        self._write_by_hand(path)
        document = verify_checkpoint(path)
        assert document.kind == "partition" and document.digest_ok
        summary = inspect_checkpoint(path)
        assert summary == {
            "kind": "partition",
            "format_version": FORMAT_VERSION,
            "code_version": "1.6.0",
            "sha256": payload_digest(self.PAYLOAD)[:16] + "…",
            "digest_ok": True,
        }
