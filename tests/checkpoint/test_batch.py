"""Checkpointed sweep-unit execution: equivalence and resume."""

import pytest

from repro.bgp.config import BGPConfig
from repro.checkpoint.batch import (
    execute_sweep_unit_checkpointed,
    unit_checkpoint_key,
    unit_checkpoint_path,
)
from repro.checkpoint.format import read_checkpoint
from repro.core.sweep import SweepUnit, execute_sweep_unit
from repro.obs import telemetry_session

FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)

#: Acceptance grid: three (scenario, n, config) combinations.
COMBOS = [
    pytest.param("baseline", 60, FAST, id="baseline-mrai"),
    pytest.param("baseline", 80, FAST.replace(mrai=0.0), id="baseline-nolimit"),
    pytest.param("dense-core", 70, FAST.replace(wrate=True), id="dense-core-wrate"),
]


def _unit(scenario, n, config, **overrides):
    fields = dict(
        scenario=scenario,
        n=n,
        num_origins=4,
        batch_index=0,
        num_batches=1,
        seed=17,
        config=config,
        scenario_kwargs=(),
    )
    fields.update(overrides)
    return SweepUnit(**fields)


def _assert_identical(a, b):
    """Byte-identity over everything but wall-clock time."""
    assert a.raw.events == b.raw.events
    assert a.raw.updates == b.raw.updates
    assert a.raw.active == b.raw.active
    assert a.raw.total_updates == b.raw.total_updates
    assert a.origins == b.origins
    assert a.down_totals == b.down_totals
    assert a.up_totals == b.up_totals
    assert a.down_convergence == b.down_convergence
    assert a.up_convergence == b.up_convergence
    assert a.measured_messages == b.measured_messages


class Interrupt(Exception):
    """Stand-in for a crash between two measured events."""


def _interrupt_after(monkeypatch, events):
    """Make the batch loop die once it has measured ``events`` events."""
    import repro.checkpoint.batch as batch_module

    original = batch_module.run_c_event_batch

    def dying(*args, **kwargs):
        inner = kwargs.get("after_event")

        def hook(cursor):
            if inner is not None:
                inner(cursor)
            if cursor.next_index == events:
                raise Interrupt

        kwargs["after_event"] = hook
        return original(*args, **kwargs)

    monkeypatch.setattr(batch_module, "run_c_event_batch", dying)


class TestEquivalence:
    @pytest.mark.parametrize("scenario, n, config", COMBOS)
    def test_uninterrupted_matches_plain(self, tmp_path, scenario, n, config):
        unit = _unit(scenario, n, config)
        plain = execute_sweep_unit(unit)
        checkpointed = execute_sweep_unit_checkpointed(unit, tmp_path)
        _assert_identical(plain, checkpointed)

    @pytest.mark.parametrize("scenario, n, config", COMBOS)
    def test_interrupted_resume_matches_plain(
        self, tmp_path, monkeypatch, scenario, n, config
    ):
        unit = _unit(scenario, n, config)
        plain = execute_sweep_unit(unit)

        _interrupt_after(monkeypatch, events=2)
        with pytest.raises(Interrupt):
            execute_sweep_unit_checkpointed(unit, tmp_path)
        monkeypatch.undo()

        path = unit_checkpoint_path(tmp_path, unit)
        assert path.exists(), "interrupt should leave a checkpoint behind"
        resumed = execute_sweep_unit_checkpointed(unit, tmp_path)
        _assert_identical(plain, resumed)

    def test_checkpoint_removed_on_success(self, tmp_path):
        unit = _unit("baseline", 60, FAST)
        execute_sweep_unit_checkpointed(unit, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestResumeRobustness:
    def test_corrupt_checkpoint_recomputed_from_scratch(self, tmp_path):
        unit = _unit("baseline", 60, FAST)
        path = unit_checkpoint_path(tmp_path, unit)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{broken", encoding="utf-8")
        result = execute_sweep_unit_checkpointed(unit, tmp_path)
        _assert_identical(execute_sweep_unit(unit), result)

    def test_every_event_but_the_last_is_checkpointed(self, tmp_path, monkeypatch):
        unit = _unit("baseline", 60, FAST)
        written = []
        import repro.checkpoint.batch as batch_module

        original = batch_module.write_checkpoint
        monkeypatch.setattr(
            batch_module,
            "write_checkpoint",
            lambda path, kind, payload: (
                written.append(payload["next_index"]),
                original(path, kind, payload),
            ),
        )
        execute_sweep_unit_checkpointed(unit, tmp_path)
        # 4 origins: after events 1, 2 and 3; nothing after the last.
        assert written == [1, 2, 3]

    def test_kill_after_last_event_resumes_from_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        unit = _unit("baseline", 60, FAST)
        _interrupt_after(monkeypatch, events=4)  # dies before returning
        with pytest.raises(Interrupt):
            execute_sweep_unit_checkpointed(unit, tmp_path)
        monkeypatch.undo()

        path = unit_checkpoint_path(tmp_path, unit)
        assert read_checkpoint(path).payload["next_index"] == 3
        resumed = execute_sweep_unit_checkpointed(unit, tmp_path)
        _assert_identical(execute_sweep_unit(unit), resumed)
        assert list(tmp_path.iterdir()) == []

    def test_discarded_checkpoint_is_reported_and_counted(self, tmp_path, capsys):
        unit = _unit("baseline", 60, FAST)
        path = unit_checkpoint_path(tmp_path, unit)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{broken", encoding="utf-8")
        with telemetry_session() as telemetry:
            execute_sweep_unit_checkpointed(unit, tmp_path)
        assert telemetry.counters["checkpoint.discarded"] == 1
        assert "checkpoint.resumes" not in telemetry.counters
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert path.name in lines[0] and "cannot read checkpoint" in lines[0]

    def test_telemetry_accounts_for_writes_and_resumes(self, tmp_path, monkeypatch):
        unit = _unit("baseline", 60, FAST)
        _interrupt_after(monkeypatch, events=2)
        with telemetry_session() as first, pytest.raises(Interrupt):
            execute_sweep_unit_checkpointed(unit, tmp_path)
        monkeypatch.undo()
        size = unit_checkpoint_path(tmp_path, unit).stat().st_size
        assert first.counters["checkpoint.writes"] == 2
        assert first.counters["checkpoint.bytes"] >= size  # two files this size
        assert first.phase_seconds["checkpoint"] > 0.0

        with telemetry_session() as second:
            execute_sweep_unit_checkpointed(unit, tmp_path)
        assert second.counters["checkpoint.resumes"] == 1
        assert second.counters["checkpoint.writes"] == 1  # event 3 of 4 only
        assert "checkpoint.discarded" not in second.counters

    def test_topology_generation_is_a_phase_as_in_the_plain_runner(self, tmp_path):
        unit = _unit("baseline", 60, FAST)
        with telemetry_session() as plain:
            execute_sweep_unit(unit)
        with telemetry_session() as checkpointed:
            execute_sweep_unit_checkpointed(unit, tmp_path)
        assert plain.phase_seconds["topology-gen"] > 0.0
        assert checkpointed.phase_seconds["topology-gen"] > 0.0


class TestUnitKeys:
    def test_key_distinguishes_units(self):
        base = _unit("baseline", 60, FAST)
        assert unit_checkpoint_key(base) == unit_checkpoint_key(base)
        for other in (
            _unit("dense-core", 60, FAST),
            _unit("baseline", 80, FAST),
            _unit("baseline", 60, FAST, seed=18),
            _unit("baseline", 60, FAST.replace(mrai=5.0)),
            _unit("baseline", 60, FAST, batch_index=1, num_batches=2),
        ):
            assert unit_checkpoint_key(other) != unit_checkpoint_key(base)
