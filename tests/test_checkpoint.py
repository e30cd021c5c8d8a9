"""Durable checkpoint/resume: crash-safety and bit-identical resumption.

Covers the :mod:`repro.checkpoint` contract end to end:

* crash mid-training (exception and real SIGKILL) → resume produces a
  bit-identical ``TrainResult.digest()`` versus the uninterrupted run,
  across backends and every sync mode;
* mid-epoch snapshots round-trip exactly (worker models, sampler RNG
  streams, CommMeter ledgers, ParameterServer state, evaluator RNG);
* torn writes are detected and rolled back to the previous durable
  snapshot — and the rolled-back resume is *still* bit-identical;
* every failure mode raises its typed error with an actionable
  message;
* lint rule R110 keeps raw writes out of the persistence paths.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro
from repro import Session, SessionStateError
from repro.checkpoint import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    load_checkpoint,
    rebuild_trainer,
)
from repro.checkpoint.state import capture_trainer_state
from repro.checkpoint.store import CheckpointStore
from repro.core.frameworks import FRAMEWORKS, build_trainer
from repro.distributed import TrainConfig
from repro.distributed import trainer as trainer_mod
from repro.graph import split_edges, synthetic_lp_graph
from repro.lint import lint_source

SYNC_MODES = ("barrier", "ps", "async", "local_sgd")
SEED = 5
EPOCHS = 3


@pytest.fixture(scope="module")
def split():
    """One tiny deterministic link-prediction workload for the module."""
    rng = np.random.default_rng(SEED)
    graph = synthetic_lp_graph(num_nodes=150, target_edges=520,
                               feature_dim=8, num_communities=4, rng=rng)
    return split_edges(graph, rng=rng)


def _config(sync: str = "barrier", backend: str = "serial",
            **overrides) -> TrainConfig:
    defaults = dict(hidden_dim=8, num_layers=2, fanouts=(4, 4),
                    batch_size=64, epochs=EPOCHS, seed=SEED, sync=sync,
                    backend=backend, eval_every=EPOCHS, observe=False)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def _trainer(split, config):
    return build_trainer(FRAMEWORKS["splpg"], split, 2, config,
                         rng=np.random.default_rng(SEED))


class _PlannedCrash(RuntimeError):
    """Raised by a round hook to abort the coordinator loop."""


def _install_crash(epoch: int, rnd: int):
    """Arm a round hook that crashes at exactly ``(epoch, rnd)``."""

    def hook(_trainer, e: int, r: int) -> None:
        if e == epoch and r == rnd:
            raise _PlannedCrash(f"planned crash at ({e}, {r})")

    return trainer_mod.set_round_hook(hook)


def _crash_then_resume(split, config, ckpt_dir, crash_at=(1, 1)):
    """Train-with-crash, then resume from disk; returns the result."""
    previous = _install_crash(*crash_at)
    try:
        with pytest.raises(_PlannedCrash):
            _trainer(split, config).train()
    finally:
        trainer_mod.set_round_hook(previous)
    meta, state = load_checkpoint(ckpt_dir)
    assert meta["epoch"] == crash_at[0] - 1
    return rebuild_trainer(meta, state, split).train()


class TestCrashResumeBitIdentity:
    @pytest.mark.parametrize("sync", SYNC_MODES)
    def test_resume_digest_matches_uninterrupted(self, split, sync,
                                                 tmp_path):
        """Crash at (1, 1) on every backend; one digest everywhere.

        The uninterrupted baseline is computed once per sync mode, so
        the assertion gates crash-resume bit-identity and
        cross-backend bit-identity at the same time.
        """
        baseline = _trainer(split, _config(sync)).train().digest()
        for backend in ("serial", "thread", "process"):
            ckpt_dir = str(tmp_path / backend)
            config = _config(sync, backend, checkpoint_dir=ckpt_dir,
                             checkpoint_every=1)
            resumed = _crash_then_resume(split, config, ckpt_dir)
            assert resumed.digest() == baseline, (
                f"{backend}/{sync}: resumed digest diverged from the "
                "uninterrupted run")

    def test_sigkill_resume_bit_identity(self):
        """A real SIGKILL of a subprocess coordinator, not an exception.

        ``run_kill_driver`` forks a coordinator that kills its own
        process group mid-epoch, asserts death-by-signal, resumes in a
        second coordinator and compares digests; it raises on any
        violation.
        """
        from repro.faults.killdriver import run_kill_driver

        outcomes = run_kill_driver(backends=("serial",),
                                   syncs=("barrier", "ps"), workers=2,
                                   epochs=3, seed=31, verbose=False)
        assert [o.ok for o in outcomes] == [True, True]
        assert all(o.resumed_from is not None for o in outcomes)


class TestWorkerPayloadsMatchSerial:
    @pytest.mark.parametrize("crash", [False, True],
                             ids=["uninterrupted", "crash-resume"])
    def test_process_worker_payloads_equal_serial(self, split, tmp_path,
                                                  crash):
        """Process children serialize their own workers; each payload
        (model, optimizer, RNG and the ``(epoch, round)`` position) is
        byte-equal to the serial backend's, resumed run included."""
        payloads = {}
        for backend in ("serial", "process"):
            ckpt_dir = str(tmp_path / backend)
            config = _config("barrier", backend, checkpoint_dir=ckpt_dir,
                             checkpoint_every=1)
            if crash:
                _crash_then_resume(split, config, ckpt_dir)
            else:
                _trainer(split, config).train()
            _, state = load_checkpoint(ckpt_dir)
            payloads[backend] = {key: value.tobytes()
                                 for key, value in state.items()
                                 if key.startswith("worker.")}
        assert len(payloads["serial"]) == 2
        assert payloads["process"] == payloads["serial"]


class TestMidEpochRoundTrip:
    @pytest.mark.parametrize("sync", SYNC_MODES)
    def test_mid_epoch_snapshot_round_trips(self, split, sync, tmp_path):
        """Snapshot at round 1 of epoch 1; rebuild must match exactly."""
        ckpt_dir = str(tmp_path / "mid")
        store = CheckpointStore(ckpt_dir)
        ref: dict = {}

        def hook(trainer, epoch: int, rnd: int) -> None:
            if epoch != 1 or rnd != 1 or ref:
                return
            state = capture_trainer_state(
                trainer, epoch=epoch, rnd=rnd,
                faults=trainer.fault_controller)
            store.write(state, epoch=epoch, rnd=rnd)
            ref["models"] = [
                {k: v.copy() for k, v in w.model.state_dict().items()}
                for w in trainer.workers]
            ref["rngs"] = [w.sampler.rng.bit_generator.state
                           for w in trainer.workers]
            ref["meters"] = [
                [r.to_dict() for r in m.epochs] + [m.current.to_dict()]
                for m in trainer.meters]
            ref["eval_rng"] = trainer.evaluator.rng.bit_generator.state
            if trainer.parameter_server is not None:
                ref["server_version"] = trainer.parameter_server.version

        previous = trainer_mod.set_round_hook(hook)
        try:
            _trainer(split, _config(sync)).train()
        finally:
            trainer_mod.set_round_hook(previous)
        assert ref, "the snapshot hook never fired"

        meta, state = load_checkpoint(ckpt_dir)
        assert (meta["epoch"], meta["round"]) == (1, 1)
        rebuilt = rebuild_trainer(meta, state, split)
        for i, worker in enumerate(rebuilt.workers):
            got = worker.model.state_dict()
            for name, value in ref["models"][i].items():
                np.testing.assert_array_equal(got[name], value)
            assert worker.sampler.rng.bit_generator.state == \
                ref["rngs"][i]
        assert [[r.to_dict() for r in m.epochs] + [m.current.to_dict()]
                for m in rebuilt.meters] == ref["meters"]
        assert rebuilt.evaluator.rng.bit_generator.state == \
            ref["eval_rng"]
        if sync == "ps":
            assert rebuilt.parameter_server.version == \
                ref["server_version"]


class TestTornWrites:
    def _snapshot_files(self, ckpt_dir):
        with open(os.path.join(ckpt_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        return [os.path.join(ckpt_dir, e["file"])
                for e in manifest["entries"]]

    def test_torn_newest_rolls_back_and_stays_bit_identical(
            self, split, tmp_path):
        """Truncate the newest snapshot: resume from the previous one."""
        baseline = _trainer(split, _config()).train().digest()
        ckpt_dir = str(tmp_path / "torn")
        _trainer(split, _config(checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        files = self._snapshot_files(ckpt_dir)
        assert len(files) == 2  # keep=2 of the EPOCHS snapshots
        torn = open(files[-1], "rb").read()[:100]
        with open(files[-1], "wb") as fh:
            fh.write(torn)

        meta, state = load_checkpoint(ckpt_dir)
        assert meta["rolled_back"] == 1
        assert meta["epoch"] == EPOCHS - 2
        resumed = rebuild_trainer(meta, state, split).train()
        assert resumed.digest() == baseline

    def test_every_snapshot_corrupt_raises(self, split, tmp_path):
        ckpt_dir = str(tmp_path / "corrupt")
        _trainer(split, _config(checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        for path in self._snapshot_files(ckpt_dir):
            with open(path, "wb") as fh:
                fh.write(b"not a snapshot")
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(ckpt_dir)


class TestTypedErrors:
    def test_nonexistent_dir(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError, match="does not exist"):
            load_checkpoint(str(tmp_path / "never-written"))

    def test_foreign_dir(self, tmp_path):
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "data.txt").write_text("hello")
        with pytest.raises(CheckpointNotFoundError,
                           match="not a repro checkpoint directory"):
            load_checkpoint(str(foreign))

    def test_session_resume_propagates_not_found(self, split, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            Session(split).resume(str(tmp_path / "missing"))

    def test_wrong_split_is_rejected(self, split, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        _trainer(split, _config(checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        rng = np.random.default_rng(SEED + 1)
        other = split_edges(synthetic_lp_graph(
            num_nodes=150, target_edges=520, feature_dim=8,
            num_communities=4, rng=rng), rng=rng)
        meta, state = load_checkpoint(ckpt_dir)
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            rebuild_trainer(meta, state, other)

    def test_wrong_framework_or_workers_rejected(self, split, tmp_path):
        ckpt_dir = str(tmp_path / "ck")
        _trainer(split, _config(checkpoint_dir=ckpt_dir,
                                checkpoint_every=1)).train()
        meta, state = load_checkpoint(ckpt_dir)
        with pytest.raises(CheckpointMismatchError, match="framework"):
            rebuild_trainer(meta, state, split, framework="psgd_pa")
        with pytest.raises(CheckpointMismatchError, match="workers"):
            rebuild_trainer(meta, state, split, workers=5)

    def test_run_resume_rejects_overrides(self, split, tmp_path):
        with pytest.raises(ValueError, match="not allowed"):
            repro.run(split=split, resume=str(tmp_path / "any"),
                      epochs=9)

    def test_export_before_train_raises(self, split):
        with pytest.raises(SessionStateError, match="train"):
            Session(split).export()

    def test_score_before_train_raises(self, split):
        with pytest.raises(SessionStateError, match="train"):
            Session(split).score(np.array([[0, 1]]))

    def test_checkpoint_every_validated(self, split):
        with pytest.raises(ValueError, match="checkpoint_every"):
            _config(checkpoint_dir="x", checkpoint_every=0)
        with pytest.raises(ValueError, match="every"):
            Session(split).checkpoint("x", every=0)


class TestSessionResume:
    def test_session_checkpoint_resume_and_export(self, split, tmp_path):
        """The whole front-door flow: checkpoint, resume, export."""
        ckpt_dir = str(tmp_path / "sess")
        trained = (Session(split).partition(2)
                   .configure(hidden_dim=8, num_layers=2, fanouts=(4, 4),
                              batch_size=64, epochs=EPOCHS, seed=SEED,
                              eval_every=EPOCHS, observe=False)
                   .checkpoint(ckpt_dir, every=1))
        result = trained.train()

        resumed = Session(split).resume(ckpt_dir)
        assert resumed.digest() == result.digest()

        restored = Session(split).restore(ckpt_dir)
        assert restored.export().checksum() == \
            trained.export().checksum()

    def test_run_resume_continues(self, split, tmp_path):
        ckpt_dir = str(tmp_path / "run")
        config_kwargs = dict(hidden_dim=8, num_layers=2, fanouts=(4, 4),
                             batch_size=64, epochs=EPOCHS, seed=SEED,
                             eval_every=EPOCHS, observe=False)
        baseline = repro.run(split=split, workers=2,
                             **config_kwargs)
        repro.run(split=split, workers=2, checkpoint_dir=ckpt_dir,
                  checkpoint_every=1, **config_kwargs)
        resumed = repro.run(split=split, resume=ckpt_dir)
        assert resumed.digest() == baseline.digest()


class TestR110PersistenceLint:
    MODPATH = "repro/checkpoint/newmod.py"

    def _r110(self, code, modpath=MODPATH):
        return [f for f in lint_source(code, modpath)
                if f.rule_id == "R110"]

    def test_flags_write_mode_open(self):
        code = 'fh = open(p, "w")\n'
        assert len(self._r110(code)) == 1
        assert "atomic" in self._r110(code)[0].message

    def test_flags_numpy_save_and_raw_state_dict(self):
        code = ("np.save(p, arr)\n"
                "np.savez_compressed(p, **payload)\n"
                "save_state_dict(payload, p)\n"
                "serialize.save_state_dict(payload, p)\n")
        assert len(self._r110(code)) == 4

    def test_read_open_and_atomic_helpers_pass(self):
        code = ('fh = open(p, "r")\n'
                "fh2 = open(p)\n"
                "atomic_save_state_dict(payload, p)\n"
                "atomic_write_json(p, doc)\n")
        assert self._r110(code) == []

    def test_io_module_and_outside_paths_exempt(self):
        code = 'fh = open(p, "wb")\n'
        assert self._r110(code, "repro/checkpoint/io.py") == []
        assert self._r110(code, "repro/graph/io.py") == []
        assert len(self._r110(code, "repro/serve/artifact.py")) == 1
