"""Checkpoints written before ``legacy_path``, ``graph_opt`` and
``divergence_kernel_fallback`` were retired still load and resume.

Every checkpoint of those versions carries all three fields in its
``config.json``. ``graph_opt`` and ``divergence_kernel_fallback`` are
dropped silently at any value; ``legacy_path=True`` is dropped with a
``RuntimeWarning`` that names it. Any other unknown field is still an
error (``test_checkpoint_corruption.py``'s ``mystery_knob``).
"""

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.core import (
    OmniMatchTrainer,
    find_latest_checkpoint,
    load_checkpoint,
    read_training_checkpoint,
    save_checkpoint,
)

from .helpers import (
    assert_histories_identical,
    assert_states_identical,
    tiny_config,
    train_uninterrupted,
)

EPOCHS = 3

OLD_DEFAULTS = dict(legacy_path=False, graph_opt=True, divergence_kernel_fallback=True)


def add_fields(config_path, fields):
    """Write ``fields`` into a config.json; re-sign it in the manifest if any."""
    raw = json.loads(config_path.read_text())
    raw.update(fields)
    blob = json.dumps(raw, indent=2, sort_keys=True).encode()
    config_path.write_bytes(blob)
    manifest_path = config_path.parent / "MANIFEST.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["config.json"] = {
            "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob),
        }
        manifest_path.write_text(json.dumps(manifest))


@pytest.fixture(scope="module")
def baseline(world):
    return train_uninterrupted(world, tiny_config(), EPOCHS)


@pytest.fixture()
def old_run(world, tmp_path):
    """A 2-epoch checkpointed run whose newest config names the retired fields."""
    dataset, split = world
    OmniMatchTrainer(dataset, split, tiny_config()).fit(
        2, checkpoint_every=1, checkpoint_dir=tmp_path
    )
    return tmp_path, find_latest_checkpoint(tmp_path)


class TestTrainingCheckpoint:
    @pytest.mark.parametrize("fields", [
        OLD_DEFAULTS,
        dict(legacy_path=False, graph_opt=False, divergence_kernel_fallback=False),
    ], ids=["old-defaults", "graph-and-fallback-off"])
    def test_dropped_silently_and_resume_is_bit_identical(
        self, world, baseline, old_run, fields
    ):
        run_dir, checkpoint = old_run
        add_fields(checkpoint / "config.json", fields)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = read_training_checkpoint(checkpoint)
        assert loaded.config == tiny_config()
        dataset, split = world
        resumed = OmniMatchTrainer(dataset, split, tiny_config()).fit(
            EPOCHS, resume_from=run_dir
        )
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )
        assert_histories_identical(baseline.history, resumed.history)

    def test_legacy_path_true_warns_by_name(self, world, baseline, old_run):
        run_dir, checkpoint = old_run
        add_fields(checkpoint / "config.json", dict(OLD_DEFAULTS, legacy_path=True))
        with pytest.warns(RuntimeWarning, match="legacy_path"):
            loaded = read_training_checkpoint(checkpoint)
        assert loaded.config == tiny_config()
        dataset, split = world
        with pytest.warns(RuntimeWarning, match="legacy_path"):
            resumed = OmniMatchTrainer(dataset, split, tiny_config()).fit(
                EPOCHS, resume_from=run_dir
            )
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )


class TestModelCheckpoint:
    def test_load_checkpoint_drops_retired_fields(self, world, baseline, tmp_path):
        save_checkpoint(baseline, tmp_path)
        add_fields(tmp_path / "config.json", OLD_DEFAULTS)
        dataset, split = world
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = load_checkpoint(tmp_path, dataset, split)
        assert reloaded.model.config == tiny_config()
        for name, value in baseline.model.state_dict().items():
            assert np.array_equal(reloaded.model.state_dict()[name], value), name

    def test_load_checkpoint_warns_on_legacy_path(self, world, baseline, tmp_path):
        save_checkpoint(baseline, tmp_path)
        add_fields(tmp_path / "config.json", dict(OLD_DEFAULTS, legacy_path=True))
        dataset, split = world
        with pytest.warns(RuntimeWarning, match="legacy_path"):
            reloaded = load_checkpoint(tmp_path, dataset, split)
        assert reloaded.model.config == tiny_config()
