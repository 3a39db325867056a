"""ItemIndex: lazy blocked materialization, overflow items, encode-once."""

import numpy as np

from repro.serve import ItemIndex, encode_blocked, inference_mode


def make_index(trained, **kwargs):
    kwargs.setdefault("block", 8)
    return ItemIndex(trained.model, trained.store, **kwargs)


class TestMaterialization:
    def test_catalog_is_sorted_target_items(self, trained):
        index = make_index(trained)
        assert index.item_ids == sorted(trained.store.dataset.target.items)
        assert len(index) == len(index.item_ids)
        assert index.item_ids[0] in index

    def test_ensure_encodes_only_requested(self, trained):
        index = make_index(trained)
        subset = index.item_ids[:5]
        index.ensure(subset)
        assert index.encoded_count == 5
        assert index.items_encoded == 5

    def test_build_is_idempotent_encode_once(self, trained):
        index = make_index(trained)
        first = index.build().copy()
        again = index.build()
        np.testing.assert_array_equal(first, again)
        assert index.items_encoded == len(index)

    def test_lazy_rows_match_full_build(self, trained):
        lazy = make_index(trained)
        eager = make_index(trained)
        subset = lazy.item_ids[3:9]
        rows = lazy.rows(subset)
        full = eager.build()
        slots = [eager.slots[i] for i in subset]
        np.testing.assert_array_equal(rows, full[slots])

    def test_rows_align_with_duplicates(self, trained):
        index = make_index(trained)
        ids = [index.item_ids[2], index.item_ids[0], index.item_ids[2]]
        rows = index.rows(ids)
        np.testing.assert_array_equal(rows[0], rows[2])
        assert not np.array_equal(rows[0], rows[1])


class TestOverflow:
    def test_unknown_item_scores_like_its_empty_document(self, trained):
        index = make_index(trained)
        row = index.rows(["ITEM_THAT_DOES_NOT_EXIST"])[0]
        doc = trained.store.item_doc("ITEM_THAT_DOES_NOT_EXIST")
        with inference_mode(trained.model):
            expected = encode_blocked(
                lambda c: trained.model.item_extractor(c).data,
                np.stack([doc]),
                block=8,
            )[0]
        np.testing.assert_array_equal(row, expected)

    def test_overflow_encoded_once(self, trained):
        index = make_index(trained)
        index.rows(["ghost-item"])
        count = index.items_encoded
        index.rows(["ghost-item"])
        assert index.items_encoded == count

    def test_explicit_catalog_restricts_slots(self, trained):
        catalog = sorted(trained.store.dataset.target.items)[:4]
        index = make_index(trained, catalog=catalog)
        assert len(index) == 4
        assert catalog[-1] in index


class TestEmptyAndDtype:
    def test_empty_catalog_builds_explicit_typed_matrix(self, trained):
        # Regression: with zero slots and an empty overflow table the lazy
        # None used to leak; the build must hand back a concrete (0, d)
        # matrix in the configured compute dtype.
        index = make_index(trained, catalog=[])
        reprs = index.build()
        assert reprs.shape == (0, index.dim)
        assert reprs.dtype == np.dtype(trained.model.config.dtype)
        assert index.reprs.shape == (0, index.dim)

    def test_rows_on_fresh_index_use_configured_dtype(self, trained):
        index = make_index(trained, catalog=[])
        rows = index.rows([])
        assert rows.shape == (0, index.dim)
        assert rows.dtype == index.dtype

    def test_template_prefers_encoder_output(self, trained):
        index = make_index(trained)
        index.build()
        dim, dtype = index._row_template()
        assert (dim, dtype) == (index._reprs.shape[1], index._reprs.dtype)


class TestInvalidation:
    def test_invalidate_all_forces_reencode(self, trained):
        index = make_index(trained)
        first = index.build().copy()
        version = index.version
        assert index.invalidate() == len(index)
        assert index.version > version
        assert index.encoded_count == 0
        np.testing.assert_array_equal(index.build(), first)  # deterministic

    def test_invalidate_subset_and_overflow(self, trained):
        index = make_index(trained)
        index.build()
        index.rows(["ghost-item"])
        encoded = index.items_encoded
        targets = [index.item_ids[1], "ghost-item", "never-seen"]
        assert index.invalidate(targets) == 2  # never-seen drops nothing
        index.build()
        index.rows(["ghost-item"])
        assert index.items_encoded == encoded + 2

    def test_invalidate_nothing_keeps_version(self, trained):
        index = make_index(trained)
        index.build()
        version = index.version
        assert index.invalidate(["no-such-item"]) == 0
        assert index.version == version

    def test_version_tracks_encodes(self, trained):
        index = make_index(trained)
        start = index.version
        index.ensure(index.item_ids[:2])
        assert index.version > start
