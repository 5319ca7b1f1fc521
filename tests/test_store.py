"""The columnar dataset store: atomic groups, lazy reads, streaming."""

import numpy as np
import pytest

from repro.store import ColumnStore, StoreError


@pytest.fixture()
def store(tmp_path):
    return ColumnStore(tmp_path / "store")


def demo_columns(rows=5):
    return {
        "values": np.arange(rows, dtype=float),
        "flags": np.arange(rows) % 2 == 0,
        "poses": np.arange(rows * 6, dtype=float).reshape(rows, 3, 2),
    }


class TestWriteRead:
    def test_roundtrip_bytes_and_attrs(self, store):
        columns = demo_columns()
        group = store.write_group("traces", columns,
                                  attrs={"seed": 7, "note": "demo"})
        assert group.rows == 5
        assert group.column_names == sorted(columns)
        for name, array in columns.items():
            assert np.array_equal(group[name], array)
        assert group.attrs == {"seed": 7, "note": "demo"}

    def test_reads_are_lazy_memmaps(self, store):
        store.write_group("traces", demo_columns())
        group = store.read_group("traces")
        assert isinstance(group["values"], np.memmap)
        # A full in-RAM copy is available on request, and mutable.
        copy = group.load("values")
        copy[0] = 99.0
        assert group["values"][0] == 0.0

    def test_overwrite_replaces_group(self, store):
        store.write_group("g", {"a": np.arange(3)})
        store.write_group("g", {"b": np.arange(4)})
        group = store.read_group("g")
        assert group.column_names == ["b"]
        assert group.rows == 4

    def test_missing_group_and_column(self, store):
        with pytest.raises(KeyError):
            store.read_group("nope")
        store.write_group("g", {"a": np.arange(3)})
        with pytest.raises(KeyError):
            store.read_group("g")["b"]

    def test_catalogue(self, store):
        assert store.groups() == []
        store.write_group("b", {"x": np.arange(2)})
        store.write_group("a", {"x": np.arange(2)})
        assert store.groups() == ["a", "b"]
        assert store.has_group("a")
        store.delete_group("a")
        assert not store.has_group("a")
        assert store.groups() == ["b"]


class TestValidation:
    def test_rejects_bad_names(self, store):
        with pytest.raises(ValueError):
            store.write_group("../escape", {"a": np.arange(2)})
        with pytest.raises(ValueError):
            store.write_group("g", {"dotted.name": np.arange(2)})
        with pytest.raises(ValueError):
            store.read_group(".hidden")

    def test_rejects_row_mismatch(self, store):
        with pytest.raises(ValueError):
            store.write_group("g", {"a": np.arange(3),
                                    "b": np.arange(4)})

    def test_rejects_empty_group(self, store):
        with pytest.raises(ValueError):
            store.write_group("g", {})

    def test_rejects_scalar_columns(self, store):
        with pytest.raises(ValueError):
            store.write_group("g", {"a": np.float64(3.0)})


class TestGroupWriter:
    def test_streaming_write_publishes_atomically(self, store):
        writer = store.open_writer(
            "sweep", {"vals": ((2,), np.float64)}, rows=4,
            attrs={"kind": "demo"})
        for row in range(4):
            writer.columns["vals"][row] = [row, row + 0.5]
        # Invisible until finalize: a crashed run leaves no half-group.
        assert not store.has_group("sweep")
        group = writer.finalize(extra_attrs={"done": True})
        assert store.has_group("sweep")
        assert np.array_equal(group["vals"],
                              [[0, 0.5], [1, 1.5], [2, 2.5], [3, 3.5]])
        assert group.attrs == {"kind": "demo", "done": True}

    def test_finalize_twice_rejected(self, store):
        writer = store.open_writer("g", {"a": ((), np.int64)}, rows=1)
        writer.columns["a"][0] = 1
        writer.finalize()
        with pytest.raises(RuntimeError):
            writer.finalize()

    def test_abort_drops_everything(self, store):
        writer = store.open_writer("g", {"a": ((), np.int64)}, rows=1)
        writer.abort()
        writer.abort()  # idempotent
        assert not store.has_group("g")
        assert store.groups() == []


class TestInterchange:
    def test_npz_roundtrip(self, store, tmp_path):
        columns = demo_columns()
        store.write_group("traces", columns, attrs={"seed": 3})
        archive = store.export_npz("traces", tmp_path / "traces.npz")
        other = ColumnStore(tmp_path / "other")
        group = other.import_npz("traces", archive)
        for name, array in columns.items():
            assert np.array_equal(group[name], array)
        assert group.attrs == {"seed": 3}


class TestCorruptionSurfacesStoreError:
    """Torn or mangled on-disk state must raise StoreError, never
    numpy garbage or a bare ValueError (satellite of the crash-safe
    sweep work: resume verification leans on these)."""

    def test_truncated_column_file(self, store):
        store.write_group("traces", demo_columns())
        column = store.root / "traces" / "values.npy"
        column.write_bytes(column.read_bytes()[:12])
        group = store.read_group("traces")
        with pytest.raises(StoreError, match="truncated or corrupt"):
            group["values"]

    def test_missing_column_file(self, store):
        store.write_group("traces", demo_columns())
        (store.root / "traces" / "flags.npy").unlink()
        group = store.read_group("traces")
        with pytest.raises(StoreError, match="missing"):
            group["flags"]

    def test_wrong_shape_on_disk(self, store):
        store.write_group("traces", demo_columns())
        # Swap in a valid .npy with the wrong shape: a torn write that
        # happens to parse must still be rejected against the meta.
        np.save(store.root / "traces" / "values.npy", np.zeros(2))
        group = store.read_group("traces")
        with pytest.raises(StoreError, match="torn or mismatched"):
            group["values"]

    def test_mangled_meta_json(self, store):
        store.write_group("traces", demo_columns())
        # Scribble over the middle (same length): valid UTF-8, not JSON.
        meta = store.root / "traces" / "meta.json"
        data = bytearray(meta.read_bytes())
        middle = len(data) // 2
        data[middle:middle + 8] = b"~" * len(data[middle:middle + 8])
        meta.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="meta.json"):
            store.read_group("traces")

    def test_meta_with_wrong_schema(self, store):
        store.write_group("traces", demo_columns())
        (store.root / "traces" / "meta.json").write_text(
            '{"columns": 7}')
        with pytest.raises(StoreError):
            store.read_group("traces")

    def test_absent_group_still_keyerror(self, store):
        # Genuinely-missing groups are a programming error, not
        # corruption; the exception type must not change.
        with pytest.raises(KeyError):
            store.read_group("never-written")

    def test_unpublishable_group_raises_store_error(self, store):
        # A stray *file* squatting where the group directory belongs
        # makes the atomic publish fail partway through; the OSError
        # must surface as StoreError (the type resume logic catches)
        # and the staging dir must not leak.
        (store.root / "traces").write_bytes(b"not a directory")
        with pytest.raises(StoreError, match="could not publish"):
            store.write_group("traces", demo_columns())
        assert not (store.root / ".traces.tmp").exists()

    def test_bad_column_name_still_valueerror(self, store):
        # Name validation happens before any disk work, so the
        # pre-publish contract (plain ValueError) is unchanged.
        with pytest.raises(ValueError):
            store.write_group("traces", {"bad name": demo_columns()["values"]})


class TestVacuum:
    def test_reaps_orphaned_tmp_dirs(self, store):
        store.write_group("keep", demo_columns())
        orphan = store.root / ".crashed.tmp"
        orphan.mkdir()
        (orphan / "values.npy").write_bytes(b"partial")
        removed = store.vacuum()
        assert removed == [".crashed.tmp"]
        assert not orphan.exists()
        assert store.has_group("keep")

    def test_noop_on_clean_store(self, store):
        store.write_group("keep", demo_columns())
        assert store.vacuum() == []
