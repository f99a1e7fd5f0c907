import dataclasses
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from conftest import K22
from patex import cache as cache_module
from patex.cache import CacheStore
from patex.errors import CacheError
from patex.matrix import ZeroOneMatrix, canonical_key
from patex.search import ExtremalRecord, brute_force_ex, deletion_lower_bound


def make_record(n, value, status, witness):
    return ExtremalRecord(
        pattern_key=canonical_key(K22),
        n=n,
        value=value,
        status=status,
        witness=witness,
        provenance={"solver": "test"},
    )


def free_witness(n, weight):
    # one 1 per row from the left, at most one per column: K22-free
    masks = [1 << i if i < weight else 0 for i in range(n)]
    return ZeroOneMatrix(masks, n)


class TestPrecedence:
    def test_exact_beats_lower(self, tmp_path):
        cache = CacheStore(tmp_path)
        exact = brute_force_ex(3, K22)
        cache.put(K22, exact)
        cache.put(K22, make_record(3, 3, "lowerBound", free_witness(3, 3)))
        got = cache.get(K22, 3)
        assert got.status == "exact" and got.value == 6

    def test_larger_lower_bound_wins(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, make_record(4, 3, "lowerBound", free_witness(4, 3)))
        cache.put(K22, make_record(4, 4, "lowerBound", free_witness(4, 4)))
        assert cache.get(K22, 4).value == 4
        cache.put(K22, make_record(4, 2, "lowerBound", free_witness(4, 2)))
        assert cache.get(K22, 4).value == 4  # no downgrade

    def test_exact_replaces_a_stored_lower_bound(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, make_record(3, 3, "lowerBound", free_witness(3, 3)))
        exact = brute_force_ex(3, K22)
        assert cache.put(K22, exact) is exact
        got = CacheStore(tmp_path).get(K22, 3)
        assert got.to_json_dict() == exact.to_json_dict()

    def test_disagreeing_exact_records_raise(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, brute_force_ex(3, K22))
        # K22-free with weight 5, so only the claim "exact" is wrong
        short = ZeroOneMatrix.parse("110\n101\n010")
        with pytest.raises(CacheError, match=r"two exact records disagree \(6 vs 5\)"):
            cache.put(K22, make_record(3, 5, "exact", short))

    def test_empty_cache(self, tmp_path):
        assert CacheStore(tmp_path).get(K22, 3) is None


class TestNoRewrite:
    def test_repeated_put_leaves_file_alone(self, tmp_path):
        cache = CacheStore(tmp_path)
        exact = brute_force_ex(3, K22)
        cache.put(K22, exact)
        path = next(tmp_path.glob("*.json"))
        before = path.stat()
        assert cache.put(K22, exact).to_json_dict() == exact.to_json_dict()
        cache.put(K22, make_record(3, 3, "lowerBound", free_witness(3, 3)))
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


class TestFileFormat:
    def test_indented_file_loads_and_a_changing_put_writes_it_compact(self, tmp_path):
        cache = CacheStore(tmp_path)
        exact = brute_force_ex(3, K22)
        lower = make_record(4, 3, "lowerBound", free_witness(4, 3))
        cache.put(K22, exact)
        cache.put(K22, lower)
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_bytes())
        path.write_text(json.dumps(doc, sort_keys=True, indent=1))  # the earlier writer's form

        older = CacheStore(tmp_path)
        assert older.get(K22, 3).to_json_dict() == exact.to_json_dict()
        assert older.get(K22, 4).to_json_dict() == lower.to_json_dict()

        before = path.stat()
        older.put(K22, make_record(4, 2, "lowerBound", free_witness(4, 2)))
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert b"\n" in path.read_bytes()

        larger = make_record(4, 4, "lowerBound", free_witness(4, 4))
        older.put(K22, larger)
        data = path.read_bytes()
        assert b"\n" not in data and b", " not in data and b": " not in data
        doc["records"][1] = larger.to_json_dict()
        assert json.loads(data) == doc
        assert CacheStore(tmp_path).get(K22, 4).to_json_dict() == larger.to_json_dict()


class TestRoundTrip:
    def test_bit_identical_reread(self, tmp_path):
        cache = CacheStore(tmp_path)
        rec = deletion_lower_bound(8, K22, 5)
        cache.put(K22, rec)
        got = cache.get(K22, 8)
        assert got.witness == rec.witness
        assert got.to_json_dict() == rec.to_json_dict()

    def test_distinct_patterns_distinct_files(self, tmp_path):
        cache = CacheStore(tmp_path)
        other = ZeroOneMatrix.ones(1, 2)
        cache.put(K22, brute_force_ex(2, K22))
        cache.put(other, brute_force_ex(2, other))
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestCorruption:
    def test_unreadable_file(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, brute_force_ex(2, K22))
        path = next(tmp_path.glob("*.json"))
        path.write_text("{not json")
        with pytest.raises(CacheError, match="rebuild"):
            cache.get(K22, 2)

    def test_witness_containing_pattern_rejected(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, brute_force_ex(2, K22))
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        doc["records"][0]["witness"]["data"] = ["11", "11"]
        doc["records"][0]["value"] = 4
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheError, match="contains the pattern"):
            cache.get(K22, 2)

    # Two diagonal blocks, rows 1-2 x columns 1-2 and rows 3-5 x columns
    # 3-5. The first holds a copy of K22, so the host's graph has a component
    # large enough and the witness check walks.
    BLOCK_WITH_K22 = ZeroOneMatrix.parse("11000\n11000\n00100\n00010\n00001")

    def test_block_witness_with_a_copy_rejected_on_put(self, tmp_path):
        with pytest.raises(CacheError, match="contains the pattern"):
            CacheStore(tmp_path).put(K22, make_record(5, 7, "lowerBound", self.BLOCK_WITH_K22))

    def test_block_witness_with_a_copy_rejected_on_get(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, make_record(5, 5, "lowerBound", free_witness(5, 5)))
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        doc["records"][0] = make_record(5, 7, "lowerBound", self.BLOCK_WITH_K22).to_json_dict()
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheError, match="contains the pattern"):
            cache.get(K22, 5)

    @pytest.mark.parametrize(
        "witness",
        [
            # anti-diagonal blocks of one row: every component is too small
            "000011\n001100\n110000\n000000\n000000\n000000",
            # diagonal 2x2 blocks 11/01: components fit K22's size, the walk finds no copy
            "110000\n010000\n001100\n000100\n000011\n000001",
        ],
    )
    def test_pattern_free_block_witness_accepted(self, tmp_path, witness):
        cache = CacheStore(tmp_path)
        w = ZeroOneMatrix.parse(witness)
        cache.put(K22, make_record(6, w.weight, "lowerBound", w))
        assert CacheStore(tmp_path).get(K22, 6).witness == w

    def test_weight_mismatch_rejected(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, brute_force_ex(2, K22))
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        doc["records"][0]["value"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheError, match="weight"):
            cache.get(K22, 2)


    def test_file_for_another_pattern(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, brute_force_ex(2, K22))
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_bytes())
        doc["patternKey"] = canonical_key(ZeroOneMatrix.ones(1, 2))
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheError, match="holds a different pattern"):
            cache.get(K22, 2)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"pattern_key": "2x2-other"}, r"pattern key mismatch; delete"),
            ({"witness": ZeroOneMatrix([1, 2], 2)}, r"witness is 2x2, expected 3x3; delete"),
            ({"status": "upperBound"}, r"unknown status 'upperBound'; delete"),
        ],
    )
    def test_invalid_record_rejected_with_its_reason(self, tmp_path, change, message):
        rec = dataclasses.replace(make_record(3, 2, "lowerBound", free_witness(3, 2)), **change)
        with pytest.raises(CacheError, match=r"invalid cache record for n=3: " + message):
            CacheStore(tmp_path).put(K22, rec)
        assert not list(tmp_path.glob("*.json"))


class TestMalformedFile:
    """Every malformed file raises CacheError with the rebuild hint, from
    get and from put alike."""

    @staticmethod
    def corrupt(tmp_path, edit):
        cache = CacheStore(tmp_path)
        cache.put(K22, brute_force_ex(2, K22))
        path = next(tmp_path.glob("*.json"))
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return cache

    def check(self, cache):
        with pytest.raises(CacheError, match="rebuild"):
            cache.get(K22, 2)
        with pytest.raises(CacheError, match="rebuild"):
            cache.put(K22, brute_force_ex(3, K22))

    def test_document_not_an_object(self, tmp_path):
        self.check(self.corrupt(tmp_path, lambda doc: []))

    def test_records_not_a_list(self, tmp_path):
        self.check(self.corrupt(tmp_path, lambda doc: {**doc, "records": 5}))

    def test_corrupt_record(self, tmp_path):
        def drop_n(doc):
            del doc["records"][0]["n"]
            return doc

        self.check(self.corrupt(tmp_path, drop_n))


class TestParsedOnce:
    """The store reuses the records it parsed while the file's bytes stay
    the same; nothing it keeps may hide a change or leak a caller's edit."""

    def test_parses_each_content_once_and_verifies_every_get(self, tmp_path, monkeypatch):
        parses, checks = [], []
        parse, check = ExtremalRecord.from_json_dict, cache_module.find_embedding
        monkeypatch.setattr(
            cache_module.ExtremalRecord, "from_json_dict", lambda doc: parses.append(1) or parse(doc)
        )
        monkeypatch.setattr(cache_module, "find_embedding", lambda m, a: checks.append(1) or check(m, a))
        cache = CacheStore(tmp_path)
        cache.put(K22, make_record(4, 3, "lowerBound", free_witness(4, 3)))
        checks.clear()
        for _ in range(3):
            assert cache.get(K22, 4).value == 3
        assert (len(parses), len(checks)) == (0, 3)  # the store kept what its put wrote
        cache.put(K22, make_record(5, 4, "lowerBound", free_witness(5, 4)))
        assert cache.get(K22, 4).value == 3 and cache.get(K22, 5).value == 4
        assert len(parses) == 0  # the put's read reuses; the new file's records are kept too

    def test_outside_rewrite_is_seen(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, make_record(4, 3, "lowerBound", free_witness(4, 3)))
        assert cache.get(K22, 4).value == 3
        path = next(tmp_path.glob("*.json"))
        doc = json.loads(path.read_text())
        doc["records"][0] = make_record(4, 4, "lowerBound", free_witness(4, 4)).to_json_dict()
        path.write_text(json.dumps(doc))
        assert cache.get(K22, 4).value == 4

    def test_corruption_after_a_get_raises(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, brute_force_ex(2, K22))
        assert cache.get(K22, 2) is not None
        path = next(tmp_path.glob("*.json"))
        path.write_text("{not json")
        for _ in range(2):
            with pytest.raises(CacheError, match="rebuild"):
                cache.get(K22, 2)

    def test_returned_records_are_private(self, tmp_path):
        cache = CacheStore(tmp_path)
        rec = make_record(4, 3, "lowerBound", free_witness(4, 3))
        rec.provenance["nested"] = {"runs": [1]}
        cache.put(K22, rec)
        rec.provenance["solver"] = "changed by the caller"
        got = cache.get(K22, 4)
        got.provenance["solver"] = "changed"
        got.provenance["nested"]["runs"].append(2)
        again = cache.put(K22, make_record(4, 2, "lowerBound", free_witness(4, 2)))
        again.provenance["extra"] = 1
        assert cache.get(K22, 4).provenance == {"solver": "test", "nested": {"runs": [1]}}

    def test_list_inside_a_tuple_is_private(self, tmp_path):
        cache = CacheStore(tmp_path)
        rec = make_record(4, 3, "lowerBound", free_witness(4, 3))
        rec.provenance["pair"] = ([1], 2)
        cache.put(K22, rec)  # the store keeps its own copy of what it wrote
        rec.provenance["pair"][0].append("changed by the caller")
        got = cache.get(K22, 4)
        assert got.provenance["pair"] == ([1], 2)
        got.provenance["pair"][0].append("changed")
        assert cache.get(K22, 4).provenance == {"solver": "test", "pair": ([1], 2)}

    def test_record_from_a_writing_put_is_private(self, tmp_path):
        cache = CacheStore(tmp_path)
        rec = make_record(4, 3, "lowerBound", free_witness(4, 3))
        rec.provenance["nested"] = {"runs": [1]}
        got = cache.put(K22, rec)
        got.provenance["solver"] = "changed"
        got.provenance["nested"]["runs"].append(2)
        assert cache.get(K22, 4).provenance == {"solver": "test", "nested": {"runs": [1]}}

    def test_other_process_write_between_operations_is_seen(self, tmp_path):
        cache = CacheStore(tmp_path)
        cache.put(K22, make_record(4, 3, "lowerBound", free_witness(4, 3)))
        assert cache.get(K22, 4).value == 3
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(1)  # held here until the child has unpickled it
        child = ctx.Process(target=put_many, args=(tmp_path, [4, 5], barrier))
        child.start()
        try:
            child.join(timeout=120)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.terminate()
        assert cache.get(K22, 4).value == 4 and cache.get(K22, 5).value == 5
        cache.put(K22, make_record(6, 6, "lowerBound", free_witness(6, 6)))
        assert [CacheStore(tmp_path).get(K22, n).value for n in (4, 5, 6)] == [4, 5, 6]

    def test_second_store_sees_puts(self, tmp_path):
        first, second = CacheStore(tmp_path), CacheStore(tmp_path)
        assert second.get(K22, 4) is None
        first.put(K22, make_record(4, 3, "lowerBound", free_witness(4, 3)))
        assert second.get(K22, 4).value == 3
        first.put(K22, make_record(4, 4, "lowerBound", free_witness(4, 4)))
        assert second.get(K22, 4).value == 4
        second.put(K22, make_record(5, 5, "lowerBound", free_witness(5, 5)))
        assert first.get(K22, 5).value == 5 and first.get(K22, 4).value == 4


def put_many(directory, ns, barrier):
    barrier.wait(timeout=30)
    cache = CacheStore(directory)
    for n in ns:
        cache.put(K22, make_record(n, n, "lowerBound", free_witness(n, n)))


class TestConcurrency:
    def test_concurrent_writers_keep_every_record(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(3)
        shares = [range(2 + i, 20, 3) for i in range(3)]
        procs = [ctx.Process(target=put_many, args=(tmp_path, ns, barrier)) for ns in shares]
        for p in procs:
            p.start()
        try:
            for p in procs:
                p.join(timeout=120)
            assert all(not p.is_alive() and p.exitcode == 0 for p in procs)
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
        cache = CacheStore(tmp_path)
        for n in range(2, 20):
            got = cache.get(K22, n)
            assert got is not None and got.value == n, f"record for n={n} lost"
        assert not list(tmp_path.glob("*.tmp"))


class TestPaths:
    """Key files, locks and temp files sit where `Path(directory) / name`
    puts them, and every message names that path."""

    @staticmethod
    def expected(directory):
        key = canonical_key(K22)
        return key, Path(directory) / f"{key}.json"

    def test_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        key, path = self.expected(".")
        assert str(path) == f"{key}.json"
        CacheStore(".").put(K22, brute_force_ex(3, K22))
        assert sorted(os.listdir(tmp_path)) == [f"{key}.json", f"{key}.lock"]
        assert CacheStore(".").get(K22, 3).value == 6
        path.write_text("{not json")
        with pytest.raises(CacheError) as err:
            CacheStore(".").get(K22, 3)
        assert str(err.value).startswith(f"unreadable cache file {key}.json: ")

    @pytest.mark.parametrize("below, reason", [("", "File exists"), ("/sub", "Not a directory")])
    def test_directory_blocked_by_a_file(self, tmp_path, below, reason):
        (tmp_path / "somefile").write_text("")
        directory = str(tmp_path / "somefile") + below
        with pytest.raises(CacheError) as err:
            CacheStore(directory)
        assert str(err.value) == f"cannot use cache directory {directory}: {reason}"

    @pytest.mark.parametrize("suffix", ["", "/", "/sub//dir", "/sub/./dir/"])
    def test_string_directories(self, tmp_path, suffix):
        directory = str(tmp_path) + suffix
        key, path = self.expected(directory)
        cache = CacheStore(directory)
        cache.put(K22, make_record(3, 3, "lowerBound", free_witness(3, 3)))
        assert path.is_file() and path.with_suffix(".lock").is_file()
        assert sorted(os.listdir(path.parent)) == [f"{key}.json", f"{key}.lock"]
        doc = json.loads(path.read_text())
        doc["records"][0]["value"] = 99
        path.write_text(json.dumps(doc))
        want = (
            "invalid cache record for n=3: witness weight 3 != value 99; "
            f"delete {path} to rebuild"
        )
        with pytest.raises(CacheError) as err:
            cache.get(K22, 3)
        assert str(err.value) == want

    def test_lock_that_cannot_be_opened(self, tmp_path):
        key, _ = self.expected(tmp_path)
        lock = tmp_path / f"{key}.lock"
        lock.mkdir()
        with pytest.raises(CacheError) as err:
            CacheStore(tmp_path).put(K22, brute_force_ex(3, K22))
        assert str(err.value) == f"cannot open cache lock {lock}: [Errno 21] Is a directory: '{lock}'"
        assert sorted(os.listdir(tmp_path)) == [f"{key}.lock"]

    def test_temp_path_that_is_a_directory(self, tmp_path):
        key, path = self.expected(tmp_path)
        tmp = tmp_path / f"{key}.{os.getpid()}.tmp"
        tmp.mkdir()
        with pytest.raises(CacheError) as err:
            CacheStore(tmp_path).put(K22, brute_force_ex(3, K22))
        assert str(err.value) == f"cannot write cache file {path}: [Errno 21] Is a directory: '{tmp}'"
        assert tmp.is_dir() and not path.exists()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        key, path = self.expected(tmp_path)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        cache = CacheStore(tmp_path)
        with pytest.raises(CacheError) as err:
            cache.put(K22, brute_force_ex(3, K22))
        assert str(err.value) == f"cannot write cache file {path}: disk full"
        assert sorted(os.listdir(tmp_path)) == [f"{key}.lock"]
        monkeypatch.undo()
        assert cache.get(K22, 3) is None  # nothing half-written was kept
