"""Train/test splitters: determinism, partition laws, split files."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellforge.errors import SplitError
from cellforge.splitters import (
    ExplicitTrainTestSplitter,
    FixedSplitTrainTestSplitter,
    RandomTrainTestSplitter,
    SplitResult,
)

IDS10 = [f"C_{i:02d}" for i in range(10)]


class TestSplitResult:
    def test_rejects_overlap(self):
        with pytest.raises(SplitError, match="both train and test"):
            SplitResult(("a", "b"), ("b", "c"))

    @pytest.mark.parametrize("train,test", [((), ("a",)), (("a",), ())])
    def test_rejects_empty_partitions(self, train, test):
        with pytest.raises(SplitError, match="empty"):
            SplitResult(train, test)

    @pytest.mark.parametrize("listed", ["train", "test"])
    def test_rejects_a_cell_listed_twice(self, listed):
        payload = {"train": ["a", "b"], "test": ["c"]}
        payload[listed] += ["d", payload[listed][0], "d"]
        with pytest.raises(SplitError, match=re.escape(
                f"cells listed more than once in {listed}: {sorted(['d', payload[listed][0]])}")):
            SplitResult.from_dict(payload)

    def test_dict_round_trip(self):
        r = SplitResult(("a", "b"), ("c",), metadata={"observed_cycles": 20})
        assert SplitResult.from_dict(r.to_dict()) == r

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"train": ["a"]},
            {"train": ["a"], "test": "b"},
            {"train": ["a"], "test": [3]},
            {"train": ["a"], "test": ["b"], "metadata": []},
        ],
    )
    def test_from_dict_rejects_malformed(self, payload):
        with pytest.raises(SplitError):
            SplitResult.from_dict(payload)


class TestRandomSplitter:
    def test_deterministic_given_seed(self):
        a = RandomTrainTestSplitter(0.3, seed=5).split(IDS10)
        b = RandomTrainTestSplitter(0.3, seed=5).split(IDS10)
        assert a == b

    def test_seed_changes_partition(self):
        a = RandomTrainTestSplitter(0.3, seed=1).split(IDS10)
        b = RandomTrainTestSplitter(0.3, seed=2).split(IDS10)
        assert a != b

    def test_input_order_does_not_matter(self):
        a = RandomTrainTestSplitter(0.3, seed=5).split(IDS10)
        b = RandomTrainTestSplitter(0.3, seed=5).split(list(reversed(IDS10)))
        assert a == b

    def test_counts(self):
        r = RandomTrainTestSplitter(0.3, seed=0).split(IDS10)
        assert len(r.test_cell_ids) == 3
        assert len(r.train_cell_ids) == 7

    def test_small_fraction_keeps_one_test_cell(self):
        r = RandomTrainTestSplitter(0.01, seed=0).split(IDS10)
        assert len(r.test_cell_ids) == 1

    def test_large_fraction_keeps_one_train_cell(self):
        r = RandomTrainTestSplitter(0.99, seed=0).split(IDS10)
        assert len(r.train_cell_ids) == 1

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(ValueError, match="test_fraction"):
            RandomTrainTestSplitter(fraction)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SplitError, match="duplicate"):
            RandomTrainTestSplitter(0.5).split(["a", "a", "b"])

    def test_needs_two_cells(self):
        with pytest.raises(SplitError, match="at least 2"):
            RandomTrainTestSplitter(0.5).split(["only"])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 60),
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**31),
    )
    def test_partition_property(self, n, fraction, seed):
        ids = [f"cell{i}" for i in range(n)]
        r = RandomTrainTestSplitter(fraction, seed=seed).split(ids)
        assert set(r.train_cell_ids) | set(r.test_cell_ids) == set(ids)
        assert not set(r.train_cell_ids) & set(r.test_cell_ids)
        assert list(r.train_cell_ids) == sorted(r.train_cell_ids)
        assert list(r.test_cell_ids) == sorted(r.test_cell_ids)


class TestExplicitSplitter:
    def test_drops_unlisted_cells(self):
        sp = ExplicitTrainTestSplitter(["a", "b"], ["c"])
        r = sp.split(["a", "b", "c", "d", "e"])
        assert r.train_cell_ids == ("a", "b")
        assert r.test_cell_ids == ("c",)

    def test_missing_cells_named(self):
        sp = ExplicitTrainTestSplitter(["a", "ghost"], ["c"])
        with pytest.raises(SplitError, match="ghost"):
            sp.split(["a", "c"])

    def test_metadata_carried(self):
        sp = ExplicitTrainTestSplitter(["a"], ["b"], metadata={"eol_soh": 90})
        assert sp.split(["a", "b"]).metadata == {"eol_soh": 90}


class TestFixedSplitter:
    def test_loads_file(self, tmp_path):
        p = tmp_path / "split.json"
        p.write_text(json.dumps({"train": ["a"], "test": ["b"], "metadata": {"k": 1}}))
        r = FixedSplitTrainTestSplitter(p).split(["a", "b", "c"])
        assert r.train_cell_ids == ("a",)
        assert r.metadata == {"k": 1}

    def test_missing_file(self, tmp_path):
        with pytest.raises(SplitError, match=re.escape(f"{tmp_path / 'nope.json'}: cannot read")):
            FixedSplitTrainTestSplitter(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{]")
        with pytest.raises(SplitError, match="not valid JSON"):
            FixedSplitTrainTestSplitter(p)

