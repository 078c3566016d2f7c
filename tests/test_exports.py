"""Every name a public module exports in ``__all__`` resolves, so a deletion
that leaves a stale export fails here rather than at a user's import."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["cellforge", "cellforge.pipeline", "cellforge.models",
                                    "cellforge.splitters"])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__ and [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_row_keys_are_exported_as_the_one_form():
    import cellforge
    from cellforge import features, labels, pipeline

    assert "RowKeys" in cellforge.__all__
    assert cellforge.RowKeys is features.RowKeys is labels.RowKeys is pipeline.RowKeys
