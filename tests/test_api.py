"""The package's public surface: what ``__all__`` promises resolves,
and the helpers that had no caller outside the tests are gone."""

import pebbling as pb
from pebbling import errors

REMOVED = [
    "empty_configuration",
    "uniform_configuration",
    "named_graph",
    "induced_subgraph",
    "eccentricity",
    "evaluate",
    "extend_certificate",
]


def test_every_exported_name_resolves():
    assert len(set(pb.__all__)) == len(pb.__all__)
    for name in pb.__all__:
        assert getattr(pb, name) is not None, name


def test_removed_helpers_are_gone():
    for name in REMOVED:
        assert not hasattr(pb, name), name
    assert not hasattr(pb.Configuration, "on")
    assert not hasattr(pb.Graph, "label") and not hasattr(pb.Graph, "vertex_by_label")
    assert not hasattr(pb.WeightFunction, "scaled")
    assert not hasattr(errors, "RootNotIncludedError")
