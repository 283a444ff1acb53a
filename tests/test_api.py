"""The package's public surface: what ``__all__`` promises resolves,
and the helpers that had no caller outside the tests are gone."""

import re
from pathlib import Path

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

# error classes that no caller told apart from the class they merged into
MERGED_ERRORS = [
    "GraphError",
    "SelfLoopError",
    "DuplicateEdgeError",
    "DisconnectedError",
    "RootOutOfRangeError",
    "UnknownFamilyError",
    "GraphMismatchError",
    "BadEmbeddingError",
    "NegativeCoefficientError",
    "NotAdjacentError",
    "InsufficientPebblesError",
    "UncertifiedComponentError",
    "UncoveredVertexError",
    "CertificateError",
    "DimensionMismatchError",
    "EmptyStrategySetError",
    "UnboundedCoverageError",
    "FormatError",
    "VersionMismatchError",
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
    for name in MERGED_ERRORS:
        assert not hasattr(errors, name), name


def test_every_error_class_is_raised_or_caught():
    # a class no code outside errors.py raises or catches tells no caller anything
    package = Path(errors.__file__).parent
    source = "\n".join(p.read_text(encoding="utf-8") for p in package.glob("*.py") if p.name != "errors.py")
    classes = [name for name, c in vars(errors).items() if isinstance(c, type) and issubclass(c, errors.PebblingError)]
    assert len(classes) == 10
    for name in classes:
        used = rf"raise {name}\(|except \(?[\w, ]*\b{name}\b"
        assert re.search(used, source), name
