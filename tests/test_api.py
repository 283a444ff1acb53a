"""The package's public surface: what ``__all__`` promises resolves,
the helpers that had no caller outside the tests are gone, and the
README's library tour runs and evaluates to what its comments say."""

import ast
import io
import re
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

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
    "certify_by_oracle",
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


# each call reached its family or construction without passing generate,
# which was the only place that checked: floats failed on a shift or a
# range with a bare TypeError, and True built the instance for 1
NOT_INT_PARAMETERS = [
    ("path_graph", (2.0,), "path length must be an integer, not 2.0"),
    ("path_graph", (True,), "path length must be an integer, not True"),
    ("cycle_graph", (5.0,), "cycle length must be an integer, not 5.0"),
    ("hypercube", (3.0,), "hypercube dimension must be an integer, not 3.0"),
    ("hypercube", (True,), "hypercube dimension must be an integer, not True"),
    ("rooted_cube", (3.0,), "rooted cube dimension must be an integer, not 3.0"),
    ("lollipop", (2.0,), "path length must be an integer, not 2.0"),
    ("lollipop", (1, 4.0), "parallel path count must be an integer, not 4.0"),
    ("lollipop", (1, True), "parallel path count must be an integer, not True"),
    ("construction", ("path", 2.0), "path parameter must be an integer, not 2.0"),
    ("construction", ("cycle_combined", True), "cycle_combined parameter must be an integer, not True"),
    ("construction_certificate", ("path", 2.5), "path parameter must be an integer, not 2.5"),
    ("cycle_strategy_pair", (True,), "k must be an integer, not True"),
    ("cube_copy_embeddings", (3.0,), "dimension must be an integer, not 3.0"),
]


@pytest.mark.parametrize(
    "name, params, message", NOT_INT_PARAMETERS, ids=[f"{n}{p!r}" for n, p, _ in NOT_INT_PARAMETERS]
)
def test_parameters_that_are_not_ints_are_refused(name, params, message):
    pb.lollipop(1, 1)  # cached: lru_cache's key (1, True) equals (1, 1)
    with pytest.raises(errors.BadParameterError, match=re.escape(message)):
        getattr(pb, name)(*params)


def _expected(comment: str):
    """The value a tour comment starts with, up to a ';', when that part is
    a Python literal (Fraction calls allowed); None for a prose comment."""
    text = comment.lstrip("#").split(";")[0].strip()
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return None
    literal = (ast.Expression, ast.Constant, ast.Tuple, ast.List, ast.UnaryOp, ast.USub, ast.Load, ast.Call, ast.Name)
    for node in ast.walk(tree):
        if not isinstance(node, literal) or isinstance(node, ast.Name) and node.id != "Fraction":
            return None
    return eval(compile(tree, "<comment>", "eval"), {"Fraction": Fraction})


def test_readme_library_tour_runs():
    # each line of the README's python block runs in order; one whose
    # comment starts with a value must evaluate to it, type included
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    comments = {
        tok.start[0]: tok for tok in tokenize.generate_tokens(io.StringIO(block).readline) if tok.type == tokenize.COMMENT
    }
    namespace, checked = {}, 0
    for number, line in enumerate(block.splitlines(), start=1):
        comment = comments.get(number)
        code = line[: comment.start[1]] if comment else line
        expected = _expected(comment.string) if comment else None
        if expected is None:
            exec(code, namespace)
            continue
        actual = eval(code, namespace)
        assert actual == expected and type(actual) is type(expected), (line, actual)
        checked += 1
    assert checked == 6
