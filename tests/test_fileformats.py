from fractions import Fraction

import pytest

import pebbling as pb
from pebbling.errors import ParseError
from pebbling.fileformats import (
    parse_config,
    parse_copies_manifest,
    parse_graph,
    parse_weights,
    serialize_config,
    serialize_graph,
    serialize_weights,
)

# the path 0-1-2 rooted at 0, five lines long
_P2 = "pebblegraph 1\nvertices 3\nroot 0\nedge 0 1\nedge 1 2\n"


class TestGraphFormat:
    def test_round_trip(self, c5):
        text = serialize_graph(c5)
        again = parse_graph(text)
        assert again.vertex_count == 5
        assert again.edges == c5.edges
        assert again.root == c5.root
        assert serialize_graph(again) == text

    def test_canonical_round_trip_byte_identical(self):
        g = pb.lollipop(1, 4)
        text = serialize_graph(g)
        assert serialize_graph(parse_graph(text)) == text

    def test_comments_and_blank_lines(self):
        text = "# a graph\npebblegraph 1\n\nvertices 2\nroot 1\n# the only edge\nedge 0 1\n"
        g = parse_graph(text)
        assert g.vertex_count == 2 and g.root == 1

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_graph("vertices 2\nroot 0\nedge 0 1\n")
        assert err.value.line_number == 1

    def test_version_mismatch(self):
        with pytest.raises(ParseError, match="line 1: unsupported pebblegraph version '2'"):
            parse_graph("pebblegraph 2\nvertices 2\nroot 0\nedge 0 1\n")

    def test_unknown_record(self):
        with pytest.raises(ParseError):
            parse_graph("pebblegraph 1\nvertices 2\nroot 0\nvertex 0 1\n")

    def test_unnormalized_edge_accepted(self):
        g = parse_graph("pebblegraph 1\nvertices 2\nroot 0\nedge 1 0\n")
        assert g.edges == ((0, 1),)

    def test_labels_survive(self):
        g = pb.lollipop(1, 4)
        again = parse_graph(serialize_graph(g))
        assert again.labels == g.labels

    @pytest.mark.parametrize(
        "text, line",
        [
            (_P2 + "label 7 ghost\n", 6),
            (_P2 + "label -1 neg\n", 6),
            (_P2 + "vertices 4\n", 6),
            (_P2 + "root 2\n", 6),
            ("pebblegraph 1\nlabel 3 early\n" + _P2.split("\n", 1)[1], 2),
            (_P2 + "edge 1 9\n", 6),
            (_P2 + "edge 1 1\n", 6),
            (_P2 + "edge 2 1\n", 6),
            (_P2.replace("root 0", "root 7"), 3),
            (_P2.replace("root 0", "root -1"), 3),
            ("pebblegraph 1\nvertices 0\nroot 0\n", 2),
            ("", 1),
            ("# only a comment\n\n", 1),
            (_P2 + "label 1 a\nlabel 1 b\n", 7),
            ("pebblegraph 1\nroot 0\n", 1),
            ("pebblegraph 1\nvertices 3\n", 1),
        ],
        ids=[
            "label-past-last-vertex",
            "negative-label",
            "second-vertices",
            "second-root",
            "label-before-vertices",
            "edge-past-last-vertex",
            "self-loop",
            "repeated-edge-reversed",
            "root-past-last-vertex",
            "negative-root",
            "no-vertices",
            "empty-file",
            "no-header",
            "duplicate-label",
            "no-vertices-record",
            "no-root-record",
        ],
    )
    def test_bad_record_rejected_with_line_number(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line_number == line


class TestConfigFormat:
    def test_round_trip(self, c5):
        p = pb.configuration(c5, (0, 3, 0, 2, 0))
        text = serialize_config(p)
        assert parse_config(text, c5).counts == p.counts
        assert serialize_config(parse_config(text, c5)) == text

    def test_omitted_vertices_are_zero(self, c5):
        p = parse_config("pebbleconfig 1\np 2 4\n", c5)
        assert p.counts == (0, 0, 4, 0, 0)

    def test_empty_config(self, c5):
        p = parse_config("pebbleconfig 1\n", c5)
        assert p.size == 0

    def test_duplicate_vertex_rejected(self, c5):
        with pytest.raises(ParseError):
            parse_config("pebbleconfig 1\np 2 4\np 2 1\n", c5)

    def test_out_of_range_rejected(self, c5):
        with pytest.raises(ParseError):
            parse_config("pebbleconfig 1\np 9 1\n", c5)

    @pytest.mark.parametrize(
        "records, line",
        [
            ("p 2 4\np 2 1\n", 3),
            ("p 1 1\np 5 1\n", 3),
            ("p -1 1\n", 2),
            ("w 2 4\n", 2),
            ("p 2 4 1\n", 2),
            ("p 2\n", 2),
            ("p 1 1\n# comment\np 2 -3\n", 4),
            ("p 2 x\n", 2),
        ],
        ids=["duplicate-vertex", "vertex-past-last", "negative-vertex", "wrong-tag", "extra-token",
             "missing-count", "negative-count", "non-integer-count"],
    )
    def test_bad_record_rejected_with_line_number(self, c5, records, line):
        with pytest.raises(ParseError) as err:
            parse_config("pebbleconfig 1\n" + records, c5)
        assert err.value.line_number == line


class TestWeightsFormat:
    def test_example_line(self, p3):
        w = parse_weights("pebbleweights 1\nw 1 4/3\n", p3)
        assert w.weights == (Fraction(0), Fraction(4, 3), Fraction(0))

    def test_reduction_on_serialize(self, p3):
        w = parse_weights("pebbleweights 1\nw 1 8/6\n", p3)
        assert serialize_weights(w) == "pebbleweights 1\nw 1 4/3\n"

    def test_integer_weight_accepted(self, p3):
        w = parse_weights("pebbleweights 1\nw 0 2\n", p3)
        assert w.weights[0] == 2

    def test_zero_root_record_accepted(self, p3):
        w = parse_weights("pebbleweights 1\nw 2 0/1\nw 1 1\n", p3)
        assert w.weights == (0, 1, 0)

    def test_round_trip(self, fig2):
        _, w = pb.construction("fig2")
        text = serialize_weights(w)
        assert serialize_weights(parse_weights(text, fig2)) == text

    def test_missing_header_line_number(self, p3):
        with pytest.raises(ParseError) as err:
            parse_weights("w 1 4/3\n", p3)
        assert err.value.line_number == 1

    @pytest.mark.parametrize(
        "records, line",
        [
            ("w 1 1/2\nw 1 1/4\n", 3),
            ("w 1 1/2\nw 3 1\n", 3),
            ("w -1 1\n", 2),
            ("p 1 1\n", 2),
            ("w 1 1/2 1\n", 2),
            ("w 1\n", 2),
            ("w 1 1/2\n\nw 2 1/\n", 4),
            ("w 1 1/0\n", 2),
            ("w 1 0.5\n", 2),
            ("w 1 -1/2\n", 2),
            ("w 0 1\nw 1 1/-2\n", 3),
            ("w 0 1\n# the root\nw 2 1/3\n", 4),
        ],
        ids=["duplicate-vertex", "vertex-past-last", "negative-vertex", "wrong-tag", "extra-token",
             "missing-weight", "malformed-fraction", "zero-denominator", "decimal-weight",
             "negative-weight", "negative-denominator", "nonzero-root"],
    )
    def test_bad_record_rejected_with_line_number(self, p3, records, line):
        with pytest.raises(ParseError) as err:
            parse_weights("pebbleweights 1\n" + records, p3)
        assert err.value.line_number == line


class TestCopiesManifest:
    def test_q3_manifest(self, q3, tmp_path):
        _, base = pb.construction("fig2")
        (tmp_path / "fig2.weights").write_text(serialize_weights(base), encoding="utf-8")
        lines = ["pebblecopies 1"]
        for emb in pb.cube_copy_embeddings(3):
            lines.append("copy fig2.weights")
            for sub, amb in enumerate(emb):
                lines.append(f"map {sub} {amb}")
        copies = parse_copies_manifest("\n".join(lines) + "\n", tmp_path, q3)
        assert len(copies) == 3
        _, w_prime = pb.construction("q3prime")
        assert pb.verify_decomposition(q3, w_prime, copies)

    def test_map_before_copy(self, q3, tmp_path):
        with pytest.raises(ParseError):
            parse_copies_manifest("pebblecopies 1\nmap 0 0\n", tmp_path, q3)

    @pytest.mark.parametrize(
        "records, line",
        [
            ("copy w.weights\nmap 0 0\nmap 0 1\n", 4),
            ("copy w.weights\nweights w.weights\n", 3),
            ("copy w.weights\nmap 0 0\nmap 2 1\n", 2),
            ("copy w.weights\nmap 0 0\nmap 1 0\n", 2),
            ("copy w.weights\nmap 0 0\nmap 1 8\n", 2),
        ],
        ids=["duplicate-map", "unknown-record", "sub-ids-not-dense", "two-sub-vertices-on-one", "target-out-of-range"],
    )
    def test_bad_record_rejected_with_line_number(self, q3, tmp_path, records, line):
        # each is refused before any weight file is read
        with pytest.raises(ParseError) as err:
            parse_copies_manifest("pebblecopies 1\n" + records, tmp_path, q3)
        assert err.value.line_number == line

    def test_root_must_be_covered(self, q3, tmp_path):
        (tmp_path / "w.weights").write_text("pebbleweights 1\n", encoding="utf-8")
        text = "pebblecopies 1\ncopy w.weights\nmap 0 1\nmap 1 3\n"
        with pytest.raises(ParseError):
            parse_copies_manifest(text, tmp_path, q3)
