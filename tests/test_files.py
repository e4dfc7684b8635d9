"""Tests for the plain-text graph, coloring, and vector formats."""

from fractions import Fraction

import pytest

from perfstruct import Coloring, FractionalColoring, make_family
from perfstruct.errors import InputError, PerfstructError
from perfstruct.files import (
    ParseError,
    dump_coloring,
    dump_graph,
    format_rows,
    format_scalar,
    parse_coefficients_text,
    parse_coloring_text,
    parse_graph_text,
    parse_scalar,
    parse_vector_text,
)


class TestScalarGrammar:
    @pytest.mark.parametrize("token,expect", [
        ("3", Fraction(3)),
        ("-7", Fraction(-7)),
        ("-1/2", Fraction(-1, 2)),
        ("2/4", Fraction(1, 2)),
        ("2.5", complex(2.5)),
        ("1e2", complex(100.0)),
        ("2+3i", complex(2, 3)),
        ("2-3i", complex(2, -3)),
        ("i", complex(0, 1)),
        ("-i", complex(0, -1)),
        ("3i", complex(0, 3)),
        ("-0.5i", complex(0, -0.5)),
        ("2+i", complex(2, 1)),
        ("+i", complex(0, 1)),
        ("2-i", complex(2, -1)),
        ("1e3i", complex(0, 1000)),
        (".5i", complex(0, 0.5)),
        ("2+1e3i", complex(2, 1000)),
    ])
    def test_parse(self, token, expect):
        got = parse_scalar(token)
        assert type(got) is type(expect)
        assert got == expect

    @pytest.mark.parametrize("token", ["", "x", "1 2", "2+3j", "i2", "--1", "1/0"])
    def test_rejects(self, token):
        with pytest.raises(ValueError):
            parse_scalar(token)

    @pytest.mark.parametrize("token", ["+e7i", "2+e3i", "-e7i", "2+3ei", "2+3e-i", "infi"])
    def test_rejects_a_bad_complex_literal(self, token):
        # an exponent needs a mantissa; Python's own complex grammar is gated
        with pytest.raises(ValueError, match="bad complex literal"):
            parse_scalar(token)

    @pytest.mark.parametrize("token", ["-3i", "-0i", "0-0i", "-0+0i", "-i"])
    def test_signed_zeros_follow_complex(self, token):
        got, expect = parse_scalar(token), complex(token[:-1] + "j")
        assert repr(got) == repr(expect)  # repr shows the sign of a zero part

    @pytest.mark.parametrize("token", ["1e999", "-1e999", "1e999i", "1+1e999i", "-1e999+2i"])
    def test_rejects_overflow_to_infinity(self, token):
        with pytest.raises(ValueError, match="overflows"):
            parse_scalar(token)

    def test_round_trip_through_format(self):
        for token in ["3", "-1/2", "2+3i", "-i", "0"]:
            assert parse_scalar(format_scalar(parse_scalar(token))) \
                == parse_scalar(token)


class TestGraphFormat:
    def test_matrix_form(self):
        g = parse_graph_text("matrix 2\n0 1\n1 0\n")
        assert g.adjacency == make_family("complete", 2).adjacency

    def test_edge_form(self):
        g = parse_graph_text("edges 3 3\n1 2\n2 3\n3 1\n")
        assert g.adjacency == make_family("cycle", 3).adjacency

    def test_round_trip_bit_identical(self):
        for fam in [("cycle", 5), ("hamming", 2, 3), ("complete", 4)]:
            g = make_family(*fam)
            text = dump_graph(g)
            again = parse_graph_text(text)
            assert again.adjacency == g.adjacency
            assert dump_graph(again) == text

    @pytest.mark.parametrize("text", [
        "matrix 3\n0 1 1\n1 0 1\n1 1 0\n",
        "matrix 3\n0 -2/3 5/7\n-2/3 0 1\n5/7 1 -4/6\n",
        "matrix 2\n0 2+3i\n2-3i 0.5\n",
    ])
    def test_dump_matches_entrywise_format(self, text):
        """Byte-identical to formatting each entry with format_scalar, and an
        exact matrix is written without building its Fraction entries."""
        g = parse_graph_text(text)
        expected = "".join(" ".join(format_scalar(x) for x in row) + "\n"
                           for row in g.adjacency.data)
        fresh = parse_graph_text(text)
        assert dump_graph(fresh) == f"matrix {g.n}\n" + expected
        assert format_rows(fresh.adjacency) == [ln.split() for ln in expected.splitlines()]
        assert fresh.adjacency.domain == "complex" or fresh.adjacency._data is None

    def test_rational_and_complex_entries(self):
        g = parse_graph_text("matrix 2\n0 1/2\n1/2 0\n")
        assert g.adjacency.data[0][1] == Fraction(1, 2)
        g = parse_graph_text("matrix 2\n0 2+3i\n2-3i 0\n")
        assert g.adjacency.domain == "complex"

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("matrix 2\n0 1\n", "2 matrix rows"),
        ("matrix 2\n0 1 0\n1 0\n", "line 2"),
        ("matrix 2\n0 x\n1 0\n", "line 2"),
        ("matrix 2\n0 1/0\n1 0\n", "line 2"),
        ("matrix 2\n0 1e999\n1 0\n", "line 2"),
        ("edges 2 1\n1 3\n", "line 2"),
        ("edges 2 1\n1 1\n", "line 2"),
        ("edges 2 2\n1 2\n2 1\n", "duplicate"),
        ("triangles 3\n", "unknown header"),
        ("matrix x\n", "line 1: expected an integer, got 'x'"),
        ("edges 2 x\n1 2\n", "line 1: expected an integer, got 'x'"),
        ("\nedges 2 1\n1 x\n", "line 3: expected an integer, got 'x'"),
        ("matrix 2 2\n0 1\n1 0\n", "line 1: matrix header must be 'matrix n'"),
        ("edges 2\n", "line 1: edge-list header must be 'edges n m'"),
        ("edges 3 2\n1 2\n", "expected 2 edge lines, found 1"),
        ("edges 2 1\n1 2 1\n", "line 2: edge lines must be 'u v'"),
    ])
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_graph_text(text)
        assert fragment in str(exc.value)


class TestColoringFormat:
    def test_integer_coloring(self):
        c = parse_coloring_text("1\n2\n1\n2\n")
        assert isinstance(c, Coloring)
        assert c.colors == (1, 2, 1, 2)

    def test_round_trip(self):
        c = Coloring.from_colors([1, 2, 3, 1])
        assert parse_coloring_text(dump_coloring(c)).colors == c.colors

    def test_fractional_coloring(self):
        w = parse_coloring_text("0.5 0.5\n0.25 0.75\n")
        assert isinstance(w, FractionalColoring)

    def test_bad_row_sums_rejected(self):
        with pytest.raises(ParseError):
            parse_coloring_text("0.5 0.4\n0.5 0.5\n")

    def test_non_contiguous_rejected(self):
        with pytest.raises(ParseError):
            parse_coloring_text("1\n3\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty coloring file"),
        ("\n\n", "empty coloring file"),
        ("1/2 1/2\n1\n", "fractional coloring rows must all have k entries"),
    ])
    def test_shape_errors(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_coloring_text(text)


class TestPhysicalLines:
    @pytest.mark.parametrize("parse, text, message", [
        (parse_coloring_text, "1\nx\n1\n", "line 2: expected an integer, got 'x'"),
        (parse_coloring_text, "\n1\n\n2\n1.5\n", "line 5: expected an integer, got '1.5'"),
        # blank lines count: the bad token is on physical line 5
        (parse_coloring_text, "\n\n1/2 1/2\n\n1 x\n", "line 5: "),
        (parse_graph_text, "\nmatrix 2\n\n0 1\n\n1 +e7i\n", "line 6: bad complex literal '+e7i'"),
        (parse_graph_text, "\n\nedges 2 1\n\n1 x\n", "line 5: expected an integer, got 'x'"),
        (parse_vector_text, "\n1\n\n\n2+e3i\n", "line 5: bad complex literal '2+e3i'"),
        (parse_vector_text, "1\n\n1 2\n", "line 3: expected 1 entries, found 2"),
        (parse_coefficients_text, "\n\n1 x\n", "line 3: "),
        (parse_coefficients_text, "1 2\n\n\n3 1/0\n", "line 4: zero denominator in '1/0'"),
    ])
    def test_errors_carry_physical_line_numbers(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value).startswith(message)


class TestVectorFormat:
    def test_parse(self):
        assert parse_vector_text("1\n-1\n2+3i\n") == [1, -1, complex(2, 3)]

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_vector_text("\n\n")


class TestFloatRange:
    BIG = "1" + "0" * 400

    @pytest.mark.parametrize("parse, text", [
        (parse_vector_text, f"1\n{BIG}\n"),
        (parse_graph_text, f"matrix 2\n0 1.5\n{BIG} 0\n"),
        (parse_coloring_text, f"0.5 0.5\n{BIG} 0\n"),
    ])
    def test_an_exact_entry_beyond_floats_in_a_complex_matrix(self, parse, text):
        with pytest.raises(ParseError, match="beyond the float range"):
            parse(text)

    def test_an_exact_matrix_keeps_it(self):
        g = parse_graph_text(f"matrix 2\n0 {self.BIG}\n{self.BIG} 0\n")
        assert g.adjacency.data[0][1] == 10 ** 400


class TestParseErrors:
    def test_parse_error_is_a_package_error(self):
        assert issubclass(ParseError, PerfstructError)

    def test_parse_error_is_an_input_error_and_a_value_error(self):
        assert issubclass(ParseError, InputError) and issubclass(ParseError, ValueError)

    @pytest.mark.parametrize("parse,text", [
        (parse_vector_text, "1\n1/0\n"),
        (parse_coloring_text, "1/2 1/2\n1/0 1\n"),
        (parse_coefficients_text, "1 1/0\n"),
    ])
    def test_zero_denominator(self, parse, text):
        with pytest.raises(ParseError, match="zero denominator"):
            parse(text)
