"""End-to-end tests of the command-line front end and its exit-code contract:
0 success, 1 negative answer, 2 input error, 3 budget exceeded."""

import io
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from perfstruct import census, cli, colorings, contraction, make_family, matrix, products
from perfstruct.cli import main, resolve_graph_tokens
from perfstruct.files import dump_graph
from perfstruct.graphs import FAMILY_ARITY, closed_form_spectrum


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.graph"
    path.write_text(dump_graph(make_family("cycle", 4)))
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestVerify:
    def test_perfect_coloring(self, tmp_path, c4_file, capsys):
        coloring = write(tmp_path, "c.col", "1\n2\n1\n2\n")
        assert main(["verify", c4_file, coloring]) == 0
        out = capsys.readouterr().out
        assert "verified: perfect coloring" in out
        assert "0 2" in out and "2 0" in out

    def test_imperfect_coloring_is_a_negative_answer(self, tmp_path, capsys):
        g = write(tmp_path, "p4.graph", dump_graph(make_family("path", 4)))
        coloring = write(tmp_path, "c.col", "1\n1\n2\n2\n")
        assert main(["verify", g, coloring]) == 1

    def test_fractional_coloring(self, tmp_path, c4_file):
        coloring = write(tmp_path, "w.col",
                         "0.75 0.25\n0.25 0.75\n0.75 0.25\n0.25 0.75\n")
        assert main(["verify", c4_file, coloring]) == 0

    def test_fractional_coloring_json_is_nonsingular(self, tmp_path, c4_file, capsys):
        coloring = write(tmp_path, "w.col",
                         "0.75 0.25\n0.25 0.75\n0.75 0.25\n0.25 0.75\n")
        assert main(["verify", c4_file, coloring, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True and report["nonsingular"] is True

    def test_rank_deficient_fractional_coloring_is_a_negative_answer(
            self, tmp_path, c4_file, capsys):
        coloring = write(tmp_path, "w.col", "0.5 0.5\n0.5 0.5\n0.5 0.5\n0.5 0.5\n")
        assert main(["verify", c4_file, coloring, "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"verified": False}

    def test_json_output_is_stable(self, tmp_path, c4_file, capsys):
        coloring = write(tmp_path, "c.col", "1\n2\n1\n2\n")
        assert main(["verify", c4_file, coloring, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True
        assert list(report) == sorted(report)

    @pytest.mark.parametrize("coloring,parameters", [
        ("1\n1\n2\n2\n", [["1/2", "1/2"], ["1/2", "1/2"]]),
        ("1/2 1/2\n1/4 3/4\n1/2 1/2\n1/4 3/4\n", [["-1/4", "5/4"], ["3/4", "1/4"]]),
    ])
    def test_rational_graph_json(self, tmp_path, capsys, coloring, parameters):
        g = write(tmp_path, "r.graph",
                  "matrix 4\n0 1/2 0 1/2\n1/2 0 1/2 0\n0 1/2 0 1/2\n1/2 0 1/2 0\n")
        assert main(["verify", g, write(tmp_path, "c.col", coloring), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"] == parameters

    def test_missing_file_is_an_input_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "no.graph"),
                     str(tmp_path / "no.col")]) == 2

    def test_malformed_coloring_is_an_input_error(self, tmp_path, c4_file):
        coloring = write(tmp_path, "c.col", "1\nx\n")
        assert main(["verify", c4_file, coloring]) == 2

    def test_length_mismatch_is_an_input_error(self, tmp_path, c4_file):
        coloring = write(tmp_path, "c.col", "1\n2\n")
        assert main(["verify", c4_file, coloring]) == 2

    def test_decimal_graph_with_integer_coloring_is_an_input_error(self, tmp_path):
        g = write(tmp_path, "g.graph", "matrix 2\n0 1.5\n1.5 0\n")
        coloring = write(tmp_path, "c.col", "1\n2\n")
        assert main(["verify", g, coloring]) == 2

    def test_zero_denominator_is_an_input_error(self, tmp_path, c4_file):
        g = write(tmp_path, "g.graph", "matrix 2\n0 1/0\n1 0\n")
        assert main(["verify", g, write(tmp_path, "c.col", "1\n2\n")]) == 2
        w = write(tmp_path, "w.col", "1/2 1/2\n1/0 1\n1/2 1/2\n1/2 1/2\n")
        assert main(["verify", c4_file, w]) == 2


class TestSpectrum:
    def test_family_both_modes(self, capsys):
        assert main(["spectrum", "hamming", "3", "2"]) == 0
        out = capsys.readouterr().out
        assert "closed-form spectrum" in out
        assert "numeric spectrum" in out
        assert "discrepancy" in out

    def test_shorthand(self, capsys):
        assert main(["spectrum", "k4", "--closed-form"]) == 0
        out = capsys.readouterr().out
        assert "multiplicity 3" in out

    def test_file_input_numeric_only(self, c4_file, capsys):
        assert main(["spectrum", c4_file, "--numeric"]) == 0

    def test_overflowing_entry_is_an_input_error(self, tmp_path, capsys):
        g = write(tmp_path, "g.graph", "matrix 2\n0 1e999\n1 0\n")
        assert main(["spectrum", g, "--numeric"]) == 2
        assert capsys.readouterr().err.startswith("error: line 2: ")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_near_overflow_entries_give_a_finite_spectrum(self, tmp_path, capsys, json_flag):
        # (A + Aᴴ)/2 overflowed, the spectrum was [nan, nan], and printing it
        # raised ValueError: exit 1
        g = write(tmp_path, "g.graph", "matrix 2\n0 1e308\n1e308 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", g, "--numeric", *json_flag]) == 0
        out = capsys.readouterr().out
        assert "1e+308" in out and "nan" not in out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("entry,printed", [
        ("1e23", "1e+23"), ("9007199254740992", "9.00719925e+15"),
        ("9007199254740991", "9007199254740991")])
    def test_a_float_of_2_to_the_53_or_more_prints_9_digits(
            self, tmp_path, capsys, json_flag, entry, printed):
        # every float from 2**53 up is an integer: it printed every digit,
        # 99999999999999991611392 for 1e23
        g = write(tmp_path, "g.graph", f"matrix 2\n0 {entry}\n{entry} 0\n")
        assert main(["spectrum", g, "--numeric", *json_flag]) == 0
        out = capsys.readouterr().out
        assert printed in out and f"-{printed}" in out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_an_overflowing_spectrum_is_an_input_error(self, tmp_path, capsys, json_flag):
        g = write(tmp_path, "g.graph", "matrix 2\n1e308 1e308\n1e308 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", g, "--numeric", *json_flag]) == 2
        assert capsys.readouterr().err == "error: an infinite or nan entry in the eigenvalues\n"

    def test_closed_form_of_a_family_reads_only_the_tag(self, capsys):
        """torus 40 40 has 1600 vertices: its int64 adjacency alone takes
        20 MiB, which the closed form never builds."""
        main(["spectrum", "torus", "4", "4", "--closed-form"])  # imports and caches warm
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(["spectrum", "torus", "40", "40", "--closed-form"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("tokens", [["torus", "12", "12"], ["k4"], ["hamming", "3", "2"]])
    def test_closed_form_of_a_tag_is_that_of_the_built_graph(self, capsys, tokens):
        graph, _ = resolve_graph_tokens(tokens)
        expected = {"closed_form": cli._spectrum_rows(closed_form_spectrum(graph))}
        assert main(["spectrum", *tokens, "--closed-form", "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(expected, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv,err", [
        (["cycle", "2"], "error: a cycle needs at least 3 vertices\n"),
        (["c5", "x"], "error: unused trailing arguments: ['x']\n")])
    def test_closed_form_of_a_bad_tag_is_an_input_error(self, capsys, argv, err):
        assert main(["spectrum", *argv, "--closed-form"]) == 2
        assert capsys.readouterr().err == err

    def test_file_without_closed_form(self, c4_file):
        assert main(["spectrum", c4_file, "--closed-form"]) == 2

    def test_bad_family_parameters(self):
        assert main(["spectrum", "hamming", "3"]) == 2

    def test_families_over_a_graph_are_not_inline(self):
        assert main(["spectrum", "double", "3"]) == 2

    @pytest.mark.parametrize("name", [n for n, a in FAMILY_ARITY.items() if a is not None])
    def test_inline_family_names_resolve(self, name):
        params = [3] * FAMILY_ARITY[name]
        graph, used = resolve_graph_tokens([name, *map(str, params)])
        assert used == 1 + len(params)
        assert graph.family == make_family(name, *params).family
        assert graph.adjacency == make_family(name, *params).adjacency


class TestIntegerTokens:
    @pytest.mark.parametrize("argv", [["spectrum", "cycle", "x"],
                                      ["census", "c6", "x"],
                                      ["census", "hamming", "3", "x", "2"]])
    def test_non_integer_token_is_named(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: expected an integer, got 'x'\n"

    def test_non_integer_header_is_named_with_its_line(self, tmp_path, capsys):
        g = write(tmp_path, "g.graph", "matrix x\n")
        assert main(["spectrum", g]) == 2
        assert capsys.readouterr().err == "error: line 1: expected an integer, got 'x'\n"

    def test_non_integer_color_is_named_with_its_line(self, tmp_path, c4_file, capsys):
        coloring = write(tmp_path, "bad.col", "1\nx\n1\n2\n")
        assert main(["verify", c4_file, coloring]) == 2
        assert capsys.readouterr().err == "error: line 2: expected an integer, got 'x'\n"


class TestProduct:
    @pytest.mark.parametrize("kind, err", [
        # the eigenvalues ±1e308 are finite, but their sums and products are not
        ("cartesian", "the product spectrum"), ("lex", "the product spectrum"),
        ("tensor", "a complex Kronecker product")])
    def test_an_overflowing_product_is_an_input_error(self, tmp_path, monkeypatch, capsys,
                                                      kind, err):
        write(tmp_path, "g.graph", "matrix 2\n0 1e308\n1e308 0\n")
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["product", kind, "g.graph", "g.graph", "-o", "p.graph"]) == 2
        assert capsys.readouterr().err == f"error: an infinite or nan entry in {err}\n"
        assert not (tmp_path / "p.graph").exists()

    def test_cartesian(self, tmp_path, capsys):
        out_path = str(tmp_path / "prod.graph")
        assert main(["product", "cartesian", "k2", "k2", "-o", out_path]) == 0
        text = (tmp_path / "prod.graph").read_text()
        assert text == dump_graph(make_family("hamming", 2, 2))
        assert "product spectrum" in capsys.readouterr().out

    def test_lexicographic_with_colorings(self, tmp_path, capsys):
        lc = write(tmp_path, "l.col", "1\n2\n1\n2\n")
        rc = write(tmp_path, "r.col", "1\n2\n3\n")
        out_path = str(tmp_path / "prod.graph")
        assert main(["product", "lex", "c4", "k3", "-o", out_path,
                     "--left-coloring", lc, "--right-coloring", rc]) == 0
        out = capsys.readouterr().out
        assert "parameter matrix" in out
        assert (tmp_path / "prod.graph.coloring").exists()

    def test_general_product(self, tmp_path, capsys):
        coeffs = write(tmp_path, "grid.txt", "2\n")
        out_path = str(tmp_path / "prod.graph")
        assert main(["product", "general", "k2", "k2",
                     "--coeffs", coeffs, "-o", out_path]) == 0
        assert "matrix 4" in (tmp_path / "prod.graph").read_text()

    def test_general_product_spectrum(self, tmp_path, capsys):
        coeffs = write(tmp_path, "grid.txt", "1/2\n")
        assert main(["product", "general", "k2", "k2", "--coeffs", coeffs,
                     "-o", str(tmp_path / "prod.graph")]) == 0
        out = capsys.readouterr().out
        assert out.endswith("product spectrum:\n  -0.5  multiplicity 2\n"
                            "  0.5  multiplicity 2\n")

    def test_lexicographic_disconnected_regular_right_factor(self, tmp_path, capsys):
        # the degree eigenspace of 3K_2 has dimension 3; J splits it
        assert main(["product", "lex", "k2", "matching", "3",
                     "-o", str(tmp_path / "prod.graph")]) == 0
        out = capsys.readouterr().out
        assert out.endswith("product spectrum:\n  -5  multiplicity 1\n  -1  multiplicity 6\n"
                            "  1  multiplicity 4\n  7  multiplicity 1\n")

    def test_no_common_eigenbasis_is_a_note(self, tmp_path, capsys):
        # J and the irregular P_3 do not commute
        out_path = tmp_path / "prod.graph"
        assert main(["product", "lex", "k2", "p3", "-o", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert "product spectrum" not in captured.out
        assert captured.err == "note: no product spectrum: the factors share no eigenbasis\n"
        assert out_path.exists()

    def test_defective_factor_is_a_note(self, tmp_path, capsys):
        path = write(tmp_path, "arc.graph", "matrix 2\n0 1\n0 0\n")
        out_path = tmp_path / "prod.graph"
        assert main(["product", "tensor", path, "k2", "-o", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert "product spectrum" not in captured.out
        assert captured.err == \
            "note: no product spectrum: eigenvector matrix is rank deficient\n"
        assert out_path.exists()

    def test_zero_denominator_coefficient_is_an_input_error(self, tmp_path):
        coeffs = write(tmp_path, "grid.txt", "1/0\n")
        assert main(["product", "general", "k2", "k2", "--coeffs", coeffs,
                     "-o", str(tmp_path / "p.graph")]) == 2

    @pytest.mark.parametrize("coefficient", ["0.5", "1+i"])
    def test_non_rational_coefficient_over_exact_factors(self, tmp_path, capsys, coefficient):
        coeffs = write(tmp_path, "grid.txt", coefficient + "\n")
        out_path = tmp_path / "p.graph"
        assert main(["product", "general", "c4", "k2", "--coeffs", coeffs,
                     "-o", str(out_path)]) == 2
        value = complex(coefficient.replace("i", "j"))
        assert capsys.readouterr().err == \
            f"error: exact factors need rational coefficients, got {value!r}\n"
        assert not out_path.exists()

    def test_complex_coefficient_over_complex_factors(self, tmp_path, capsys):
        coeffs = write(tmp_path, "grid.txt", "1+i\n")
        g = write(tmp_path, "g.graph", "matrix 2\n0 2+i\n2-i 0\n")
        assert main(["product", "general", g, g, "--coeffs", coeffs,
                     "-o", str(tmp_path / "p.graph")]) == 0

    FILES = {
        "l.col": "1\n2\n1\n2\n",
        "r.col": "1\n2\n",
        "short.col": "1\n2\n",
        "imperfect.col": "1\n2\n2\n2\n",
        "fractional.col": "0.5 0.5\n" * 4,
        "one.txt": "1\n",
        "two-by-two.txt": "1 0\n0 1\n",
    }
    NAMED = ["tensor", "cartesian", "normal", "lex"]

    @pytest.mark.parametrize("argv, err", [
        *[pytest.param([kind, "c4", "k2", "--left-coloring", f"{bad}.col",
                        "--right-coloring", "r.col"], err, id=f"{kind}-{bad}")
          for kind in NAMED for bad, err in [
              ("short", "coloring length must equal the number of vertices"),
              ("imperfect", "both factor colorings must be perfect"),
              ("fractional", "product colorings must be integer colorings")]],
        pytest.param(["general", "c4", "k2", "--coeffs", "one.txt",
                      "--left-coloring", "imperfect.col", "--right-coloring", "r.col"],
                     "both factor colorings must be perfect", id="general-imperfect"),
        pytest.param(["cartesian", "c4", "k2", "--left-coloring", "l.col"],
                     "both factor colorings are required", id="one-sided"),
        pytest.param(["general", "c4", "k2", "--coeffs", "two-by-two.txt"],
                     "coefficient grid must be m x l = 1 x 1, got row lengths [2, 2]",
                     id="two-by-two-grid"),
    ])
    def test_a_failing_run_writes_nothing(self, tmp_path, monkeypatch, capsys, argv, err):
        for name, text in self.FILES.items():
            write(tmp_path, name, text)
        monkeypatch.chdir(tmp_path)
        assert main(["product", *argv, "-o", "out.graph"]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not (tmp_path / "out.graph").exists()
        assert not (tmp_path / "out.graph.coloring").exists()

    @pytest.mark.parametrize("kind", NAMED)
    def test_coeffs_with_a_named_kind_is_an_input_error(self, tmp_path, monkeypatch,
                                                        capsys, kind):
        write(tmp_path, "five.txt", "5\n")
        monkeypatch.chdir(tmp_path)
        assert main(["product", kind, "k2", "k2", "--coeffs", "five.txt"]) == 2
        name = "lexicographic" if kind == "lex" else kind
        assert capsys.readouterr() == \
            ("", f"error: --coeffs is for the general product, not {name}\n")
        assert not (tmp_path / "product.graph").exists()

    def test_general_product_coloring(self, tmp_path, monkeypatch, capsys):
        """The 1×1 grid 1/2 over C4 and K2: S = (1/2)·(S ⊗ T), which verify
        reads back from the written graph and coloring."""
        for name, text in self.FILES.items():
            write(tmp_path, name, text)
        write(tmp_path, "half.txt", "1/2\n")
        monkeypatch.chdir(tmp_path)
        assert main(["product", "general", "c4", "k2", "--coeffs", "half.txt",
                     "--left-coloring", "l.col", "--right-coloring", "r.col",
                     "-o", "out.graph"]) == 0
        out = capsys.readouterr().out
        s = "parameter matrix:\n  0 0 0 1\n  0 0 1 0\n  0 1 0 0\n  1 0 0 0\n"
        assert s in out
        assert (tmp_path / "out.graph.coloring").read_text() == "1\n2\n3\n4\n1\n2\n3\n4\n"
        assert main(["verify", "out.graph", "out.graph.coloring"]) == 0
        assert s in capsys.readouterr().out

    def test_colorings_build_the_product_once(self, tmp_path, monkeypatch, capsys):
        for name, text in self.FILES.items():
            write(tmp_path, name, text)
        monkeypatch.chdir(tmp_path)
        specs = []
        original = products.ProductSpec.__new__

        def counting(cls, *args):
            specs.append(args)
            return original(cls, *args)

        monkeypatch.setattr(products.ProductSpec, "__new__", counting)
        assert main(["product", "cartesian", "c4", "k2", "-o", "out.graph",
                     "--left-coloring", "l.col", "--right-coloring", "r.col"]) == 0
        assert len(specs) == 1
        written = (tmp_path / "out.graph").read_text()
        assert written == dump_graph(make_family("prism", 4))


class TestContract:
    def test_an_overflowing_vector_is_an_input_error(self, tmp_path, capsys):
        # A·h overflows: under -W error it used to raise a bare RuntimeWarning
        h = write(tmp_path, "h.vec", "1e308\n1e308\n1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["contract", "k3", h, h, "cartesian", "--right", "k1"]) == 2
        assert capsys.readouterr().err == "error: h is not an eigenvector of the product graph\n"

    def test_cartesian_round_trip(self, tmp_path, capsys):
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "cartesian", "k2", "k2", "-o", prod]) == 0
        capsys.readouterr()
        h = write(tmp_path, "h.vec", "1\n-1\n-1\n1\n")
        g = write(tmp_path, "g.vec", "1\n-1\n")
        assert main(["contract", prod, h, g, "cartesian",
                     "--right", "k2", "--left", "k2"]) == 0
        out = capsys.readouterr().out
        assert "mu = -1" in out
        assert "eigen-residual" in out

    def test_each_factor_is_checked_once(self, tmp_path, monkeypatch, capsys):
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "cartesian", "k2", "c4", "-o", prod]) == 0
        capsys.readouterr()
        # h = (1, -1) kron 1: nu = -1 + 2, and H·g = (4, -4) with mu = -1
        h = write(tmp_path, "h.vec", "1\n1\n1\n1\n-1\n-1\n-1\n-1\n")
        g = write(tmp_path, "g.vec", "1\n1\n1\n1\n")
        left = make_family("complete", 2).adjacency
        right = make_family("cycle", 4).adjacency.T
        checked = []

        def counting(a, *args, **kwargs):
            checked.append(a)
            return matrix.eigensystem_on(a, *args, **kwargs)

        monkeypatch.setattr(cli, "eigensystem_on", counting)
        monkeypatch.setattr(contraction, "eigensystem_on", counting)
        assert main(["contract", prod, h, g, "cartesian", "--right", "c4", "--left", "k2"]) == 0
        assert checked.count(left) == 1 and checked.count(right) == 1
        assert capsys.readouterr().out == ("f = 4 -4\nmu = -1\n"
                                           "eigen-residual of f: 0.000e+00\n")

    def test_a_left_factor_that_fails_prints_nothing(self, tmp_path, capsys):
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "cartesian", "k2", "c4", "-o", prod]) == 0
        capsys.readouterr()
        h = write(tmp_path, "h.vec", "1\n1\n1\n1\n-1\n-1\n-1\n-1\n")
        g = write(tmp_path, "g.vec", "1\n1\n1\n1\n")
        ones = write(tmp_path, "ones.graph", "matrix 2\n1 1\n1 1\n")  # J·(1, -1) = 0
        assert main(["contract", prod, h, g, "cartesian", "--right", "c4", "--left", ones]) == 2
        assert capsys.readouterr() == \
            ("", "error: contracted vector is not an eigenvector of the left factor\n")

    def test_zero_contraction(self, tmp_path, capsys):
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "cartesian", "k2", "k2", "-o", prod]) == 0
        capsys.readouterr()
        h = write(tmp_path, "h.vec", "1\n-1\n1\n-1\n")
        g = write(tmp_path, "g.vec", "1\n1\n")
        assert main(["contract", prod, h, g, "cartesian", "--right", "k2"]) == 0
        assert "zero contraction" in capsys.readouterr().out

    def test_tensor_excluded_eigenvalue(self, tmp_path):
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "tensor", "k2", "p3", "-o", prod]) == 0
        # g is the lambda = 0 eigenvector of the path, which tensor excludes
        h = write(tmp_path, "h.vec", "1\n0\n-1\n1\n0\n-1\n")
        g = write(tmp_path, "g.vec", "1\n0\n-1\n")
        assert main(["contract", prod, h, g, "tensor", "--right", "p3"]) == 2

    def test_zero_denominator_vector_is_an_input_error(self, tmp_path):
        h = write(tmp_path, "h.vec", "1\n-1\n-1\n1/0\n")
        g = write(tmp_path, "g.vec", "1\n-1\n")
        assert main(["contract", "c4", h, g, "cartesian", "--right", "k2"]) == 2

    def test_non_eigenvector_is_an_input_error(self, tmp_path):
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "cartesian", "k2", "k2", "-o", prod]) == 0
        h = write(tmp_path, "h.vec", "1\n0\n0\n0\n")
        g = write(tmp_path, "g.vec", "1\n-1\n")
        assert main(["contract", prod, h, g, "cartesian", "--right", "k2"]) == 2

    def test_directed_right_factor_needs_a_left_eigenvector(self, tmp_path, capsys):
        # 1->2, 2->1, 3->1: every row sum is 1, the column sums are 2, 1, 0.
        # h is an eigenvector of nu = -1 that is no Kronecker product; with
        # L g = g for g = 1 it would contract to mu = -2/3, while H·g = (1, -1)
        # has mu = -1 in K_2.
        right = write(tmp_path, "arcs.graph", "matrix 3\n0 1 0\n1 0 0\n1 0 0\n")
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "lex", "k2", right, "-o", prod]) == 0
        capsys.readouterr()
        h = write(tmp_path, "h.vec", "1\n0\n0\n-1\n0\n0\n")
        g = write(tmp_path, "g.vec", "1\n1\n1\n")
        assert main(["contract", prod, h, g, "lex", "--right", right]) == 2
        assert capsys.readouterr().err == \
            "error: g is not an eigenvector of the right factor\n"

    @pytest.mark.parametrize("g_text", ["1\n1\n1\n1\n", "2\n2\n2\n2\n"])
    def test_lexicographic_round_trip(self, tmp_path, capsys, g_text):
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "lex", "k2", "c4", "-o", prod]) == 0
        capsys.readouterr()
        # h = (1, -1) kron 1: nu = mu * 4 + 2 = -2
        h = write(tmp_path, "h.vec", "1\n1\n1\n1\n-1\n-1\n-1\n-1\n")
        g = write(tmp_path, "g.vec", g_text)
        assert main(["contract", prod, h, g, "lex", "--right", "c4", "--left", "k2"]) == 0
        assert "mu = -1" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal", "lex"])
    def test_non_eigenvector_g(self, tmp_path, capsys, kind):
        h = write(tmp_path, "h.vec", "1\n1\n1\n1\n1\n1\n")
        g = write(tmp_path, "g.vec", "2\n2\n2\n")
        assert main(["contract", "c6", h, g, kind, "--right", "p3"]) == 2
        assert capsys.readouterr().err == \
            "error: g is not an eigenvector of the right factor\n"

    def test_zero_g(self, tmp_path, capsys):
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "cartesian", "k2", "k2", "-o", prod]) == 0
        capsys.readouterr()
        h = write(tmp_path, "h.vec", "1\n-1\n-1\n1\n")
        g = write(tmp_path, "g.vec", "0\n0\n")
        assert main(["contract", prod, h, g, "cartesian", "--right", "k2"]) == 2
        assert capsys.readouterr().err == "error: g must be nonzero\n"


class TestCensus:
    def test_four_cycle_two_colors(self, capsys):
        assert main(["census", "c4", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 parameter matrix(es)" in out
        assert "0 2" in out
        assert "1 1" in out

    def test_json(self, capsys):
        assert main(["census", "c4", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["complete"] is True
        assert len(report["parameter_matrices"]) == 2

    @pytest.mark.parametrize("tokens,fam,k,budget", [
        (["c4"], ("cycle", 4), 2, None),
        (["hamming", "3", "3"], ("hamming", 3, 3), 2, None),
        (["hamming", "3", "3"], ("hamming", 3, 3), 2, 250),
    ])
    def test_json_reports_the_search_nodes(self, capsys, tokens, fam, k, budget):
        cap = [] if budget is None else ["--budget", str(budget)]
        expected = census(make_family(*fam), k, budget or 10 ** 8)
        assert main(["census", *tokens, str(k), *cap, "--json"]) == (0 if expected.complete else 3)
        report = json.loads(capsys.readouterr().out)
        assert (report["evaluated"], report["complete"]) == (expected.evaluated, expected.complete)

    def test_budget_exceeded(self, capsys):
        assert main(["census", "hamming", "3", "2", "2", "--budget", "5"]) == 3
        assert "partial" in capsys.readouterr().err

    def test_missing_k(self):
        assert main(["census", "c4"]) == 2

    @pytest.mark.parametrize("args", [["-1"], ["0"], ["2", "--budget", "-5"]])
    def test_bad_count_or_budget_is_an_input_error(self, capsys, args):
        assert main(["census", "k4", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_complex_graph_is_an_input_error(self, tmp_path, capsys):
        g = write(tmp_path, "g.graph", "matrix 2\n0 2+i\n2-i 0\n")
        assert main(["census", g, "2"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestTolerance:
    def test_env_override(self, tmp_path, monkeypatch, c4_file):
        coloring = write(tmp_path, "w.col",
                         "0.75 0.25\n0.25 0.75\n0.75 0.25\n0.25 0.75\n")
        monkeypatch.setenv("PERFSTRUCT_TOL", "1e-3")
        assert main(["verify", c4_file, coloring]) == 0

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "abc"])
    def test_invalid_tolerance_is_an_input_error(self, tmp_path, monkeypatch, capsys, value):
        prod = str(tmp_path / "prod.graph")
        assert main(["product", "tensor", "k2", "p3", "-o", prod]) == 0
        capsys.readouterr()
        # h is no eigenvector; g is the excluded lambda = 0 eigenvector
        h = write(tmp_path, "h.vec", "1\n0\n0\n0\n0\n0\n")
        g = write(tmp_path, "g.vec", "1\n0\n-1\n")
        monkeypatch.setenv("PERFSTRUCT_TOL", value)
        assert main(["contract", prod, h, g, "tensor", "--right", "p3"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: PERFSTRUCT_TOL must be a finite number >= 0, got {value!r}\n"

    def test_zero_tolerance_is_allowed(self, tmp_path, monkeypatch, c4_file):
        coloring = write(tmp_path, "c.col", "1\n2\n1\n2\n")
        monkeypatch.setenv("PERFSTRUCT_TOL", "0")
        assert main(["verify", c4_file, coloring]) == 0


class TestClosedPipe:
    def test_quiet_exit(self, tmp_path, monkeypatch, capsys):
        # the reader of stdout went away, as in `perfstruct census ... | head -1`
        class ClosedPipe(io.TextIOWrapper):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with ClosedPipe(open(tmp_path / "stdout", "wb")) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["census", "hamming", "3", "2", "2"]) == 0
            assert capsys.readouterr().err == ""


def test_memory_error_is_a_resource_limit(monkeypatch, capsys):
    """Exit 1 is a negative answer: running out of memory exits 3."""
    def exhausted(args):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")

    monkeypatch.setattr(cli, "cmd_spectrum", exhausted)
    assert main(["spectrum", "c6"]) == 3
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 2.00 GiB for an array\n")


class TestInputErrors:
    """Every malformed input exits 2 as a PerfstructError; nothing else does."""

    FILES = {
        "bad.graph": "matrix 2\n0 x\n1 0\n",
        "blank.graph": "\nmatrix 2\n\n0 1\n1 +e7i\n",
        "neg.edges": "edges -1 0\n",
        "empty.edges": "edges 0 0\n",
        "c4.graph": dump_graph(make_family("cycle", 4)),
        "short.col": "1\n2\n",
        "bad.col": "1\n\nx\n1\n",
        "h5.vec": "1\n1\n0\n-1\n-1\n",
        "g.vec": "1\n-1\n0\n",
        "two.vec": "1\n1 2\n",
        "grid.txt": "\n\n1 x\n",
    }

    @pytest.mark.parametrize("argv, err", [
        (["spectrum", "bad.graph"], "error: line 2: invalid literal for int() with base 10: 'x'\n"),
        (["spectrum", "blank.graph"], "error: line 5: bad complex literal '+e7i'\n"),
        (["spectrum", "neg.edges", "--numeric"], "error: a graph cannot have -1 vertices\n"),
        (["spectrum", "empty.edges"], "error: a graph needs at least one vertex\n"),
        (["verify", "empty.edges", "short.col"], "error: a graph needs at least one vertex\n"),
        (["census", "empty.edges", "1", "--json"], "error: a graph needs at least one vertex\n"),
        (["spectrum", "c4.graph", "--closed-form"],
         "error: graph carries no family tag; use a numeric spectrum\n"),
        (["verify", "c4", "short.col"],
         "error: coloring length must equal the number of vertices\n"),
        (["verify", "c4", "bad.col"], "error: line 3: expected an integer, got 'x'\n"),
        (["contract", "c6", "h5.vec", "g.vec", "cartesian", "--right", "k3"],
         "error: a vector of length 5 for a matrix of order 6\n"),
        (["contract", "c4", "two.vec", "g.vec", "cartesian", "--right", "k2"],
         "error: line 2: expected 1 entries, found 2\n"),
        (["product", "general", "c4", "k2", "--coeffs", "grid.txt"],
         "error: line 3: invalid literal for int() with base 10: 'x'\n"),
        (["product", "cartesian", "k2"], "error: a graph is missing\n"),
        (["spectrum", "c2"], "error: a cycle needs at least 3 vertices\n"),
        (["spectrum", "k0"], "error: invalid parameters (0,) for family 'complete'\n"),
        (["spectrum", "hamming", "0", "2"],
         "error: invalid parameters (0, 2) for family 'hamming'\n"),
        (["spectrum", "k\u00b2"], "error: expected an integer, got '\u00b2'\n"),
        (["census", "k4", "2", "--budget", "-5"], "error: the census budget must be >= 0, got -5\n"),
        (["spectrum", "c6", "c4"], "error: unused trailing arguments: ['c4']\n"),
        (["spectrum", "cycle", "99999999999999999999"],
         "error: family 'cycle' with parameters (99999999999999999999,) has more than "
         "16384 vertices\n"),
        (["spectrum", "cycle", "9223372036854775807", "--closed-form"],
         "error: family 'cycle' with parameters (9223372036854775807,) has more than "
         "16384 vertices\n"),
        (["spectrum", "hamming", "900", "1"],
         "error: family 'hamming' with parameters (900, 1) nests too deeply\n"),
        (["product", "cartesian", "c4", "k2", "k3"], "error: unused trailing arguments: ['k3']\n"),
        (["product", "general", "c4", "k2"], "error: the general product needs --coeffs FILE\n"),
    ])
    def test_malformed_input_exits_2(self, tmp_path, monkeypatch, capsys, argv, err):
        for name, text in self.FILES.items():
            write(tmp_path, name, text)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == err

    def test_a_bare_value_error_is_not_an_input_error(self, monkeypatch):
        def broken(*args):
            raise ValueError("a programming error")

        monkeypatch.setattr(cli, "numeric_spectrum", broken)
        with pytest.raises(ValueError, match="a programming error"):
            main(["spectrum", "c6", "--numeric"])

    @pytest.mark.parametrize("solver, argv", [
        ("eigvalsh", ["spectrum", "c6", "--numeric"]),          # eigenvalues
        ("eigvals", ["spectrum", "arc.graph", "--numeric"]),
        ("svd", ["verify", "c4", "w.col"]),                     # rank
        ("lstsq", ["verify", "c4", "w.col"]),                   # parameters_from_structure
        ("lstsq", ["product", "cartesian", "k2", "k2", "-o", "p.graph"]),  # joint_eigensystems
    ])
    def test_lapack_failure_is_an_input_error(self, tmp_path, monkeypatch, capsys,
                                              solver, argv):
        write(tmp_path, "w.col", "0.75 0.25\n0.25 0.75\n0.75 0.25\n0.25 0.75\n")
        write(tmp_path, "arc.graph", "matrix 2\n0 1\n0 0\n")
        monkeypatch.chdir(tmp_path)

        def failed(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, solver, failed)
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: did not converge\n"
        assert not (tmp_path / "p.graph").exists()
