"""The package's result and input records are immutable values: a field cannot
be set, two records built from equal fields are equal and hash alike, they
build from keywords, and a record that validates refuses bad fields."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from perfstruct import colorings, contraction, graphs, matrix, products, structures
from perfstruct.colorings import CensusResult, Coloring, FractionalColoring
from perfstruct.contraction import ContractionInput
from perfstruct.errors import DimensionError
from perfstruct.graphs import Graph, Leaf, ProductFamily
from perfstruct.matrix import EigenSystem, Matrix, Spectrum, eigensystem_on
from perfstruct.products import NamedProduct, ProductSpec
from perfstruct.structures import CanonicalForm, PerfectStructure, UnityClassification


def k2() -> Matrix:
    return Matrix.exact([[0, 1], [1, 0]])


def identity2() -> Matrix:
    return Matrix.exact([[1, 0], [0, 1]])


def _ones(n):
    return np.ones((n, n), dtype=np.int64)


def _pair(n):
    return ("identity", n), ("complete", 2)


#: arrays are shared: equal records hold the same array, as an array has no
#: truth value to compare by, and a record that holds one has no hash
H = np.array([1, 1, 1, 1], dtype=np.complex128)
G = np.array([1, 1], dtype=np.complex128)
VALUES = np.array([-1, 1], dtype=np.complex128)

#: record -> a function giving its fields as fresh objects, by keyword
RECORDS = {
    Coloring: lambda: dict(colors=(1, 2, 1), k=2, class_sizes=(2, 1),
                           indicator=Matrix.exact([[1, 0], [0, 1], [1, 0]])),
    FractionalColoring: lambda: dict(weights=Matrix.exact([[Fraction(1, 2)] * 2] * 3)),
    CensusResult: lambda: dict(results=(), complete=True, evaluated=3),
    ContractionInput: lambda: dict(
        product_matrix=Matrix.exact(_ones(4)), h=H, nu=4, g=G,
        lambda_prime=2, lambda_dblprime=2, factor_orders=(2, 2)),
    Graph: lambda: dict(adjacency=k2(), family=("complete", 2)),
    Leaf: lambda: dict(arity=1, adjacency=_ones, eigenvalues=len),
    ProductFamily: lambda: dict(kind="tensor", arity=1, factors=_pair),
    EigenSystem: lambda: dict(values=VALUES, vectors=identity2().to_complex(), residual=0.0),
    Spectrum: lambda: dict(entries=((-1 + 0j, 1), (1 + 0j, 1))),
    ProductSpec: lambda: dict(left_factors=(k2(),), right_factors=(identity2(),),
                              coefficients=((1,),)),
    NamedProduct: lambda: dict(left=("M",), right=("L",), coefficients=((1,),)),
    PerfectStructure: lambda: dict(adjacency=k2(), structure=Matrix.exact([[1], [1]]),
                                   parameters=Matrix.exact([[1]])),
    CanonicalForm: lambda: dict(diagonal_parameters=Matrix.exact([[1]]),
                                eigen_columns=Matrix.exact([[1], [1]]),
                                basis_change=Matrix.exact([[1]])),
    UnityClassification: lambda: dict(case="zero_parameters"),
}

#: a validating record -> fields it refuses with DimensionError
BAD_FIELDS = {
    FractionalColoring: dict(weights=Matrix.exact([[1, 1]])),
    ContractionInput: dict(product_matrix=Matrix.exact(_ones(4)), h=G, nu=4, g=G,
                           lambda_prime=2, lambda_dblprime=2, factor_orders=(2, 2)),
    Graph: dict(adjacency=Matrix.exact([[0, 1]])),
    ProductSpec: dict(left_factors=(k2(),), right_factors=(identity2(),),
                      coefficients=((0,),)),
    PerfectStructure: dict(adjacency=k2(), structure=Matrix.exact([[1, 0, 0], [0, 1, 0]]),
                           parameters=identity2()),
}


def test_every_record_is_listed():
    records = {cls for module in (colorings, contraction, graphs, matrix, products, structures)
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and not cls.__name__.startswith("_")
               and (hasattr(cls, "_fields") or hasattr(cls, "__dataclass_fields__"))}
    assert records == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_builds_from_keywords(self, cls):
        fields = RECORDS[cls]()
        record = cls(**fields)
        for name, value in fields.items():
            assert getattr(record, name) is value

    def test_a_field_cannot_be_set(self, cls):
        fields = RECORDS[cls]()
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)

    def test_equal_and_hashed_by_value(self, cls):
        a, b = cls(**RECORDS[cls]()), cls(**RECORDS[cls]())
        assert a == b and not a != b
        if not any(isinstance(v, np.ndarray) for v in RECORDS[cls]().values()):
            assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", BAD_FIELDS, ids=lambda cls: cls.__name__)
def test_a_validating_record_refuses_bad_fields(cls):
    with pytest.raises(DimensionError):
        cls(**BAD_FIELDS[cls])


@pytest.mark.parametrize("cls", BAD_FIELDS, ids=lambda cls: cls.__name__)
def test_replace_checks_the_new_fields(cls):
    record = cls(**RECORDS[cls]())
    assert type(record._replace()) is cls and record._replace() == record
    with pytest.raises(DimensionError):
        record._replace(**BAD_FIELDS[cls])


def test_a_differing_field_is_unequal():
    assert Graph(k2()) != Graph(k2(), family=("complete", 2))
    assert CensusResult((), True, 3) != CensusResult((), False, 3)


def test_repr_names_the_record_and_its_fields():
    assert repr(Graph(k2())) == (
        "Graph(adjacency=Matrix([[Fraction(0, 1), Fraction(1, 1)], "
        "[Fraction(1, 1), Fraction(0, 1)]], domain='exact'), family=None)")
    assert repr(Spectrum(((-1, 1), (1, 1)))) == "Spectrum(entries=((-1, 1), (1, 1)))"
    assert repr(CensusResult((), True, 3)) == (
        "CensusResult(results=(), complete=True, evaluated=3)")



#: record -> (a function building it over a matrix, an exact such matrix)
MATRIX_RECORDS = {
    Graph: (lambda m: Graph(m, family=("complete", 2)), k2()),
    Coloring: (lambda m: Coloring(colors=(1, 2, 1), k=2, class_sizes=(2, 1), indicator=m),
               Matrix.exact([[1, 0], [0, 1], [1, 0]])),
    PerfectStructure: (lambda m: PerfectStructure(m, Matrix.ones(2, 1, m.domain),
                                                  Matrix.ones(1, 1, m.domain)), k2()),
    EigenSystem: (lambda m: eigensystem_on(k2(), m), Matrix.exact([[1, 1], [1, -1]])),
}


@pytest.mark.parametrize("copier", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("domain", ["exact", "complex"])
@pytest.mark.parametrize("cls", MATRIX_RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_holding_a_matrix_survives_pickle_and_deepcopy(cls, domain, copier):
    build, m = MATRIX_RECORDS[cls]
    record = build(m if domain == "exact" else m.to_complex())
    twin = copier(record)
    assert type(twin) is cls and twin is not record
    for x, y in zip(twin, record):  # an array field compares by its entries
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
