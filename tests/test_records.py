"""Value semantics of the record classes: immutable, compared by value, picklable."""

import pickle
from fractions import Fraction

import pytest

from conftest import bigon_track
from stretchlab.classify import SpectralClass
from stretchlab.curvegraph import SimpleCycle
from stretchlab.families import FamilyForm
from stretchlab.matrices import IntMatrix, is_primitive
from stretchlab.poly import IntPolynomial
from stretchlab.roots import largest_real_root
from stretchlab.search import SearchConfig, run_search
from stretchlab.traintrack import weight_space

P = IntPolynomial


@pytest.mark.parametrize(
    "record, field",
    [
        (P((1, -3, 1)), "coeffs"),
        (IntMatrix([[1, 1], [1, 0]]), "rows"),
        (largest_real_root(P((-1, -1, 1))), "lo"),
        (largest_real_root(P((-1, -1, 1))), "polynomial"),
        (bigon_track(), "edges"),
        (is_primitive(IntMatrix([[1, 1], [1, 0]])), "primitive"),
    ],
    ids=["IntPolynomial", "IntMatrix", "RootEnclosure.lo", "RootEnclosure.polynomial",
         "TrainTrack", "PrimitivityReport"],
)
def test_fields_cannot_be_assigned_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


def test_train_track_still_caches_its_derived_data():
    track = bigon_track()
    assert weight_space(track) is weight_space(track)


@pytest.mark.parametrize(
    "make",
    [
        lambda: P([3, 0, -1, 0, 0]),
        lambda: IntMatrix([[2, 1], [1, 1]]),
        lambda: SimpleCycle((0, 2), (1, 0)),
    ],
    ids=["IntPolynomial", "IntMatrix", "SimpleCycle"],
)
def test_equal_values_are_equal_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_different_values_and_classes_differ():
    assert P((1, 1)) != P((1, 2))
    assert IntMatrix([[1]]) != IntMatrix([[2]])
    enclosure = largest_real_root(P((-1, -1, 1)))
    assert enclosure.powered(1) != enclosure  # a ValueInterval is no RootEnclosure


def test_spectral_class_asserts_its_factorisation():
    p = P((-1, -1, 1))
    with pytest.raises(AssertionError):
        SpectralClass(
            polynomial=p,
            reciprocal=None,
            skew_reciprocal=-1,
            cyclotomic_part=P((1, 1)),
            core=p,
            skew_up_to_cyclotomic=True,
            parity_ok=True,
            degenerate=False,
        )


def test_validating_constructors_still_raise():
    with pytest.raises(ValueError, match="unknown family tag"):
        FamilyForm("1A1", ())
    with pytest.raises(ValueError, match="takes 2 parameters"):
        FamilyForm("3A1", (1,))
    with pytest.raises(ValueError, match="positive"):
        FamilyForm("2A1", (0,))


@pytest.mark.parametrize(
    "make",
    [
        lambda: P((-1, -2, 0, 1)),
        lambda: largest_real_root(P((-1, -1, 1)), Fraction(1, 2**20)),
        lambda: run_search(SearchConfig(n=3, max_entry=1)),
    ],
    ids=["IntPolynomial", "RootEnclosure", "SearchResult"],
)
def test_pickle_round_trip(make):
    record = make()
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert type(copy) is type(record)
