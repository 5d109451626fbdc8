"""Preorder construction, comparison labels, and relation audits."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordext.contours import PartialUtility
from ordext.monotonicity import check_pareto_set_values
from ordext.orders import (
    BOTTOM,
    TOP,
    FinitePreorder,
    ForeignElementError,
    ParetoSpace,
    UnsupportedQueryError,
    strictly_above,
)

from reference import (
    is_antisymmetric,
    is_connected,
    is_maximal,
    is_minimal,
    is_reflexive,
    is_symmetric,
    is_transitive,
    matrix_rows,
    preorder_from_rows,
    rows_of,
    weakly_above,
)


def label(rel, x, y) -> str:
    """``>``, ``<``, ``~`` or ``|``: ``x`` strictly above, strictly below,
    equivalent to or incomparable with ``y``, from the three predicates,
    which must agree with each other."""
    above, below, same = rel.strictly_greater(x, y), rel.strictly_greater(y, x), rel.equivalent(x, y)
    assert above + below + same <= 1 and same == rel.equivalent(y, x)
    return ">" if above else "<" if below else "~" if same else "|"


def edge_sets(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=n * n,
            ),
        )
    )


def test_closure_reflexive_singleton():
    rel = FinitePreorder.closure(1, [])
    assert rel.geq(0, 0)


def test_closure_adds_transitive_pair():
    rel = FinitePreorder.closure(3, [(0, 1), (1, 2)])
    assert rel.geq(0, 2)
    assert not rel.geq(2, 0)


def test_closure_two_cycle_makes_equivalence():
    rel = FinitePreorder.closure(2, [(0, 1), (1, 0)])
    assert label(rel, 0, 1) == "~"


def test_closure_rejects_out_of_range():
    with pytest.raises(ForeignElementError):
        FinitePreorder.closure(2, [(0, 5)])
    # a negative size is no ground set, not an empty one
    for build, n in [(lambda n: FinitePreorder.closure(n, []), -3),
                     (FinitePreorder.chain, -2), (FinitePreorder.antichain, -1)]:
        with pytest.raises(ValueError, match=f"^n must be non-negative, got {n}$"):
            build(n)
    # a size is an exact int, as an element index is
    for build in (lambda n: FinitePreorder.closure(n, []), FinitePreorder.chain,
                  FinitePreorder.antichain):
        for n, shown in [(True, "True"), (2.0, "2.0"), ("3", "'3'")]:
            with pytest.raises(ValueError, match=f"^n must be an int, got {shown}$"):
                build(n)


@pytest.mark.parametrize("k, message", [
    (0, "dimension must be positive"),
    (-1, "dimension must be positive"),
    (True, "dimension must be an int, got True"),
    (2.5, "dimension must be an int, got 2.5"),
    ("3", "dimension must be an int, got '3'"),
])
def test_pareto_space_rejects_a_dimension_that_is_no_positive_int(k, message):
    with pytest.raises(ValueError) as err:
        ParetoSpace(k)
    assert str(err.value) == message


def test_matrix_validation_rejects_non_reflexive():
    with pytest.raises(ValueError, match="reflexive"):
        preorder_from_rows(matrix_rows([[False]]))


@pytest.mark.parametrize("matrix", [[[True, False]], [[True], [False, True]]],
                         ids=["short-column", "short-row"])
def test_matrix_validation_rejects_a_matrix_that_is_not_square(matrix):
    with pytest.raises(ValueError, match="^matrix is not square$"):
        preorder_from_rows(matrix_rows(matrix))


def test_finite_preorder_equals_no_other_kind_of_object():
    # a relation is equal only to itself: two builds of one order compare
    # by their rows
    rel, other, twin = FinitePreorder.chain(2), object(), FinitePreorder.chain(2)
    assert rel.__eq__(other) is NotImplemented
    assert not rel == other
    assert rel != other
    assert rel == rel and hash(rel) == hash(rel)
    assert rel != twin
    assert rows_of(rel) == rows_of(twin) == (0b01, 0b11)


@pytest.mark.parametrize(
    "rows, bad",
    [([0b11], 0), ([1, 2 | 1 << 40], 1), ([-1], 0), ([1.0], 0)],
    ids=["bit-at-n", "far-bit", "negative", "float"],
)
def test_rows_outside_the_ground_set_rejected(rows, bad):
    with pytest.raises(ValueError, match=f"^row {bad} is not a bitmask over elements 0..{len(rows) - 1}$"):
        preorder_from_rows(rows)


def test_matrix_validation_rejects_non_transitive():
    m = [
        [True, True, False],
        [False, True, True],
        [False, False, True],
    ]
    with pytest.raises(ValueError, match="transitive"):
        preorder_from_rows(matrix_rows(m))


@given(edge_sets())
def test_closure_idempotent(spec):
    n, pairs = spec
    rel = FinitePreorder.closure(n, pairs)
    pairs = [(i, j) for i in range(n) for j in range(n) if rel.geq(i, j)]
    again = FinitePreorder.closure(n, pairs)
    assert rows_of(rel) == rows_of(again)


@given(edge_sets())
def test_closure_output_is_valid_preorder(spec):
    n, pairs = spec
    rel = FinitePreorder.closure(n, pairs)
    assert is_reflexive(rel)
    assert is_transitive(rel)


def test_compare_label_symmetry_on_chain():
    rel = FinitePreorder.chain(3)
    assert label(rel, 2, 0) == ">"
    assert label(rel, 0, 2) == "<"
    assert label(rel, 1, 1) == "~"


def test_pareto_compare_labels():
    space = ParetoSpace(2)
    assert label(space, (1.0, 2.0), (0.0, 1.0)) == ">"
    assert label(space, (1.0, 0.0), (0.0, 1.0)) == "|"
    assert label(space, (1.0, 0.0), (1.0, 0.0)) == "~"


def test_pareto_rejects_wrong_dimension():
    with pytest.raises(ForeignElementError):
        ParetoSpace(2).geq((1.0,), (0.0, 0.0))


class Subfloat(float):
    """A real that is not exactly a float, like numpy's float64."""


@pytest.mark.parametrize(
    "point",
    [("a", "b"), (1.0, "b"), (None, 0.0), (True, 0.0), (1j, 0.0), (Decimal("1"), 0.0),
     (Fraction(1, 3), math.inf), (0.0, Subfloat("nan")), (10**400, 0.0), (0.0, -10**400),
     (Fraction(10**400), 0.0)],
    ids=["strings", "one-string", "none", "bool", "complex", "decimal", "inf-next-to-fraction",
         "float-subclass-nan", "int-beyond-float", "negative-int-beyond-float",
         "fraction-beyond-float"],
)
def test_pareto_rejects_non_numeric_coordinates(point):
    space = ParetoSpace(2)
    with pytest.raises(ForeignElementError):
        space.geq(point, (0.0, 0.0))
    with pytest.raises(ForeignElementError):
        check_pareto_set_values(space, PartialUtility({(0.0, 0.0): 0.0, point: 1.0}))


# repr of an int past the interpreter's 4300-digit limit itself raises
# ValueError; the messages name the type and bit length instead
@pytest.mark.parametrize("coord, shown", [
    (10**5000, "<int of 16610 bits>"),
    (-(10**5000), "<negative int of 16610 bits>"),
    (Fraction(10**5000, 3), "<Fraction of 16610 bits over 2 bits>"),
], ids=["int", "negative-int", "fraction"])
def test_foreign_errors_name_huge_numbers_by_size(coord, shown):
    with pytest.raises(ForeignElementError) as err:
        ParetoSpace(1).geq((coord,), (0.0,))
    assert str(err.value) == f"({shown},) has a non-finite coordinate"
    with pytest.raises(ForeignElementError) as err:
        ParetoSpace(2).geq((0.0, coord), (0.0, 0.0))
    assert str(err.value) == f"(0.0, {shown}) has a non-finite coordinate"
    with pytest.raises(ForeignElementError) as err:
        ParetoSpace(2).geq(coord, (0.0, 0.0))
    assert str(err.value) == f"{shown} is not a 2-vector"
    if isinstance(coord, int):
        with pytest.raises(ForeignElementError) as err:
            FinitePreorder.chain(3).geq(coord, 0)
        assert str(err.value) == f"{shown} is not an index below 3"
        with pytest.raises(ForeignElementError) as err:
            FinitePreorder.closure(3, [(0, 1), (coord, 0)])
        assert str(err.value) == f"pair ({shown}, 0) out of range for n=3"


@pytest.mark.parametrize("foreign", [True, False, -1, 3, 1.0, "0", None])
def test_finite_geq_refuses_a_foreign_or_bool_element(foreign):
    # 0 ~ 1 above 2: geq checks both ends before it reads a component
    rel = FinitePreorder.closure(3, [(0, 1), (1, 0), (1, 2)])
    for x, y in [(foreign, 0), (0, foreign), (foreign, 2), (2, foreign)]:
        with pytest.raises(ForeignElementError, match=" is not an index below 3$"):
            rel.geq(x, y)


def test_pareto_accepts_int_float_and_other_real_coordinates():
    space = ParetoSpace(2)
    assert label(space, (1, 2.0), (1.0, 2)) == "~"
    assert label(space, (-0.0, 0), (0.0, -0.0)) == "~"
    assert label(space, (Fraction(1, 3), Subfloat(2.0)), (0, 2)) == ">"


def test_finite_rejects_foreign_index():
    with pytest.raises(ForeignElementError):
        FinitePreorder.chain(2).geq(0, 7)


@given(edge_sets(4), st.data())
def test_compare_antisymmetry_of_labels(spec, data):
    n, pairs = spec
    rel = FinitePreorder.closure(n, pairs)
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    fwd = label(rel, x, y)
    back = label(rel, y, x)
    assert back == {">": "<", "<": ">"}.get(fwd, fwd)
    # on two elements the augmented test is the strict part of the order
    assert strictly_above(rel, x, y) == (fwd == ">")


def test_augmented_order():
    rel = FinitePreorder.antichain(2)
    tied = FinitePreorder.closure(3, [(1, 0), (2, 1), (1, 2)])
    space = ParetoSpace(2)
    # each pair with the label of x against y in the augmented order
    cases = [
        (rel, TOP, 0, ">"),
        (rel, 0, BOTTOM, ">"),
        (rel, TOP, TOP, "~"),
        (rel, BOTTOM, BOTTOM, "~"),
        (rel, TOP, BOTTOM, ">"),
        (rel, 0, 1, "|"),
        # interior points are the plain elements, compared by the preorder itself
        (tied, 1, 0, ">"),
        (tied, 0, 2, "<"),
        (tied, 1, 2, "~"),
        (tied, 2, 2, "~"),
        (tied, BOTTOM, 0, "<"),
        (tied, 2, TOP, "<"),
        (space, (1.0, 2.0), (0.0, 2.0), ">"),
        (space, (0.0, 0.0), (-0.0, 0), "~"),
        (space, (1, 2.0), (1.0, 2), "~"),
        (space, (1.0, 0.0), (0.0, 1.0), "|"),
        (space, (1e300, 1e300), TOP, "<"),
        (space, BOTTOM, (-1e300, -1e300), "<"),
        (space, TOP, BOTTOM, ">"),
    ]
    for rel, x, y, want in cases:
        assert strictly_above(rel, x, y) == (want == ">"), (rel, x, y)
        assert strictly_above(rel, y, x) == (want == "<"), (rel, x, y)
        # the reference builds the weak order from geq alone
        assert weakly_above(rel, x, y) == (want in ">~"), (rel, x, y)
        assert weakly_above(rel, y, x) == (want in "<~"), (rel, x, y)
        if TOP not in (x, y) and BOTTOM not in (x, y):
            assert label(rel, x, y) == want, (rel, x, y)
    for x, y in [((0.0,), (0.0, 0.0)), ((0.0, 0.0), (0.0,))]:
        with pytest.raises(ForeignElementError):
            strictly_above(space, x, y)


def test_maximal_minimal_on_chain():
    rel = FinitePreorder.chain(3)
    assert is_maximal(rel, 2)
    assert not is_maximal(rel, 1)
    assert is_minimal(rel, 0)
    assert not is_minimal(rel, 2)


def test_maximal_on_singleton():
    rel = FinitePreorder.chain(1)
    assert is_maximal(rel, 0) and is_minimal(rel, 0)


def test_maximal_unsupported_on_pareto():
    with pytest.raises(UnsupportedQueryError):
        is_maximal(ParetoSpace(2), (0.0, 0.0))


def test_equivalence_classes():
    rel = FinitePreorder.closure(4, [(0, 1), (1, 0), (2, 3)])
    assert rel.equivalence_classes() == [(0, 1), (2,), (3,)]
    # 0 ~ 1, both above 2, and 3 apart: closed rows give the relation the
    # pairs give
    from_pairs = FinitePreorder.closure(4, [(0, 1), (1, 0), (1, 2)])
    matrix = [[1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    from_rows = preorder_from_rows(matrix_rows([[bool(c) for c in row] for row in matrix]))
    assert rows_of(from_rows) == rows_of(from_pairs)
    assert from_rows.equivalence_classes() == from_pairs.equivalence_classes() == [
        (0, 1), (2,), (3,)]


def test_relation_audits():
    chain = FinitePreorder.chain(3)
    assert is_connected(chain)
    assert is_antisymmetric(chain)
    assert not is_symmetric(chain)
    loop = FinitePreorder.closure(2, [(0, 1), (1, 0)])
    assert is_symmetric(loop)
    assert not is_antisymmetric(loop)
    anti = FinitePreorder.antichain(3)
    assert not is_connected(anti)
    assert is_symmetric(anti)


def test_masks_match_pair_queries():
    rel = FinitePreorder.closure(3, [(0, 1), (1, 2)])
    assert all(rel.geq(0, y) for y in range(3))
    assert all(rel.geq(x, 2) for x in range(3))
    assert [rel.geq(x, 0) for x in range(3)] == [True, False, False]
