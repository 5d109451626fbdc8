"""The relation build against its per-bit references.

``FinitePreorder.closure`` makes one Tarjan walk over the pairs, which
closes the strongly connected components, and checks them
(``orders._condense``).  The rows wait for their first use: one fold
over the same components builds them, and the walk's certificate
(``orders._certify``) checks them there.  The constructor
``FinitePreorder(rows)`` condenses the pairs its rows name by the same
walk, runs the same certificate on the rows it is given and keeps them,
with no fold; rows that fail it are not transitive.  The per-bit loops
of the test tree's ``reference`` module (``warshall_closure``,
``pairwise_check_transitive``) must give the same rows, witness and
error text; a tampered certificate must raise.
"""

import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordext import orders
from ordext.cli import EXIT_INTERNAL, main
from ordext.orders import (
    CertificateError,
    FinitePreorder,
    ForeignElementError,
    _certify,
    _condense,
    _fold_rows,
    _tarjan,
)

from reference import pairwise_check_transitive, warshall_closure


def assert_closure_matches(n, pairs):
    rel = FinitePreorder.closure(n, pairs)
    assert list(rel._rows) == warshall_closure(n, pairs)


@st.composite
def digraphs(draw, max_n=40):
    """Edge lists with self-loops, duplicates, 2-cycles and long cycles."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    if n > 1 and draw(st.booleans()):
        # a cycle through a random subset, listed in either direction
        cycle = draw(st.lists(node, min_size=2, unique=True))
        pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    if pairs and draw(st.booleans()):
        i, j = draw(st.sampled_from(pairs))
        pairs += [(j, i), (i, j)]
    return n, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_closure_matches_warshall_on_small_digraphs(graph):
    assert_closure_matches(*graph)


def random_dag(rng, n, out_degree=3.0):
    order = list(range(n))
    rng.shuffle(order)
    p = out_degree / n
    return [(order[hi], order[lo]) for hi in range(n) for lo in range(hi) if rng.random() < p]


def ranking_with_ties(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    levels, pos = [], 0
    while pos < n:
        size = rng.randint(1, 4)
        levels.append(order[pos:pos + size])
        pos += size
    pairs = []
    for level in levels:
        pairs += [(a, b) for a, b in zip(level, level[1:] + level[:1]) if a != b]
    for below, above in zip(levels, levels[1:]):
        pairs += [(x, rng.choice(below)) for x in above]
    rng.shuffle(pairs)
    return pairs


@settings(max_examples=6, deadline=None)
@given(st.integers(300, 600), st.sampled_from([random_dag, ranking_with_ties]),
       st.integers(0, 2**32 - 1))
def test_closure_matches_warshall_on_large_relations(n, make, seed):
    assert_closure_matches(n, make(random.Random(seed), n))


# closed rows are the matrix as they are: the constructor certifies
# them and folds nothing, on the first geq too
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 600), st.sampled_from([random_dag, ranking_with_ties]),
       st.integers(0, 2**32 - 1))
def test_rows_constructor_folds_nothing_and_equals_the_closure(n, make, seed):
    pairs = make(random.Random(seed), n)
    rows = warshall_closure(n, pairs)

    def no_fold(*args):
        raise AssertionError("the rows constructor folded its rows")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orders, "_fold_rows", no_fold)
        rel = FinitePreorder(rows)
        assert rel.geq(n - 1, n - 1)
        assert rel._rows == tuple(rows)
    assert rel == FinitePreorder.closure(n, pairs)


@pytest.mark.parametrize("top_first", [False, True], ids=["bottom-first", "top-first"])
@pytest.mark.parametrize("backwards", [False, True], ids=["pairs-up", "pairs-down"])
def test_closure_of_2000_chain(big_chain, top_first, backwards):
    n = 2000
    full = (1 << n) - 1
    down_sets = [(1 << (i + 1)) - 1 for i in range(n)]
    up_sets = [full & ~((1 << i) - 1) for i in range(n)]
    if top_first:
        # element 0 is the top: each element sits above the next one
        pairs = [(i, i + 1) for i in range(n - 1)]
        rows = up_sets
    else:
        pairs = [(i + 1, i) for i in range(n - 1)]
        rows = down_sets
    if backwards:
        pairs.reverse()
    rel = FinitePreorder.closure(n, pairs)
    assert rel._rows == tuple(rows)
    if not top_first:
        assert rel == big_chain


def test_closure_of_2000_antichain(big_antichain):
    rel = FinitePreorder.closure(2000, [(i, i) for i in range(0, 2000, 3)])
    assert rel._rows == big_antichain._rows == tuple(1 << i for i in range(2000))


@pytest.mark.parametrize("pairs, bad", [
    ([(0, 1), (2, 3), (1, 0)], (2, 3)),
    ([(0, 1), (-1, 0)], (-1, 0)),
    ([(0, 3), (3, 0)], (0, 3)),
    # an endpoint is an int, not a bool or a float
    ([(0, 1), (True, False)], (True, False)),
    ([(0, 1), (1.0, 0), (5, 0)], (1.0, 0)),
])
def test_closure_rejects_first_out_of_range_pair(pairs, bad):
    message = f"pair {bad} out of range for n=3"
    with pytest.raises(ForeignElementError) as fast:
        FinitePreorder.closure(3, pairs)
    with pytest.raises(ForeignElementError) as ref:
        warshall_closure(3, pairs)
    assert str(fast.value) == str(ref.value) == message


@st.composite
def perturbed_rows(draw, max_n=40):
    """Closed rows of a random digraph with a few bits flipped (kept reflexive)."""
    n, pairs = draw(digraphs(max_n))
    rows = warshall_closure(n, pairs)
    if n:
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.integers(0, n - 1))
            j = draw(st.integers(0, n - 1))
            rows[i] = (rows[i] ^ (1 << j)) | (1 << i)
    return rows


def transitivity_error(rows):
    """The ``ValueError`` text of ``FinitePreorder(rows)``, or None."""
    try:
        FinitePreorder(rows)
    except ValueError as exc:
        return str(exc)
    return None


def assert_transitivity_error_matches_reference(rows):
    witness = pairwise_check_transitive(rows)
    expected = None if witness is None else f"relation is not transitive through pair {witness}"
    assert transitivity_error(rows) == expected


@settings(max_examples=250, deadline=None)
@given(perturbed_rows())
def test_transitivity_check_matches_reference(rows):
    assert_transitivity_error_matches_reference(rows)


@settings(max_examples=10, deadline=None)
@given(st.integers(300, 600), st.sampled_from([random_dag, ranking_with_ties]),
       st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_transitivity_check_matches_reference_on_large_relations(n, make, seed, flips):
    rng = random.Random(seed)
    rows = warshall_closure(n, make(rng, n))
    for _ in range(flips):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i] = (rows[i] ^ (1 << j)) | (1 << i)
    assert_transitivity_error_matches_reference(rows)


def test_matrix_rejection_keeps_message_and_witness():
    # 2 >= 1 >= 0 without 2 >= 0; the first row to fail is 2, through 1
    matrix = [
        [True, False, False],
        [True, True, False],
        [False, True, True],
    ]
    with pytest.raises(ValueError) as err:
        FinitePreorder.from_geq_matrix(matrix)
    assert str(err.value) == "relation is not transitive through pair (2, 1)"
    with pytest.raises(ValueError) as err:
        FinitePreorder.from_geq_matrix([[True, False], [False, False]])
    assert str(err.value) == "relation is not reflexive at element 1"


def walked(n, pairs):
    """The pairs, the components and component index of one walk, and the
    rows folded over them."""
    succ = [[] for _ in range(n)]
    for i, j in pairs:
        succ[i].append(j)
    components = _tarjan(succ)
    comp, below = _condense(succ, components)
    rows = _fold_rows(components, below, comp)
    return succ, components, comp, rows


# 2 >= 1 >= 0, and 3 ~ 4 above 2
CERTIFIED_PAIRS = [(1, 0), (2, 1), (3, 4), (4, 3), (3, 2)]


def component_of(components, element):
    return next(c for c, members in enumerate(components) if element in members)


def merge_unconnected(components, rows):
    # 0 and 1 share a row, but 0 reaches nothing
    c0, c1 = sorted((component_of(components, 0), component_of(components, 1)))
    components[c0] = [0, 1]
    del components[c1]
    rows[0] = rows[1]


def merge_reached_one_way(components, rows):
    # 1 reaches 0, but 0 does not reach 1: the walk forward from the first
    # member, 1, reaches every member, and only the walk backward fails
    c0, c1 = sorted((component_of(components, 0), component_of(components, 1)))
    components[c0] = [1, 0]
    del components[c1]
    rows[0] = rows[1]


def pair_into_later(components, rows):
    c0, c1 = component_of(components, 0), component_of(components, 1)
    components[c0], components[c1] = components[c1], components[c0]


def drop_successor_bits(components, rows):
    rows[2] &= ~1          # 2 >= 1 >= 0, yet row 2 lacks 0


def add_extra_bit(components, rows):
    rows[1] |= 1 << 4      # 1 does not reach 4


def in_two_components(components, rows):
    components.append([0])


def in_no_component(components, rows):
    del components[component_of(components, 0)]


@pytest.mark.parametrize("tamper, message", [
    (merge_unconnected, "component 0 is not strongly connected"),
    (merge_reached_one_way, "component 0 is not strongly connected"),
    (pair_into_later, r"pair \(1, 0\) leads into a later component"),
    (drop_successor_bits, "row 2 is not the closure of its pairs"),
    (add_extra_bit, "row 1 is not the closure of its pairs"),
    (in_two_components, "element 0 is in components 0 and 4"),
    (in_no_component, "element 0 is in no component"),
])
def test_tampered_certificate_raises(tamper, message):
    succ, components, comp, rows = walked(5, CERTIFIED_PAIRS)
    _certify(succ, components, comp, rows)
    assert rows == warshall_closure(5, CERTIFIED_PAIRS)
    tamper(components, rows)
    with pytest.raises(CertificateError, match=message):
        if tamper in (drop_successor_bits, add_extra_bit):
            _certify(succ, components, comp, rows)  # check 3, of the rows
        else:
            _condense(succ, components)  # checks 1, 2 and 4, of the walk


GOLDEN_CASES = Path(__file__).parent / "golden" / "cases"


def test_failed_certificate_is_an_internal_error(monkeypatch, capsys):
    def faulty_walk(succ):
        # the components in the order opposite to the one they closed in
        return _tarjan(succ)[::-1]

    monkeypatch.setattr(orders, "_tarjan", faulty_walk)
    with pytest.raises(CertificateError):
        FinitePreorder.closure(2, [(1, 0)])
    assert main(["check", str(GOLDEN_CASES / "finite-dag.json")]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: CertificateError: ")


def test_faulty_row_build_fails_its_certificate_on_first_use(monkeypatch):
    def faulty_fold(components, below, comp):
        # the last element's row loses its own bit
        rows = _fold_rows(components, below, comp)
        rows[-1] &= ~(1 << (len(rows) - 1))
        return rows

    monkeypatch.setattr(orders, "_fold_rows", faulty_fold)
    rel = FinitePreorder.closure(2, [(1, 0)])  # no row is built yet
    with pytest.raises(CertificateError, match="row 1 is not the closure of its pairs"):
        rel.geq(1, 0)


def sparse_random_dag(rng, n, pairs_per_element=3):
    """``pairs_per_element * n`` random pairs, all down a random order.

    ``random_dag`` draws once per ordered pair, too slow at n = 20000.
    """
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for _ in range(pairs_per_element * n):
        lo, hi = sorted(rng.sample(range(n), 2))
        pairs.append((order[hi], order[lo]))
    return pairs


# building and certifying the rows holds little beside them: the peak is
# about 1.15 times the rows at n = 20000
@pytest.mark.slow
def test_closure_peak_memory_stays_near_its_output():
    n = 20000
    pairs = sparse_random_dag(random.Random(n), n)
    tracemalloc.start()
    try:
        rel = FinitePreorder.closure(n, pairs)
        rel.geq(0, 0)  # builds the rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # members of one component share their row object: count each once
    output = {id(mask): sys.getsizeof(mask) for mask in rel._rows}
    assert peak <= 1.5 * sum(output.values())
