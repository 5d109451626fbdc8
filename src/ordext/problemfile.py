"""Problem-file parsing and validation.

A problem file is one JSON document.  Keys are order-insensitive and
unknown keys are rejected so typos surface as errors, not silence.

::

    {
      "space": {"kind": "finite",
                "elements": ["low", "mid", "high"],
                "geq": [["mid", "low"], ["high", "mid"]]},
      "samples": [{"element": "low", "value": 0.0},
                  {"element": "high", "value": 1.0}],
      "alpha": 0.0,
      "beta": 1.0
    }

A ``geq`` pair ``[x, y]`` declares x above y; the relation stored is the
reflexive-transitive closure.  Pareto spaces use
``{"kind": "pareto", "dimension": 2}`` with samples keyed by ``point``
(an array of decimals), and may carry a ``base_utility`` of
``{"kind": "weighted-sum", "weights": [...]}``.  A fixture document is
just ``{"space": {"kind": "fixture", "name": "example-gap"}}``; fixtures
carry their own sample structure and support diagnosis only.

Every value is checked here, where a bad one can be named by its
location.  Pareto samples and queries are checked in bulk first: a list
in which every coordinate and value is written as a finite decimal with
a point or an exponent (a JSON float) is accepted by a few C-level
passes over the whole list (:func:`ordext.orders.all_float_vectors`).  Any other
list is checked entry by entry, and the first bad entry raises the
:class:`ProblemFileError` naming it.  The engine's layers check what
they are handed again, in bulk the same way.  A finite space's element
names and ``geq`` pairs are checked in bulk too: the names by their
types, one UTF-8 encode of their concatenation and a uniqueness count,
and the pairs by their shapes and one ``map(index.get, ...)`` pass that
resolves every name to its position, so the relation is built from
positions and no name is looked up twice.  Anything the bulk pass
declines goes through the per-entry loop.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, count, islice
from operator import eq, itemgetter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ordext.contours import AnalyticFixture, FiniteSampleOracle, PartialUtility
from ordext.extension import ExtensionEngine, make_engine
from ordext.fixtures import FIXTURE_NAMES, get_fixture
from ordext.orders import (
    Element,
    FinitePreorder,
    ParetoSpace,
    Preorder,
    UnsupportedQueryError,
    all_finite_floats,
    all_float_vectors,
)
from ordext.utility import pareto_base_utility

__all__ = [
    "ProblemFileError",
    "ProblemInstance",
    "parse_base_utility_flag",
    "parse_problem",
    "parse_queries",
]


class ProblemFileError(ValueError):
    """Rejection carrying a dotted location into the document."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.message = message


# The helpers below take the location as a ``str.format`` template and
# its arguments, and fill it in only to raise, so that accepted input,
# one entry per sample or coordinate, formats no location string.


def _as_object(value, location, *args):
    if not isinstance(value, dict):
        raise ProblemFileError(location.format(*args), "expected an object")
    return value


def _known_keys(obj, allowed, location, *args):
    for key in obj:
        if key not in allowed:
            raise ProblemFileError(
                f"{location.format(*args)}.{key}",
                f"unknown key (allowed: {', '.join(sorted(allowed))})",
            )


def _as_number(value, location, *args):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(location.format(*args), "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the range of a float
        value = math.inf
    if not math.isfinite(value):
        raise ProblemFileError(location.format(*args), "expected a finite number")
    return value


# The range must leave room for evaluate's arithmetic (extension.py).  With M
# the largest |sample value| and R = max(|alpha|, |beta|), evaluate blends bounds
# a <= b, each a sample value or infinite, with a unit value 0 <= u <= 1:
#   lo = max(a, min(b, beta) - beta + alpha)   every term within M + 2R
#   hi = min(b, max(a, alpha) - alpha + beta)  every term within M + 2R
#   lo + (hi - lo) * u                         0 <= hi - lo <= beta - alpha <= 2R,
#                                              and the blend lies in [lo, hi]
# so, exactly, every intermediate lies within M + 2R.  The ten roundings on
# the way move these values by less than 16 * 2**-53 * (M + 2R) in all, so
# M + 2R at most _ROOM, a relative 2**-40 below the largest float, keeps
# every intermediate finite.  The squash into (alpha, beta) stays within 2R
# by the same margin.  (max and min name the caps that evaluate writes as
# comparisons with the same values.)
_ROOM = (1 - 2**-40) * sys.float_info.max


def _check_range(alpha, beta, samples):
    if not alpha < beta:
        raise ProblemFileError("alpha", f"alpha must be below beta (got {alpha} >= {beta})")
    # the engine and the squash divide by and scale with beta - alpha
    if not math.isfinite(beta - alpha):
        raise ProblemFileError(
            "beta", f"beta - alpha must be finite (got alpha={alpha}, beta={beta})"
        )
    top = max(map(abs, map(itemgetter(1), samples)), default=0.0)
    if not top + 2 * max(abs(alpha), abs(beta)) <= _ROOM:
        raise ProblemFileError(
            "beta",
            f"max |sample value| + 2 * max(|alpha|, |beta|) must be at most {_ROOM} "
            f"(got max |sample value|={top}, alpha={alpha}, beta={beta})",
        )


@dataclass(frozen=True)
class ProblemInstance:
    """A validated problem file, normalized for value comparison."""

    kind: str  # "finite" | "pareto" | "fixture"
    alpha: float = 0.0
    beta: float = 1.0
    element_names: Tuple[str, ...] = ()
    geq_pairs: Tuple[Tuple[int, int], ...] = ()  # (above, below) positions in element_names
    dimension: int = 0
    fixture_name: str = ""
    samples: Tuple[Tuple[Any, float], ...] = ()
    base_utility: Optional[Tuple[Any, ...]] = None  # ("levels",) | ("weighted-sum", weights)

    def relation(self) -> Preorder:
        """The ambient preorder, built on first use and reused after."""
        return self._relation

    @cached_property
    def _element_index(self) -> Dict[str, int]:
        """Name -> position in ``element_names``."""
        return _name_index(self.element_names)

    @cached_property
    def _relation(self) -> Preorder:
        if self.kind == "finite":
            return FinitePreorder.closure(len(self.element_names), self.geq_pairs)
        if self.kind == "pareto":
            return ParetoSpace(self.dimension)
        return self.fixture().ambient

    def fixture(self) -> AnalyticFixture:
        if self.kind != "fixture":
            raise UnsupportedQueryError("not a fixture instance")
        return get_fixture(self.fixture_name)

    def sample_utility(self) -> PartialUtility:
        """Samples keyed by engine-level elements (indices or tuples)."""
        if self.kind == "fixture":
            raise UnsupportedQueryError("fixtures carry their own sample structure")
        return self._sample_utility

    @cached_property
    def _sample_utility(self) -> PartialUtility:
        if self.kind == "finite":
            index = self._element_index
            return PartialUtility({index[name]: v for name, v in self.samples})
        return PartialUtility(dict(self.samples))

    def element_label(self, x: Element) -> str:
        if self.kind == "finite":
            return self.element_names[x]
        if isinstance(x, tuple):
            # compact, space-free form so table columns stay splittable
            return "(" + ",".join(map(repr, x)) + ")"
        return repr(x)

    def to_engine(self) -> ExtensionEngine:
        if self.kind == "fixture":
            raise UnsupportedQueryError(
                "fixture instances support diagnosis only; no engine is built"
            )
        rel = self.relation()
        oracle = FiniteSampleOracle(rel, self.sample_utility())
        base = None
        if self.base_utility is not None and self.base_utility[0] == "weighted-sum":
            base = pareto_base_utility(rel, self.base_utility[1])
        return make_engine(oracle, alpha=self.alpha, beta=self.beta, base_utility=base)

    def with_range(self, alpha: Optional[float], beta: Optional[float]) -> "ProblemInstance":
        new_alpha = self.alpha if alpha is None else alpha
        new_beta = self.beta if beta is None else beta
        _check_range(new_alpha, new_beta, self.samples)
        return replace(self, alpha=new_alpha, beta=new_beta)

    def with_base_utility(self, descriptor) -> "ProblemInstance":
        _validate_base(descriptor, self.kind, self.dimension, "base_utility")
        return replace(self, base_utility=descriptor)


def _validate_base(descriptor, kind, dimension, location):
    if descriptor[0] == "levels":
        if kind != "finite":
            raise ProblemFileError(location, "levels utility applies to finite relations only")
    elif descriptor[0] == "weighted-sum":
        if kind != "pareto":
            raise ProblemFileError(location, "weighted-sum utility applies to pareto spaces only")
        weights = descriptor[1]
        if len(weights) != dimension:
            raise ProblemFileError(
                f"{location}.weights", f"expected {dimension} weights, got {len(weights)}"
            )
        if any(w <= 0 for w in weights):
            raise ProblemFileError(f"{location}.weights", "weights must be positive")


def _name_index(names: Sequence[str]) -> Dict[str, int]:
    return dict(zip(names, range(len(names))))


def _lookup(index: Mapping[str, int], name) -> Optional[int]:
    """Position of an element name, or None; a non-string is never a name."""
    return index.get(name) if isinstance(name, str) else None


def _names_in_bulk(names: list) -> Optional[Dict[str, int]]:
    """The index of the element names, checked in bulk, or None.

    Accepts only a list of non-empty strings that encode as UTF-8 and are
    unique, by a few C-level passes; whatever this declines,
    :func:`_each_name` checks name by name.
    """
    if not (set(map(type, names)) <= {str} and all(names)):
        return None
    try:
        "".join(names).encode("utf-8")
    except UnicodeEncodeError:
        return None
    index = _name_index(names)
    return index if len(index) == len(names) else None


def _each_name(names: list) -> Dict[str, int]:
    """The index of the element names, checked one by one; raises on the first bad one."""
    for i, name in enumerate(names):
        if not isinstance(name, str) or not name:
            raise ProblemFileError(f"space.elements[{i}]", "expected a non-empty string")
        # a lone surrogate (a JSON escape like \ud800) cannot be printed;
        # names in samples and queries must match one of these, so
        # rejecting it here rejects it there too
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ProblemFileError(
                f"space.elements[{i}]", "name cannot be encoded as UTF-8"
            ) from None
    index = _name_index(names)
    if len(index) != len(names):
        raise ProblemFileError("space.elements", "element names must be unique")
    return index


def _pairs_in_bulk(raw: list, index: Mapping[str, int]) -> Optional[List[Tuple[int, int]]]:
    """The ``geq`` pairs as positions, resolved in one ``map(index.get, ...)``
    pass, or None; whatever this declines, :func:`_each_pair` checks pair by pair."""
    if not (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}):
        return None
    names = list(chain.from_iterable(raw))
    if not set(map(type, names)) <= {str}:
        return None
    positions = list(map(index.get, names))
    if None in positions:
        return None
    return list(zip(positions[::2], positions[1::2]))


def _each_pair(raw: list, index: Mapping[str, int]) -> List[Tuple[int, int]]:
    """The ``geq`` pairs as positions, checked one by one; raises on the first bad one."""
    pairs = []
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ProblemFileError(f"space.geq[{i}]", "expected a [above, below] pair")
        for name in pair:
            if _lookup(index, name) is None:
                raise ProblemFileError(f"space.geq[{i}]", f"unknown element {name!r}")
        pairs.append((index[pair[0]], index[pair[1]]))
    return pairs


def _parse_space(doc):
    space = _as_object(doc.get("space"), "space")
    kind = space.get("kind")
    if kind == "finite":
        _known_keys(space, {"kind", "elements", "geq"}, "space")
        names = space.get("elements")
        if not isinstance(names, list) or not names:
            raise ProblemFileError("space.elements", "expected a non-empty array of names")
        index = _names_in_bulk(names)
        if index is None:
            index = _each_name(names)
        raw_pairs = space.get("geq", [])
        if not isinstance(raw_pairs, list):
            raise ProblemFileError("space.geq", "expected an array of [above, below] pairs")
        pairs = _pairs_in_bulk(raw_pairs, index)
        if pairs is None:
            pairs = _each_pair(raw_pairs, index)
        return {
            "kind": "finite",
            "element_names": tuple(names),
            "element_index": index,
            "geq_pairs": tuple(pairs),
        }
    if kind == "pareto":
        _known_keys(space, {"kind", "dimension"}, "space")
        dim = space.get("dimension")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ProblemFileError("space.dimension", "expected a positive integer")
        return {"kind": "pareto", "dimension": dim}
    if kind == "fixture":
        _known_keys(space, {"kind", "name"}, "space")
        name = space.get("name")
        if name not in FIXTURE_NAMES:
            raise ProblemFileError(
                "space.name", f"unknown fixture (available: {', '.join(FIXTURE_NAMES)})"
            )
        return {"kind": "fixture", "fixture_name": name}
    raise ProblemFileError("space.kind", "expected 'finite', 'pareto', or 'fixture'")


def _float_samples(raw, dimension):
    """``(point, value)`` per Pareto sample entry, checked in bulk, or None.

    Accepts only a list in which every entry is an object holding exactly
    a ``point`` of ``dimension`` finite floats and a finite float
    ``value``, and no two points are equal; whatever this declines,
    :func:`_each_sample` checks entry by entry.
    """
    if not (set(map(type, raw)) <= {dict} and set(map(len, raw)) <= {2}):
        return None
    try:
        points = list(map(itemgetter("point"), raw))
        values = list(map(itemgetter("value"), raw))
    except KeyError:
        return None
    if not (all_finite_floats(values) and all_float_vectors(points, list, dimension)):
        return None
    keys = list(map(tuple, points))
    if len(set(keys)) < len(keys):  # a repeated point, -0.0 and 0.0 alike
        return None
    return list(zip(keys, values))


def _parse_samples(doc, kind, element_index, dimension):
    """The file's ``(key, value)`` samples, checked, in sample order.

    Sample order is the order of each key's ``repr``, whatever the
    listing order; where samples tie, the first in it is the partner a
    witness names and the sample that attains a tied bound.  Finite keys
    are sorted by their reprs.  A Pareto key is a tuple of finite floats
    (:func:`_as_number` converts ints), and its repr sorts like the tuple
    of its coordinates' reprs: where one coordinate's repr is a proper
    prefix of another's (``1.5`` / ``1.55``, ``5e-32`` / ``5e-324``,
    ``1.5`` / ``1.5e+16``), the shorter is followed in the tuple's repr
    by ``,`` or ``)``, and both sort below every character that can
    continue a float repr: the digits, ``.`` and ``e``.  So
    :func:`_sample_order` needs one float ``repr`` per sample, of its
    first coordinate, and the whole ``repr`` only of samples that share
    one.
    """
    raw = doc.get("samples", [])
    if not isinstance(raw, list):
        raise ProblemFileError("samples", "expected an array of sample entries")
    out = _float_samples(raw, dimension) if kind == "pareto" else None
    if out is None:
        out = _each_sample(raw, kind, element_index, dimension)
    if kind == "pareto":
        return _sample_order(out)
    return tuple(sorted(out, key=lambda kv: repr(kv[0])))


def _sample_order(samples):
    """Pareto ``(point, value)`` pairs sorted by ``repr(point)``: by the
    repr of the first coordinate, and each run of samples that share it
    (the same float, as ``repr`` is injective on floats) by the whole repr."""
    heads = [repr(point[0]) for point, _ in samples]
    order = sorted(range(len(samples)), key=heads.__getitem__)
    ranked = list(map(heads.__getitem__, order))
    # each j at which ranked repeats the head before it; at the second
    # sample of a run, the whole run is sorted
    for j in compress(count(1), map(eq, ranked, islice(ranked, 1, None))):
        if j == 1 or ranked[j - 2] != ranked[j]:
            end = bisect_right(ranked, ranked[j], j)
            order[j - 1:end] = sorted(order[j - 1:end], key=lambda i: repr(samples[i][0]))
    return tuple(map(samples.__getitem__, order))


def _each_sample(raw, kind, element_index, dimension):
    """``(key, value)`` per sample entry, checked one by one; raises on the first bad one."""
    seen = set()
    out = []
    for i, entry in enumerate(raw):
        entry = _as_object(entry, "samples[{}]", i)
        value = _as_number(entry.get("value"), "samples[{}].value", i)
        if kind == "finite":
            _known_keys(entry, {"element", "value"}, "samples[{}]", i)
            name = entry.get("element")
            if _lookup(element_index, name) is None:
                raise ProblemFileError(f"samples[{i}].element", f"unknown element {name!r}")
            key = name
        else:
            _known_keys(entry, {"point", "value"}, "samples[{}]", i)
            point = entry.get("point")
            if not (isinstance(point, list) and len(point) == dimension):
                raise ProblemFileError(
                    f"samples[{i}].point", f"expected an array of {dimension} decimals"
                )
            key = tuple(
                _as_number(c, "samples[{}].point[{}]", i, j) for j, c in enumerate(point)
            )
        if key in seen:
            raise ProblemFileError(f"samples[{i}]", f"duplicate sample for {key!r}")
        seen.add(key)
        out.append((key, value))
    return out


def _weights(values):
    """Base-utility weights, from the file or the flag, as finite floats."""
    return tuple(_as_number(w, "base_utility.weights[{}]", i) for i, w in enumerate(values))


def _parse_base_descriptor(doc, kind, dimension):
    raw = doc.get("base_utility")
    if raw is None:
        return None
    obj = _as_object(raw, "base_utility")
    base_kind = obj.get("kind")
    if base_kind == "levels":
        _known_keys(obj, {"kind"}, "base_utility")
        descriptor = ("levels",)
    elif base_kind == "weighted-sum":
        _known_keys(obj, {"kind", "weights"}, "base_utility")
        weights = obj.get("weights")
        if not isinstance(weights, list) or not weights:
            raise ProblemFileError("base_utility.weights", "expected a non-empty array")
        descriptor = ("weighted-sum", _weights(weights))
    else:
        raise ProblemFileError("base_utility.kind", "expected 'levels' or 'weighted-sum'")
    _validate_base(descriptor, kind, dimension, "base_utility")
    return descriptor


def _decode(text: str):
    """The JSON document of a problem or queries file."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, deep nesting
        raise ProblemFileError("$", f"not valid JSON: {exc}") from exc


def parse_problem(text: str) -> ProblemInstance:
    doc = _as_object(_decode(text), "$")
    space = _parse_space(doc)
    kind = space["kind"]
    if kind == "fixture":
        _known_keys(doc, {"space"}, "$")
        return ProblemInstance(kind="fixture", fixture_name=space["fixture_name"])
    _known_keys(doc, {"space", "samples", "alpha", "beta", "base_utility"}, "$")
    alpha = _as_number(doc.get("alpha", 0.0), "alpha")
    beta = _as_number(doc.get("beta", 1.0), "beta")
    samples = _parse_samples(
        doc, kind, space.get("element_index"), space.get("dimension", 0)
    )
    _check_range(alpha, beta, samples)
    base = _parse_base_descriptor(doc, kind, space.get("dimension", 0))
    return ProblemInstance(
        kind=kind,
        alpha=alpha,
        beta=beta,
        element_names=space.get("element_names", ()),
        geq_pairs=space.get("geq_pairs", ()),
        dimension=space.get("dimension", 0),
        samples=samples,
        base_utility=base,
    )


def parse_queries(text: str, inst: ProblemInstance) -> List[Element]:
    """A queries file is a JSON array of element names or coordinate arrays."""
    doc = _decode(text)
    if not isinstance(doc, list):
        raise ProblemFileError("$", "expected an array of queries")
    if inst.kind == "pareto" and all_float_vectors(doc, list, inst.dimension):
        return list(map(tuple, doc))
    return _each_query(doc, inst)


def _each_query(doc: list, inst: ProblemInstance) -> List[Element]:
    """The queries checked one by one; raises on the first bad one."""
    out: List[Element] = []
    for i, entry in enumerate(doc):
        if inst.kind == "finite":
            position = _lookup(inst._element_index, entry)
            if position is None:
                raise ProblemFileError(f"[{i}]", f"unknown element {entry!r}")
            out.append(position)
        elif inst.kind == "pareto":
            if not (isinstance(entry, list) and len(entry) == inst.dimension):
                raise ProblemFileError(
                    f"[{i}]", f"expected an array of {inst.dimension} decimals"
                )
            out.append(tuple(_as_number(c, "[{}][{}]", i, j) for j, c in enumerate(entry)))
        else:
            raise ProblemFileError(f"[{i}]", "fixture instances take no queries")
    return out


def parse_base_utility_flag(flag: str, inst: ProblemInstance) -> ProblemInstance:
    """Accepts 'levels' or 'weighted-sum:w1,w2,...' from the command line."""
    if flag == "levels":
        descriptor = ("levels",)
    elif flag.startswith("weighted-sum:"):
        body = flag[len("weighted-sum:"):]
        try:
            weights = [float(w) for w in body.split(",")]
        except ValueError as exc:
            raise ProblemFileError("base_utility.weights", f"bad weight list {body!r}") from exc
        descriptor = ("weighted-sum", _weights(weights))
    else:
        raise ProblemFileError(
            "base_utility", f"expected 'levels' or 'weighted-sum:...', got {flag!r}"
        )
    return inst.with_base_utility(descriptor)
