"""Utility representations of the ambient preorder and range squashing.

A utility representation is a total, strictly increasing map from the
ground set to the reals: equivalent elements share a value, strictly
dominating elements get strictly more.  The extension engine takes one
such representation and squashes it itself: :func:`squash` maps it by
arctan strictly inside a chosen interval (alpha, beta), and
:func:`normalize01` maps that affinely onto (0, 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence, Tuple

from ordext.orders import Element, FinitePreorder, ParetoSpace

__all__ = [
    "UtilityFn",
    "finite_utility",
    "normalize01",
    "pareto_base_utility",
    "squash",
]


@dataclass(frozen=True)
class UtilityFn:
    """A total utility map from elements to floats."""

    fn: Callable[[Element], float]

    def __call__(self, x: Element) -> float:
        return self.fn(x)


def finite_utility(rel: FinitePreorder) -> UtilityFn:
    """Integer-valued utility for a finite preorder.

    Each element is valued by the length of the longest chain of strict
    dominations below it.  Equivalent elements share their strict
    down-set, and therefore their value; a strictly dominated element
    sits strictly lower.

    The level is the longest-path pass over the condensation DAG
    (:attr:`FinitePreorder.condensation`): in the order the walk closed
    the components, every component it leads to is already levelled, and
    its level is one above the highest of theirs (0 for none).  O(n + m),
    no recursion, so a chain of any length is fine.
    """
    below = rel.condensation
    level = [0] * len(below)
    for c, down in enumerate(below):
        top = -1
        for d in down:
            if level[d] > top:
                top = level[d]
        level[c] = top + 1
    values = dict(enumerate(map(float, map(level.__getitem__, rel.component_index))))
    return UtilityFn(values.__getitem__)


def pareto_base_utility(
    space: ParetoSpace, weights: Optional[Sequence[float]] = None
) -> UtilityFn:
    """Weighted coordinate sum; strictly increasing in every coordinate."""
    if weights is None:
        weights = (1.0,) * space.k  # valid as they are
    else:
        # C-level passes, with no Python step per coordinate
        weights = tuple(map(float, weights))
        if len(weights) != space.k:
            raise ValueError(f"expected {space.k} weights, got {len(weights)}")
        if not (all(map(math.isfinite, weights)) and min(weights) > 0):
            raise ValueError("weights must be finite and strictly positive")

    def fn(x: Tuple[float, ...]) -> float:
        total = sum(map(mul, weights, x))
        if total != total:
            # NaN: terms overflowed to both infinities, so round the exact sum
            exact = sum(map(mul, map(Fraction, weights), map(Fraction, x)))
            if abs(exact) <= sys.float_info.max:
                return float(exact)
            return math.inf if exact > 0 else -math.inf
        return total

    return UtilityFn(fn)


def squash(u: UtilityFn, alpha: float, beta: float) -> UtilityFn:
    """Compress a utility's range strictly inside (alpha, beta) via arctan.

    Strictly increasing in exact arithmetic.  Under IEEE doubles, inputs
    closer together than the local arctan resolution can round to the
    same output, so callers needing strictness must keep their base
    utility values resolvably spaced (integer-valued utilities are).
    Rejects an empty range, or one whose span is not finite (every value
    would be NaN).
    """
    if not (alpha < beta and math.isfinite(beta - alpha)):
        raise ValueError(
            f"need alpha < beta and a finite span beta - alpha, got ({alpha}, {beta})")
    # the constants of span / math.pi * (math.atan(v) + math.pi / 2) + alpha,
    # taken once: the same operations in the same order, so the same value
    scale, half_pi, atan = (beta - alpha) / math.pi, math.pi / 2, math.atan

    def fn(x: Element) -> float:
        out = scale * (atan(u(x)) + half_pi) + alpha
        # atan saturates for huge inputs; keep the open-interval promise.
        if out >= beta:
            out = math.nextafter(beta, alpha)
        elif out <= alpha:
            out = math.nextafter(alpha, beta)
        return out

    return UtilityFn(fn)


def normalize01(u_ab: UtilityFn, alpha: float, beta: float) -> UtilityFn:
    """Affine rescale of a utility squashed into (alpha, beta) onto (0, 1)."""
    span = beta - alpha

    def fn(x: Element) -> float:
        return (u_ab(x) - alpha) / span

    return UtilityFn(fn)
