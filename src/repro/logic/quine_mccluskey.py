"""Quine–McCluskey prime-implicant generation and greedy cover selection.

Exact prime generation followed by essential-prime extraction and a greedy
set-cover heuristic for the cyclic core — the standard recipe for the
function sizes controller synthesis produces (a dozen input variables or
fewer).  Functions wider than :data:`EXACT_WIDTH_LIMIT` fall back to a
single-cube-per-minterm cover with merged adjacent pairs, keeping area
reports finite for stress-test inputs.

The exact path runs on bitsets over the ``2**width`` input points: a
Python int whose bit ``p`` stands for point ``p``.  All implicants that
share a care mask live in one such int (bit ``v`` set: the cube
``(care, v)`` is an implicant), so one shift-and-mask merges every pair of
them along a variable at once, and a cube's points are one shifted mask.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

from .terms import BooleanFunction, Cube

#: Above this input width, exact prime generation is skipped.
EXACT_WIDTH_LIMIT = 14


@lru_cache(maxsize=EXACT_WIDTH_LIMIT + 1)
def _zero_masks(width: int) -> tuple[int, ...]:
    """Per variable ``b``, the bitset of the points whose bit ``b`` is 0."""
    masks = []
    for b in range(width):
        step = 1 << b
        mask, period = (1 << step) - 1, 2 * step
        while period < 1 << width:
            mask |= mask << period
            period *= 2
        masks.append(mask)
    return tuple(masks)


def _bitset(points: Iterable[int], width: int) -> int:
    """The bitset of a set of input points."""
    buf = bytearray(((1 << width) + 7) // 8)
    for point in points:
        buf[point >> 3] |= 1 << (point & 7)
    return int.from_bytes(buf, "little")


def _members(bits: int) -> Iterator[int]:
    """The points of a bitset, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _cube_points(cube: Cube, zero: tuple[int, ...]) -> int:
    """The bitset of the points a cube contains."""
    points = (1 << (1 << cube.width)) - 1
    for b in range(cube.width):
        if cube.care >> b & 1:
            points &= zero[b]
    return points << cube.value


def prime_implicants(function: BooleanFunction) -> frozenset[Cube]:
    """All prime implicants of ``ones ∪ dont_cares``.

    Works level by level from the minterms (every variable cared for)
    towards the tautology, keeping per care mask the bitset of values
    ``v`` whose cube ``(care, v)`` is an implicant.  Merging along care
    bit ``b`` pairs every such ``v`` with bit ``b`` clear with
    ``v + 2**b`` in one ``S & (S >> 2**b) & Z[b]``; a cube that pairs
    along none of its care bits is prime.
    """
    width = function.width
    variables = [(1 << b, zero) for b, zero in enumerate(_zero_masks(width))]
    level = {
        (1 << width) - 1: _bitset(function.ones | function.dont_cares, width)
    }
    primes = []
    while level:
        merged: dict[int, int] = {}
        for care, values in level.items():
            used = 0
            for bit, zero in variables:
                if care & bit:
                    pairs = values & (values >> bit) & zero
                    if pairs:
                        used |= pairs | pairs << bit
                        # every parent of a care mask yields the same set
                        merged[care ^ bit] = pairs
            unmerged = values & ~used
            if unmerged:
                primes.extend(
                    Cube(width=width, care=care, value=value)
                    for value in _members(unmerged)
                )
        level = merged
    return frozenset(primes)


def _greedy_cover(
    function: BooleanFunction, candidates: frozenset[Cube]
) -> list[Cube]:
    """Essential primes first, then greedy max-coverage selection."""
    zero = _zero_masks(function.width)
    required = _bitset(function.ones, function.width)
    coverage = [(_cube_points(c, zero) & required, c) for c in candidates]
    once = twice = 0
    for cov, _ in coverage:
        twice |= once & cov
        once |= cov
    # Essential primes: the only cube covering some required point.
    single = once & ~twice
    cover: list[Cube] = []
    covered = 0
    for cov, c in coverage:
        if cov & single:
            cover.append(c)
            covered |= cov
    remaining = required & ~covered
    # Greedy on the rest: most new points, fewest literals, stable order.
    ranked = [
        (cov, (-c.num_literals, c.to_string()), c)
        for cov, c in coverage
        if cov & remaining
    ]
    while remaining:
        if not ranked:
            raise AssertionError("greedy cover stuck; primes incomplete")
        cov, _, best = max(
            ranked, key=lambda e: ((e[0] & remaining).bit_count(), e[1])
        )
        cover.append(best)
        remaining &= ~cov
        ranked = [entry for entry in ranked if entry[0] & remaining]
    return cover


def minimize(function: BooleanFunction) -> tuple[Cube, ...]:
    """Minimized sum-of-products cover of a boolean function.

    Returns a tuple of cubes covering every required-1 minterm, never
    covering a required-0 minterm, deterministically ordered.  Constant
    functions return ``()`` (zero) or a single tautology cube (one).
    """
    if function.is_constant_zero:
        return ()
    if function.is_constant_one:
        return (Cube(width=function.width, care=0, value=0),)
    if function.width > EXACT_WIDTH_LIMIT:
        return _approximate_cover(function)
    primes = prime_implicants(function)
    cover = _greedy_cover(function, primes)
    return tuple(sorted(cover))


def _approximate_cover(function: BooleanFunction) -> tuple[Cube, ...]:
    """Cheap cover for very wide functions: single merge pass on minterms."""
    cubes = [Cube.minterm(function.width, m) for m in sorted(function.ones)]
    merged = True
    while merged:
        merged = False
        result: list[Cube] = []
        used = [False] * len(cubes)
        for i, cube in enumerate(cubes):
            if used[i]:
                continue
            partner = None
            for j in range(i + 1, len(cubes)):
                if used[j]:
                    continue
                combined = cube.merge_distance_one(cubes[j])
                if combined is not None:
                    partner = (j, combined)
                    break
            if partner is None:
                result.append(cube)
            else:
                j, combined = partner
                used[j] = True
                result.append(combined)
                merged = True
        cubes = result
    return tuple(sorted(set(cubes)))


def verify_cover(
    function: BooleanFunction, cover: tuple[Cube, ...]
) -> None:
    """Assert a cover is functionally correct (test helper).

    Every required-1 minterm must be covered and no required-0 minterm may
    be covered; don't-cares are free.
    """
    for minterm in range(1 << function.width):
        covered = any(c.contains(minterm) for c in cover)
        required = function.value_at(minterm)
        if required is True and not covered:
            raise AssertionError(f"minterm {minterm} uncovered")
        if required is False and covered:
            raise AssertionError(f"minterm {minterm} wrongly covered")
