"""Unit tests for the Quine–McCluskey minimizer.

The minimizer runs on bitsets over the input points.  The classic
pairwise algorithm below is its reference: a function's prime implicants
are unique, so both must find the same primes, and with the same greedy
tie-break both must pick the same cover.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logic.quine_mccluskey import (
    minimize,
    prime_implicants,
    verify_cover,
)
from repro.logic.terms import BooleanFunction, Cube


def fn(width, ones, dc=()):
    return BooleanFunction(
        width=width, ones=frozenset(ones), dont_cares=frozenset(dc)
    )


# -- the reference: pairwise prime generation and greedy cover -----------
def reference_primes(function: BooleanFunction) -> frozenset[Cube]:
    """Iterated pairwise combination: start from the minterm cubes,
    repeatedly merge distance-one pairs, keep every cube that never
    merged."""
    current = {
        Cube.minterm(function.width, m)
        for m in function.ones | function.dont_cares
    }
    primes: set[Cube] = set()
    while current:
        merged: set[Cube] = set()
        used: set[Cube] = set()
        # Group by popcount of value for the classic adjacency pruning.
        by_ones: dict[int, list[Cube]] = {}
        for cube in current:
            by_ones.setdefault(bin(cube.value).count("1"), []).append(cube)
        for count, group in sorted(by_ones.items()):
            for cube in group:
                for other in by_ones.get(count + 1, ()):
                    combined = cube.merge_distance_one(other)
                    if combined is not None:
                        merged.add(combined)
                        used.add(cube)
                        used.add(other)
        primes |= current - used
        current = merged
    return frozenset(primes)


def reference_cover(
    required: frozenset[int], candidates: frozenset[Cube]
) -> list[Cube]:
    """Essential primes first, then greedy max-coverage selection."""
    remaining = set(required)
    cover: list[Cube] = []
    coverage = {
        cube: frozenset(m for m in required if cube.contains(m))
        for cube in candidates
    }
    for minterm in sorted(required):
        owners = [c for c in candidates if minterm in coverage[c]]
        if len(owners) == 1 and owners[0] not in cover:
            cover.append(owners[0])
            remaining -= coverage[owners[0]]
    while remaining:
        best = max(
            candidates,
            key=lambda c: (
                len(coverage[c] & remaining),
                -c.num_literals,
                c.to_string(),
            ),
        )
        gained = coverage[best] & remaining
        if not gained:
            raise AssertionError("greedy cover stuck; primes incomplete")
        cover.append(best)
        remaining -= gained
    return cover


def reference_minimize(function: BooleanFunction) -> tuple[Cube, ...]:
    if function.is_constant_zero:
        return ()
    if function.is_constant_one:
        return (Cube(width=function.width, care=0, value=0),)
    primes = reference_primes(function)
    return tuple(sorted(reference_cover(function.ones, primes)))


@st.composite
def functions(draw, max_width=9):
    """Incompletely specified functions of 0 to ``max_width`` inputs.

    Up to three quarters of the points are ones or don't-cares: denser
    functions have so many implicants that the reference takes seconds.
    """
    width = draw(st.integers(0, max_width))
    density = draw(st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.75)))
    dc_share = draw(st.sampled_from((0.0, 0.3, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ones, dont_cares = set(), set()
    for point in range(1 << width):
        if rng.random() < density:
            (dont_cares if rng.random() < dc_share else ones).add(point)
    return fn(width, ones, dont_cares)


EMPTY = fn(3, ())
ALL_DONT_CARE = fn(3, (), range(8))
CONSTANT_ONE = fn(3, {0, 5, 6}, {1, 2, 3, 4, 7})


class TestPrimeImplicants:
    def test_classic_example(self):
        # f(a,b,c,d) with minterms 4,8,10,11,12,15 and dc 9,14
        # (the textbook Quine-McCluskey example).
        f = fn(4, {4, 8, 10, 11, 12, 15}, {9, 14})
        primes = prime_implicants(f)
        strings = {p.to_string() for p in primes}
        # Known primes (our cube text is LSB-first): -100, 1--0, 1-1-, 10--
        assert strings == {"001-", "0--1", "-1-1", "--01"}

    def test_full_cube(self):
        f = fn(2, {0, 1, 2, 3})
        primes = prime_implicants(f)
        assert {p.to_string() for p in primes} == {"--"}

    def test_single_minterm(self):
        f = fn(3, {5})
        primes = prime_implicants(f)
        assert {p.to_string() for p in primes} == {"101"}

    @settings(max_examples=80, deadline=None)
    @given(functions())
    @example(EMPTY)
    @example(ALL_DONT_CARE)
    @example(CONSTANT_ONE)
    @example(fn(0, ()))
    @example(fn(0, {0}))
    def test_equals_reference(self, function):
        assert prime_implicants(function) == reference_primes(function)


class TestMinimize:
    def test_constant_zero(self):
        assert minimize(fn(3, ())) == ()

    def test_constant_one(self):
        cover = minimize(fn(2, {0, 1, 2, 3}))
        assert len(cover) == 1
        assert cover[0].num_literals == 0

    def test_xor_needs_two_terms(self):
        cover = minimize(fn(2, {0b01, 0b10}))
        assert len(cover) == 2
        assert all(c.num_literals == 2 for c in cover)

    def test_dont_cares_shrink_cover(self):
        without_dc = minimize(fn(3, {0b111}))
        with_dc = minimize(
            fn(3, {0b111}, {0b011, 0b101, 0b110, 0b001, 0b010, 0b100, 0b000})
        )
        literals = lambda cover: sum(c.num_literals for c in cover)
        assert literals(with_dc) < literals(without_dc)

    def test_cover_verified(self):
        f = fn(4, {0, 2, 5, 7, 8, 10, 13, 15})
        verify_cover(f, minimize(f))

    def test_deterministic(self):
        f = fn(4, {1, 3, 7, 11, 15})
        assert minimize(f) == minimize(f)

    @settings(max_examples=80, deadline=None)
    @given(functions())
    @example(EMPTY)
    @example(ALL_DONT_CARE)
    @example(CONSTANT_ONE)
    @example(fn(0, {0}))
    def test_equals_reference(self, function):
        assert minimize(function) == reference_minimize(function)

    def test_fixed_design_controllers_equal_reference(self, minimized):
        """Every function of the fixed designs' CENT-SYNC and DIST
        controllers of at most 8 input bits gets the reference's cover."""
        from repro.benchmarks.registry import core_benchmark_names
        from repro.experiments.common import synthesize_benchmark
        from repro.fsm.area import fsm_area
        from repro.fsm.encode import encode

        for name in core_benchmark_names():
            result = synthesize_benchmark(name)
            for fsm in (
                result.cent_sync_fsm,
                *result.distributed.controllers.values(),
            ):
                if encode(fsm, "binary").width + len(fsm.inputs) <= 8:
                    fsm_area(fsm, "binary")
        assert minimized
        for function, cover in minimized:
            assert cover == reference_minimize(function)


class TestVerifyCover:
    def test_uncovered_detected(self):
        f = fn(2, {0, 3})
        with pytest.raises(AssertionError, match="uncovered"):
            verify_cover(f, (Cube.minterm(2, 0),))

    def test_wrongly_covered_detected(self):
        f = fn(2, {0})
        with pytest.raises(AssertionError, match="wrongly covered"):
            verify_cover(f, (Cube(width=2, care=0, value=0),))


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(0, 31), max_size=20),
    st.sets(st.integers(0, 31), max_size=8),
)
def test_minimize_always_correct(ones, dc):
    """Property: minimized covers are functionally exact on 5-var inputs."""
    dc = dc - ones
    f = fn(5, ones, dc)
    cover = minimize(f)
    verify_cover(f, cover)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 15), min_size=1, max_size=12))
def test_minimize_never_worse_than_minterms(ones):
    """Property: the cover never has more terms than raw minterms."""
    f = fn(4, ones)
    assert len(minimize(f)) <= len(ones)
