"""Exact polynomial arithmetic: ring ops, binomial basis, canonical output."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavepoly import (
    BinomialBasisPoly,
    DimensionMismatch,
    InternalInvariantFailure,
    MultiPoly,
    NegativeExponent,
    RationalPoly,
    binomial_map,
    canonical_string,
    expand_binomial,
)
from cavepoly.polyalg import binom_int, canonical_order
from oracles import canonical_key, canonical_string_per_term, evaluate_per_term, ordinary, poly_product


def P2(terms):
    return MultiPoly(2, terms)


def polys(p, max_terms=5, max_exp=3, coeff=6):
    exps = st.tuples(*[st.integers(0, max_exp)] * p)
    return st.dictionaries(exps, st.integers(-coeff, coeff), max_size=max_terms).map(
        lambda d: MultiPoly(p, d)
    )


# ------------------------------------------------------------------ ring ops

def test_add_cancels_to_zero():
    assert P2({(0, 3): 1}) + P2({(0, 3): -1}) == MultiPoly.zero(2)


def test_ring_ops_decline_other_operands():
    q, b = P2(GOLDEN), BinomialBasisPoly(2, {(0, 1): 1})
    assert q != "t2" and q.__eq__("t2") is NotImplemented
    assert b != 1 and b.__eq__(1) is NotImplemented
    assert q.__add__(0.5) is NotImplemented
    with pytest.raises(TypeError):
        q + 0.5
    with pytest.raises(TypeError):
        "t2" * q


def test_assert_ordinary_refuses_a_negative_exponent():
    assert ordinary(P2(GOLDEN)) == P2(GOLDEN)
    with pytest.raises(InternalInvariantFailure, match="^negative exponent in a finished polynomial$"):
        ordinary(MultiPoly(1, {(-1,): 1}))


def test_add_merges_terms():
    left = P2({(1, 2): 1, (0, 2): -1})
    assert left + P2({(0, 3): 1}) == P2({(0, 3): 1, (1, 2): 1, (0, 2): -1})


def test_add_identity():
    q = P2({(1, 1): 4, (0, 0): -2})
    assert MultiPoly.zero(2) + q == q
    assert q + 2 == P2({(1, 1): 4})


def test_mul_two_by_two():
    t1m1 = P2({(1, 0): 1, (0, 0): -1})
    t2m1 = P2({(0, 1): 1, (0, 0): -1})
    assert poly_product(t1m1, t2m1) == P2({(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})


def test_mul_identity():
    q = P2({(2, 1): 3, (0, 1): -1})
    assert poly_product(P2({(0, 0): 1}), q) == q


def test_mul_box_factor_pair():
    # (t1^2 - t1)(t2) as it appears in the box expansion
    assert poly_product(P2({(2, 0): 1, (1, 0): -1}), P2({(0, 1): 1})) == P2({(2, 1): 1, (1, 1): -1})


def raised(fn, *args):
    """The type and message of the exception ``fn(*args)`` raises."""
    with pytest.raises(Exception) as exc:
        fn(*args)
    return exc.type, str(exc.value)


CLASSES = (MultiPoly, BinomialBasisPoly, RationalPoly)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        MultiPoly.zero(2) + MultiPoly.zero(3)
    with pytest.raises(DimensionMismatch):
        MultiPoly(2, {(1, 2, 3): 1})
    for cls, vector in zip(CLASSES, ("exponent", "index", "exponent")):
        assert raised(cls, 2, {(1, 2, 3): 1}) == (
            DimensionMismatch, "%s vector (1, 2, 3) has length != 2" % vector)
        for p in (0, -1, 1.0, None):
            assert raised(cls, p, {}) == (ValueError, "p must be a positive integer, got %r" % (p,))


def test_no_zero_coefficients_stored():
    q = P2({(1, 0): 0, (0, 1): 2})
    assert q.terms == {(0, 1): 2}
    for cls in CLASSES[:2]:
        assert raised(cls, 1, {(1,): 0.5}) == (ValueError, "coefficient 0.5 is not an integer")
    assert RationalPoly(1, {(1,): 0.5, (0,): "1/3", (2,): Fraction(0)}).terms == {
        (1,): Fraction(1, 2), (0,): Fraction(1, 3)}
    assert raised(RationalPoly, 1, {(1,): "x"}) == (ValueError, "Invalid literal for Fraction: 'x'")


@given(polys(2), polys(2), polys(2))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    mul = poly_product
    assert a + b == b + a
    assert mul(a, b) == mul(b, a)
    assert (a + b) + c == a + (b + c)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)


@given(polys(2), polys(2), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_ring_homomorphism(a, b, t):
    assert poly_product(a, b).evaluate(t) == a.evaluate(t) * b.evaluate(t)
    assert (a + b).evaluate(t) == a.evaluate(t) + b.evaluate(t)


# -------------------------------------------------------------- binomial basis

def test_binom_int_matches_stdlib_and_extends():
    import math
    for x in range(0, 8):
        for k in range(0, 6):
            assert binom_int(x, k) == math.comb(x, k)
    assert binom_int(-1, 1) == -1
    assert binom_int(-3, 2) == 6
    assert binom_int(2, 3) == 0  # C(n-1, n) = 0 pattern
    with pytest.raises(ValueError, match="^binomial lower index must be nonnegative$"):
        binom_int(3, -1)


def test_binomial_map_single_monomial():
    b = binomial_map(P2({(0, 3): 1}))
    assert b.terms == {(0, 3): 1} and b.shift == 0


def test_binomial_map_constant():
    b = binomial_map(P2({(0, 0): 1}))
    assert b.terms == {(0, 0): 1}
    assert b.evaluate((7, -2)) == 1


def test_binomial_map_rejects_negative_exponent():
    with pytest.raises(NegativeExponent):
        binomial_map(P2({(-1, 0): 1}))
    # The index is checked before the coefficient.
    assert raised(BinomialBasisPoly, 2, {(0, -1): 0.5}) == (
        NegativeExponent, "binomial basis indices must be nonnegative: (0, -1)")
    # No factorial reaches an index beyond sys.maxsize; it is refused first.
    assert raised(expand_binomial, BinomialBasisPoly(2, {(1, 2**70): 1})) == (
        ValueError, "coordinate 2 has binomial index %d, more than a factorial can take" % 2**70)


def test_expanding_a_wide_sparse_input_never_builds_its_box():
    # p = 12 with every top 2: the box [0, 2]^12 has 531441 slots, a list of
    # them about 4 MB, for 13 terms; the dense layout would take it.
    p = 12
    b = BinomialBasisPoly(p, {(0,) * p: 1, **{tuple(2 * (i == j) for j in range(p)): i + 1 for i in range(p)}})
    tracemalloc.start()
    try:
        q = expand_binomial(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert q.evaluate((1,) * p) == b.evaluate((1,) * p) and len(q.numerators) == 1 + 2 * p


def test_expand_linear_binomial():
    b = BinomialBasisPoly(1, {(1,): 1})
    assert expand_binomial(b) == RationalPoly(1, {(1,): 1, (0,): 1})  # C(t+1,1) = t+1


def test_expand_quadratic_binomial():
    b = BinomialBasisPoly(1, {(2,): 1})
    expected = RationalPoly(1, {(2,): Fraction(1, 2), (1,): Fraction(3, 2), (0,): 1})
    assert expand_binomial(b) == expected  # (t^2+3t+2)/2


def test_expand_cubic_in_two_variables():
    b = BinomialBasisPoly(2, {(0, 3): 1})
    expected = RationalPoly(2, {
        (0, 3): Fraction(1, 6), (0, 2): 1, (0, 1): Fraction(11, 6), (0, 0): 1,
    })
    assert expand_binomial(b) == expected  # (t^3+6t^2+11t+6)/6


def test_expand_shifted_basis():
    # C(t+n-1, n): for n=2 that is (t)(t+1)/2
    b = BinomialBasisPoly(1, {(2,): 1}, shift=-1)
    assert expand_binomial(b) == RationalPoly(1, {(2,): Fraction(1, 2), (1,): Fraction(1, 2)})
    assert b == BinomialBasisPoly(1, {(2,): 1}, shift=-1) != BinomialBasisPoly(1, {(2,): 1})


def test_expansion_agrees_with_direct_evaluation():
    # Both evaluation paths at 200 random integer points.
    rng = random.Random(99)
    q = P2({(2, 1): 3, (0, 3): 1, (1, 0): -2, (0, 0): 5})
    b = binomial_map(q)
    expanded = expand_binomial(b)
    for _ in range(200):
        t = (rng.randint(-6, 6), rng.randint(-6, 6))
        direct = b.evaluate(t)
        assert expanded.evaluate(t) == direct
        assert isinstance(direct, int)


# ------------------------------------------------ rational form (one denominator)

def test_constructor_and_expansion_build_the_same_reduced_form():
    cases = [
        # (t^2 + 3t + 2)/2: the constant's numerator shares the factor 2 with the denominator.
        (BinomialBasisPoly(1, {(2,): 1}), {(2,): Fraction(1, 2), (1,): Fraction(3, 2), (0,): 1}, 2,
         {(2,): 1, (1,): 3, (0,): 2}),
        # 2*C(t+2,2) = t^2 + 3t + 2: every numerator shares the factor 2, so the denominator reduces to 1.
        (BinomialBasisPoly(1, {(2,): 2}), {(2,): 1, (1,): "3", (0,): 2.0}, 1, {(2,): 1, (1,): 3, (0,): 2}),
        # C(t1+2,2) + C(t2+3,3): denominators 2 and 6 mix, and prod N_i! = 12 reduces to 6.
        (BinomialBasisPoly(2, {(2, 0): 1, (0, 3): 1}),
         {(2, 0): Fraction(1, 2), (1, 0): Fraction(3, 2), (0, 3): Fraction(1, 6), (0, 2): 1,
          (0, 1): Fraction(11, 6), (0, 0): 2}, 6,
         {(2, 0): 3, (1, 0): 9, (0, 3): 1, (0, 2): 6, (0, 1): 11, (0, 0): 12}),
        # C(t+n-1, n) for n = 2 in the shifted basis: (t^2 + t)/2.
        (BinomialBasisPoly(1, {(2,): 1}, shift=-1), {(2,): "1/2", (1,): Fraction(2, 4)}, 2, {(2,): 1, (1,): 1}),
        (BinomialBasisPoly(3, {}), {(1, 0, 0): Fraction(0), (0, 0, 0): "0/5"}, 1, {}),
    ]
    for b, terms, denominator, numerators in cases:
        expanded, built = expand_binomial(b), RationalPoly(b.p, terms)
        for q in (expanded, built):
            assert (q.denominator, dict(q.numerators)) == (denominator, numerators), b
        assert expanded == built and hash(expanded) == hash(built), b
        assert expanded.terms == built.terms == {e: Fraction(v, denominator) for e, v in numerators.items()}
        assert bool(expanded) == bool(numerators)
        with pytest.raises(TypeError):
            expanded.numerators[(0,) * b.p] = 1


def test_same_numerators_over_another_denominator_differ():
    whole, half = RationalPoly(1, {(1,): 1, (0,): 3}), RationalPoly(1, {(1,): Fraction(1, 2), (0,): Fraction(3, 2)})
    assert dict(whole.numerators) == dict(half.numerators) and (whole.denominator, half.denominator) == (1, 2)
    assert whole != half and half == RationalPoly(1, {(1,): 0.5, (0,): 1.5})


class CountingFraction(Fraction):
    """A Fraction that counts its constructions."""

    built = 0

    def __new__(cls, *args, **kwargs):
        CountingFraction.built += 1
        return super().__new__(cls, *args, **kwargs)


def test_comparing_two_expansions_builds_no_fraction(monkeypatch):
    from cavepoly import algorithms, core, genverify, polyalg

    r, m = 8, [4] * 4  # a ladder row, rk(S) = min(r, sum of m over S)
    P = core.points_from_rank(core.validate_rank_function(len(m), genverify._uniform_values(len(m), r, m), m))
    via_cave, via_sum = algorithms.snapper_from_cave(P), algorithms.snapper_eur_larson(P)
    monkeypatch.setattr(polyalg, "Fraction", CountingFraction)
    CountingFraction.built = 0
    left, right = expand_binomial(via_cave), expand_binomial(via_sum)
    assert left == right and left.denominator > 1
    assert CountingFraction.built == 0
    assert len(left.terms) == CountingFraction.built == len(left.numerators) > 100


def test_polynomial_document_of_an_expansion_reads_no_terms_view(monkeypatch):
    from cavepoly.cli import polynomial_document

    q = expand_binomial(BinomialBasisPoly(2, {(2, 0): 1, (0, 3): 1}))
    reads = []
    build = RationalPoly.__getattr__
    monkeypatch.setattr(RationalPoly, "__getattr__", lambda self, name: reads.append(name) or build(self, name))
    doc = polynomial_document(q)
    assert reads == []
    assert q.terms is q.terms and reads == ["terms"]
    assert doc["terms"][0] == {"exponents": [0, 3], "coefficient": "1/6"}
    assert doc["canonical"] == canonical_string(q) == "1/6*t2^3 + t2^2 + 1/2*t1^2 + 11/6*t2 + 3/2*t1 + 2"


# ------------------------------------------------------------------ evaluation

def test_eval_integer_dispatch():
    q = P2({(1, 0): 1, (0, 1): 1, (0, 0): -1})
    assert q.evaluate((1, 1)) == 1
    assert binomial_map(q).evaluate((0, 0)) == 1
    assert expand_binomial(binomial_map(q)).evaluate((0, 0)) == Fraction(1)
    assert MultiPoly.zero(2).evaluate((9, -9)) == 0
    assert type(RationalPoly(2).evaluate((9, -9))) is Fraction


def test_evaluate_matches_per_term_oracle():
    # Random terms in every representation, the zero polynomial among them,
    # at vectors of zeros, ones, negatives and mixed entries.
    rng = random.Random(34)
    cases = 0
    for p in (1, 2, 3, 4):
        vectors = [(0,) * p, (1,) * p, (-1,) * p, (-3,) * p]
        vectors += [tuple(rng.randint(-4, 4) for _ in range(p)) for _ in range(4)]
        for size in range(12):
            terms = {tuple(rng.randint(0, 3) for _ in range(p)): rng.randint(-5, 5) for _ in range(size % 6)}
            for q in (MultiPoly(p, terms), BinomialBasisPoly(p, terms), BinomialBasisPoly(p, terms, shift=-1),
                      RationalPoly(p, {e: Fraction(c, rng.randint(1, 4)) for e, c in terms.items()})):
                for t in vectors:
                    got, expected = q.evaluate(t), evaluate_per_term(q, t)
                    assert got == expected and type(got) is type(expected), (q, t)
                    cases += 1
    assert cases > 1000
    # A negative exponent raises the same error, wherever its term stands.
    for q in (P2({(-1, 0): 1}), P2({(2, 1): 3, (0, -2): 1, (1, 1): -1})):
        for evaluate in (q.evaluate, lambda t: evaluate_per_term(q, t)):
            with pytest.raises(NegativeExponent, match="cannot evaluate a polynomial with negative exponents"):
                evaluate((1, 1))


def test_evaluate_refuses_a_non_integer_entry():
    # Values are exact at integer vectors only (at t = 1/2, C(t + 2, 2) is
    # 15/8), so every representation names a non-integer entry instead.
    for q in (MultiPoly(1, {(2,): 1}), BinomialBasisPoly(1, {(2,): 1}), BinomialBasisPoly(1, {(2,): 1}, shift=-1),
              RationalPoly(1, {(2,): Fraction(1, 2), (0,): 1})):
        for t in ((0.5,), (Fraction(1, 2),), (2.0,), ("1",)):
            assert raised(q.evaluate, t) == (ValueError, "lattice point coordinates must be integers, got %r" % t)
        for t in ((3,), (-3,), (0,)):
            assert q.evaluate(t) == evaluate_per_term(q, t)
    assert raised(P2({(1, 1): 1}).evaluate, (1, 0.5)) == (
        ValueError, "lattice point coordinates must be integers, got 0.5")


def test_constructor_refuses_a_non_integer_shift():
    # A shift is refused as a non-integer coefficient is: C(t + 1 + 1/2, 1)
    # has no exact integer value.
    for shift in (0.5, -1.0, Fraction(1, 2), "0", None):
        assert raised(BinomialBasisPoly, 1, {(1,): 1}, shift) == (ValueError, "shift %r is not an integer" % (shift,))
    # A bad p or term is still named first.
    assert raised(BinomialBasisPoly, 0, {}, 0.5) == (ValueError, "p must be a positive integer, got 0")
    assert raised(BinomialBasisPoly, 1, {(1,): 0.5}, 0.5) == (ValueError, "coefficient 0.5 is not an integer")
    assert BinomialBasisPoly(1, {(1,): 1}, shift=-2).evaluate((2,)) == 1  # C(2 + 1 - 2, 1)


def test_eval_rejects_wrong_length_and_negative_exponents():
    with pytest.raises(DimensionMismatch):
        P2({(1, 0): 1}).evaluate((1,))
    with pytest.raises(NegativeExponent):
        P2({(-1, 0): 1}).evaluate((1, 1))
    # The vector is checked first.
    assert raised(P2({(-1, 0): 1}).evaluate, (1,)) == (DimensionMismatch, "vector has length 1, expected 2")
    assert raised(P2({(0, 0): 1, (-1, 0): 1}).evaluate, (0, 1)) == (
        NegativeExponent, "cannot evaluate a polynomial with negative exponents")


# ------------------------------------------------------------ canonical output

GOLDEN = {(0, 3): 1, (1, 2): 1, (0, 2): -1, (2, 1): 1, (1, 1): -1}


def test_canonical_string_golden_order():
    assert canonical_string(P2(GOLDEN)) == "t2^3 + t1^2*t2 + t1*t2^2 - t2^2 - t1*t2"


def test_canonical_string_trivia():
    assert canonical_string(MultiPoly.zero(3)) == "0"
    with pytest.raises(TypeError, match="^cannot render 'dict'$"):
        canonical_string(GOLDEN)
    assert canonical_string(MultiPoly(1, {(0,): -1})) == "-1"
    assert canonical_string(P2({(1, 0): -2, (0, 0): 7})) == "-2*t1 + 7"


def test_canonical_string_binomial_basis():
    b = binomial_map(P2(GOLDEN))
    assert canonical_string(b) == (
        "C(t2+3,3) + C(t1+2,2)*C(t2+1,1) + C(t1+1,1)*C(t2+2,2) - C(t2+2,2) - C(t1+1,1)*C(t2+1,1)"
    )


@pytest.mark.parametrize("q, text", [
    (MultiPoly(1, {(-1,): 1}), "t1^-1"),
    (MultiPoly(2, {(-1, 0): 1, (0, 2): -1, (1, -2): 3}), "-t2^2 + 3*t1*t2^-2 + t1^-1"),
    (BinomialBasisPoly(2, {(1, 0): 1, (0, 1): -2}, shift=-1), "-2*C(t2,1) + C(t1,1)"),
    (BinomialBasisPoly(2, {(1, 0): 1, (2, 1): 3}, shift=-2), "3*C(t1,2)*C(t2+-1,1) + C(t1+-1,1)"),
    (RationalPoly(2, {(1, 0): Fraction(-3, 2), (0, 1): -2, (0, 0): 1}), "-2*t2 - 3/2*t1 + 1"),
    (RationalPoly(2, {(2, 0): Fraction(-3, 2), (0, 0): -2}), "-3/2*t1^2 - 2"),
    (MultiPoly(2, {(0, 0): 1}), "1"),
    (MultiPoly(2, {(0, 0): -1}), "-1"),
    (BinomialBasisPoly(2, {(0, 0): 1}), "1"),
    (BinomialBasisPoly(2, {(0, 0): -1}, shift=-1), "-1"),
    (RationalPoly(2, {(0, 0): 1}), "1"),
    (RationalPoly(2, {(0, 0): -1}), "-1"),
    (MultiPoly(2), "0"),
    (BinomialBasisPoly(2, shift=-1), "0"),
    (RationalPoly(2), "0"),
])
def test_canonical_string_edge_cases(q, text):
    assert canonical_string(q) == text


@given(st.integers(1, 4).flatmap(lambda p: st.tuples(
    st.just(p),
    st.dictionaries(st.tuples(*[st.integers(-2, 12)] * p), st.integers(-13, 13), max_size=10),
    st.integers(-3, 2),
    st.integers(1, 12),
)))
@settings(max_examples=300, deadline=None)
def test_canonical_string_matches_the_per_term_rendering(case):
    p, terms, shift, denominator = case
    indices = {tuple(map(abs, n)): c for n, c in terms.items()}
    for q in (MultiPoly(p, terms), RationalPoly(p, {e: Fraction(c, denominator) for e, c in terms.items()}),
              BinomialBasisPoly(p, indices, shift=shift)):
        assert canonical_string(q) == canonical_string_per_term(q)


def test_canonical_string_is_injective_at_fixed_p():
    rng = random.Random(7)
    seen = {}
    for _ in range(400):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = rng.randint(-3, 3)
        q = P2(terms)
        s = canonical_string(q)
        if s in seen:
            assert seen[s] == q.terms
        seen[s] = q.terms


@given(st.integers(1, 6).flatmap(lambda p: st.tuples(
    st.just(p),
    st.dictionaries(st.tuples(*[st.integers(-3, 6)] * p), st.integers(-5, 5), max_size=12),
    st.booleans(),
)))
@settings(max_examples=300, deadline=None)
def test_canonical_order_sorts_by_the_pair_sequence_key(case):
    p, terms, with_zero_key = case
    if with_zero_key:
        terms[(0,) * p] = 1
    assert canonical_order(terms) == sorted(terms, key=canonical_key)
    indices = {tuple(map(abs, n)): c for n, c in terms.items()}
    for q in (MultiPoly(p, terms), RationalPoly(p, {e: Fraction(c, 3) for e, c in terms.items()}),
              BinomialBasisPoly(p, indices), BinomialBasisPoly(p, indices, shift=-1)):
        assert canonical_string(q) == canonical_string(q, sorted(q.terms, key=canonical_key))
    assert canonical_order({}) == []


def test_polynomials_are_immutable():
    q = P2({(1, 0): 1})
    with pytest.raises(AttributeError):
        q.terms = {}
    b = BinomialBasisPoly(2, {(1, 0): 1})
    with pytest.raises(AttributeError):
        b.shift = -1
    for poly in (q, b, RationalPoly(2, {(1, 0): 1})):
        assert raised(setattr, poly, "p", 3) == (AttributeError, "%s is immutable" % type(poly).__name__)
        assert raised(setattr, poly, "extra", 3) == (AttributeError, "%s is immutable" % type(poly).__name__)
        assert raised(getattr, poly, "extra") == (
            AttributeError, "'%s' object has no attribute 'extra'" % type(poly).__name__)
