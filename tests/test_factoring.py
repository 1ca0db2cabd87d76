"""The in-house polynomial algebra of `scalars.py` against sympy.

`scalars` factors denominators, shifts lambda and differentiates without
sympy.  Each piece is compared here with the sympy routine it replaced:
the univariate factoriser with `dup_factor_list`, `_irreducible_factors`
with `factor_list` (on the leftovers the benchmark menus hand it and on
random products of binomials and linear forms), the Taylor shift with
`compose`, `diff_lambda` with `FracElement.diff` and the primes of the
integer point with `nextprime`.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Rational
from sympy.ntheory import nextprime
from sympy.polys.domains import QQ, ZZ
from sympy.polys.factortools import dup_factor_list, dup_zz_cyclotomic_poly
from sympy_oracle import sympy_factors, sympy_field, to_sympy

from dybax.scalars import (
    FactorBase,
    Scalar,
    _dup_factor,
    _irreducible_factors,
    _least_prime_from,
    _taylor_shift,
    classical_ctx,
    quantum_ctx,
    symbol_ctx,
)


def _positive(f):
    return f if f[0] > 0 else [-c for c in f]


def _dup_oracle(f):
    return Counter((tuple(_positive(g)), k) for g, k in dup_factor_list(f, ZZ)[1])


def _dup_ours(f):
    return Counter((tuple(g), k) for g, k in _dup_factor(f))


# -- one variable --------------------------------------------------------------

def _cyclotomic(n):
    return [int(c) for c in dup_zz_cyclotomic_poly(n, ZZ)]


def _product(*fs):
    out = [1]
    for f in fs:
        out = [sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f))
               for k in range(len(out) + len(f) - 1)]
    return out


@pytest.mark.parametrize("f", [
    pytest.param([1, 0, 0, 0, 1], id="x^4+1, reducible mod every prime"),
    pytest.param([1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1], id="y^12+y^4+1"),
    pytest.param([1] + [0] * 11 + [-1], id="y^12-1"),
    pytest.param(_product([1, 0, 0, 0, 1], [1, 0, 0, 0, 1], [2, -3]), id="(x^4+1)^2(2x-3)"),
    pytest.param(_product(_cyclotomic(15), _cyclotomic(8), [1, 0, 1]), id="Phi15 Phi8 Phi4"),
    pytest.param([6, 0, -6], id="content and two linear factors"),
] + [pytest.param(_cyclotomic(n), id=f"Phi{n}") for n in range(1, 41)])
def test_univariate_factors_match_dup_factor_list(f):
    assert _dup_ours(f) == _dup_oracle(f)


_small = st.lists(st.integers(-4, 4), min_size=2, max_size=5).filter(lambda f: f[0])


@settings(max_examples=150, deadline=None)
@given(st.lists(_small, min_size=1, max_size=4), st.lists(st.integers(1, 2), min_size=4,
                                                          max_size=4))
def test_univariate_products_match_dup_factor_list(factors, powers):
    f = _product(*(g for g, k in zip(factors, powers) for _ in range(k)))
    assert _dup_ours(f) == _dup_oracle(f)


# -- several variables ---------------------------------------------------------

def _poly(ctx, text):
    gens = {name: ctx.gen(name) for name in ctx.var_names}
    return eval(text, {}, gens).numer     # noqa: S307 - fixed strings


# What the `residuals`, `fusion` and `cli-jobs` menus leave to the factoriser
# after trial division (squares of linear forms, products of binomials on
# several lines, and 4-6 term irreducibles), and a product over disjoint
# generators that only the separability test of the certificate splits.
LEFTOVERS = [(classical_ctx(3), text) for text in [
    "4*l1**2 - 8*l1*l2 - 4*l1 + 4*l2**2 + 4*l2 + 1",
    "l1**2 - 2*l1*l3 - 6*l1 + l3**2 + 6*l3 + 9",
    "4*l2**2 - 8*l2*l3 - 20*l2 + 4*l3**2 + 20*l3 + 25",
    "l1**2 - 2*l1*l2 + 6*l1 + l2**2 - 6*l2 + 9",
    "9*l1**2 - 18*l1*l3 - 6*l1 + 9*l3**2 + 6*l3 + 1",
    "9*l2**2 - 18*l2*l3 - 60*l2 + 9*l3**2 + 60*l3 + 100",
    "9*l1**2 - 18*l1*l2 + 30*l1 + 9*l2**2 - 30*l2 + 25",
    "4*l1**2 - 8*l1*l3 + 28*l1 + 4*l3**2 - 28*l3 + 49",
    "36*l2**2 - 72*l2*l3 + 132*l2 + 36*l3**2 - 132*l3 + 121",
    "16*l1**2 - 32*l1*l2 - 8*l1 + 16*l2**2 + 8*l2 + 1",
    "16*l1**2 - 32*l1*l3 + 24*l1 + 16*l3**2 - 24*l3 + 9",
]] + [(quantum_ctx(4), text) for text in [
    "s**8*t2**2*t3**2 - s**4*t2**4 - s**4*t3**2*t4**2 + t2**2*t4**2",
    "2*s**4*t2**2*t3**2 - s**4*t2**2*t4**2 - s**4*t3**4 - t2**2*t4**2 - t3**4"
    " + 2*t3**2*t4**2",
]] + [(quantum_ctx(3), text) for text in [
    "2*s**4*t1**2*t2**2 - s**4*t1**2*t3**2 - s**4*t2**4 - t1**2*t3**2 - t2**4"
    " + 2*t2**2*t3**2",
    "2*s**8*t1**2*t2**2 - s**8*t2**4 - s**4*t1**2*t3**2 - s**4*t2**4 - t1**2*t3**2"
    " + 2*t2**2*t3**2",
    "s**16*t2**4 - 2*s**12*t1**2*t2**2 + s**12*t2**4 + s**4*t1**2*t3**2"
    " - 2*s**4*t2**2*t3**2 + t1**2*t3**2",
    "s**8*t1**2 + 2*s**4*t1**2 - 2*s**4*t2**2 - t2**2",
    "s**8*t1**2*t2**2 - 2*s**4*t1**4 + 2*s**4*t1**2*t2**2 - 2*s**4*t2**4 + t1**2*t2**2",
    "(s**2 + s*t1 + 3)*(t2**2 - 5*t2*t3 + 2)",
    "(s*t1 + t2 + 1)**3 * (s**2*t2 - t3)",
]]


@pytest.mark.parametrize("ctx, text", LEFTOVERS)
def test_leftovers_factor_as_sympy_does(ctx, text):
    poly = _poly(ctx, text)
    counts = {"fallbacks": 0}
    assert Counter(_irreducible_factors(poly, counts)) == sympy_factors(poly, ctx.var_names)
    assert counts["fallbacks"] == 0


def test_an_unsettled_product_goes_to_factor_list():
    # each specialisation of (l1 + l2 + 1)(l1 - l2 + 2) in one generator is
    # a product of two linear factors, so the certificate cannot tell
    ctx = classical_ctx(2)
    poly = _poly(ctx, "(l1 + l2 + 1)*(l1 - l2 + 2)*(l1 - 2)")
    counts = {"fallbacks": 0}
    assert Counter(_irreducible_factors(poly, counts)) == sympy_factors(poly, ctx.var_names)
    assert counts["fallbacks"] == 1


@st.composite
def products(draw):
    """A product of up to four binomials c1 x^a - c2 x^b and linear forms
    in the four generators of the quantum rank-3 field."""
    ctx = quantum_ctx(3)
    out = ctx.one
    exponents = st.lists(st.integers(0, 2), min_size=4, max_size=4)
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            a, b = draw(exponents), draw(exponents)
            assume(a != b)
            factor = ctx.zero
            for c, m in ((draw(st.integers(1, 3)), a), (draw(st.integers(-3, -1)), b)):
                term = ctx(c)
                for name, e in zip(ctx.var_names, m):
                    term = term * ctx.gen(name) ** e
                factor = factor + term
        else:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=5, max_size=5))
            factor = ctx(coeffs[0])
            for c, name in zip(coeffs[1:], ctx.var_names):
                factor = factor + c * ctx.gen(name)
        assume(factor)
        out = out * factor
    return out.numer


@settings(max_examples=150, deadline=None)
@given(products())
def test_products_factor_as_sympy_does(poly):
    assert Counter(_irreducible_factors(poly)) == sympy_factors(poly, quantum_ctx(3).var_names)


# -- lambda-shift, derivative, integer point -----------------------------------

@st.composite
def fractions(draw, ctx):
    """A quotient of two random polynomials of up to three terms."""
    def polynomial():
        out = ctx.zero
        for _ in range(draw(st.integers(1, 3))):
            term = ctx(Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from([1, 2, 3]))))
            for name in ctx.var_names:
                term = term * ctx.gen(name) ** draw(st.integers(0, 2))
            out = out + term
        return out
    den = polynomial()
    assume(den)
    return polynomial() / den


SHIFT_FIELDS = [classical_ctx(2), symbol_ctx(1)]


@pytest.mark.parametrize("ctx", SHIFT_FIELDS, ids=lambda ctx: ctx.mode)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_taylor_shift_matches_compose(ctx, data):
    x = data.draw(fractions(ctx))
    shifts = {j: data.draw(st.integers(-6, 6).map(lambda k: Fraction(k, 3)).filter(bool))
              for j in data.draw(st.sets(st.sampled_from(range(len(ctx.var_names))),
                                         min_size=1))}
    field = sympy_field(ctx.var_names)
    ring_qq = field.ring.clone(domain=QQ)
    moves = [(ring_qq.gens[j], ring_qq.gens[j] - QQ(m.numerator, m.denominator))
             for j, m in sorted(shifts.items())]
    num, den = (p.set_ring(ring_qq).compose(moves).as_expr()
                for p in (to_sympy(x).numer, to_sympy(x).denom))
    want = field(num) / field(den)
    got = to_sympy(Scalar(ctx, *_taylor_shift(x.numer, x.denom, shifts)))
    assert (got.numer, got.denom) == (want.numer, want.denom)


DIFF_CASES = [(classical_ctx(2), None), (symbol_ctx(2), None), (symbol_ctx(2), Fraction(3, 5))]


@pytest.mark.parametrize("ctx, eps", DIFF_CASES, ids=["classical", "symbol", "symbol-eps=3/5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_diff_lambda_matches_sympy(ctx, eps, data):
    x = data.draw(fractions(ctx))
    i = data.draw(st.integers(0, ctx.n - 1))
    field = sympy_field(ctx.var_names)
    gens = dict(zip(ctx.var_names, field.gens))
    f = to_sympy(x)
    want = f.diff(gens[f"l{i + 1}"])
    if ctx.mode == "symbol":
        coupling = gens["e"] if eps is None else field(Rational(eps.numerator, eps.denominator))
        want = want - f.diff(gens[f"w{i + 1}"]) * gens[f"w{i + 1}"] * coupling / 2
    got = to_sympy(x.diff_lambda(i, eps))
    assert (got.numer, got.denom) == (want.numer, want.denom)


def test_point_primes_match_nextprime():
    ctx = symbol_ctx(6)         # 13 generators
    base = FactorBase(ctx.ring, dict(ctx.op_counts))
    assert base.point == [nextprime(1009 * 4 ** j - 1) for j in range(13)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 7))
def test_least_prime_matches_nextprime(n):
    assert _least_prime_from(n) == nextprime(n - 1)
