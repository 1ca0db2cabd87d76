"""The factored Scalar arithmetic against sympy's cancel.

`Scalar` multiplies, adds and divides without a polynomial gcd over the
factored views of its denominators.  Here every operation is wrapped so that
its result is compared with sympy's own `FracElement` operation on the same
operands (read through `sympy_oracle.to_sympy`), over package jobs of every
layer that computes with Scalars, and over random fractions built from
interned factors.  The factoring behind the views is compared with sympy's
`factor_list`, and the integer-point screen of trial division with the
divisions it skips.
"""

from collections import Counter

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy_oracle import sympy_factors, sympy_field, to_sympy

from dybax import catalog, fusion, macdonald, reps, rootdata, scalars, verify
from dybax.scalars import (
    QUANTUM,
    Context,
    FactorBase,
    Scalar,
    _exact_quotient,
    _irreducible_factors,
    _is_ground,
    _lc,
    _quo_int,
    _value,
    classical_ctx,
    context_stats,
    quantum_ctx,
    symbol_ctx,
)

# Scalar method -> the same operation on sympy FracElements (self first)
ORACLE = {
    "__add__": operator.add,
    "__radd__": lambda a, b: b + a,
    "__sub__": operator.sub,
    "__rsub__": lambda a, b: b - a,
    "__mul__": operator.mul,
    "__rmul__": lambda a, b: b * a,
    "__truediv__": operator.truediv,
    "__rtruediv__": lambda a, b: b / a,
}


@pytest.fixture
def oracle(monkeypatch):
    """Checks every Scalar +, -, *, / against sympy; yields the number of
    results checked."""
    checked = {"ops": 0}
    for name, reference in ORACLE.items():
        fast = Scalar.__dict__[name]

        def wrapped(self, other, fast=fast, reference=reference, name=name):
            out = fast(self, other)
            want = reference(to_sympy(self), to_sympy(self.ctx(other)))
            assert same(out, want), (name, self, other)
            view = out.denominator_view()
            assert view is not None and out.ctx.factors.expand(view) == out.denom
            checked["ops"] += 1
            return out
        monkeypatch.setattr(Scalar, name, wrapped)
    return checked


def factored_ops():
    return sum(row[op] for row in context_stats() for op in ("mul", "add", "div"))


def check(oracle, job):
    before = factored_ops()
    job()
    assert oracle["ops"] > 0
    assert factored_ops() > before


def test_qdybe_at_rank_four(oracle):
    check(oracle, lambda: verify.qdybe_residual(catalog.quantum_R_X(4, [1, 2, 3, 4])))


@pytest.mark.parametrize("n", [2, 3])
def test_classical_cdybe_families(oracle, n):
    datum = rootdata.build_type_A(n, "gl")
    families = [catalog.basic_rational_r(datum), catalog.basic_trig_r(datum),
                catalog.classical_r_trig_X(datum, [0]),
                catalog.classical_r_zero_coupling(datum, [tuple(datum.positive_roots[0])])]
    for r in families:
        check(oracle, lambda r=r: verify.cdybe_residual(r))


def test_quantum_gauge(oracle):
    rq = catalog.quantum_R_eps_X(3, [1, 2])
    check(oracle, lambda: verify.qdybe_residual(
        verify.gauge_quantum(rq, 2, [1, Fraction(1, 2), 0])))


def test_quantum_gl3_fusion(oracle):
    v = reps.vector_rep(rootdata.build_type_A(3, "gl"), True)
    check(oracle, lambda: fusion.fusion_exchange_construction(v, v))


def test_criterion_11_macdonald_polynomials(oracle):
    for n, mu in ((2, (1, 0)), (2, (2, 0)), (2, (2, 1)), (3, (1, 1, 1)),
                  (3, (2, 1, 0)), (3, (3, 0, 0))):
        for m in (0, 1):
            check(oracle, lambda: macdonald.macdonald_polynomial(n, mu, m))


# -- random fractions over interned factors ------------------------------------

def _factors(ctx, texts):
    g = {name: ctx.gen(name) for name in ctx.var_names}
    return [eval(text, {}, g) for text in texts]  # noqa: S307 - fixed strings


# per mode: generators and irreducible factors, linear and binomial
FIELDS = {
    "classical": (classical_ctx(2), ("l1", "l2"),
                  ("l1 - l2", "l1 + 1", "2*l1 - l2 + 3", "l1*l2 - 1", "l2")),
    "quantum": (quantum_ctx(2), ("s", "t1", "t2"),
                ("t1 - t2", "s**2*t1 - t2", "s**4*t2 - t1", "t1*t2 - s**2", "s - 1",
                 "s + 1", "t1")),
    "symbol": (symbol_ctx(2), ("e", "w1", "l1"),
               ("w1 - w2", "e*w1 - w2", "l1 - l2 + e", "e*l1 + 2", "w1")),
}
modes = pytest.mark.parametrize("mode", sorted(FIELDS))


@st.composite
def factored_fractions(draw, mode):
    """c * P * prod F^a / prod F^b, P a small random polynomial."""
    ctx, gens, texts = FIELDS[mode]
    factors = _factors(ctx, texts)
    out = ctx(Fraction(draw(st.integers(-6, 6).filter(bool)),
                       draw(st.sampled_from([1, 2, 4, 9]))))
    poly = ctx.zero
    for _ in range(draw(st.integers(1, 3))):
        term = ctx(draw(st.integers(-4, 4)))
        for g in gens:
            term = term * ctx.gen(g) ** draw(st.integers(0, 2))
        poly = poly + term
    out = out * poly
    for f in factors:
        out = out * f ** draw(st.integers(-2, 2))
    return out


def same(x, want):
    """Scalar x has exactly the representation of the FracElement want."""
    got = to_sympy(x)
    return (got.numer, got.denom) == (want.numer, want.denom)


@modes
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_operations_match_sympy(mode, data):
    ctx = FIELDS[mode][0]
    a, b = data.draw(factored_fractions(mode)), data.draw(factored_fractions(mode))
    k = data.draw(st.integers(-3, 3))
    a, b = (Scalar(ctx, x.numer, x.denom) for x in (a, b))   # views built afresh
    af, bf, kf = to_sympy(a), to_sympy(b), to_sympy(ctx(k))
    assert same(a * b, af * bf)
    assert same(a + b, af + bf)
    assert same(a - b, af - bf)
    assert same((a + b) - b, af)       # the sum must cancel b's factors
    assert same(k - a, kf - af)
    assert same(k * a, kf * af)
    if b:
        assert same(a / b, af / bf)
    if a and k:
        assert same(k / a, kf / af)
    if a:
        assert same(a ** -2, to_sympy(ctx.one) / (af * af))


@st.composite
def factorable_polynomials(draw, mode):
    """A monomial times P(x^e) for random P and primitive e (negative
    entries cleared by a monomial) and degree-one polynomials."""
    ctx = FIELDS[mode][0]
    ring = sympy_field(ctx.var_names).ring
    k = ring.ngens
    out = ring.one
    for g in ring.gens:
        out *= g ** draw(st.integers(0, 2))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4))
            e = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)
                     .filter(lambda v: gcd(*v) == 1))
            plus, minus = [max(x, 0) for x in e], [max(-x, 0) for x in e]
            d = len(coeffs) - 1
            factor = ring({tuple(i * a + (d - i) * b for a, b in zip(plus, minus)): c
                           for i, c in enumerate(coeffs) if c})
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=k + 1, max_size=k + 1))
            factor = ring(coeffs[-1]) + sum((c * g for c, g in zip(coeffs, ring.gens)), ring.zero)
        assume(factor)
        out *= factor
    return ctx.ring({m: int(c) for m, c in out.items()})


@modes
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_irreducible_factors_match_factor_list(mode, data):
    poly = data.draw(factorable_polynomials(mode))
    want = sympy_factors(poly, FIELDS[mode][0].var_names)
    assert Counter(_irreducible_factors(poly)) == want


def test_one_variable_content_needs_no_factor_list(monkeypatch):
    ctx = quantum_ctx(2)
    s, t1, t2 = ctx.s, ctx.t(0), ctx.t(1)
    calls = []
    monkeypatch.setattr(scalars, "_factor_list", calls.append)
    for x in ((s**4 - t1**2) * (s**4 + 1), (s**8 - t1**2) * (s**8 + s**4 + 1),
              (t1 - t2 + 3) * (t1 + 1) ** 2 * (s - 1)):
        poly = x.numer
        assert Counter(_irreducible_factors(poly)) == sympy_factors(poly, ctx.var_names)
    assert calls == []


@pytest.mark.parametrize("text", ["s**4 - 1", "t1**2 - t2**2", "s**8*t1**2 - t2**2",
                                  "s**8 + s**4 + 1"])
def test_binomial_denominators_get_a_view(text):
    ctx = quantum_ctx(2)
    x = 1 / _factors(ctx, [text])[0]
    view = x.denominator_view()
    assert ctx.factors.expand(view) == x.denom
    for i, _ in view[1]:
        factor = ctx.factors.factors[i]
        assert sympy_factors(factor, ctx.var_names) == Counter({(factor, 1): 1})


@pytest.mark.parametrize("move", [lambda x: x.shift_lambda([1, 0]),
                                  lambda x: x.invert_q()])
def test_moved_denominators_need_no_factoring(monkeypatch, move):
    # a fresh field, so that no image is interned before the move
    ctx = Context(QUANTUM, 2)
    s, t1, t2 = ctx.s, ctx.t(0), ctx.t(1)
    x = 1 / ((t1 - s ** 2 * t2) * (t1 * t2 - s ** 2))
    x.denominator_view()
    calls = []
    factor = scalars._irreducible_factors
    monkeypatch.setattr(scalars, "_irreducible_factors",
                        lambda poly, counts=None: calls.append(poly) or factor(poly, counts))
    y = move(x)
    assert ctx.factors.expand(y.denominator_view()) == y.denom
    assert len(y.denom) == 4 and calls == []


def test_interned_factors_keep_a_fresh_hash(monkeypatch):
    # FactorBase._intern keys factors by hash, so a factor must hash like
    # its rebuilt copy.  The quantum Shapovalov job splits one-variable
    # contents off by exact division.
    fresh = lru_cache(maxsize=None)(lambda n: Context(QUANTUM, n))
    monkeypatch.setattr(rootdata, "quantum_ctx", fresh)
    v = reps.vector_rep(rootdata.build_type_A(3, "gl"), True)
    fusion.fusion_exchange_construction(v, v)
    fusion.shapovalov_vs_fusion(rootdata.build_type_A(2, "sl"), 3, quantum=True)
    assert v.ctx is fresh(3)
    for n in (1, 3):
        assert len(fresh(n).factors.factors) > 1
        for f in fresh(n).factors.factors:
            assert hash(f) == hash(type(f)(dict(f))), f


def test_negative_powers_are_canonical():
    ctx = quantum_ctx(1)
    t = ctx.t(0)
    assert (1 - t) ** -1 == 1 / (1 - t)
    assert _lc(((1 - t) ** -3).denom) > 0


# -- the integer-point screen of trial division --------------------------------

@st.composite
def polynomials(draw, ring):
    """A nonzero polynomial of one to four terms with small coefficients."""
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * ring.ngens),
        st.integers(-5, 5).filter(bool), min_size=1, max_size=4))
    return ring(terms)


@modes
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_screen_skips_only_failing_divisions(mode, data):
    ring = FIELDS[mode][0].ring
    f, g, h = (data.draw(polynomials(ring)) for _ in range(3))
    assume(not _is_ground(f))
    f = _quo_int(f, gcd(*f.values()) * (1 if _lc(f) > 0 else -1))
    counts = {"divisions": 0, "screened": 0}
    base = FactorBase(ring, counts)     # f may be reducible: keep it out of the fields
    i = base._intern(f)
    found = {}
    assert base._divide_out(f * g, {i: 1}, found) == g and found == {i: 1}
    assert counts["screened"] == 0
    record, p = base._records[i], f * g + h
    if record[4] and _value(p, base.point) % record[4]:
        assert _exact_quotient(p, record) is None


def test_a_factor_vanishing_at_the_point_still_divides():
    ctx = Context(QUANTUM, 2)
    s, t1, t2 = ctx.s, ctx.t(0), ctx.t(1)
    a = ctx.factors.point
    f = t1 - s - (a[1] - a[0])          # zero at the point
    h = t1 + t2 + s
    x = (t2 + 1) / (f * h)
    values = {ctx.factors._records[i][4] for i, _ in x.denominator_view()[1]}
    assert values == {0, _value(h.numer, a)}
    assert x * (f * h) == t2 + 1 and x * h ** 2 * f ** 2 == (t2 + 1) * f * h


def test_screen_skips_most_failing_divisions(monkeypatch):
    # a fresh field for the quantum gl3 fusion, so that the counts do not
    # depend on what other tests interned
    ctx = Context(QUANTUM, 3)
    monkeypatch.setattr(rootdata, "quantum_ctx", lambda n: ctx)
    runs = Counter()        # (non-generator factor, failed) -> divisions run

    def counted(poly, record):
        out = _exact_quotient(poly, record)
        runs[bool(record[3]), out is None] += 1
        return out
    monkeypatch.setattr(scalars, "_exact_quotient", counted)
    v = reps.vector_rep(rootdata.build_type_A(3, "gl"), True)
    fusion.fusion_exchange_construction(v, v)
    stats = ctx.stats()
    assert stats["divisions"] == sum(runs.values())
    assert stats["screened"] > 0 and runs[True, True] <= 0.02 * stats["divisions"]
