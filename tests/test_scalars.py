from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dybax.linalg import Mat
from dybax.reps import sym_power, vector_rep
from dybax.rootdata import build_type_A
from dybax.scalars import (
    NotRegularError,
    ScalarError,
    UnsupportedShiftError,
    classical_ctx,
    quantum_ctx,
    symbol_ctx,
)

# rank-2 fields: (context, generators, generators with negative exponents)
FIELDS = {
    "classical": (classical_ctx(2), ("l1", "l2"), ()),
    "quantum": (quantum_ctx(2), ("s", "t1", "t2"), ("s", "t1", "t2")),
    "symbol": (symbol_ctx(2), ("e", "l1", "l2"), ("e",)),
}
half_integers = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
weights = st.lists(half_integers, min_size=2, max_size=2)
permutations = st.sampled_from([[0, 1], [1, 0]])


@st.composite
def polynomials(draw, mode):
    """Up to three terms with small rational coefficients."""
    ctx, gens, laurent = FIELDS[mode]
    out = ctx.zero
    for _ in range(draw(st.integers(1, 3))):
        term = ctx(Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3]))))
        for g in gens:
            term = term * ctx.gen(g) ** draw(st.integers(-2 if g in laurent else 0, 3))
        out = out + term
    return out


@st.composite
def fractions(draw, mode):
    den = draw(polynomials(mode).filter(lambda p: not p.is_zero))
    return draw(polynomials(mode)) / den


def subs_shift(x, mu):
    """lambda -> lambda - mu by generic substitution: the reference path."""
    ctx = x.ctx
    if ctx.mode == "quantum":
        return x.subs({f"t{i + 1}": ctx.t(i) * ctx.s ** int(-2 * m) for i, m in enumerate(mu)})
    return x.subs({f"l{i + 1}": ctx.lam(i) - m for i, m in enumerate(mu)})


def subs_permute(x, sigma):
    """lambda_a -> lambda_sigma(a) by generic substitution, w_a with l_a."""
    ctx = x.ctx
    letters = {"classical": "l", "quantum": "t", "symbol": "lw"}[ctx.mode]
    return x.subs({f"{g}{a + 1}": ctx.gen(f"{g}{b + 1}")
                   for g in letters for a, b in enumerate(sigma)})


def subs_reflect(x, mu):
    """lambda -> -lambda - mu by generic substitution."""
    ctx = x.ctx
    if ctx.mode == "quantum":
        return x.subs({f"t{i + 1}": ctx.s ** int(-2 * m) / ctx.t(i) for i, m in enumerate(mu)})
    return x.subs({f"l{i + 1}": -ctx.lam(i) - m for i, m in enumerate(mu)})


modes = pytest.mark.parametrize("mode", sorted(FIELDS))
reflecting_modes = pytest.mark.parametrize("mode", ["classical", "quantum"])


def test_canonical_reduction():
    ctx = classical_ctx(1)
    l = ctx.lam(0)
    assert (l ** 2 - 1) / (l - 1) == l + 1
    assert 1 / (l - 2) + 1 / (2 - l) == ctx.zero
    assert (l + 1) / (l + 1) == Fraction(1)


def test_shift_classical():
    ctx = classical_ctx(1)
    l = ctx.lam(0)
    x = 1 / (l + 1)
    assert x.shift_lambda([1]) == 1 / l
    ctx2 = classical_ctx(2)
    y = 1 / (ctx2.lam(0) - ctx2.lam(1))
    a = y.shift_lambda([Fraction(1, 2), 0]).shift_lambda([Fraction(1, 2), 1])
    assert a == y.shift_lambda([1, 1])


def test_shift_quantum_example():
    # (q^-1 - q)/(q^(2(l+1)) - 1) shifted by mu=1 has denominator s^8 t^2 - 1
    ctx = quantum_ctx(1)
    s, t = ctx.s, ctx.t(0)
    x = (1 / s ** 2 - s ** 2) / (s ** 4 * t ** 2 - 1)
    y = x.shift_lambda([-1])  # lambda -> lambda + 1
    assert y == (1 / s ** 2 - s ** 2) / (s ** 8 * t ** 2 - 1)
    # t -> s^2 t makes -s^2 t the leading term: the sign moves to the top
    assert (1 / (s - t)).shift_lambda([-1]) == 1 / (s - s ** 2 * t)
    # t -> s^-2 t leaves a negative power of s, which moves to the top
    assert (1 / (1 - t)).shift_lambda([1]) == s ** 2 / (s ** 2 - t)
    with pytest.raises(UnsupportedShiftError):
        x.shift_lambda([Fraction(1, 3)])


def test_shift_is_homomorphism():
    ctx = classical_ctx(2)
    l1, l2 = ctx.lam(0), ctx.lam(1)
    x = 1 / (l1 - l2) + l1 * l2
    y = l2 ** 2 - 3
    mu = [Fraction(3, 2), -1]
    assert (x * y).shift_lambda(mu) == x.shift_lambda(mu) * y.shift_lambda(mu)
    assert (x + y).shift_lambda(mu) == x.shift_lambda(mu) + y.shift_lambda(mu)


def test_gamma_expand_classical():
    ctx = classical_ctx(1)
    l = ctx.lam(0)
    g = (1 / (l + 1)).gamma_expand(2)
    tgt = symbol_ctx(1)
    lt = tgt.lam(0)
    assert g[0].is_zero
    assert g[1] == 1 / lt
    assert g[2] == -1 / lt ** 2
    # constants are gamma-independent
    c = ctx.from_fraction(Fraction(5, 3)).gamma_expand(3)
    assert c[0] == Fraction(5, 3)
    assert c[1].is_zero and c[3].is_zero
    with pytest.raises(NotRegularError):
        (l + 1).gamma_expand(2)


def test_gamma_expand_vanishing_beyond_the_order():
    # gamma^5 / l^5 is zero through order 2; the expansion raised ValueError
    l = classical_ctx(1).lam(0)
    assert all(c.is_zero for c in (1 / l ** 5).gamma_expand(2))
    g = (1 / l ** 2).gamma_expand(3)
    assert g[1].is_zero and g[2] == 1 / symbol_ctx(1).lam(0) ** 2


def test_gamma_expand_quantum_coth_form():
    # (q^-1 - q)/(q^(2(l+1)) - 1): order-gamma coefficient is the sl2 entry of
    # the basic trigonometric r-matrix, e*w^2/(w^2-1)  (= (e/2)(coth+1) form).
    ctx = quantum_ctx(1)
    s, t = ctx.s, ctx.t(0)
    x = (1 / s ** 2 - s ** 2) / (s ** 4 * t ** 2 - 1)
    g = x.gamma_expand(2)
    tgt = symbol_ctx(1)
    e, w = tgt.eps, tgt.w(0)
    assert g[0].is_zero
    u = 1 / w ** 2  # exp(e*l): with w = exp(-e*l/2)
    expected = -(e / 2) - (e / 2) * (u + 1) / (u - 1)
    assert g[1] == expected


def test_gamma_expand_ring_homomorphism():
    ctx = quantum_ctx(2)
    s, t1, t2 = ctx.s, ctx.t(0), ctx.t(1)
    x = (s - 1 / s) / (t1 / t2 - 1)
    y = s ** 2 * t1 * t2
    N = 3
    a, b = x.gamma_expand(N), y.gamma_expand(N)
    product = [sum((a[i] * b[k - i] for i in range(k + 1)), symbol_ctx(2).zero)
               for k in range(N + 1)]
    assert (x * y).gamma_expand(N) == product
    assert (x + y).gamma_expand(N) == [p + q for p, q in zip(a, b)]


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_field_axioms_random(a, b, c, d, e, f):
    ctx = classical_ctx(2)
    l1, l2 = ctx.lam(0), ctx.lam(1)
    x = a + b * l1 + c * l2
    y = d + e * l1 * l2
    z = ctx.from_fraction(f) + l1
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    if not (ctx(0) == y):
        assert (x / y) * y == x


def test_to_text_deterministic():
    ctx = classical_ctx(2)
    l1, l2 = ctx.lam(0), ctx.lam(1)
    x = (l1 ** 2 - l2) / (2 * l1 - 2 * l2)
    assert x.to_text() == "(l1^2 - l2)/(2*l1 - 2*l2)"
    assert (ctx.zero).to_text() == "0"
    assert (ctx.one / 2).to_text() == "(1)/(2)"
    y = 1 / (l2 - l1)
    assert y.to_text() == "(-1)/(l1 - l2)"


def test_diff_twisted():
    ctx = symbol_ctx(2)
    e, w1, l1 = ctx.eps, ctx.w(0), ctx.lam(0)
    x = w1 ** 2 * l1
    assert x.diff_lambda(0) == w1 ** 2 - e * w1 ** 2 * l1
    assert x.diff_lambda(1).is_zero


@modes
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shift_matches_substitution(mode, data):
    x, mu = data.draw(st.tuples(fractions(mode), weights))
    assert x.shift_lambda(mu) == subs_shift(x, mu)


@modes
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_permute_matches_substitution(mode, data):
    x, sigma = data.draw(st.tuples(fractions(mode), permutations))
    assert x.permute_lambda(sigma) == subs_permute(x, sigma)


@reflecting_modes
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reflect_matches_substitution(mode, data):
    x, mu = data.draw(st.tuples(fractions(mode), weights))
    assert x.reflect_lambda(mu) == subs_reflect(x, mu)


def test_symbol_permutation_moves_w_and_reflection_is_undefined():
    ctx = symbol_ctx(2)
    x = ctx.w(0) / (ctx.lam(0) - 2 * ctx.lam(1))
    assert x.permute_lambda([1, 0]) == ctx.w(1) / (ctx.lam(1) - 2 * ctx.lam(0))
    for move in (lambda: x.reflect_lambda([0, 1]), lambda: x.permute_lambda([0, 0])):
        with pytest.raises(ScalarError):
            move()


@modes
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_permute_and_reflect_commute_with_field_operations(mode, data):
    x, y = data.draw(fractions(mode)), data.draw(fractions(mode))
    sigma, mu = data.draw(permutations), data.draw(weights)
    moves = [lambda v: v.permute_lambda(sigma)]
    if mode != "symbol":
        moves.append(lambda v: v.reflect_lambda(mu))
    for move in moves:
        assert move(x * y) == move(x) * move(y)
        assert move(x + y) == move(x) + move(y)


@modes
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shift_round_trip(mode, data):
    x, mu = data.draw(st.tuples(fractions(mode), weights))
    back = x.shift_lambda(mu).shift_lambda([-m for m in mu])
    assert back == x


@modes
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_shift_commutes_with_field_operations(mode, data):
    x, mu = data.draw(st.tuples(fractions(mode), weights))
    y = data.draw(fractions(mode))
    assert (x * y).shift_lambda(mu) == x.shift_lambda(mu) * y.shift_lambda(mu)
    assert (x + y).shift_lambda(mu) == x.shift_lambda(mu) + y.shift_lambda(mu)


@settings(max_examples=40, deadline=None)
@given(x=fractions("quantum"))
def test_invert_q_matches_substitution(x):
    assert x.invert_q() == x.subs({"s": 1 / x.ctx.s})


def test_invert_q_needs_a_quantum_field():
    for ctx in (classical_ctx(2), symbol_ctx(2)):
        with pytest.raises(ScalarError):
            ctx.one.invert_q()


def test_convert_takes_coordinates_by_index():
    src, tgt = quantum_ctx(2), quantum_ctx(1)
    assert (src.coordinate(1), tgt.coordinate_value(Fraction(3, 2))) == (src.t(1), tgt.s ** 3)
    x = (src.s * src.t(0) - src.t(1)) / (src.t(0) + 2)
    t = tgt.coordinate(0)
    assert x.convert(tgt, [t, tgt.one]) == (tgt.s * t - 1) / (t + 2)
    c2, ctx = classical_ctx(2), classical_ctx(1)
    y = c2.coordinate(0) / (c2.coordinate(1) + 1)
    lam, two = ctx.coordinate(0), ctx.coordinate_value(2)
    assert (lam, two) == (ctx.lam(0), ctx.from_fraction(2))
    assert y.convert(ctx, [lam + 1, two]) == (lam + 1) / 3


def test_symbol_shift_rejects_exponential_factors():
    ctx = symbol_ctx(2)
    x = ctx.w(0) / (ctx.lam(0) - ctx.lam(1))
    with pytest.raises(UnsupportedShiftError):
        x.shift_lambda([1, 0])
    assert x.shift_lambda([0, 1]) == ctx.w(0) / (ctx.lam(0) - ctx.lam(1) + 1)


def test_q_power_on_the_quantum_field():
    ctx = quantum_ctx(1)
    assert ctx.q_power(Fraction(1, 2)) == ctx.s
    assert ctx.q_power(-1) == ctx.s ** -2
    with pytest.raises(UnsupportedShiftError):
        ctx.q_power(Fraction(1, 4))


def test_q_power_is_one_classically_and_undefined_on_symbols():
    assert classical_ctx(2).q_power(Fraction(3, 2)) == classical_ctx(2).one
    with pytest.raises(ScalarError):
        symbol_ctx(1).q_power(1)


def test_q_number_is_the_q_integer_and_x_classically():
    ctx = quantum_ctx(1)
    q = ctx.q_power(1)
    assert ctx.q_number(2) == q + 1 / q
    assert ctx.q_number(3) == q ** 2 + 1 + q ** -2
    assert ctx.q_number(-3) == -ctx.q_number(3)
    assert ctx.q_number(Fraction(1, 2)) == 1 / (ctx.s + 1 / ctx.s)
    assert classical_ctx(2).q_number(Fraction(5, 3)) == classical_ctx(2).from_fraction(Fraction(5, 3))
    with pytest.raises(ScalarError):
        symbol_ctx(1).q_number(2)


def test_q_lambda_is_a_t_monomial_and_one_classically():
    ctx = quantum_ctx(3)
    assert ctx.q_lambda([2, 0, -1]) == ctx.t(0) ** 2 / ctx.t(2)
    assert ctx.q_lambda([0, 0, 0]) == ctx.one
    assert classical_ctx(3).q_lambda([Fraction(1, 2), 1, 0]) == classical_ctx(3).one
    with pytest.raises(UnsupportedShiftError):
        ctx.q_lambda([Fraction(1, 2), 0, 0])
    with pytest.raises(ScalarError):
        symbol_ctx(3).q_lambda([1, 0, 0])


def test_classical_k_diag_is_the_identity():
    # reps.tensor builds the classical coproduct with K = 1 through k_diag
    module = sym_power(vector_rep(build_type_A(3, "gl")), 2)
    for i in range(2):
        for inverse in (False, True):
            assert module.k_diag(i, inverse) == Mat.identity(module.dim, module.ctx)
