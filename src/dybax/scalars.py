"""Exact coefficient arithmetic: multivariate rational functions in three flavors.

Every quantity in the package is a ``Scalar``: an element of one of three
exact fraction fields of polynomials with arbitrary-precision integer
coefficients (rational constants enter as integer fractions).

* classical mode -- rational functions in the lambda-coordinates l1..ln;
* quantum mode   -- rational functions in s and t1..tn, encoding
  s = q^(1/2) and t_i = q^(lambda_i), so that half-integer lambda shifts
  stay Laurent in s;
* symbol mode    -- rational functions in e, w1..wn, l1..ln, encoding the
  deformation coupling epsilon and the exponentials w_a = exp(-e*l_a/2).
  This field hosts the coefficients of gamma-series (the step-gamma limit)
  and the trigonometric solution families, whose "cotanh" entries are the
  rational functions (e/2)(u+1)/(u-1) in the monomials u = (w_a/w_b)^(-2).

Truncated power series in the step gamma live in ``GammaSeries``, a plain
coefficient list over the symbol field.

The backing representation is sympy's sparse polynomial fraction field over
ZZ: numerator and denominator are coprime in Z[gens], their integer contents
are coprime and the denominator's leading coefficient is positive, so two
Scalars are equal iff their representations are identical.  Field operations
keep this form by a gcd; a lambda-shift does not need one.  It is a ring
automorphism, which maps a reduced fraction to a reduced fraction, so it
only rewrites exponents and fixes the sign (quantum) or Taylor-shifts and
clears denominators (classical and symbol).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import field as _sym_field
from sympy.polys.matrices import DomainMatrix

CLASSICAL = "classical"
QUANTUM = "quantum"
SYMBOL = "symbol"


class ScalarError(Exception):
    pass


class UnsupportedShiftError(ScalarError):
    """Shift weight not representable in the coefficient field."""


class NotRegularError(ScalarError):
    """The gamma-series of this value has a pole at gamma = 0."""


class PoleAtPointError(ScalarError):
    """Denominator vanishes at the evaluation point (non-generic lambda)."""


class Context:
    """A fixed coefficient field: mode plus rank (number of lambda coordinates)."""

    def __init__(self, mode, n, extra=()):
        if mode == CLASSICAL:
            names = [f"l{i + 1}" for i in range(n)]
        elif mode == QUANTUM:
            names = ["s"] + [f"t{i + 1}" for i in range(n)]
        elif mode == SYMBOL:
            names = ["e"] + [f"w{i + 1}" for i in range(n)] + [f"l{i + 1}" for i in range(n)]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        names += list(extra)
        self.mode = mode
        self.n = n
        self.extra = tuple(extra)
        self.var_names = tuple(names)
        created = _sym_field(",".join(names), ZZ)
        self.field = created[0]
        self._gens = {name: g for name, g in zip(names, created[1:])}
        # the same polynomials over QQ, where the Taylor shifts run
        self._qq_ring = self.field.ring.clone(domain=QQ)
        self.zero = Scalar(self, self.field.zero)
        self.one = Scalar(self, self.field.one)

    def __repr__(self):
        return f"Context({self.mode}, n={self.n})"

    def gen(self, name):
        return Scalar(self, self._gens[name])

    def lam(self, i):
        """The coordinate l_{i+1} as a Scalar (classical/symbol modes)."""
        return self.gen(f"l{i + 1}")

    def t(self, i):
        return self.gen(f"t{i + 1}")

    @property
    def s(self):
        return self.gen("s")

    @property
    def eps(self):
        return self.gen("e")

    def w(self, i):
        return self.gen(f"w{i + 1}")

    def from_fraction(self, value):
        value = Fraction(value)
        return Scalar(self, self.field(QQ(value.numerator, value.denominator)))

    def __call__(self, value):
        if isinstance(value, Scalar):
            if value.ctx is not self:
                raise ScalarError("scalar from a different context")
            return value
        return self.from_fraction(value)

@lru_cache(maxsize=None)
def classical_ctx(n):
    return Context(CLASSICAL, n)


@lru_cache(maxsize=None)
def quantum_ctx(n):
    return Context(QUANTUM, n)


@lru_cache(maxsize=None)
def symbol_ctx(n):
    return Context(SYMBOL, n)


@lru_cache(maxsize=None)
def aux_ctx(mode, n, extra):
    """A field of the given mode with extra generators (the universal sl2
    coefficients)."""
    return Context(mode, n, extra=extra)


def _to_frac_element(ctx, value):
    if isinstance(value, Scalar):
        if value.ctx is not ctx:
            raise ScalarError(f"context mismatch: {value.ctx} vs {ctx}")
        return value.f
    value = Fraction(value)
    return ctx.field(QQ(value.numerator, value.denominator))


class Scalar:
    """Element of a Context's fraction field. Immutable and canonical."""

    __slots__ = ("ctx", "f")

    def __init__(self, ctx, f):
        self.ctx = ctx
        self.f = f

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return Scalar(self.ctx, self.f + _to_frac_element(self.ctx, other))

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.ctx, self.f - _to_frac_element(self.ctx, other))

    def __rsub__(self, other):
        return Scalar(self.ctx, _to_frac_element(self.ctx, other) - self.f)

    def __mul__(self, other):
        return Scalar(self.ctx, self.f * _to_frac_element(self.ctx, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = _to_frac_element(self.ctx, other)
        if not g:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(self.ctx, self.f / g)

    def __rtruediv__(self, other):
        if not self.f:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(self.ctx, _to_frac_element(self.ctx, other) / self.f)

    def __pow__(self, k):
        return Scalar(self.ctx, self.f ** k)

    def __neg__(self):
        return Scalar(self.ctx, -self.f)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.ctx is other.ctx and self.f == other.f
        if isinstance(other, (int, Fraction)):
            return self.f == _to_frac_element(self.ctx, other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.f))

    def __bool__(self):
        return bool(self.f)

    @property
    def is_zero(self):
        return not self.f

    def __repr__(self):
        return f"Scalar({self.f})"

    # -- structure ----------------------------------------------------------

    def fraction_terms(self):
        """Numerator and denominator as lists of (exponent tuple, Fraction),
        one pair per monomial, exponents in the order of ``ctx.var_names``."""
        return _rational_terms(self.f.numer), _rational_terms(self.f.denom)

    def to_fraction(self):
        """The value as an exact rational; error if not constant."""
        num, den = self.fraction_terms()
        if any(any(monom) for monom, _ in num + den):
            raise ScalarError(f"not a constant: {self.f}")
        return (num[0][1] if num else Fraction(0)) / den[0][1]

    def convert(self, tgt, mapping):
        """Map into another context: every generator must be sent to a target
        Scalar (omitted names map to the same-named target generator)."""
        vals = []
        for name in self.ctx.var_names:
            if name in mapping:
                vals.append(_to_frac_element(tgt, tgt(mapping[name])))
            else:
                vals.append(_to_frac_element(tgt, tgt.gen(name)))
        num = _eval_poly(tgt, self.f.numer, vals)
        den = _eval_poly(tgt, self.f.denom, vals)
        if not den:
            raise ZeroDivisionError("conversion produced a zero denominator")
        return Scalar(tgt, num / den)

    def subs(self, mapping):
        """Substitute generators (by name) with Scalars of the same context."""
        vals = []
        for name in self.ctx.var_names:
            if name in mapping:
                vals.append(_to_frac_element(self.ctx, mapping[name]))
            else:
                vals.append(self.ctx._gens[name])
        num = _eval_poly(self.ctx, self.f.numer, vals)
        den = _eval_poly(self.ctx, self.f.denom, vals)
        if not den:
            raise ZeroDivisionError("substitution produced a zero denominator")
        return Scalar(self.ctx, num / den)

    def monomial_subs(self, mapping):
        """``subs`` for a mapping that sends generators (by name) to Laurent
        monomials with coefficient 1 and is a ring automorphism: a
        permutation of generators, or generators rescaled by monomials in
        the others.  It rewrites exponents and takes no gcd; any other
        mapping raises ScalarError."""
        names = self.ctx.var_names
        images = {}
        for name, value in mapping.items():
            num, den = self.ctx(value).fraction_terms()
            if len(num) != 1 or len(den) != 1 or num[0][1] != 1 or den[0][1] != 1:
                raise ScalarError(f"{name} -> {value} is not a monomial")
            images[names.index(name)] = tuple(a - b for a, b in zip(num[0][0], den[0][0]))
        rows = [[ZZ(x) for x in images.get(j, _unit_vector(len(names), j))]
                for j in range(len(names))]
        if abs(DomainMatrix(rows, (len(names), len(names)), ZZ).det()) != 1:
            raise ScalarError("monomial substitution is not an automorphism")
        return Scalar(self.ctx, _monomial_image(self.f, images))

    def diff_lambda(self, i, eps=None):
        """Exact partial derivative along lambda_{i+1}.

        In symbol mode this is the twisted derivation that also sees the
        lambda-dependence of the exponential symbols, d w_a/d l_a =
        -(eps/2) w_a, where eps defaults to the symbol e but may be a fixed
        rational coupling (the w_a then encode exp(-eps*l_a/2) at that
        coupling).
        """
        ctx = self.ctx
        if ctx.mode == QUANTUM:
            raise ScalarError("no polynomial lambda-derivative in quantum mode")
        out = self.f.diff(ctx._gens[f"l{i + 1}"])
        if ctx.mode == SYMBOL:
            wi = ctx._gens[f"w{i + 1}"]
            eps_el = ctx._gens["e"] if eps is None else _to_frac_element(ctx, eps)
            out = out + self.f.diff(wi) * wi * eps_el * QQ(-1, 2)
        return Scalar(ctx, out)

    def shift_lambda(self, mu):
        """lambda -> lambda - mu, for a weight mu given in coordinates.

        Classical: l_i -> l_i - mu_i.  Quantum: t_i -> s^(-2 mu_i) t_i, which
        requires every 2*mu_i to be an integer.  Symbol mode supports only
        rational shifts on the polynomial part when all w-shift factors are
        trivial (mu paired into the exponentials must vanish), since
        exp(e*c) for generic rational c is not in the field.

        The shift is a ring automorphism, so it maps the reduced fraction to
        a reduced fraction and takes no gcd.
        """
        ctx = self.ctx
        mu = [Fraction(x) for x in mu]
        if len(mu) != ctx.n:
            raise UnsupportedShiftError("shift weight has wrong length")
        if all(x == 0 for x in mu):
            return self
        index = ctx.var_names.index
        if ctx.mode == QUANTUM:
            images = {}
            for i, m in enumerate(mu):
                k2 = -2 * m
                if k2.denominator != 1:
                    raise UnsupportedShiftError(
                        f"quantum shift by {m} is not half-integral")
                if k2 != 0:
                    image = list(_unit_vector(len(ctx.var_names), index(f"t{i + 1}")))
                    image[index("s")] = int(k2)
                    images[index(f"t{i + 1}")] = image
            return Scalar(ctx, _monomial_image(self.f, images))
        if ctx.mode == SYMBOL:
            for i, m in enumerate(mu):
                w = index(f"w{i + 1}")
                if m != 0 and any(monom[w] for side in (self.f.numer, self.f.denom)
                                  for monom in side):
                    raise UnsupportedShiftError(
                        "symbol-mode shift would need exp(e*c) factors outside the field")
        shifts = {index(f"l{i + 1}"): m for i, m in enumerate(mu) if m != 0}
        return Scalar(ctx, _taylor_shift(ctx, self.f, shifts))

    def evaluate_at(self, point):
        """Exact rational value at a rational point {var name: value}."""
        ctx = self.ctx
        vals = []
        for name in ctx.var_names:
            if name not in point:
                raise ScalarError(f"no value given for {name}")
            v = Fraction(point[name])
            vals.append(ctx.field(QQ(v.numerator, v.denominator)))
        num = _eval_poly(ctx, self.f.numer, vals)
        den = _eval_poly(ctx, self.f.denom, vals)
        if not den:
            raise PoleAtPointError(f"denominator vanishes at {point}")
        return Scalar(ctx, num / den).to_fraction()

    def gamma_expand(self, order):
        """Expand at lambda -> lambda/gamma (and q = exp(-e*gamma/2)) to the
        given order in gamma; returns a GammaSeries over the symbol field.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        ctx = self.ctx
        if ctx.extra:
            raise ScalarError("gamma_expand is not defined for auxiliary contexts")
        tgt = symbol_ctx(ctx.n)
        if ctx.mode == CLASSICAL:
            dn, num = _classical_gamma_poly(ctx, tgt, self.f.numer)
            dd, den = _classical_gamma_poly(ctx, tgt, self.f.denom)
            net_shift = dd - dn
        elif ctx.mode == QUANTUM:
            num = _quantum_gamma_poly(ctx, tgt, self.f.numer, order)
            den = _quantum_gamma_poly(ctx, tgt, self.f.denom, order)
            net_shift = 0
        else:
            raise ScalarError("gamma_expand expects a classical or quantum Scalar")
        return _series_divide(tgt, num, den, order, net_shift)

    # -- canonical text -----------------------------------------------------

    def to_text(self):
        """Deterministic canonical text: integer-coefficient numerator and
        denominator in graded-lex monomial order, denominator content-free
        with positive leading coefficient."""
        return _fraction_text(self.ctx, self.f)


def _rational_terms(poly):
    return [(monom, Fraction(int(c))) for monom, c in poly.terms()]


def _unit_vector(n, j):
    return tuple(int(k == j) for k in range(n))


def _monomial_image(f, images):
    """f under the ring automorphism sending generator j to the Laurent
    monomial with exponent vector images[j] (other generators are fixed).

    Monomials and +-1 are the only units of the Laurent ring, and the
    integer coefficients only move between monomials, so the images of the
    coprime numerator and denominator are coprime up to their common
    monomial factor.  That factor (negative exponents included) is divided
    out and the denominator's leading coefficient made positive, as sympy's
    cancel would: no gcd is taken."""
    moved = list(images.items())
    sides = []
    for poly in (f.numer, f.denom):
        side = {}
        for monom, c in poly.items():
            new = list(monom)
            for j, image in moved:
                e = monom[j]
                if e:
                    new[j] -= e
                    for k, x in enumerate(image):
                        new[k] += e * x
            side[tuple(new)] = c
        sides.append(side)
    low = [min(exps) for exps in zip(*sides[0], *sides[1])]
    num, den = ({tuple(a - b for a, b in zip(monom, low)): c for monom, c in side.items()}
                for side in sides)
    num, den = f.numer.new(num), f.denom.new(den)
    if den.LC < 0:
        num, den = -num, -den
    return f.raw_new(num, den)


def _taylor_shift(ctx, f, shifts):
    """f with generator j replaced by x_j - shifts[j] (rationals).

    The substitution is a ring automorphism of Q[gens], so the shifted
    numerator and denominator stay coprime over Q: clearing denominators
    and dividing out the integer content of both together reduces the
    fraction over Z without a polynomial gcd.  Every new monomial divides
    the old one it comes from, so the leading term in lex order and hence
    the sign of the denominator are kept."""
    qq = ctx._qq_ring
    moves = [(qq.gens[j], qq.gens[j] - QQ(m.numerator, m.denominator))
             for j, m in sorted(shifts.items())]
    num, den = (poly.set_ring(qq).compose(moves) for poly in (f.numer, f.denom))
    scale = lcm(*(int(c.denominator) for c in (*num.values(), *den.values())))
    num, den = ({monom: int(c * scale) for monom, c in poly.items()} for poly in (num, den))
    content = gcd(*num.values(), *den.values())
    return f.raw_new(f.numer.new({m: c // content for m, c in num.items()}),
                     f.denom.new({m: c // content for m, c in den.items()}))


def _eval_poly(tgt, poly, vals):
    """Evaluate a PolyElement at field-element values of the context tgt
    (monomial by monomial); the result lies in tgt's field."""
    fld = tgt.field
    out = fld.zero
    for monom, coeff in poly.terms():
        term = fld(coeff)
        for g, e in zip(vals, monom):
            if e:
                term = term * g ** e
        out = out + term
    return out


def _classical_gamma_poly(src, tgt, poly):
    """gamma-polynomial coefficients of gamma^deg * P(lambda/gamma).

    Returns (deg, c[0..deg]) with gamma^deg P(lambda/gamma) = sum c[j] gamma^j;
    c[j] is the homogeneous part of P of total degree deg - j.
    """
    if not poly:
        return 0, [tgt.field.zero]
    deg = max(sum(m) for m in poly.monoms())
    coeffs = [tgt.field.zero] * (deg + 1)
    lam = [tgt._gens[f"l{i + 1}"] for i in range(src.n)]
    for monom, coeff in poly.terms():
        term = tgt.field(coeff)
        for g, e in zip(lam, monom):
            if e:
                term = term * g ** e
        coeffs[deg - sum(monom)] += term
    return deg, coeffs


def _exp_series(tgt, rate, order):
    """Series of exp(rate * e * gamma) to the given order; rate rational."""
    rate = Fraction(rate)
    e = tgt._gens["e"]
    out = [tgt.field.one]
    term = tgt.field.one
    for k in range(1, order + 1):
        term = term * e * QQ(rate.numerator, rate.denominator) / QQ(k)
        out.append(term)
    return out


def _quantum_gamma_poly(src, tgt, poly, order):
    """gamma-series (to given order) of P after s -> exp(-e g/4), t_i -> w_i."""
    out = [tgt.field.zero] * (order + 1)
    w = [tgt._gens[f"w{i + 1}"] for i in range(src.n)]
    for monom, coeff in poly.terms():
        s_exp = monom[0]
        mono = tgt.field(coeff)
        for g, e in zip(w, monom[1:]):
            if e:
                mono = mono * g ** e
        exp_part = _exp_series(tgt, Fraction(-s_exp, 4), order)
        for j in range(order + 1):
            out[j] += mono * exp_part[j]
    return out


def _series_divide(tgt, num, den, order, net_shift):
    """gamma^net_shift * (sum num[j] g^j) / (sum den[j] g^j) as a GammaSeries."""

    def valuation(c):
        for j, x in enumerate(c):
            if x:
                return j
        return None

    vn, vd = valuation(num), valuation(den)
    if vd is None:
        raise ZeroDivisionError("zero denominator series")
    if vn is None:
        return GammaSeries(tgt, order, [tgt.field.zero] * (order + 1))
    shift = net_shift + vn - vd
    if shift < 0:
        raise NotRegularError("pole at gamma = 0")
    a = num[vn:vn + order + 1]
    b = den[vd:vd + order + 1]
    a += [tgt.field.zero] * (order + 1 - len(a))
    b += [tgt.field.zero] * (order + 1 - len(b))
    coeffs = [tgt.field.zero] * shift + series_quotient(a, b, order + 1 - shift)
    return GammaSeries(tgt, order, coeffs[:order + 1])


def series_quotient(a, b, n):
    """The first n coefficients of the power series a / b.

    a and b are coefficient lists of length at least n over any field (sympy
    field elements or Scalars), and b[0] must be nonzero."""
    q = []
    for k in range(n):
        acc = a[k]
        for j in range(k):
            acc = acc - q[j] * b[k - j]
        q.append(acc / b[0])
    return q


class GammaSeries:
    """Truncated power series in gamma over the symbol field."""

    __slots__ = ("ctx", "order", "_c")

    def __init__(self, ctx, order, coeffs):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list does not match order")
        self.ctx = ctx
        self.order = order
        self._c = list(coeffs)

    def coeff(self, k):
        if not 0 <= k <= self.order:
            raise IndexError(f"order {k} beyond truncation {self.order}")
        return Scalar(self.ctx, self._c[k])

    def __eq__(self, other):
        return (isinstance(other, GammaSeries) and self.ctx is other.ctx
                and self.order == other.order and self._c == other._c)

    def __add__(self, other):
        self._check(other)
        return GammaSeries(self.ctx, self.order,
                           [a + b for a, b in zip(self._c, other._c)])

    def __sub__(self, other):
        self._check(other)
        return GammaSeries(self.ctx, self.order,
                           [a - b for a, b in zip(self._c, other._c)])

    def __mul__(self, other):
        if isinstance(other, GammaSeries):
            self._check(other)
            out = [self.ctx.field.zero] * (self.order + 1)
            for i, a in enumerate(self._c):
                if not a:
                    continue
                for j in range(self.order + 1 - i):
                    b = other._c[j]
                    if b:
                        out[i + j] += a * b
            return GammaSeries(self.ctx, self.order, out)
        g = _to_frac_element(self.ctx, other)
        return GammaSeries(self.ctx, self.order, [c * g for c in self._c])

    __rmul__ = __mul__

    @property
    def is_zero(self):
        return all(not c for c in self._c)

    def _check(self, other):
        if self.ctx is not other.ctx or self.order != other.order:
            raise ScalarError("gamma-series context/order mismatch")

    def __repr__(self):
        parts = [f"({c})*g^{k}" for k, c in enumerate(self._c) if c]
        return " + ".join(parts) if parts else "0"


# -- canonical text -------------------------------------------------------


def _monomial_key(monom):
    return (-sum(monom),) + tuple(-x for x in monom)


def _poly_text_integer(ctx, terms):
    """Render a term list with integer coefficients canonically."""
    if not terms:
        return "0"
    parts = []
    names = ctx.var_names
    for monom, c in terms:
        factors = []
        for name, e in zip(names, monom):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if body:
            text = body if abs(c) == 1 else f"{abs(c)}*{body}"
        else:
            text = f"{abs(c)}"
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)


def _fraction_text(ctx, f):
    num, den = f.numer, f.denom
    if not num:
        return "0"
    terms_n = sorted(num.terms(), key=lambda t: _monomial_key(t[0]))
    terms_d = sorted(den.terms(), key=lambda t: _monomial_key(t[0]))
    # strip the shared integer content; the denominator's first term in
    # graded-lex order gets a positive coefficient
    g = gcd(*(int(c) for _, c in terms_n + terms_d))
    if terms_d[0][1] < 0:
        g = -g
    num_text = _poly_text_integer(ctx, [(m, int(c) // g) for m, c in terms_n])
    den_text = _poly_text_integer(ctx, [(m, int(c) // g) for m, c in terms_d])
    if den_text == "1":
        return num_text
    return f"({num_text})/({den_text})"
