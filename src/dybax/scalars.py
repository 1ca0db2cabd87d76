"""Exact coefficient arithmetic: multivariate rational functions in three flavors.

Every quantity in the package is a ``Scalar``: an element of one of three
exact fraction fields of polynomials with arbitrary-precision integer
coefficients (rational constants enter as integer fractions).

* classical mode -- rational functions in the lambda-coordinates l1..ln;
* quantum mode   -- rational functions in s and t1..tn, encoding
  s = q^(1/2) and t_i = q^(lambda_i), so that half-integer lambda shifts
  stay Laurent in s; ``Context.q_power`` forms every q^x,
  ``Context.q_lambda`` every q^(lambda, mu) and ``Context.q_number`` every
  [x]_q, and on a classical field they give their q = 1 values 1, 1 and x;
* symbol mode    -- rational functions in e, w1..wn, l1..ln, encoding the
  deformation coupling epsilon and the exponentials w_a = exp(-e*l_a/2).
  This field hosts the coefficients of gamma-series (the step-gamma limit)
  and the trigonometric solution families, whose "cotanh" entries are the
  rational functions (e/2)(u+1)/(u-1) in the monomials u = (w_a/w_b)^(-2).

Every series expansion of a fraction, the gamma-series of
``Scalar.gamma_expand`` and the zeta-series of the trace functions, is one
``laurent_quotient`` of two Laurent polynomials with Scalar coefficients.

The backing representation is sympy's sparse polynomial fraction field over
ZZ: numerator and denominator are coprime in Z[gens], their integer contents
are coprime and the denominator's leading coefficient is positive, so two
Scalars are equal iff their representations are identical.

Field operations keep this form without a polynomial gcd: every
denominator has a factored view (``FactorBase``), a positive integer times a
product of irreducible polynomials interned once per Context.  A product
trial-divides each numerator by the other denominator's factors, and a sum
trial-divides the lifted sum by the factors of the common denominator; one
integer gcd settles the contents.  A trial division that the values at one
integer point rule out is skipped, which is exact.  A polynomial is factored
once, when its view is first asked for; sympy's ``cancel`` serves the tests
as the reference.

Only this module reads how a Scalar is stored or branches on how lambda is
encoded: others read lambda through ``Context.coordinate`` and
``Context.coordinate_value``, move it by ``shift_lambda``, ``permute_lambda``
and ``reflect_lambda``, the faces of one gcd-free body for
lambda_a -> +-lambda_sigma(a) - mu_a, invert q by ``invert_q`` and read a
fraction by its lambda-exponents through ``lambda_graded``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from weakref import WeakSet

from sympy.ntheory import nextprime
from sympy.polys.domains import QQ, ZZ
from sympy.polys.factortools import dup_factor_list
from sympy.polys.fields import field as _sym_field

CLASSICAL = "classical"
QUANTUM = "quantum"
SYMBOL = "symbol"

_CONTEXTS = WeakSet()   # every Context, for ``context_stats``
_UNSET = object()       # a Scalar whose denominator view is not built yet


class ScalarError(Exception):
    pass


class UnsupportedShiftError(ScalarError):
    """Shift weight not representable in the coefficient field."""


class NotRegularError(ScalarError):
    """The gamma-series of this value has a pole at gamma = 0."""


class Context:
    """A fixed coefficient field: mode plus rank (number of lambda coordinates)."""

    def __init__(self, mode, n):
        heads = {CLASSICAL: [], QUANTUM: ["s"], SYMBOL: ["e"] + [f"w{i + 1}" for i in range(n)]}
        if mode not in heads:
            raise ValueError(f"unknown mode {mode!r}")
        # the generator holding lambda_a: l_a, or t_a = q^(lambda_a) quantumly
        self._coordinates = tuple(f"{'t' if mode == QUANTUM else 'l'}{i + 1}" for i in range(n))
        names = heads[mode] + list(self._coordinates)
        self.mode = mode
        self.n = n
        self.var_names = tuple(names)
        created = _sym_field(",".join(names), ZZ)
        self.field = created[0]
        self._gens = {name: g for name, g in zip(names, created[1:])}
        # the same polynomials over QQ, where the Taylor shifts run
        self._qq_ring = self.field.ring.clone(domain=QQ)
        self.op_counts = {"mul": 0, "add": 0, "div": 0, "divisions": 0, "screened": 0}
        self.factors = FactorBase(self.field.ring, self.op_counts)
        self.zero = Scalar(self, self.field.zero)
        self.one = Scalar(self, self.field.one)
        _CONTEXTS.add(self)

    def __repr__(self):
        return f"Context({self.mode}, n={self.n})"

    def stats(self):
        """Operation counts, trial divisions run and screened, factor count."""
        return {"context": f"{self.mode} n={self.n}", **self.op_counts,
                "factors": len(self.factors.factors)}

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

    def coordinate(self, a):
        """lambda_a as the field holds it: l_a, or t_a = q^(lambda_a)."""
        return self.gen(self._coordinates[a])

    def coordinate_value(self, x):
        """A number x as a lambda-coordinate value: x, or q^x quantumly."""
        return self.q_power(x) if self.mode == QUANTUM else self.from_fraction(x)

    def _has_q(self):
        """True on a quantum field; False on a classical one, whose objects
        are the q = 1 case.  The symbol field has no q."""
        if self.mode == SYMBOL:
            raise ScalarError("the symbol field has no q-powers")
        return self.mode == QUANTUM

    def q_power(self, x):
        """q^x as a Scalar: s^(2x) on a quantum field, where 2x must be an
        integer, and one on a classical field."""
        if not self._has_q():
            return self.one
        k = 2 * Fraction(x)
        if k.denominator != 1:
            raise UnsupportedShiftError(f"q^{x} is not Laurent in s = q^(1/2)")
        return self.s ** int(k)

    def q_lambda(self, exponents):
        """q^(lambda, mu) for the form-dual coordinates k of mu
        (`RootDatum.form_dual`): the t-monomial prod t_a^(k_a) on a quantum
        field, where t_a = q^(lambda_a) and every k_a must be an integer, and
        one on a classical field."""
        if not self._has_q():
            return self.one
        out = self.one
        for a, k in enumerate(exponents):
            k = Fraction(k)
            if k.denominator != 1:
                raise UnsupportedShiftError(f"q^({k} l{a + 1}) is not Laurent in t{a + 1}")
            if k:
                out = out * self.t(a) ** int(k)
        return out

    def q_number(self, x):
        """[x]_q = (q^x - q^-x)/(q - q^-1) on a quantum field, and x on a
        classical one."""
        if not self._has_q():
            return self.from_fraction(x)
        return (self.q_power(x) - self.q_power(-x)) / (self.q_power(1) - self.q_power(-1))

    def from_fraction(self, value):
        value = Fraction(value)
        ring = self.field.ring
        return Scalar(self, self.field.raw_new(ring.ground_new(value.numerator),
                                               ring.ground_new(value.denominator)))

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


def context_stats():
    """``Context.stats`` of every live Context, in a fixed order."""
    return sorted((ctx.stats() for ctx in _CONTEXTS), key=lambda row: row["context"])


class FactorBase:
    """The irreducible denominator factors of one Context, and factored views.

    A view of a polynomial D with positive leading coefficient is a pair
    ``(c, ((i, e), ...))`` with D = c * prod factors[i]**e, c a positive
    integer and the indices increasing.  Every interned factor is primitive,
    irreducible in Z[gens] and has a positive leading coefficient, so the
    view is D's factorisation and a polynomial is coprime to D iff no factor
    of the view divides it and its content is coprime to c.

    ``view`` splits off the integer content, trial-divides by the factors
    interned so far and factors what is left (``_irreducible_factors``),
    once per polynomial.  ``intern_images`` hands the images of interned
    factors under a monomial automorphism on, so that trial division alone
    builds the view of a moved denominator.

    Trial division is screened at one integer point a, a_j the least prime
    from 1009 * 4^j up: f | p in Z[gens] gives f(a) | p(a), so a division by
    a non-generator f with f(a) != 0 and p(a) mod f(a) != 0 cannot succeed
    and is skipped.  Distinct primes keep distinct monomials apart at a, and
    the spacing keeps linear forms such as l1 - l2 + c large.
    """

    def __init__(self, ring, counts):
        self.ring = ring
        self.counts = counts     # the Context's op_counts
        self.point = [nextprime(1009 * 4 ** j - 1) for j in range(ring.ngens)]
        self.factors = []
        self._records = []       # per factor: (degrees, lead, lead coeff, other terms, f(a))
        self._index = {}         # factor -> its index
        self._views = {}         # polynomial -> view
        self._expanded = {}      # view -> polynomial

    def _intern(self, poly):
        index = self._index.get(poly)
        if index is None:
            index = self._index[poly] = len(self.factors)
            self.factors.append(poly)
            lead = max(poly)
            self._records.append((poly.degrees(), lead, poly[lead],
                                  [(m, c) for m, c in poly.items() if m != lead],
                                  _value(poly, self.point)))
        return index

    def view(self, poly):
        """The view of poly (positive leading coefficient)."""
        try:
            return self._views[poly]
        except KeyError:
            pass
        view = self._views[poly] = self._build(poly)
        self._expanded.setdefault(view, poly)
        return view

    def intern_images(self, view, images, negated=()):
        """Intern the images of the factors of a view under the automorphism
        of ``Scalar._moved``.  A Laurent ring automorphism maps an
        irreducible to an irreducible, and a generator to a unit."""
        for i, _ in view[1]:
            if self._records[i][3]:
                factor = self.factors[i]
                image = factor.new(_lowered(_monomial_terms(factor, images, negated)))
                self._intern(image if image.LC > 0 else -image)

    def expand(self, view):
        """The polynomial of a view."""
        poly = self._expanded.get(view)
        if poly is None:
            c, exps = view
            poly = self.ring.ground_new(c)
            for i, e in exps:
                poly = poly * self.factors[i] ** e
            self._expanded[view] = poly
        return poly

    def _build(self, poly):
        c = gcd(*poly.values())
        if c != 1:
            poly = poly.quo_ground(c)
        exps = {}
        poly = self._divide_out(poly, dict.fromkeys(range(len(self.factors))), exps)
        if not poly.is_ground:
            for factor, e in _irreducible_factors(poly):
                exps[self._intern(factor)] = e
        return _view(c, exps)

    def _divide_out(self, poly, limits, found=None):
        """poly divided by factor i up to limits[i] times (None: no limit)
        for each i; lowers ``limits`` by the exponents taken and adds them to
        ``found``.  A factor of higher degree in some generator, or ruled out
        at the integer point, is skipped."""
        degrees = value = None
        for i, limit in limits.items():
            if limit == 0:
                continue
            if degrees is None:
                degrees = poly.degrees()
            record = self._records[i]
            at = record[4]
            taken = 0
            while limit is None or taken < limit:
                if any(map(int.__gt__, record[0], degrees)):
                    break
                if record[3] and at:
                    value = _value(poly, self.point) if value is None else value
                    if value % at:
                        self.counts["screened"] += 1
                        break
                self.counts["divisions"] += 1
                quotient = _exact_quotient(poly, record)
                if quotient is None:
                    break
                poly, taken = quotient, taken + 1
                degrees = poly.degrees()
                value = value // at if at and value is not None else None
            if taken:
                if found is not None:
                    found[i] = found.get(i, 0) + taken
                if limit is not None:
                    limits[i] = limit - taken
            if poly.is_ground:
                break
        return poly

    def product(self, na, va, nb, vb):
        """Reduced (numerator, view) of (na / va) * (nb / vb), both reduced."""
        ea, eb = dict(va[1]), dict(vb[1])
        na = self._divide_out(na, eb)
        nb = self._divide_out(nb, ea)
        for i, e in eb.items():
            ea[i] = ea.get(i, 0) + e
        return _reduce_content(na * nb, va[0] * vb[0], ea)

    def sum(self, na, va, nb, vb):
        """Reduced (numerator, view) of na / va + nb / vb, both reduced."""
        if va == vb:
            c, exps = va[0], dict(va[1])
            num = na + nb
        else:
            ea, eb = dict(va[1]), dict(vb[1])
            exps = {i: max(ea.get(i, 0), eb.get(i, 0)) for i in ea.keys() | eb.keys()}
            c = lcm(va[0], vb[0])
            num = (self._lift(na, va[0], ea, c, exps) + self._lift(nb, vb[0], eb, c, exps))
        if not num:
            return num, (1, ())
        num = self._divide_out(num, exps)
        return _reduce_content(num, c, exps)

    def _lift(self, num, c_from, exps_from, c, exps):
        cofactor = _view(c // c_from, {i: e - exps_from.get(i, 0) for i, e in exps.items()})
        return num if cofactor == (1, ()) else num * self.expand(cofactor)


def _view(c, exps):
    return c, tuple(sorted((i, e) for i, e in exps.items() if e))


def _reduce_content(num, c, exps):
    """(num, view of c * exps) after dividing out their common integer."""
    g = gcd(c, *num.values())
    if g != 1:
        num, c = num.quo_ground(g), c // g
    return num, _view(c, exps)


def _exact_quotient(poly, record):
    """poly / f for the factor f of the record if f divides poly in
    Z[gens], else None.  The division runs on lex-leading terms and stops at
    the first one that f's leading term does not divide."""
    _, lead, lead_c, rest, _ = record
    if not rest:        # a generator: shift every exponent
        quo = {tuple(a - b for a, b in zip(m, lead)): c for m, c in poly.items()}
        return None if any(min(m) < 0 for m in quo) else poly.new(quo)
    rem = dict(poly)
    quo = {}
    while rem:
        m = max(rem)
        c = rem.pop(m)
        shift = tuple(a - b for a, b in zip(m, lead))
        if min(shift) < 0 or c % lead_c:
            return None
        k = c // lead_c
        quo[shift] = k
        for fm, fc in rest:
            t = tuple(a + b for a, b in zip(fm, shift))
            v = rem.get(t, 0) - k * fc
            if v:
                rem[t] = v
            else:
                del rem[t]
    return poly.new(quo)


def _value(poly, point):
    """poly at the integer point."""
    return sum(c * prod(map(pow, point, m)) for m, c in poly.items())


def _lowered(terms, low=None):
    """The terms {exponents: coefficient} divided by the monomial x^low
    (default: their greatest common monomial, negative exponents included)."""
    if low is None:
        low = tuple(map(min, zip(*terms)))
    return {tuple(a - b for a, b in zip(m, low)): c for m, c in terms.items()}


def _irreducible_factors(poly):
    """The irreducible factors of a nonzero poly in Z[gens] with their
    multiplicities, each primitive with positive leading coefficient.

    After its monomial factor, poly is x^m P(x^e) if every exponent
    difference of its terms is a multiple of one primitive vector e (a
    binomial always is); a monomial change of coordinates on the Laurent
    torus sends x^e to one generator and keeps each factor irreducible, so
    poly factors as P in one variable.  Any other poly first splits off its
    content in one generator (the gcd of its coefficients over the others);
    what is left is irreducible if of degree one, else goes to sympy's
    ``factor_list``."""
    low = tuple(map(min, zip(*poly)))
    out = [(poly.ring.gens[j], k) for j, k in enumerate(low) if k]
    terms = _lowered(poly, low)
    if len(terms) == 1:
        return out
    line = _on_a_line(list(terms))
    if line is None:
        poly = poly.new(terms)
        for x in poly.ring.gens:
            content = poly.drop_to_ground(x).content().set_ring(poly.ring)
            if not content.is_ground:
                return (out + _irreducible_factors(content)
                        + _irreducible_factors(poly.exquo(content)))
        factors = [(poly.primitive()[1], 1)] if poly.is_linear else poly.factor_list()[1]
    else:
        e, ks = line
        top = max(ks)
        dense = [ZZ(0)] * (top - min(ks) + 1)      # P, highest degree first
        for c, k in zip(terms.values(), ks):
            dense[top - k] = c
        plus, minus = [max(x, 0) for x in e], [max(-x, 0) for x in e]
        # g[i] is the coefficient of y^(deg g - i), and y = x^plus / x^minus
        factors = [(poly.new({tuple((len(g) - 1 - i) * a + i * b
                                    for a, b in zip(plus, minus)): c
                              for i, c in enumerate(g) if c}), k)
                   for g, k in dup_factor_list(dense, ZZ)[1]]
    return out + [(f if f.LC > 0 else -f, k) for f, k in factors]


def _on_a_line(monomials):
    """(e, ks) with monomials[i] = monomials[0] + ks[i] * e for a primitive
    vector e, or None if the (at least two) monomials are not on a line."""
    diffs = [[a - b for a, b in zip(m, monomials[0])] for m in monomials]
    step = diffs[1]
    e = [x // gcd(*step) for x in step]
    j = next(i for i, x in enumerate(e) if x)
    ks = [d[j] // e[j] for d in diffs]
    if any(x != k * y for d, k in zip(diffs, ks) for x, y in zip(d, e)):
        return None
    return e, ks


def _from_view(ctx, num, view):
    return Scalar(ctx, ctx.field.raw_new(num, ctx.factors.expand(view)), view)


class Scalar:
    """Element of a Context's fraction field. Immutable and canonical."""

    __slots__ = ("ctx", "f", "_view")

    def __init__(self, ctx, f, view=_UNSET):
        self.ctx = ctx
        self.f = f
        self._view = view

    def denominator_view(self):
        """The FactorBase view of the denominator."""
        view = self._view
        if view is _UNSET:
            view = self._view = self.ctx.factors.view(self.f.denom)
        return view

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return self._sum(self.ctx(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(self.ctx(other), -1)

    def __rsub__(self, other):
        return self.ctx(other)._sum(self, -1)

    def __mul__(self, other):
        return self._product(self.ctx(other), "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.ctx(other)
        if not other.f:
            raise ZeroDivisionError("division by zero Scalar")
        return self._product(other._inverse(), "div")

    def __rtruediv__(self, other):
        if not self.f:
            raise ZeroDivisionError("division by zero Scalar")
        return self.ctx(other)._product(self._inverse(), "div")

    def _product(self, other, op):
        ctx = self.ctx
        ctx.op_counts[op] += 1
        if not self.f or not other.f:
            return ctx.zero
        return _from_view(ctx, *ctx.factors.product(self.f.numer, self.denominator_view(),
                                                    other.f.numer, other.denominator_view()))

    def _sum(self, other, sign):
        ctx = self.ctx
        g = other.f if sign > 0 else -other.f
        ctx.op_counts["add"] += 1
        if not g or not self.f:
            return self if not g else Scalar(ctx, g, other._view)
        return _from_view(ctx, *ctx.factors.sum(self.f.numer, self.denominator_view(),
                                                g.numer, other.denominator_view()))

    def _inverse(self):
        """1 / self (self nonzero)."""
        num, den = self.f.numer, self.f.denom
        if num.LC < 0:
            num, den = -num, -den
        return Scalar(self.ctx, self.f.raw_new(den, num))

    def __pow__(self, k):
        if k < 0:
            if not self.f:
                raise ZeroDivisionError("negative power of zero Scalar")
            return self._inverse() ** -k
        view = self._view
        if view is not _UNSET:
            view = _view(view[0] ** k, {i: e * k for i, e in view[1]})
        return Scalar(self.ctx, self.f ** k, view)

    def __neg__(self):
        return Scalar(self.ctx, -self.f, self._view)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.ctx is other.ctx and self.f == other.f
        if isinstance(other, (int, Fraction)):
            return self.f == self.ctx(other).f
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

    def lambda_graded(self):
        """Numerator and denominator as {exponents of the lambda-coordinates
        (as `Context.coordinate` holds them): the Scalar in the other
        generators that multiplies that coordinate monomial}."""
        ctx = self.ctx
        at = [ctx.var_names.index(x) for x in ctx._coordinates]
        vals = [None if j in at else ctx.gen(name) for j, name in enumerate(ctx.var_names)]
        return tuple(_graded_values(ctx, poly, lambda m: tuple(m[j] for j in at), vals)
                     for poly in (self.f.numer, self.f.denom))

    def convert(self, tgt, coords):
        """Map into another context: lambda_a (as `Context.coordinate` holds
        it) to coords[a], Scalars of tgt; every other generator goes to the
        same-named generator of tgt."""
        return self._substitute(tgt, dict(zip(self.ctx._coordinates, coords)), "conversion")

    def subs(self, mapping):
        """Substitute generators (by name) with Scalars of the same context."""
        return self._substitute(self.ctx, mapping, "substitution")

    def _substitute(self, tgt, mapping, what):
        vals = [tgt(mapping[name]) if name in mapping else tgt.gen(name)
                for name in self.ctx.var_names]
        num, den = (_graded_values(tgt, poly, lambda m: 0, vals).get(0, tgt.zero)
                    for poly in (self.f.numer, self.f.denom))
        if den.is_zero:
            raise ZeroDivisionError(f"{what} produced a zero denominator")
        return num / den

    def invert_q(self):
        """x at q -> q^-1 (s -> 1/s), on a quantum field."""
        if self.ctx.mode != QUANTUM:
            raise ScalarError("only a quantum field has q to invert")
        return self._moved(self.f, {0: [-1] + [0] * self.ctx.n})   # s is generator 0

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
            eps_el = ctx._gens["e"] if eps is None else ctx(eps).f
            out = out + self.f.diff(wi) * wi * eps_el * QQ(-1, 2)
        return Scalar(ctx, out)

    def shift_lambda(self, mu):
        """lambda -> lambda - mu, for a weight mu given in coordinates:
        l_a -> l_a - mu_a, or t_a -> s^(-2 mu_a) t_a quantumly, where every
        2*mu_a must be an integer.  In symbol mode mu_a must vanish wherever
        w_a occurs, since exp(e*c) for rational c is not in the field."""
        return self._affine_lambda(range(self.ctx.n), 1, mu)

    def permute_lambda(self, sigma):
        """lambda_a -> lambda_sigma(a), the Weyl move of the gauge group; in
        symbol mode w_a -> w_sigma(a) along with l_a."""
        if sorted(sigma) != list(range(self.ctx.n)):
            raise ScalarError(f"{list(sigma)} is not a permutation of the coordinates")
        return self._affine_lambda(sigma, 1, [0] * self.ctx.n)

    def reflect_lambda(self, mu):
        """x(-lambda - mu) for x(lambda), on the classical and quantum fields
        (t_a -> s^(-2 mu_a) / t_a)."""
        if self.ctx.mode == SYMBOL:
            raise ScalarError("the symbol field has no lambda-reflection")
        return self._affine_lambda(range(self.ctx.n), -1, mu)

    def _affine_lambda(self, sigma, sign, mu):
        """x(lambda') for lambda'_a = sign * lambda_sigma(a) - mu_a, sigma a
        permutation and sign = +-1.  A ring automorphism keeps the fraction
        reduced, so no gcd is taken: the signed permutation rewrites exponents
        (l_a -> l_sigma(a) with a sign flip, t_a -> t_sigma(a)^sign), joined
        by the s-power of a quantum translation; a classical or symbol
        translation is a Taylor shift first."""
        ctx = self.ctx
        mu = [Fraction(x) for x in mu]
        if len(mu) != ctx.n or len(sigma) != ctx.n:
            raise UnsupportedShiftError("shift weight has wrong length")
        index, coords, f = ctx.var_names.index, ctx._coordinates, self.f
        quantum, symbol = ctx.mode == QUANTUM, ctx.mode == SYMBOL
        if symbol and any(monom[index(f"w{a + 1}")] for a, m in enumerate(mu) if m
                          for monom in (*f.numer, *f.denom)):
            raise UnsupportedShiftError(
                "symbol-mode shift would need exp(e*c) factors outside the field")
        if any(mu) and not quantum:
            f = _taylor_shift(ctx, f, {index(coords[a]): m for a, m in enumerate(mu) if m})
        images = {}
        for a, b in enumerate(sigma):
            k2 = -2 * mu[a] if quantum else 0
            if k2.denominator != 1:
                raise UnsupportedShiftError(f"quantum shift by {mu[a]} is not half-integral")
            if a == b and sign > 0 and not k2:
                continue
            pairs = [(coords[a], coords[b])]
            if symbol:
                pairs.append((f"w{a + 1}", f"w{b + 1}"))
            for x, y in pairs:
                image = [0] * len(ctx.var_names)
                image[index(y)] = sign if quantum else 1
                if quantum:
                    image[index("s")] = int(k2)
                images[index(x)] = image
        if images:
            negated = [index(x) for x in coords] if sign < 0 and not quantum else ()
            return self._moved(f, images, negated)
        return self if f is self.f else Scalar(ctx, f)

    def _moved(self, f, images, negated=()):
        """f (self.f or its Taylor shift) under the ring automorphism sending
        generator j to the Laurent monomial with exponent vector images[j]
        (other generators are fixed), times -1 for j in negated.

        Monomials and +-1 are the only units of the Laurent ring, and the
        integer coefficients only move between monomials, so the images of
        the coprime numerator and denominator are coprime up to their common
        monomial factor.  That factor (negative exponents included) is
        divided out and the denominator's leading coefficient made positive,
        as sympy's cancel would: no gcd is taken.  When f is self.f and its
        view is built, the images of its denominator factors are interned."""
        if f is self.f and self._view is not _UNSET:
            self.ctx.factors.intern_images(self._view, images, negated)
        sides = [_monomial_terms(poly, images, negated) for poly in (f.numer, f.denom)]
        low = tuple(map(min, zip(*sides[0], *sides[1])))
        num, den = (f.numer.new(_lowered(side, low)) for side in sides)
        if den.LC < 0:
            num, den = -num, -den
        return Scalar(self.ctx, f.raw_new(num, den))

    def gamma_expand(self, order):
        """Expand at lambda -> lambda/gamma (and q = exp(-e*gamma/2)) through
        gamma^order: the list of its order + 1 coefficients, Scalars of the
        symbol field.  NotRegularError if the expansion has a pole at 0.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        ctx = self.ctx
        tgt = symbol_ctx(ctx.n)
        if ctx.mode == CLASSICAL:
            sides = [_classical_gamma_side(tgt, poly) for poly in (self.f.numer, self.f.denom)]
        elif ctx.mode == QUANTUM:
            # The quantum sides are truncated at gamma^order, which is exact:
            # numerator and denominator are coprime, so they do not both
            # vanish at gamma = 0 (s = 1), or s - 1 would divide both.  A
            # numerator of positive valuation thus has a denominator of
            # valuation 0, and the coefficients through gamma^order read
            # both sides only through gamma^order; a denominator of positive
            # valuation is a pole.
            sides = [_quantum_gamma_side(tgt, poly, order)
                     for poly in (self.f.numer, self.f.denom)]
        else:
            raise ScalarError("gamma_expand expects a classical or quantum Scalar")
        val, _ = laurent_quotient(*sides, 0)
        if val < 0:
            raise NotRegularError("pole at gamma = 0")
        # gamma^val times the coefficients of gamma^0 .. gamma^(order - val)
        _, coeffs = laurent_quotient(*sides, max(order + 1 - val, 0))
        return ([tgt.zero] * val + coeffs)[:order + 1]

    # -- canonical text -----------------------------------------------------

    def to_text(self):
        """Deterministic canonical text: integer-coefficient numerator and
        denominator in graded-lex monomial order, denominator content-free
        with positive leading coefficient."""
        return _fraction_text(self.ctx, self.f)


def _monomial_terms(poly, images, negated=()):
    """The terms {exponents: coefficient} of poly under the automorphism of
    ``Scalar._moved``, exponents possibly negative."""
    out = {}
    for monom, c in poly.items():
        if negated and sum(monom[j] for j in negated) % 2:
            c = -c
        new = list(monom)
        for j, image in images.items():
            e = monom[j]
            if e:
                new[j] -= e
                for k, x in enumerate(image):
                    new[k] += e * x
        out[tuple(new)] = c
    return out


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


def _graded_values(tgt, poly, grade, vals):
    """{grade(m): sum of c * prod vals[j]**m[j]} over the terms c * x^m of
    poly, for Scalars vals of tgt (None sets a generator to 1)."""
    out = {}
    for monom, c in poly.terms():
        term = tgt(int(c))
        for v, e in zip(vals, monom):
            if e and v is not None:
                term = term * v ** e
        k = grade(monom)
        out[k] = out.get(k, tgt.zero) + term
    return out


def _classical_gamma_side(tgt, poly):
    """P(lambda/gamma) as a Laurent polynomial in gamma: a term c * l^m has
    the exponent -|m|."""
    return _graded_values(tgt, poly, lambda m: -sum(m), [tgt.lam(i) for i in range(tgt.n)])


def _quantum_gamma_side(tgt, poly, order):
    """P(s -> exp(-e*gamma/4), t_i -> w_i) through gamma^order: a term
    c * s^a * t^m becomes c * w^m * exp(-a*e*gamma/4)."""
    by_s = _graded_values(tgt, poly, lambda m: m[0], [None] + [tgt.w(i) for i in range(tgt.n)])
    side = {}
    scale = tgt.one
    for j in range(order + 1):
        side[j] = scale * sum((p * Fraction(-a, 4) ** j for a, p in by_s.items()), tgt.zero)
        scale = scale * tgt.eps / (j + 1)
    return side


def laurent_quotient(num, den, n):
    """The Laurent expansion of num / den in one variable x, for Laurent
    polynomials {exponent: Scalar} with den nonzero: (v, c) with
    num / den = x^v (c[0] + c[1] x + ... + c[n-1] x^(n-1) + O(x^n)).
    A zero num gives v = 0 and n zeros."""
    num = {k: c for k, c in num.items() if c}
    den = {k: c for k, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero denominator series")
    vd = min(den)
    zero = den[vd].ctx.zero
    if not num:
        return 0, [zero] * n
    vn = min(num)
    a = [num.get(vn + k, zero) for k in range(n)]
    b = [den.get(vd + k, zero) for k in range(n)]
    return vn - vd, series_quotient(a, b, n)


def series_quotient(a, b, n):
    """The first n coefficients of the power series a / b.

    a and b are lists of at least n Scalars of one context, and b[0] must
    be nonzero."""
    q = []
    for k in range(n):
        acc = a[k]
        for j in range(k):
            acc = acc - q[j] * b[k - j]
        q.append(acc / b[0])
    return q


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
