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

A Scalar holds its numerator and denominator as ``Poly``s, sparse
polynomials over Z: they are coprime in Z[gens], their integer contents are
coprime and the denominator's lex-leading coefficient is positive, so two
Scalars are equal iff their numerators and denominators are.

Field operations keep this form without a polynomial gcd: every
denominator has a factored view (``FactorBase``), a positive integer times a
product of irreducible polynomials interned once per Context.  A product
trial-divides each numerator by the other denominator's factors, and a sum
trial-divides the lifted sum by the factors of the common denominator; one
integer gcd settles the contents.  A trial division that the values at one
integer point rule out is skipped, which is exact.  A polynomial is factored
once, when its view is first asked for (``_irreducible_factors``).  The
lambda-derivative is the quotient rule through the same sum, and a
lambda-translation a Taylor shift, so no gcd is taken anywhere.

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
from itertools import combinations, count, islice
from math import comb, gcd, isqrt, lcm, prod
from weakref import WeakSet

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


class Poly(dict):
    """A polynomial in Z[gens]: {exponent tuple: nonzero int}, not changed
    once built.  ``_poly_type(n)`` derives the class of the n-generator
    ring, which carries ``ngens`` and the monomial adder of that arity.  The
    leading term is the lex-greatest."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.items()))
            return h

    def __neg__(self):
        return type(self)({m: -c for m, c in self.items()})

    def __add__(self, other):
        out = type(self)(self)
        get = out.get
        for m, c in other.items():
            c += get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    def __mul__(self, other):
        cls = type(self)
        add = cls._add
        if len(self) > len(other):
            self, other = other, self
        if len(self) <= 1:
            if not self:
                return cls()
            (n, d), = self.items()
            return cls({add(m, n): c * d for m, c in other.items()})
        out = cls()
        get = out.get
        terms = list(other.items())
        for n, d in self.items():
            for m, c in terms:
                k = add(m, n)
                out[k] = get(k, 0) + c * d
        for k in [k for k, c in out.items() if not c]:
            del out[k]
        return out

    def __pow__(self, k):
        if len(self) == 1:
            (m, c), = self.items()
            return type(self)({tuple(e * k for e in m): c ** k})
        out = _constant(type(self), 1)
        for _ in range(k):
            out = out * self
        return out


@lru_cache(maxsize=None)
def _poly_type(ngens):
    """The Poly class of Z[x_1..x_ngens].  Its monomial adder is generated
    for the arity: a tuple display adds exponents faster than a map."""
    body = "".join(f"a[{j}] + b[{j}], " for j in range(ngens))
    add = eval(f"lambda a, b: ({body})")    # noqa: S307 - built from integers
    return type("Poly", (Poly,), {"__slots__": (), "ngens": ngens,
                                  "zero_monom": (0,) * ngens, "_add": staticmethod(add)})


def _constant(cls, c):
    return cls({cls.zero_monom: c}) if c else cls()


def _generator(cls, j):
    return cls({tuple(int(i == j) for i in range(cls.ngens)): 1})


def _lc(poly):
    """The lex-leading coefficient of a nonzero poly."""
    return poly[max(poly)]


def _degrees(poly):
    """The degree of a nonzero poly in each generator."""
    return tuple(map(max, zip(*poly)))


def _is_ground(poly):
    return not poly or (len(poly) == 1 and poly.zero_monom in poly)


def _quo_int(poly, c):
    """poly divided by an integer c that divides every coefficient."""
    return type(poly)({m: v // c for m, v in poly.items()})


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
        self.ring = _poly_type(len(names))
        self._gens = {name: _generator(self.ring, j) for j, name in enumerate(names)}
        self._one = _constant(self.ring, 1)
        self.op_counts = {"mul": 0, "add": 0, "div": 0, "divisions": 0, "screened": 0,
                          "fallbacks": 0}
        self.factors = FactorBase(self.ring, self.op_counts)
        self.zero = Scalar(self, self.ring(), self._one, (1, ()))
        self.one = Scalar(self, self._one, self._one, (1, ()))
        _CONTEXTS.add(self)

    def __repr__(self):
        return f"Context({self.mode}, n={self.n})"

    def stats(self):
        """Operation counts, trial divisions run and screened, leftovers
        factored by sympy, factor count."""
        return {"context": f"{self.mode} n={self.n}", **self.op_counts,
                "factors": len(self.factors.factors)}

    def gen(self, name):
        return Scalar(self, self._gens[name], self._one, (1, ()))

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
        return Scalar(self, _constant(self.ring, value.numerator),
                      _constant(self.ring, value.denominator), (value.denominator, ()))

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
        self.point = [_least_prime_from(1009 * 4 ** j) for j in range(ring.ngens)]
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
            self._records.append((_degrees(poly), lead, poly[lead],
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
                image = self.ring(_lowered(_monomial_terms(factor, images, negated)))
                self._intern(image if _lc(image) > 0 else -image)

    def expand(self, view):
        """The polynomial of a view."""
        poly = self._expanded.get(view)
        if poly is None:
            c, exps = view
            poly = _constant(self.ring, c)
            for i, e in exps:
                poly = poly * self.factors[i] ** e
            self._expanded[view] = poly
        return poly

    def _build(self, poly):
        c = gcd(*poly.values())
        if c != 1:
            poly = _quo_int(poly, c)
        exps = {}
        poly = self._divide_out(poly, dict.fromkeys(range(len(self.factors))), exps)
        if not _is_ground(poly):
            for factor, e in _irreducible_factors(poly, self.counts):
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
                degrees = _degrees(poly)
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
                degrees = _degrees(poly)
                value = value // at if at and value is not None else None
            if taken:
                if found is not None:
                    found[i] = found.get(i, 0) + taken
                if limit is not None:
                    limits[i] = limit - taken
            if _is_ground(poly):
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
        """Reduced (numerator, view) of na / va + nb / vb, for any
        numerators and views: the lifted sum is divided by every factor of
        the common denominator as often as it goes."""
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
        num, c = _quo_int(num, g), c // g
    return num, _view(c, exps)


def _exact_quotient(poly, record):
    """poly / f for the factor f of the record if f divides poly in
    Z[gens], else None.  The division runs on lex-leading terms and stops at
    the first one that f's leading term does not divide."""
    _, lead, lead_c, rest, _ = record
    if not rest:        # a monomial (a generator, once interned): shift every exponent
        if not all(m[j] >= k for j, k in enumerate(lead) if k for m in poly):
            return None
        return type(poly)({tuple(a - b for a, b in zip(m, lead)): c for m, c in poly.items()})
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
    return type(poly)(quo)


def _value(poly, point):
    """poly at the integer point."""
    return sum(c * prod(map(pow, point, m)) for m, c in poly.items())


def _lowered(terms, low=None):
    """The terms {exponents: coefficient} divided by the monomial x^low
    (default: their greatest common monomial, negative exponents included)."""
    if low is None:
        low = tuple(map(min, zip(*terms)))
    return {tuple(a - b for a, b in zip(m, low)): c for m, c in terms.items()}


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@lru_cache(maxsize=None)
def _least_prime_from(n):
    while not _is_prime(n):
        n += 1
    return n


# -- factoring in Z[gens] -----------------------------------------------------


def _irreducible_factors(poly, counts=None):
    """The irreducible factors of a nonzero poly in Z[gens] with their
    multiplicities, each primitive with positive leading coefficient; the
    integer content is dropped.

    After the generators, a factor in one variable of the Laurent torus is
    split off by ``_line_factors``, a degree-one poly is irreducible, a
    perfect power is its root's factors taken k times, and what is left is
    proved irreducible, or split into factors in disjoint generators, by
    ``_specialisation_certificate``.  A poly that certificate cannot settle
    goes to sympy's ``factor_list`` and counts in ``counts["fallbacks"]``."""
    low = tuple(map(min, zip(*poly)))
    cls = type(poly)
    out = [(_generator(cls, j), k) for j, k in enumerate(low) if k]
    terms = cls(_lowered(poly, low))
    content = gcd(*terms.values()) * (1 if _lc(terms) > 0 else -1)
    return out + _primitive_factors(_quo_int(terms, content), counts)


def _primitive_factors(poly, counts):
    """``_irreducible_factors`` of a primitive poly with positive leading
    coefficient and no monomial factor."""
    if len(poly) == 1:
        return []
    if all(sum(m) <= 1 for m in poly):
        return [(poly, 1)]
    lines = _line_factors(poly)
    if lines is not None:
        factors, rest = lines
        return factors + _primitive_factors(rest, counts)
    power = _perfect_power(poly)
    if power is not None:
        root, k = power
        return [(f, e * k) for f, e in _primitive_factors(root, counts)]
    certificate = _specialisation_certificate(poly)
    if certificate is True:
        return [(poly, 1)]
    if certificate:
        return [x for part in certificate for x in _primitive_factors(part, counts)]
    if counts is not None:
        counts["fallbacks"] += 1
    return [(_positive(f), k) for f, k in _factor_list(poly)]


def _positive(poly):
    return poly if _lc(poly) > 0 else -poly


def _line_factors(poly):
    """(factors, rest): the factors of poly of the form x^a h(x^e) for one
    primitive direction e, with multiplicities, and poly divided by them;
    None if poly has no such factor of positive degree.

    A monomial change of coordinates on the Laurent torus sends x^e to one
    generator y, so these factors are the content of poly in y: the gcd of
    its parts, one per coset of the exponents mod Z e, each read as a
    polynomial in y.  A nonconstant content makes every part at least a
    binomial; in particular the part of the leading monomial, so e is
    among the directions from it to the other monomials."""
    cls = type(poly)
    lead = max(poly)
    tried = set()
    for other in poly:
        step = [a - b for a, b in zip(other, lead)]
        g = gcd(*step)
        if not g:
            continue
        j = next(i for i, x in enumerate(step) if x)
        e = tuple(x // (g if step[j] > 0 else -g) for x in step)
        if e in tried:
            continue
        tried.add(e)
        cosets = {}
        for m, c in poly.items():
            k = m[j] // e[j]
            cosets.setdefault(tuple(a - k * b for a, b in zip(m, e)), {})[k] = c
        if any(len(part) < 2 for part in cosets.values()):
            continue
        parts, content = [], None
        for key, part in cosets.items():
            low = min(part)
            dense = [part.get(k, 0) for k in range(max(part), low - 1, -1)]
            parts.append((key, low, dense))
            content = _dup_primitive(dense) if content is None else _dup_gcd(content, dense)
            if len(content) == 1:
                break
        if len(content) == 1:
            continue
        # y = x^plus / x^minus, and h[i] is the coefficient of y^(deg h - i);
        # e[j] > 0 makes y^(deg h) the lex-leading term
        plus, minus = [max(x, 0) for x in e], [max(-x, 0) for x in e]
        factors = [(cls({tuple((len(h) - 1 - i) * a + i * b for a, b in zip(plus, minus)): c
                         for i, c in enumerate(h) if c}), k) for h, k in _dup_factor(content)]
        # poly / prod of the factors: each part divided by the content
        d, rest = len(content) - 1, {}
        for key, low, dense in parts:
            for i, c in enumerate(reversed(_dup_quotient(dense, content))):
                if c:
                    rest[tuple(a + (low + i) * b - d * x
                               for a, b, x in zip(key, e, minus))] = c
        return factors, cls(rest)
    return None


def _perfect_power(poly):
    """(root, k) with poly = root^k for a prime k, or None; poly primitive
    with positive leading coefficient.

    The root is built from the top in lex order: with its leading term r
    and the terms found so far Q, the leading term of poly - Q^k is
    k r^(k-1) t for the next term t of the root."""
    degrees, lead = _degrees(poly), max(poly)
    g = gcd(*degrees, max(map(sum, poly)))
    for k in (k for k in range(2, g + 1) if g % k == 0 and _is_prime(k)):
        r = _integer_root(poly[lead], k)
        if r is None or any(x % k for x in lead):
            continue
        top = tuple(x // k for x in lead)
        root = type(poly)({top: r})
        scale, shift = k * r ** (k - 1), tuple((k - 1) * x for x in top)
        last = top
        while True:
            rest = poly + -(root ** k)
            if not rest:
                return root, k
            m = max(rest)
            t = tuple(a - b for a, b in zip(m, shift))
            c, bad = divmod(rest[m], scale)
            if bad or not t < last or min(t) < 0 or any(map(int.__gt__, t, degrees)):
                break
            root[t], last = c, t
    return None


def _integer_root(n, k):
    """The integer k-th root of n > 0 if n is a k-th power, else None."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == n else None
        r = s


def _specialisation_certificate(poly):
    """True if poly (primitive, no monomial factor) is irreducible, two
    nonconstant factors in disjoint sets of generators if it has them, or
    None if this test cannot tell.

    Setting every generator but x to integers where poly keeps its
    x-degree and becomes irreducible shows that a factorisation poly = A B
    puts x in at most one of A and B.  Once every generator of poly passes,
    A and B lie in disjoint sets of generators, which the coefficient
    matrix of poly over each split of its generators tells (rank one)."""
    cls = type(poly)
    present = [j for j, d in enumerate(_degrees(poly)) if d]
    for j in present:
        if not any(_irreducible_at(poly, j, point) for point in _specialisations(cls.ngens)):
            return None
    for mask in range(1, 1 << (len(present) - 1)):
        side = {x for i, x in enumerate(present[1:]) if mask >> i & 1}
        rows, cols = {}, set()
        for m, c in poly.items():
            row = tuple(0 if i in side else x for i, x in enumerate(m))
            col = tuple(x if i in side else 0 for i, x in enumerate(m))
            rows.setdefault(row, {})[col] = c
            cols.add(col)
        if len(rows) * len(cols) != len(poly):
            continue
        (row0, first), *others = rows.items()
        col0, c0 = next(iter(first.items()))
        if all(c * c0 == first[col] * line[col0] for _, line in others
               for col, c in line.items()):
            a = _positive(cls({row: line[col0] for row, line in rows.items()}))
            a = _quo_int(a, gcd(*a.values()))
            return a, cls({col: c // a[row0] for col, c in first.items()})
    return True


@lru_cache(maxsize=None)
def _specialisations(ngens):
    """Two integer points for the certificate, tried in turn: the first
    2 * ngens primes."""
    primes = list(islice(filter(_is_prime, count(2)), 2 * ngens))
    return primes[:ngens], primes[ngens:]


def _irreducible_at(poly, j, point):
    """True if poly, with every generator but x_j set to the point's values,
    keeps its x_j-degree and is irreducible over Q."""
    coeffs = {}
    for m, c in poly.items():
        value = c * prod(v ** e for i, (v, e) in enumerate(zip(point, m)) if i != j)
        coeffs[m[j]] = coeffs.get(m[j], 0) + value
    top = max(coeffs)
    if not coeffs[top]:
        return False
    factors = _dup_factor([coeffs.get(k, 0) for k in range(top, -1, -1)])
    return len(factors) == 1 and factors[0][1] == 1 and len(factors[0][0]) == top + 1


def _factor_list(poly):
    """sympy's factor_list of poly, imported here, for a poly that the
    in-house tests cannot settle."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    sym = ring([f"x{j}" for j in range(poly.ngens)], ZZ)[0]
    return [(type(poly)({m: int(c) for m, c in f.items()}), k)
            for f, k in sym(dict(poly)).factor_list()[1]]


# -- factoring in Z[y]: dense coefficient lists, highest degree first ----------


def _dup_strip(f):
    i = 0
    while i < len(f) and not f[i]:
        i += 1
    return f[i:]


def _dup_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out, off = list(f), len(f) - len(g)
    for i, c in enumerate(g):
        out[off + i] += c
    return _dup_strip(out)


def _dup_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _dup_primitive(f):
    """f (nonzero) divided by its content, with positive leading coefficient."""
    c = gcd(*f) * (1 if f[0] > 0 else -1)
    return [x // c for x in f]


def _dup_quotient(f, g):
    """f / g in Z[y] if g divides f, else None."""
    r, q, n = list(f), [], len(g) - 1
    for i in range(len(f) - n):
        c, bad = divmod(r[i], g[0])
        if bad:
            return None
        q.append(c)
        if c:
            for j in range(1, n + 1):
                r[i + j] -= c * g[j]
    return None if any(r[max(len(f) - n, 0):]) else q


def _dup_gcd(f, g):
    """The primitive gcd of nonzero f and g, with positive leading
    coefficient, by primitive pseudo-remainder sequences."""
    f, g = _dup_primitive(f), _dup_primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r, n = list(f), len(g) - 1
        for i in range(len(f) - n):
            c = r[i]
            r = [x * g[0] for x in r]
            for j in range(n + 1):
                r[i + j] -= c * g[j]
        r = _dup_strip(r)
        if not r:
            return g
        f, g = g, _dup_primitive(r)
    return [1]


def _dup_factor(f):
    """The irreducible factors of a nonzero f in Z[y] with multiplicities,
    each primitive with positive leading coefficient; the content is
    dropped.  A squarefree decomposition, then ``_dup_factor_squarefree``."""
    f = _dup_primitive(_dup_strip(f))
    out = []
    if len(f) < 2:
        return out
    n = len(f) - 1
    g = _dup_gcd(f, [c * (n - i) for i, c in enumerate(f[:-1])])
    w, k = _dup_quotient(f, g), 1
    while len(w) > 1:
        y = _dup_gcd(w, g)
        z = _dup_quotient(w, y)
        if len(z) > 1:
            out.extend((h, k) for h in _dup_factor_squarefree(z))
        g, w, k = _dup_quotient(g, y), y, k + 1
    return out


def _dup_factor_squarefree(f):
    """The irreducible factors of a primitive squarefree f with positive
    leading coefficient (Berlekamp-Zassenhaus): factor f mod the best of
    three small primes, Hensel-lift the factors mod p^k beyond twice the
    Mignotte bound, and recombine them, checking each candidate by exact
    division."""
    n = len(f) - 1
    if n < 2:
        return [f]
    lc = f[0]
    best, tried = None, 0
    derivative = [c * (n - i) for i, c in enumerate(f[:-1])]
    for p in filter(_is_prime, count(3)):
        if lc % p == 0 or len(_gf_gcd(_gf(f, p), _gf(derivative, p), p)) > 1:
            continue
        factors = _gf_factor(_gf_monic(_gf(f, p), p), p)
        if best is None or len(factors) < len(best[1]):
            best = p, factors
        tried += 1
        if tried == 3 or len(factors) == 1:
            break
    p, factors = best
    if len(factors) == 1:
        return [f]
    bound = 2 * lc * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    k = 1
    while p ** k <= bound:
        k += 1
    modulus = p ** k
    monic = [c * pow(lc, -1, modulus) % modulus for c in f]
    lifted = _hensel_lift(monic, factors, p, k)
    out, rest, size = [], f, 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [rest[0]]
            for i in subset:
                g = [c % modulus for c in _dup_mul(g, lifted[i])]
            g = _dup_primitive([c - modulus if c > modulus // 2 else c for c in g])
            q = _dup_quotient(rest, g)
            if q is not None:
                out.append(g)
                rest = q
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [rest]




def _hensel_lift(f, factors, p, k):
    """Monic lifts mod p^k of the monic factors mod p of f, a monic
    polynomial mod p^k, with f = prod of the lifts mod p^k: a tree of
    two-factor linear Hensel steps."""
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g, h = (_gf_product(part, p) for part in (factors[:half], factors[half:]))
    s, t = _gf_xgcd(g, h, p)        # s g + t h = 1 mod p
    m = p
    for _ in range(k - 1):
        e = _gf([c // m for c in _dup_add(f, [-c for c in _dup_mul(g, h)])], p)
        q, tau = _gf_divmod(_dup_mul(t, e), g, p)
        sigma = _gf(_dup_add(_dup_mul(s, e), _dup_mul(q, h)), p)
        g = _dup_add(g, [m * c for c in tau])
        h = _dup_add(h, [m * c for c in sigma])
        m *= p
    return _hensel_lift(g, factors[:half], p, k) + _hensel_lift(h, factors[half:], p, k)


# -- polynomials over GF(p), dense and highest degree first -------------------


def _gf(f, p):
    return _dup_strip([c % p for c in f])


def _gf_monic(f, p):
    inv = pow(f[0], -1, p)
    return [c * inv % p for c in f]


def _gf_product(factors, p):
    out = [1]
    for g in factors:
        out = _gf(_dup_mul(out, g), p)
    return out


def _gf_divmod(f, g, p):
    """Quotient and remainder of f by g (g nonzero) over GF(p)."""
    inv, n = pow(g[0], -1, p), len(g) - 1
    r, q = [c % p for c in f], []
    for i in range(len(f) - n):
        c = r[i] * inv % p
        q.append(c)
        if c:
            for j in range(1, n + 1):
                r[i + j] = (r[i + j] - c * g[j]) % p
    return _dup_strip(q), _dup_strip(r[max(len(f) - n, 0):])


def _gf_gcd(f, g, p):
    """The monic gcd over GF(p); [] if both are zero."""
    while g:
        f, g = g, _gf_divmod(f, g, p)[1]
    return _gf_monic(f, p) if f else f


def _gf_xgcd(f, g, p):
    """(s, t) with s f + t g = 1 over GF(p), for coprime f and g."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf(_dup_add(s0, [-c for c in _dup_mul(q, s1)]), p)
        t0, t1 = t1, _gf(_dup_add(t0, [-c for c in _dup_mul(q, t1)]), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _gf_factor(f, p):
    """The monic irreducible factors of a monic squarefree f over GF(p),
    by Berlekamp: the g with g^p = g mod f form a space whose dimension is
    the number of factors, and gcd(h, g - s) over s in GF(p) splits every
    reducible factor h for some g of its basis."""
    n = len(f) - 1
    xp = _gf_divmod(_gf_power(p, f, p), f, p)[1]
    rows, power = [], [1]
    for _ in range(n):
        rows.append(([0] * (n - len(power)) + power)[::-1])    # lowest degree first
        power = _gf_divmod(_dup_mul(power, xp), f, p)[1]
    basis = _gf_kernel([[(rows[j][i] - (i == j)) % p for j in range(n)] for i in range(n)], p)
    factors = [f]
    for v in basis:
        g = _dup_strip(v[::-1])
        for s in range(p):
            if len(factors) == len(basis) or len(g) < 2:
                break
            shifted = _gf(g[:-1] + [g[-1] - s], p)
            split = []
            for h in factors:
                d = _gf_gcd(h, shifted, p) if len(h) > 2 else h
                if 1 < len(d) < len(h):
                    split += [d, _gf_divmod(h, d, p)[0]]
                else:
                    split.append(h)
            factors = split
    return factors


def _gf_power(e, f, p):
    """y^e mod f over GF(p)."""
    out, base = [1], [1, 0]
    while e:
        if e & 1:
            out = _gf_divmod(_dup_mul(out, base), f, p)[1]
        base = _gf_divmod(_dup_mul(base, base), f, p)[1]
        e >>= 1
    return out


def _gf_kernel(rows, p):
    """A basis of the kernel of a square matrix over GF(p)."""
    n = len(rows)
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        r = len(pivots)
        k = next((i for i in range(r, n) if rows[i][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for col in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[col] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][col] % p
        basis.append(v)
    return basis


def _from_view(ctx, num, view):
    return Scalar(ctx, num, ctx.factors.expand(view), view)


class Scalar:
    """Element of a Context's fraction field. Immutable and canonical."""

    __slots__ = ("ctx", "numer", "denom", "_view")

    def __init__(self, ctx, numer, denom, view=_UNSET):
        self.ctx = ctx
        self.numer = numer
        self.denom = denom
        self._view = view

    @property
    def f(self):
        """The numerator, false exactly when the Scalar is zero
        (`perfbench/tracer.py` reads a product's operands through it)."""
        return self.numer

    def denominator_view(self):
        """The FactorBase view of the denominator."""
        view = self._view
        if view is _UNSET:
            view = self._view = self.ctx.factors.view(self.denom)
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
        if not other.numer:
            raise ZeroDivisionError("division by zero Scalar")
        return self._product(other._inverse(), "div")

    def __rtruediv__(self, other):
        if not self.numer:
            raise ZeroDivisionError("division by zero Scalar")
        return self.ctx(other)._product(self._inverse(), "div")

    def _product(self, other, op):
        ctx = self.ctx
        ctx.op_counts[op] += 1
        if not self.numer or not other.numer:
            return ctx.zero
        return _from_view(ctx, *ctx.factors.product(self.numer, self.denominator_view(),
                                                    other.numer, other.denominator_view()))

    def _sum(self, other, sign):
        ctx = self.ctx
        g = other.numer if sign > 0 else -other.numer
        ctx.op_counts["add"] += 1
        if not g or not self.numer:
            return self if not g else Scalar(ctx, g, other.denom, other._view)
        return _from_view(ctx, *ctx.factors.sum(self.numer, self.denominator_view(),
                                                g, other.denominator_view()))

    def _inverse(self):
        """1 / self (self nonzero)."""
        num, den = self.numer, self.denom
        if _lc(num) < 0:
            num, den = -num, -den
        return Scalar(self.ctx, den, num)

    def __pow__(self, k):
        if k < 0:
            if not self.numer:
                raise ZeroDivisionError("negative power of zero Scalar")
            return self._inverse() ** -k
        view = self._view
        if view is not _UNSET:
            view = _view(view[0] ** k, {i: e * k for i, e in view[1]})
        return Scalar(self.ctx, self.numer ** k, self.denom ** k, view)

    def __neg__(self):
        return Scalar(self.ctx, -self.numer, self.denom, self._view)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return (self.ctx is other.ctx and self.numer == other.numer
                and self.denom == other.denom)

    def __hash__(self):
        return hash((id(self.ctx), self.numer, self.denom))

    def __bool__(self):
        return bool(self.numer)

    @property
    def is_zero(self):
        return not self.numer

    def __repr__(self):
        return f"Scalar({self.to_text()})"

    # -- structure ----------------------------------------------------------

    def lambda_graded(self):
        """Numerator and denominator as {exponents of the lambda-coordinates
        (as `Context.coordinate` holds them): the Scalar in the other
        generators that multiplies that coordinate monomial}."""
        ctx = self.ctx
        at = [ctx.var_names.index(x) for x in ctx._coordinates]
        vals = [None if j in at else ctx.gen(name) for j, name in enumerate(ctx.var_names)]
        return tuple(_graded_values(ctx, poly, lambda m: tuple(m[j] for j in at), vals)
                     for poly in (self.numer, self.denom))

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
                    for poly in (self.numer, self.denom))
        if den.is_zero:
            raise ZeroDivisionError(f"{what} produced a zero denominator")
        return num / den

    def invert_q(self):
        """x at q -> q^-1 (s -> 1/s), on a quantum field."""
        if self.ctx.mode != QUANTUM:
            raise ScalarError("only a quantum field has q to invert")
        # s is generator 0
        return self._moved(self.numer, self.denom, {0: [-1] + [0] * self.ctx.n})

    def diff_lambda(self, i, eps=None):
        """Exact partial derivative along lambda_{i+1}.

        In symbol mode this is the twisted derivation that also sees the
        lambda-dependence of the exponential symbols, d w_a/d l_a =
        -(eps/2) w_a, where eps defaults to the symbol e but may be a fixed
        rational coupling (the w_a then encode exp(-eps*l_a/2) at that
        coupling).

        With d = D/b for a derivation D with integer coefficients, the
        quotient rule d(N/P) = D(N)/(b P) - N D(P)/(b P^2) is one
        ``FactorBase.sum`` over the view of P, so no gcd is taken.
        """
        ctx = self.ctx
        if ctx.mode == QUANTUM:
            raise ScalarError("no polynomial lambda-derivative in quantum mode")
        index = ctx.var_names.index
        lam = index(f"l{i + 1}")
        if ctx.mode == SYMBOL:
            # D = b d/dl - a w d/dw with eps/2 = a/b, a the symbol e or an integer
            w = index(f"w{i + 1}")
            if eps is None:
                b, a = 2, ctx._gens["e"]
            else:
                eps = Fraction(eps)
                b, a = 2 * eps.denominator, _constant(ctx.ring, eps.numerator)

            def derive(poly):
                euler = type(poly)({m: c * m[w] for m, c in poly.items() if m[w]})
                return _derivative(poly, lam, b) + -(a * euler)
        else:
            b = 1

            def derive(poly):
                return _derivative(poly, lam, 1)
        num, den = self.numer, self.denom
        c, exps = self.denominator_view()
        return _from_view(ctx, *ctx.factors.sum(
            derive(num), (b * c, exps), -(num * derive(den)),
            (b * c * c, tuple((j, 2 * e) for j, e in exps))))

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
        index, coords = ctx.var_names.index, ctx._coordinates
        num, den = self.numer, self.denom
        quantum, symbol = ctx.mode == QUANTUM, ctx.mode == SYMBOL
        if symbol and any(monom[index(f"w{a + 1}")] for a, m in enumerate(mu) if m
                          for monom in (*num, *den)):
            raise UnsupportedShiftError(
                "symbol-mode shift would need exp(e*c) factors outside the field")
        if any(mu) and not quantum:
            num, den = _taylor_shift(num, den,
                                     {index(coords[a]): m for a, m in enumerate(mu) if m})
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
            return self._moved(num, den, images, negated)
        return self if num is self.numer else Scalar(ctx, num, den)

    def _moved(self, num, den, images, negated=()):
        """num / den (self's or its Taylor shift) under the ring automorphism
        sending generator j to the Laurent monomial with exponent vector
        images[j] (other generators are fixed), times -1 for j in negated.

        Monomials and +-1 are the only units of the Laurent ring, and the
        integer coefficients only move between monomials, so the images of
        the coprime numerator and denominator are coprime up to their common
        monomial factor.  That factor (negative exponents included) is
        divided out and the denominator's leading coefficient made positive:
        no gcd is taken.  When num / den is self's and its view is built,
        the images of its denominator factors are interned."""
        if num is self.numer and self._view is not _UNSET:
            self.ctx.factors.intern_images(self._view, images, negated)
        sides = [_monomial_terms(poly, images, negated) for poly in (num, den)]
        low = tuple(map(min, zip(*sides[0], *sides[1])))
        num, den = (self.ctx.ring(_lowered(side, low)) for side in sides)
        if _lc(den) < 0:
            num, den = -num, -den
        return Scalar(self.ctx, num, den)

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
            sides = [_classical_gamma_side(tgt, poly) for poly in (self.numer, self.denom)]
        elif ctx.mode == QUANTUM:
            # The quantum sides are truncated at gamma^order, which is exact:
            # numerator and denominator are coprime, so they do not both
            # vanish at gamma = 0 (s = 1), or s - 1 would divide both.  A
            # numerator of positive valuation thus has a denominator of
            # valuation 0, and the coefficients through gamma^order read
            # both sides only through gamma^order; a denominator of positive
            # valuation is a pole.
            sides = [_quantum_gamma_side(tgt, poly, order) for poly in (self.numer, self.denom)]
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
        return _fraction_text(self.ctx, self.numer, self.denom)


def _derivative(poly, j, scale):
    """scale * d poly / d x_j."""
    return type(poly)({m[:j] + (m[j] - 1,) + m[j + 1:]: scale * m[j] * c
                       for m, c in poly.items() if m[j]})


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


def _taylor_shift(num, den, shifts):
    """num / den with generator j replaced by x_j - shifts[j] (rationals).

    The substitution is a ring automorphism of Q[gens], so the shifted
    numerator and denominator stay coprime over Q.  A shift by a/q sends
    q^d x_j^e to q^(d-e) (q x_j - a)^e, integral for d the larger x_j-degree
    of the two sides; dividing out the integer content of both together then
    reduces the fraction over Z without a polynomial gcd.  Every new
    monomial divides the old one it comes from, so the leading term in lex
    order and hence the sign of the denominator are kept."""
    for j, shift in sorted(shifts.items()):
        a, q = shift.numerator, shift.denominator
        d = max(m[j] for m in (*num, *den))
        rows = {}       # x_j-degree e -> coefficients of x_j^0..x_j^e
        sides = []
        for poly in (num, den):
            out = {}
            for m, c in poly.items():
                e = m[j]
                row = rows.get(e)
                if row is None:
                    row = rows[e] = [comb(e, i) * q ** (i + d - e) * (-a) ** (e - i)
                                     for i in range(e + 1)]
                for i, k in enumerate(row):
                    t = m[:j] + (i,) + m[j + 1:]
                    out[t] = out.get(t, 0) + c * k
            sides.append(type(poly)({m: c for m, c in out.items() if c}))
        num, den = sides
    content = gcd(*num.values(), *den.values())
    return _quo_int(num, content), _quo_int(den, content)


def _graded_values(tgt, poly, grade, vals):
    """{grade(m): sum of c * prod vals[j]**m[j]} over the terms c * x^m of
    poly in decreasing lex order, for Scalars vals of tgt (None sets a
    generator to 1)."""
    out = {}
    for monom, c in sorted(poly.items(), reverse=True):
        term = tgt(c)
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


def _fraction_text(ctx, num, den):
    if not num:
        return "0"
    terms_n = sorted(num.items(), key=lambda t: _monomial_key(t[0]))
    terms_d = sorted(den.items(), key=lambda t: _monomial_key(t[0]))
    # strip the shared integer content; the denominator's first term in
    # graded-lex order gets a positive coefficient
    g = gcd(*(c for _, c in terms_n + terms_d))
    if terms_d[0][1] < 0:
        g = -g
    num_text = _poly_text_integer(ctx, [(m, c // g) for m, c in terms_n])
    den_text = _poly_text_integer(ctx, [(m, c // g) for m, c in terms_d])
    if den_text == "1":
        return num_text
    return f"({num_text})/({den_text})"
