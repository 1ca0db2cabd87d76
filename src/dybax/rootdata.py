"""Type-A root data: roots, weights, invariant form, rho, Casimir, generators.

Two coordinate models are used.  gl_n (and sl_n for n >= 3, realized in the
trace-zero sublattice) lives in epsilon-coordinates: weights are n-tuples,
the invariant form is the standard dot product, and the Lie algebra is
concrete n-by-n matrices E_ab.  sl2 gets a dedicated single-coordinate model
lambda = lambda(h) so that the textbook sl2 formulas (denominators like
lambda + 1) come out literally.  `RootDatum.form_dual` is the one place the
two models differ in the form: every pairing, (lambda, mu) and
q^(lambda, mu) reads it.

Lie algebra elements are sparse rational matrices: dicts {(a, b): Fraction}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import prod

from .scalars import classical_ctx, quantum_ctx


class RootDatumError(Exception):
    pass


# -- sparse rational matrices as Lie algebra elements ----------------------


def mat_E(a, b):
    return {(a, b): Fraction(1)}


def mat_add(x, y, cy=1):
    out = dict(x)
    for k, v in y.items():
        nv = out.get(k, Fraction(0)) + Fraction(cy) * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def mat_mul(x, y):
    out = {}
    for (a, b), v in x.items():
        for (c, d), w in y.items():
            if b == c:
                key = (a, d)
                nv = out.get(key, Fraction(0)) + v * w
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
    return out


def mat_bracket(x, y):
    return mat_add(mat_mul(x, y), mat_mul(y, x), -1)


def add_tensor(acc, coeff, *factors):
    """acc[(k_1, ..., k_m)] += coeff * x_1[k_1] * ... * x_m[k_m] over the
    entries of the factors x_1 (x) ... (x) x_m; a key that cancels stays."""
    if coeff.is_zero:
        return
    for cells in product(*(x.items() for x in factors)):
        key = tuple(k for k, _ in cells)
        val = coeff * prod(Fraction(v) for _, v in cells)
        cur = acc.get(key)
        acc[key] = val if cur is None else cur + val


def weight_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def weight_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def weight_neg(a):
    return tuple(-x for x in a)


def weight_scale(a, c):
    c = Fraction(c)
    return tuple(c * x for x in a)


class RootDatum:
    """Roots, invariant form and generator structure for one type-A algebra."""

    def __init__(self, n, flavor):
        if flavor not in ("gl", "sl"):
            raise RootDatumError(f"unknown flavor {flavor!r}")
        if n < 2:
            raise RootDatumError("rank must be at least 2")
        self.n = n
        self.flavor = flavor
        self.sl2_model = flavor == "sl" and n == 2
        if self.sl2_model:
            self.n_coords = 1
            self.simple_roots = [(Fraction(2),)]
            self.positive_roots = [(Fraction(2),)]
            self.rho = (Fraction(1),)
        else:
            self.n_coords = n
            eps = [tuple(Fraction(1 if k == i else 0) for k in range(n))
                   for i in range(n)]
            self.simple_roots = [weight_sub(eps[i], eps[i + 1]) for i in range(n - 1)]
            self.positive_roots = [weight_sub(eps[a], eps[b])
                                   for a in range(n) for b in range(a + 1, n)]
            self.rho = tuple(Fraction(n + 1 - 2 * (a + 1), 2) for a in range(n))
        self.rank = len(self.simple_roots)
        self.zero_weight = (Fraction(0),) * self.n_coords
        self._half = {}

    def __repr__(self):
        return f"RootDatum({self.flavor}{self.n})"

    # -- form and coordinates ------------------------------------------------

    def form_dual(self, mu):
        """G mu, the coordinates of the functional (mu, .) on weight
        coordinates: mu / 2 in the sl2 model, where (h, h) = 2, and mu
        itself in epsilon coordinates, where the form is the dot product.
        The sl2 images are cached, so the hot `pairing` builds no tuple."""
        if not self.sl2_model:
            return mu
        hit = self._half.get(mu)
        if hit is None:
            hit = self._half[mu] = tuple(Fraction(x) / 2 for x in mu)
        return hit

    def pairing(self, mu, nu):
        return sum(a * Fraction(b) for a, b in zip(self.form_dual(mu), nu))

    def simple_coefficients(self, nu):
        """Coefficients of nu in the simple roots; raises off the span of the
        root lattice."""
        if self.sl2_model:
            return [Fraction(nu[0]) / 2]
        # nu = sum c_a eps_a has the partial sums c_1, c_1 + c_2, ... as its
        # simple-root coefficients, and lies in the span iff all c_a sum to 0
        coeffs = list(accumulate(Fraction(c) for c in nu))
        if coeffs.pop() != 0:
            raise RootDatumError(f"{nu} is not in the root lattice span")
        return coeffs

    def root_height(self, nu):
        """Height of a nonnegative sum of simple roots; raises otherwise."""
        coeffs = self.simple_coefficients(nu)
        if any(c.denominator != 1 or c < 0 for c in coeffs):
            raise RootDatumError(f"{nu} is not a sum of positive roots")
        return int(sum(coeffs))

    # -- Lie algebra structure ------------------------------------------------

    def root_vector(self, alpha, negative=False):
        """e_alpha (or e_{-alpha}) with <e_alpha, e_-alpha> = 1."""
        if self.sl2_model:
            return mat_E(1, 0) if negative else mat_E(0, 1)
        for a in range(self.n):
            for b in range(self.n):
                if a != b and weight_sub(self._eps(a), self._eps(b)) == tuple(alpha):
                    return mat_E(b, a) if negative else mat_E(a, b)
        raise RootDatumError(f"{alpha} is not a root")

    def _eps(self, a):
        return tuple(Fraction(1 if k == a else 0) for k in range(self.n))

    def cartan_pairs(self):
        """(h_j, coordinate index) pairs with sum_j h_j (x) d/dl_j equal to the
        invariant tensor sum_i x_i (x) d/dx^i over any orthonormal basis."""
        if self.sl2_model:
            return [(mat_add(mat_E(0, 0), mat_E(1, 1), -1), 0)]
        return [(mat_E(a, a), a) for a in range(self.n)]

    def casimir(self):
        """Omega as a list of (A, B, coeff) with Omega = sum coeff * A (x) B."""
        if self.sl2_model:
            h = mat_add(mat_E(0, 0), mat_E(1, 1), -1)
            return [(h, h, Fraction(1, 2)),
                    (mat_E(0, 1), mat_E(1, 0), Fraction(1)),
                    (mat_E(1, 0), mat_E(0, 1), Fraction(1))]
        return [(mat_E(a, b), mat_E(b, a), Fraction(1))
                for a in range(self.n) for b in range(self.n)]

    # -- scalar builders -------------------------------------------------------

    def field(self, quantum):
        """The coefficient field of the classical or the quantum objects."""
        return (quantum_ctx if quantum else classical_ctx)(self.n_coords)

    def lambda_pairing(self, ctx, mu):
        """(lambda, mu) as a classical Scalar in ctx."""
        out = ctx.zero
        for a, m in enumerate(self.form_dual(mu)):
            if m:
                out = out + ctx.lam(a) * Fraction(m)
        return out

    def q_lambda_pairing(self, ctx, mu, factor=1):
        """q^(factor * (lambda, mu)) in ctx: a t-monomial quantumly, one
        classically (`Context.q_lambda`)."""
        return ctx.q_lambda([factor * m for m in self.form_dual(mu)])


def build_type_A(n, flavor="gl"):
    """Construct the type-A root datum for gl_n or sl_n (n >= 2)."""
    return RootDatum(n, flavor)
