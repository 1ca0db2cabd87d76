"""Type-A root data: roots, weights, invariant form, rho, Casimir, generators.

Two coordinate models are used.  gl_n (and sl_n for n >= 3, realized in the
trace-zero sublattice) lives in epsilon-coordinates: weights are n-tuples,
the invariant form is the standard dot product, and the Lie algebra is
concrete n-by-n matrices E_ab.  sl2 gets a dedicated single-coordinate model
lambda = lambda(h) so that the textbook sl2 formulas (denominators like
lambda + 1) come out literally.

Lie algebra elements are sparse rational matrices: dicts {(a, b): Fraction}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import prod

from .scalars import UnsupportedShiftError, classical_ctx, quantum_ctx


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

    def __repr__(self):
        return f"RootDatum({self.flavor}{self.n})"

    # -- form and coordinates ------------------------------------------------

    def pairing(self, mu, nu):
        if self.sl2_model:
            return Fraction(mu[0]) * Fraction(nu[0]) / 2
        return sum(Fraction(a) * Fraction(b) for a, b in zip(mu, nu))

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

    def simple_e(self, i):
        return self.root_vector(self.simple_roots[i])

    def simple_f(self, i):
        return self.root_vector(self.simple_roots[i], negative=True)

    def coroot_h(self, i):
        """[e_i, f_i], acting on a weight by (weight, alpha_i)."""
        return mat_bracket(self.simple_e(i), self.simple_f(i))

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

    def decompose(self, x):
        """Split a matrix into (positive-root part, cartan diag, negative part).

        Root parts come back as {root (as tuple): Fraction coefficient}."""
        pos, neg = {}, {}
        diag = [Fraction(0)] * self.n
        for (a, b), v in x.items():
            if a == b:
                diag[a] += v
            elif a < b:
                pos[weight_sub(self._eps(a), self._eps(b))] = v
            else:
                neg[weight_sub(self._eps(b), self._eps(a))] = v
        if self.sl2_model:
            pos = {(Fraction(2),): v for _, v in pos.items()}
            neg = {(Fraction(2),): v for _, v in neg.items()}
        return pos, diag, neg

    def weight_of_diag(self, diag, weight):
        """Value of a diagonal Cartan element on a concrete weight."""
        if self.sl2_model:
            return Fraction(diag[0]) * Fraction(weight[0])
        return sum(Fraction(d) * Fraction(w) for d, w in zip(diag, weight))

    # -- scalar builders -------------------------------------------------------

    def classical_field(self):
        return classical_ctx(self.n_coords)

    def quantum_field(self):
        return quantum_ctx(self.n_coords)

    def lambda_pairing(self, ctx, mu):
        """(lambda, mu) as a classical Scalar in ctx."""
        if self.sl2_model:
            return ctx.lam(0) * (Fraction(mu[0]) / 2)
        out = ctx.zero
        for a, m in enumerate(mu):
            if m:
                out = out + ctx.lam(a) * Fraction(m)
        return out

    def q_lambda_pairing(self, ctx, mu, factor=1):
        """q^(factor * (lambda, mu)) as a quantum Scalar (a t-monomial)."""
        out = ctx.one
        factor = Fraction(factor)
        if self.sl2_model:
            k = factor * Fraction(mu[0]) / 2  # (lambda, mu) = l * mu / 2
            if k.denominator != 1:
                raise UnsupportedShiftError("q-power not Laurent in t")
            return ctx.t(0) ** int(k)
        for a, m in enumerate(mu):
            k = factor * Fraction(m)
            if k.denominator != 1:
                raise UnsupportedShiftError("q-power not Laurent in t")
            if k:
                out = out * ctx.t(a) ** int(k)
        return out

def build_type_A(n, flavor="gl"):
    """Construct the type-A root datum for gl_n or sl_n (n >= 2)."""
    return RootDatum(n, flavor)
