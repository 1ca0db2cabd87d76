"""Fusion and exchange matrices, by intertwiners and by the ABRR equation.

Two independent pipelines compute the fusion matrix J_{M1,M2}(lambda):

* the exchange construction: solve for the intertwiner Phi^v with leading
  term x (x) v, compose with Phi^w and read off the expectation value
  (the top Verma coefficient);
* the ABRR equation J = 1 + D^{-1}(X J), solved grade by grade in the
  height of the second-slot weight change.  Classically
  X = sum_alpha e_-alpha (x) e_alpha and D is J -> [J, 1 (x) theta(lambda)];
  quantumly X = (R0^21)^{-1} - 1 and D = Ad(1 (x) q^(2 theta)) - 1.

Exchange matrices are J^{-1} J^21 classically and J^{-1} R^21 J^21
quantumly, with the constant R-matrix assembled by quasitriangularity.

The universal sl2 fusion lives here as well: its coefficients g_n(lambda, h)
are data for both flavours, Scalars of the rank-2 field of each flavour with
lambda (or q^lambda) and h (or q^h) as its two coordinates, closed-form
classically and generated quantumly by running the ABRR recursion
symbolically on the q-exponential R0.  One evaluator,
`universal_coefficient`, specializes them on modules, on Verma slices (the
Shapovalov comparison) and on duals (the trace functions), and
`universal_term` builds g_n(lambda, h) e^n on a module for the first and
the last of these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .linalg import Mat, kron
from .reps import TensorIndex, constant_R, place_operator
from .rootdata import weight_add, weight_neg, weight_sub
from .scalars import classical_ctx, quantum_ctx, symbol_ctx
from .verma import solve_intertwiner, verma_slice


class FusionError(Exception):
    pass


class DynOp:
    """A lambda-dependent operator on an ordered tensor product of modules."""

    def __init__(self, factors, mat):
        self.factors = list(factors)
        self.mat = mat
        self.ctx = factors[0].ctx
        self.index = TensorIndex([m.dim for m in self.factors])
        self.dim = self.index.size

    def slot_weight(self, flat, slot):
        return self.factors[slot].weights[self.index.multi(flat)[slot]]

    def total_weight(self, flat):
        multi = self.index.multi(flat)
        w = self.factors[0].datum.zero_weight
        for slot, k in enumerate(multi):
            w = weight_add(w, self.factors[slot].weights[k])
        return w

    def is_weight_zero(self):
        for (r, c, v) in self.mat.entries():
            if not v.is_zero and self.total_weight(r) != self.total_weight(c):
                return False
        return True

    def __mul__(self, other):
        if isinstance(other, DynOp):
            return DynOp(self.factors, self.mat * other.mat)
        return DynOp(self.factors, self.mat * other)

    def inverse(self):
        return DynOp(self.factors, self.mat.inverse())

    def shifted(self, slot):
        """The shifted-argument evaluation F(lambda - h^(slot))."""
        out = Mat(self.mat.nrows, self.mat.ncols, self.ctx)
        cache = {}
        for (r, c, v) in self.mat.entries():
            mu = self.slot_weight(c, slot)
            key = (v, mu)
            hit = cache.get(key)
            if hit is None:
                hit = cache[key] = v.shift_lambda(mu)
            out.set(r, c, hit)
        return DynOp(self.factors, out)

    def shift_all(self, mu):
        return DynOp(self.factors, self.mat.map(lambda v: v.shift_lambda(mu)))

    def flip21(self):
        """PFP on a two-factor operator: the 21-conjugate on swapped factors."""
        if len(self.factors) != 2:
            raise FusionError("flip21 needs exactly two factors")
        m1, m2 = self.factors
        return DynOp([m2, m1], place_operator(self.mat, [m2.dim, m1.dim], 1, 0))


def place_in_slots(op, factors, slot_a, slot_b):
    """Embed a two-factor DynOp into a larger tensor product."""
    return DynOp(factors, place_operator(op.mat, [m.dim for m in factors], slot_a, slot_b))


def height_spread(module):
    datum = module.datum
    top = max(module.weights, key=lambda w: datum.pairing(w, datum.rho))
    bot = min(module.weights, key=lambda w: datum.pairing(w, datum.rho))
    return datum.root_height(weight_sub(top, bot))


def fusion_exchange_construction(m1, m2):
    """J_{M1,M2}(lambda) on M1 (x) M2 via composed intertwiners.

    The column at w (x) v is the expectation value of Phi^w Phi^v: only the
    top Verma coefficient of the second intertwiner survives, which turns
    the outer factor into plain lowering-operator products on M1.
    """
    datum, ctx = m1.datum, m1.ctx
    if m1.quantum != m2.quantum:
        raise FusionError("mixed classical/quantum fusion")
    slices = {}
    depth = height_spread(m2)
    idx = TensorIndex([m1.dim, m2.dim])
    out = Mat(idx.size, idx.size, ctx)
    for j in range(m2.dim):
        offset = weight_neg(m2.weights[j])
        sl = slices.get(offset)
        if sl is None:
            sl = slices[offset] = verma_slice(datum, offset, depth, m1.quantum)
        phi = solve_intertwiner(sl, m2, j)
        lowered_cache = {}
        for (key, u), c in phi.image.items():
            if c.is_zero:
                continue
            lowered = lowered_cache.get(key)
            if lowered is None:
                lowered = lowered_cache[key] = _lowering_product(m1, key)
            for (r, i, vv) in lowered.entries():
                out.add_to(idx.flat((r, u)), idx.flat((i, j)), c * vv)
    return DynOp([m1, m2], out)


def _lowering_product(module, key):
    """rho(f_key) for a slice word key as a matrix on the module."""
    out = Mat.identity(module.dim, module.ctx)
    for i in reversed(key):
        out = module.f(i) * out
    return out


def exchange_matrix(m1, m2, method="exchange", normalized=False):
    """R_{M1,M2}(lambda) = J^{-1} (R^21) J^21 on M1 (x) M2.

    With normalized=True the constant R-matrix is rescaled so that stripping
    q^(sum x_i (x) x_i) (in the datum's own invariant form) leaves leading
    coefficient 1: this is the invariant (sl-type) normalization, which for
    the gl pairing is already the case; quantization statements (Prop-3.3
    style limits, the trace theory) are exact in this normalization.
    """
    builder = abrr_fusion if method == "abrr" else fusion_exchange_construction
    j12 = builder(m1, m2)
    j21 = builder(m2, m1).flip21()
    out = j12.inverse()
    if m1.quantum:
        base = constant_R(m2, m1)
        if normalized:
            base = base * (m1.ctx.one / _strip_cartan(m2, m1, base)[1])
        out = out * DynOp([m2, m1], base).flip21()
    return out * j21


def _c_matrix(m1, m2):
    """sum over positive roots of e_-alpha (x) e_alpha on M1 (x) M2."""
    total = Mat(m1.dim * m2.dim, m1.dim * m2.dim, m1.ctx)
    for alpha in m1.datum.positive_roots:
        total = total + kron(m1.root_action(alpha, negative=True),
                             m2.root_action(alpha, negative=False))
    return total


def abrr_fusion(m1, m2):
    """The ABRR fixed point J = 1 + D^{-1}(X J) on M1 (x) M2, solved by grade.

    X raises the second slot strictly, so (X J)[r, c] at grade
    beta = wt_2(r) - wt_2(c) involves only entries of J of lower height:
    for h = 1..spread every entry of height h is (X J)[r, c] / D(r, c).
    X is sum_alpha e_-alpha (x) e_alpha classically and (R0^21)^{-1} - 1
    quantumly; D is `_abrr_denominator`.
    """
    datum, ctx = m1.datum, m1.ctx
    idx = TensorIndex([m1.dim, m2.dim])
    if m1.quantum:
        x = _r0_21(m1, m2).mat.inverse() - Mat.identity(idx.size, ctx)
    else:
        x = _c_matrix(m1, m2)
    j = Mat.identity(idx.size, ctx)
    for h in range(1, height_spread(m1) + height_spread(m2) + 1):
        for (r, c, v) in (x * j).entries():
            mu = m2.weights[idx.multi(c)[1]]
            beta = weight_sub(m2.weights[idx.multi(r)[1]], mu)
            if datum.root_height(beta) == h:
                j.set(r, c, v / _abrr_denominator(m1, mu, beta))
    return DynOp([m1, m2], j)


def _abrr_denominator(m1, mu, beta):
    """The ABRR denominator at second-slot weight mu raised by beta:
    (mu - rho - lambda, beta) + (beta, beta)/2 classically, and
    q^(2(lambda + rho - mu, beta) - (beta, beta)) - 1 quantumly."""
    datum, ctx = m1.datum, m1.ctx
    if not m1.quantum:
        return ctx.from_fraction(
            datum.pairing(mu, beta) + datum.pairing(beta, beta) / 2
            - datum.pairing(datum.rho, beta)) - datum.lambda_pairing(ctx, beta)
    return datum.q_lambda_pairing(ctx, beta, factor=2) * ctx.q_power(
        2 * datum.pairing(datum.rho, beta) - 2 * datum.pairing(mu, beta)
        - datum.pairing(beta, beta)) - 1


def _strip_cartan(m1, m2, base):
    """R_{M1,M2} q^(-sum x_i (x) x_i) for base = R_{M1,M2}, and the constant
    on its diagonal.

    The pinned vector R-matrix carries the gl-type normalization (corner q);
    stripping with the invariant-form pairing leaves a constant diagonal,
    which is what `_r0_21` and the normalized exchange matrix divide out.
    """
    datum, ctx = m1.datum, m1.ctx
    idx = TensorIndex([m1.dim, m2.dim])
    qdiag = Mat(idx.size, idx.size, ctx)
    for a in range(m1.dim):
        for b in range(m2.dim):
            qdiag.set(idx.flat((a, b)), idx.flat((a, b)),
                      ctx.q_power(-datum.pairing(m1.weights[a], m2.weights[b])))
    raw = base * qdiag
    const = raw[0, 0]
    for k in range(idx.size):
        if not (raw[k, k] - const).is_zero:
            raise FusionError("stripped constant R has a non-constant diagonal")
    return raw, const


def _r0_21(m1, m2):
    """R0^21 on M1 (x) M2: flip of R_{M2,M1} q^{-sum x_i (x) x_i}, divided by
    its constant diagonal so that R0 has the 1 + U'_+ (x) U'_- shape the
    ABRR equation needs."""
    raw, const = _strip_cartan(m2, m1, constant_R(m2, m1))
    return DynOp([m2, m1], raw * (m1.ctx.one / const)).flip21()


# -- universal sl2 fusion ---------------------------------------------------


@lru_cache(maxsize=None)
def universal_sl2_fusion(depth, quantum=False):
    """Coefficients g_0..g_depth of the universal sl2 fusion
    J = sum_n f^n (x) g_n(lambda, h) e^n, with h read AFTER e^n is applied.

    Each g_n is a Scalar of the rank-2 field of its flavour, in l1 = lambda
    and l2 = h classically and in t1 = q^lambda and t2 = q^h quantumly;
    evaluate it with `universal_coefficient`.  Classically g_n = ((-1)^n / n!)
    prod_{k=n+1}^{2n} 1/(lambda - h + k).  The quantum coefficients are
    generated by the ABRR recursion run symbolically, with
    R0^21 = 1 + sum_k d_k f^k (x) e^k and the q-exponential coefficients
    d_k = q^(k(k-1)/2) (q - q^-1)^k / [k]_q!.
    """
    if not quantum:
        ctx = classical_ctx(2)
        lam, h = ctx.lam(0), ctx.lam(1)
        gs = []
        for n in range(depth + 1):
            g = ctx.from_fraction(Fraction((-1) ** n, math.factorial(n)))
            for k in range(n + 1, 2 * n + 1):
                g = g / (lam - h + k)
            gs.append(g)
        return tuple(gs)
    ctx = quantum_ctx(2)
    t, x = ctx.t(0), ctx.t(1)
    q = ctx.q_power(1)
    d, factorial_q = [ctx.one], ctx.one
    for k in range(1, depth + 1):
        factorial_q = factorial_q * ctx.q_number(k)
        d.append(q ** (k * (k - 1) // 2) * (q - 1 / q) ** k / factorial_q)
    gs = [ctx.one]
    for n in range(1, depth + 1):
        rhs = ctx.zero
        for k in range(1, n + 1):
            # q^{2 theta(u-2k) - 2 theta(u)} = t^{-2k} x^{2k} q^{-2k-2k^2}
            ratio = t ** (-2 * k) * x ** (2 * k) * ctx.q_power(-2 * k - 2 * k * k)
            # g_{n-k} at h - 2k: x = q^h -> q^(-2k) x
            rhs = rhs + d[k] * ratio * gs[n - k].shift_lambda([0, 2 * k])
        lhs_factor = t ** (-2 * n) * x ** (2 * n) * ctx.q_power(-2 * n - 2 * n * n) - 1
        gs.append(rhs / lhs_factor)
    return tuple(gs)


def universal_coefficient(g, ctx, lam, h):
    """The universal coefficient g at lambda-argument lam and h-eigenvalue h,
    Scalars of ctx as `Context.coordinate_value` encodes them (q^lam, q^h)."""
    return g.convert(ctx, [lam, h])


def universal_term(g, module, lam, e_pow):
    """g(lam, h) e^n on an sl2 module, for e_pow the matrix of e^n there:
    each entry times g at the h-eigenvalue of its row, read after raising."""
    ctx = module.ctx
    out = Mat(e_pow.nrows, e_pow.ncols, ctx)
    for (r, c, v) in e_pow.entries():
        h = ctx.coordinate_value(module.weights[r][0])
        out.set(r, c, universal_coefficient(g, ctx, lam, h) * v)
    return out


def evaluate_universal_sl2(terms, m1, m2):
    """Evaluate universal fusion coefficients on a pair of sl2 modules."""
    ctx = m1.ctx
    out = Mat.identity(m1.dim * m2.dim, ctx)
    f_mat = m1.f(0)
    e_mat = m2.e(0)
    f_pow = Mat.identity(m1.dim, ctx)
    e_pow = Mat.identity(m2.dim, ctx)
    for n, g in enumerate(terms):
        if n == 0:
            continue
        f_pow = f_mat * f_pow
        e_pow = e_mat * e_pow
        if f_pow.is_zero or e_pow.is_zero:
            break
        out = out + kron(f_pow, universal_term(g, m2, ctx.coordinate(0), e_pow))
    return DynOp([m1, m2], out)


def universal_sl2_at_zero(term, ctx, c):
    """Coefficient of the universal term at lambda-argument 0 and second-slot
    h-eigenvalue h = -lambda + c, over the field ctx of a Verma slice with
    symbolic highest weight (the Shapovalov comparison)."""
    h = ctx.coordinate(0).reflect_lambda([-c])
    return universal_coefficient(term, ctx, ctx.coordinate_value(0), h)


def shapovalov_vs_fusion(datum, depth, quantum=False):
    """Entrywise residuals of X_lambda = J(0)(x+ (x) x-) for sl2, by level.

    X_lambda is assembled degree by degree from the Shapovalov Gram values
    S_j: classically its f^j x+ (x) e^j x- coefficient is (-1)^j / S_j; the
    quantum dual pairing is contravariant up to the antipode's K-twist,
    which multiplies the coefficient by q^(-j lambda + j(j-1)).  (Both
    normalizations are pinned by the unique Delta(e)-singular element of
    M+ (x) M- with leading term x+ (x) x-; see tests.)
    """
    if not datum.sl2_model:
        raise FusionError("the Shapovalov comparison is an sl2 computation")
    sl = verma_slice(datum, datum.zero_weight, depth, quantum)
    ctx = sl.ctx
    terms = universal_sl2_fusion(depth, quantum)
    residuals = []
    for j in range(depth + 1):
        s_j = sl.gram((j,))[0, 0]
        # the K-twist q^(-(lambda, j alpha) + j(j-1)), which is 1 classically
        twist = datum.q_lambda_pairing(ctx, datum.simple_roots[0], -j) * ctx.q_power(j * (j - 1))
        inv_side = ctx.from_fraction(Fraction((-1) ** j)) / s_j * twist
        # universal side: h-eigenvalue of e^j x^-_{-lambda} is -lambda + 2j
        uni = universal_sl2_at_zero(terms[j], ctx, 2 * j)
        residuals.append(uni - inv_side)
    return residuals


def singular_inverse_element(datum, depth, quantum=False):
    """Coefficients c_j of the unique Delta(e)-singular element
    sum_j c_j f^j x+ (x) e^j x- of M+_lambda (x) M-_(-lambda), c_0 = 1.

    Independent oracle for the Shapovalov comparison: solves the singular
    condition level by level using e f^j x = [j][lambda-j+1] f^(j-1) x.
    """
    sl = verma_slice(datum, datum.zero_weight, depth, quantum)
    ctx = sl.ctx
    coeffs = [ctx.one]
    for j in range(1, depth + 1):
        # e-action matrix element on f^j x_lambda from the slice itself
        vec = sl.act_simple("e", 0, {(0,) * j: ctx.one})
        ef = vec[(0,) * (j - 1)]
        kinv = sl.k_inverse(0, (j - 1,))
        coeffs.append(-coeffs[j - 1] * kinv / ef)
    return coeffs


# -- classical limits --------------------------------------------------------


def classical_limit(dynop, order):
    """Entrywise gamma-expansion: a list of symbol-field matrices by order."""
    datum = dynop.factors[0].datum
    tgt = symbol_ctx(datum.n_coords)
    mats = [Mat(dynop.mat.nrows, dynop.mat.ncols, tgt) for _ in range(order + 1)]
    for (r, c, v) in dynop.mat.entries():
        series = v.gamma_expand(order)
        for k in range(order + 1):
            val = series[k]
            if not val.is_zero:
                mats[k].set(r, c, val)
    return mats
