"""Transfer difference operators, Macdonald operators and polynomials, and
the weighted trace functions of quantum sl2.

Difference operators are finite sums sum_nu c_nu(lambda) T_nu with exact
coefficients.  One partial trace, `transfer_diffop`, builds the transfer
operator D_W = sum_nu Tr|W[nu] R_{W,V}(-lambda-rho) T_nu, which Corollary 9.1
and both Macdonald-Ruijsenaars theorems (9.1 on V, 9.2 on V*) read.  On the
Macdonald side everything is a Laurent polynomial or rational function in
x_i = q^(2 lambda_i) = t_i^2, with t = q^(m+1) so coefficients stay Laurent
in s.  A trace function is a prefactor q^(2 c (lambda,mu)) times a truncated
Laurent series in zeta = q^(-lambda) (the sl2 coordinate) whose
coefficients are exact rational functions of t = q^mu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations

from .fusion import (
    exchange_matrix,
    universal_sl2_fusion,
    universal_term,
)
from .linalg import Mat
from .reps import TensorIndex, dual, sym_power, trivial_rep, vector_rep
from .rootdata import build_type_A
from .scalars import laurent_quotient, quantum_ctx
from .verify import PreconditionError
from .verma import apply_coproduct_word, solve_intertwiner, verma_slice


class MacdonaldError(Exception):
    pass


# -- difference operators -----------------------------------------------------


class DiffOp:
    """Finite sum of shift terms with matrix (or scalar) coefficients."""

    def __init__(self, ctx, dim, terms=None):
        self.ctx = ctx
        self.dim = dim
        self.terms = {}
        if terms:
            for nu, mat in terms.items():
                self._add(tuple(Fraction(x) for x in nu), mat)

    def _add(self, nu, mat):
        """Add mat to the coefficient of T_nu; a coefficient that cancels
        is dropped."""
        if nu in self.terms:
            mat = self.terms[nu] + mat
        if mat.is_zero:
            self.terms.pop(nu, None)
        else:
            self.terms[nu] = mat

    def _shift_mat(self, mat, nu):
        """Coefficient matrix evaluated at lambda + nu."""
        neg = [-x for x in nu]
        return mat.map(lambda v: v.shift_lambda(neg))

    def __mul__(self, other):
        if not isinstance(other, DiffOp):
            raise TypeError("DiffOp composes with DiffOp")
        out = DiffOp(self.ctx, self.dim)
        for nu1, m1 in self.terms.items():
            for nu2, m2 in other.terms.items():
                nu = tuple(a + b for a, b in zip(nu1, nu2))
                out._add(nu, m1 * self._shift_mat(m2, nu1))
        return out

    def __sub__(self, other):
        out = DiffOp(self.ctx, self.dim, dict(self.terms))
        for nu, m in other.terms.items():
            out._add(nu, -m)
        return out

    @property
    def is_zero(self):
        return all(m.is_zero for m in self.terms.values())

    def apply_scalar(self, f):
        """Apply a scalar-coefficient operator to a function of lambda."""
        if self.dim != 1:
            raise MacdonaldError("apply_scalar needs 1x1 coefficients")
        out = self.ctx.zero
        for nu, m in self.terms.items():
            out = out + m[0, 0] * f.shift_lambda([-x for x in nu])
        return out

    def conjugate_by(self, g):
        """g . D . g^{-1} for a multiplication operator g(lambda)."""
        out = DiffOp(self.ctx, self.dim)
        for nu, m in self.terms.items():
            scale = g / g.shift_lambda([-x for x in nu])
            out._add(nu, m * scale)
        return out

    def transform_q_inverse_neg_lambda(self):
        """The (q -> q^{-1}, lambda -> -lambda) transform of the operator.

        In the (s, t_a) encoding the combined substitution leaves every
        t_a = q^(lambda_a) fixed -- (q^{-1})^{(-lambda)} = q^lambda -- so
        only s inverts, while the shift operators flip direction under the
        coordinate change."""
        out = DiffOp(self.ctx, self.dim)
        for nu, m in self.terms.items():
            out._add(tuple(-x for x in nu), m.map(lambda v: v.invert_q()))
        return out


def transfer_diffop(traced, base):
    """D^base_traced = sum_nu Tr_{traced[nu]}(R_{traced,base}(-lambda-rho)) T_nu.

    R is the exchange matrix in the invariant (sl) normalization of the
    constant R-matrix, which the trace theory (Theorems 9.1-9.4) requires:
    for the sl2 datum it is q^(-deg(M1) deg(M2)/2) times the gl-normalized
    one (dual factors counting negative degree); classically the two agree.

    Each coefficient entry sums the diagonal of its traced weight block
    first and substitutes lambda -> -lambda - rho once afterwards; the
    substitution is a ring map, so this is the trace of the substituted
    matrix.

    The (weight-preserving) coefficients are restricted to the zero-weight
    space of base, which is where the scalar Macdonald-Ruijsenaars theory
    lives."""
    datum = traced.datum
    rop = exchange_matrix(traced, base, normalized=True)
    ctx = rop.ctx
    base_idx = [i for i, w in enumerate(base.weights) if w == datum.zero_weight]
    if not base_idx:
        raise MacdonaldError("base module has no zero-weight space")
    idx = TensorIndex([traced.dim, base.dim])
    out = DiffOp(ctx, len(base_idx))
    for nu, rows in traced.weight_blocks().items():
        coeff = Mat(len(base_idx), len(base_idx), ctx)
        for bi, vi in enumerate(base_idx):
            for bj, vj in enumerate(base_idx):
                trace = ctx.zero
                for w in rows:
                    trace = trace + rop.mat[idx.flat((w, vi)), idx.flat((w, vj))]
                if not trace.is_zero:
                    coeff.set(bi, bj, trace.reflect_lambda(datum.rho))
        out._add(tuple(nu), coeff)
    return out


# -- Macdonald operators and polynomials --------------------------------------


def macdonald_operator(n, r, m):
    """M_r on functions of lambda_1..lambda_n, with t = q^(m+1)."""
    if not 1 <= r <= n:
        raise MacdonaldError("need 1 <= r <= n")
    ctx = quantum_ctx(n)
    t_par = ctx.q_power(m + 1)
    out = DiffOp(ctx, 1)
    for subset in combinations(range(n), r):
        coeff = ctx.one
        inside = set(subset)
        for i in subset:
            xi = ctx.t(i) ** 2
            for j in range(n):
                if j in inside:
                    continue
                xj = ctx.t(j) ** 2
                coeff = coeff * (t_par * xi - xj / t_par) / (xi - xj)
        nu = tuple(Fraction(1 if i in inside else 0) for i in range(n))
        out._add(nu, Mat.identity(1, ctx) * coeff)
    return out


def macdonald_eigenvalue(n, r, m, mu):
    """sum_{|I|=r} prod_{i in I} q^(2 mu_i) t^(n+1-2i), t = q^(m+1)."""
    ctx = quantum_ctx(n)
    out = ctx.zero
    for subset in combinations(range(n), r):
        term = ctx.one
        for i in subset:
            term = term * ctx.q_power(2 * mu[i] + (m + 1) * (n + 1 - 2 * (i + 1)))
        out = out + term
    return out


def partitions_of(d, n):
    out = []

    def rec(remaining, maxpart, acc):
        if len(acc) == n:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for k in range(min(remaining, maxpart), -1, -1):
            rec(remaining - k, k, acc + [k])

    rec(d, d, [])
    return out


def dominates(mu, nu):
    """mu >= nu in dominance order (same size)."""
    s1 = s2 = 0
    for a, b in zip(mu, nu):
        s1 += a
        s2 += b
        if s1 < s2:
            return False
    return True


def monomial_symmetric(ctx, nu):
    out = ctx.zero
    for sigma in sorted(set(permutations(nu))):
        term = ctx.one
        for i, k in enumerate(sigma):
            if k:
                term = term * ctx.t(i) ** (2 * k)
        out = out + term
    return out


def as_laurent(x):
    """Split a Scalar whose denominator is one t-monomial (times a function
    of s) into {t-exponent tuple: s-only Scalar}."""
    num, den = x.lambda_graded()
    if len(den) != 1:
        raise MacdonaldError("not a Laurent polynomial in the t variables")
    (low, d), = den.items()
    return {tuple(a - b for a, b in zip(k, low)): v / d for k, v in num.items()}


def _monomial_expansion(x):
    """Expand a symmetric Laurent polynomial in monomial symmetric functions."""
    coeffs = as_laurent(x)
    out = {}
    for t_exp, val in coeffs.items():
        if any(e % 2 for e in t_exp):
            raise MacdonaldError("odd t-exponent: not a polynomial in x_i")
        expo = tuple(e // 2 for e in t_exp)
        part = tuple(sorted(expo, reverse=True))
        if expo == part:
            out[part] = val
    return out


def _padded_partition(n, mu):
    """mu padded with zeros to n parts; MacdonaldError unless mu is a
    partition with at most n parts."""
    mu = tuple(mu)
    if list(mu) != sorted(mu, reverse=True) or any(k < 0 for k in mu):
        raise MacdonaldError("mu must be a partition")
    if len(mu) > n:
        raise MacdonaldError(f"mu must have at most {n} parts")
    return mu + (0,) * (n - len(mu))


def macdonald_polynomial(n, mu, m):
    """The monic Macdonald polynomial P_mu(q, t=q^(m+1)) as a monomial-basis
    coefficient dict {partition: Scalar}, computed by the triangular
    eigenvalue solve against M_1 and verified against every M_r."""
    mu = _padded_partition(n, mu)
    ctx = quantum_ctx(n)
    d = sum(mu)
    space = [nu for nu in partitions_of(d, n) if dominates(mu, nu)]
    space.sort(key=lambda p: p, reverse=True)  # linear extension of dominance
    m1 = macdonald_operator(n, 1, m)
    # matrix of M_1 on the monomial basis of the dominance ideal
    col = {}
    for nu in space:
        image = m1.apply_scalar(monomial_symmetric(ctx, nu))
        col[nu] = _monomial_expansion(image)
    e1 = macdonald_eigenvalue(n, 1, m, mu)
    coeffs = {mu: ctx.one}
    for nu in space:
        if nu == mu:
            continue
        acc = ctx.zero
        for sigma, c_sigma in coeffs.items():
            acc = acc + c_sigma * col[sigma].get(nu, ctx.zero)
        diag = col[nu].get(nu, ctx.zero)
        denom = e1 - diag
        if denom.is_zero:
            raise MacdonaldError("eigenvalue collision at symbolic q")
        coeffs[nu] = acc / denom
    # verify every eigen-equation exactly
    poly = ctx.zero
    for nu, c in coeffs.items():
        poly = poly + c * monomial_symmetric(ctx, nu)
    for r in range(1, n + 1):
        mr = macdonald_operator(n, r, m)
        lhs = mr.apply_scalar(poly)
        rhs = macdonald_eigenvalue(n, r, m, mu) * poly
        if not (lhs - rhs).is_zero:
            raise MacdonaldError(f"eigen-equation fails for M_{r}")
    return coeffs


def schur_polynomial(n, mu):
    """Bialternant Schur polynomial in x_i = t_i^2 (monomial coefficients)."""
    ctx = quantum_ctx(n)
    mu = _padded_partition(n, mu)

    def det(rows_exp):
        out = ctx.zero
        for sigma in permutations(range(n)):
            # permutation sign by counting inversions
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if sigma[i] > sigma[j])
            sign = -1 if inv % 2 else 1
            term = ctx.from_fraction(sign)
            for i in range(n):
                term = term * ctx.t(i) ** (2 * rows_exp[sigma[i]])
            out = out + term
        return out

    num = det([mu[j] + n - 1 - j for j in range(n)])
    den = det([n - 1 - j for j in range(n)])
    return _monomial_expansion(num / den)


def sl2_reduced_macdonald(m):
    """M_1 for n = 2 reduced to the sl2 coordinate l = lambda_1 - lambda_2:
    coefficients are functions of x_1/x_2 = t^2 and the gl shifts e_1, e_2
    become l -> l +- 1 (all Macdonald coefficients are homogeneous of
    degree zero, so the reduction is exact)."""
    gl_op = macdonald_operator(2, 1, m)
    ctx = quantum_ctx(1)
    out = DiffOp(ctx, 1)
    for nu, mat in gl_op.terms.items():
        c = mat[0, 0].convert(ctx, [ctx.coordinate(0), ctx.one])
        shift = (Fraction(nu[0]) - Fraction(nu[1]),)
        out._add(shift, Mat.identity(1, ctx) * c)
    return out


def delta_q_sl2(ctx):
    """The Weyl denominator (Tr_{M_-rho} q^(2 lambda))^{-1}: expanding the
    geometric series gives q^(2(lambda,rho)) (1 - q^(-2(lambda,alpha))) --
    note the positive rho exponent -- which is t - 1/t in the sl2 coordinate."""
    return ctx.t(0) - 1 / ctx.t(0)


def gamma_m_sl2(ctx, m):
    out = ctx.one
    for i in range(1, m + 1):
        out = out * (ctx.t(0) - ctx.q_power(2 * i) / ctx.t(0))
    return out


def corollary91_check(m):
    """D_{Lambda^r}(q^{-1},-lambda) = delta gamma_m M_r gamma_m^{-1} delta^{-1}
    at the desk scale n = 2, r = 1.

    The identity is an sl_n statement (in gl coordinates both sides differ
    by central q^(c(lambda_1+...+lambda_n)) gauge factors), so it is checked
    in the sl2 coordinate.  Returns (exact, lhs, rhs)."""
    datum = build_type_A(2, "sl")
    vq = vector_rep(datum, quantum=True)
    base = trivial_rep(datum, quantum=True) if m == 0 else sym_power(vq, 2 * m)
    d_op = transfer_diffop(vq, base)
    lhs = d_op.transform_q_inverse_neg_lambda()
    ctx = lhs.ctx
    g = delta_q_sl2(ctx) * gamma_m_sl2(ctx, m)
    rhs = sl2_reduced_macdonald(m).conjugate_by(g)
    return (lhs - rhs).is_zero, lhs, rhs


# -- weighted trace functions for quantum sl2 ---------------------------------


def zeta_expand(x, order):
    """Laurent expansion of a quantum sl2 Scalar at t -> infinity in
    zeta = 1/t: returns (valuation, coefficients as s-only Scalars)."""
    if x.ctx.n != 1:
        raise MacdonaldError("zeta expansion is an sl2 (rank-1) computation")
    num, den = ({-k: v for (k,), v in side.items()} for side in x.lambda_graded())
    return laurent_quotient(num, den, order + 1)


class TraceSeries:
    """q^(2 c (lambda,mu)) times a zeta-Laurent series with mu-rational
    coefficients (zeta = q^(-lambda), sl2 coordinates)."""

    def __init__(self, ctx, mu_exp, val, coeffs):
        self.ctx = ctx          # quantum_ctx(1): s and t = q^mu
        self.mu_exp = Fraction(mu_exp)
        self.val = val
        self.coeffs = list(coeffs)

    def coeff_at(self, k):
        i = k - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero

    def add(self, other):
        if self.mu_exp != other.mu_exp:
            raise MacdonaldError("prefactor mismatch")
        lo = min(self.val, other.val)
        hi = min(self.val + len(self.coeffs), other.val + len(other.coeffs))
        coeffs = [self.coeff_at(k) + other.coeff_at(k) for k in range(lo, hi)]
        return TraceSeries(self.ctx, self.mu_exp, lo, coeffs)

    def sub(self, other):
        return self.add(other.scale(self.ctx.from_fraction(-1)))

    def scale(self, factor):
        return TraceSeries(self.ctx, self.mu_exp, self.val,
                           [c * factor for c in self.coeffs])

    def mul_zeta_series(self, val2, coeffs2):
        n_keep = len(self.coeffs)
        out = [self.ctx.zero] * n_keep
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(coeffs2):
                if i + j < n_keep and not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TraceSeries(self.ctx, self.mu_exp, self.val + val2, out)

    def shift_lambda_by(self, c):
        """lambda -> lambda + c: zeta -> zeta q^{-c}, prefactor gains t^(exp*c)."""
        c = Fraction(c)
        if (self.mu_exp * c).denominator != 1:
            raise MacdonaldError("non-integral prefactor shift")
        tfac = self.ctx.t(0) ** int(self.mu_exp * c)
        out = []
        for i, a in enumerate(self.coeffs):
            k = self.val + i
            out.append(a * tfac * self.ctx.q_power(-c * k))
        return TraceSeries(self.ctx, self.mu_exp, self.val, out)

    def shift_mu_by(self, c):
        """mu -> mu + c: t -> q^c t, prefactor gains zeta^(-exp*c)."""
        c = Fraction(c)
        zshift = self.mu_exp * c
        if zshift.denominator != 1:
            raise MacdonaldError("non-integral mu shift")
        out = [a.shift_lambda([-c]) for a in self.coeffs]
        return TraceSeries(self.ctx, self.mu_exp, self.val - int(zshift), out)

    def is_zero_through(self, k_max):
        for k in range(self.val, k_max + 1):
            if not self.coeff_at(k).is_zero:
                return False
        return True


def sl2_trace_function(depth, module=None):
    """Psi data for the quantum sl2 module (default: the 3-dimensional one).

    Returns (module, diagonal coefficients a_k(mu) for k = 0..depth): the
    trace over the Verma slice is q^(2(lambda,mu)) sum_k a_k zeta^(2k)."""
    datum = build_type_A(2, "sl")
    if module is None:
        v = vector_rep(datum, quantum=True)
        module = sym_power(v, 2)
    zero = (Fraction(0),)
    idx0 = module.weights.index(zero)
    sl = verma_slice(datum, datum.zero_weight, depth, quantum=True)
    phi = solve_intertwiner(sl, module, idx0)
    ctx = sl.ctx
    a = []
    for k in range(depth + 1):
        word = (0,) * k
        vec = apply_coproduct_word(phi, list(word))
        a.append(vec.get((word, idx0), ctx.zero))
    return module, a


def _q_matrix_on_dual(module, depth):
    """Q(mu) restricted to module*, as a matrix over q^mu: the universal
    fusion at argument -mu-rho pushed through m^op (1 (x) S^{-1})."""
    ctx = module.ctx
    coeffs = universal_sl2_fusion(depth, quantum=True)
    arg = ctx.q_power(-1) / ctx.t(0)  # q^(-mu - rho)
    e_mat = module.e(0)
    sf_t = dual(module).f(0)  # S(f)^T, S(f) = -f K^{-1}
    out = Mat.identity(module.dim, ctx)
    e_pow = Mat.identity(module.dim, ctx)
    sf_pow_t = Mat.identity(module.dim, ctx)
    for n, g in enumerate(coeffs):
        if n == 0:
            continue
        e_pow = e_mat * e_pow
        sf_pow_t = sf_pow_t * sf_t
        if e_pow.is_zero:
            break
        # G_n = g_n(arg, h) e^n evaluated on the module, arg = -mu - rho
        out = out + universal_term(g, module, arg, e_pow).transpose() * sf_pow_t
    return out


@lru_cache(maxsize=None)
def f_v_series(depth, order, module=None):
    """F_V(lambda, mu) as a TraceSeries through zeta-order `order`.

    Memoized: Theorems 9.1, 9.2 and 9.3 all read the series of the default
    module, and a TraceSeries is never mutated."""
    module, a = sl2_trace_function(depth, module)
    ctx = quantum_ctx(1)
    # Psi(lambda, -mu-rho): reflect the a_k by rho = 1 of sl2, prefactor
    # becomes q^{-2(lambda,mu)} zeta
    coeffs = [ctx.zero] * (order + 1)
    for k, ak in enumerate(a):
        if 2 * k <= order:
            coeffs[2 * k] = ak.reflect_lambda([1])
    psi = TraceSeries(ctx, -1, 1, coeffs)  # the zeta from q^{-2(lambda,rho)}
    # delta_q(lambda) = q^(2(lambda,rho))(1 - q^(-2(lambda,alpha)))
    #                 = zeta^{-1} (1 - zeta^2)
    delta_val, delta_coeffs = -1, [ctx.one, ctx.zero, ctx.from_fraction(-1)]
    out = psi.mul_zeta_series(delta_val, delta_coeffs)
    # Q^{-1}(mu) on the dual zero-weight line
    qmat = _q_matrix_on_dual(module, min(depth, 2 * len(module.weights)))
    zero = (Fraction(0),)
    i0 = module.weights.index(zero)
    q_scalar = qmat[i0, i0]
    if q_scalar.is_zero:
        raise MacdonaldError("Q is singular on the zero-weight line")
    return module, out.scale(1 / q_scalar)


def mr_residual(depth, order, dual_side=False):
    """Theorem 9.1 (or 9.2) residual through the given zeta order, for the
    3-dimensional quantum sl2 module with W = C^2.

    Both theorems apply the transfer operator D_W of `transfer_diffop`: on
    the zero-weight line of V it acts in lambda (Theorem 9.1), on that of
    V* in mu (Theorem 9.2)."""
    datum = build_type_A(2, "sl")
    w_mod = vector_rep(datum, quantum=True)
    module, f_series = f_v_series(depth, 2 * depth + 2)
    ctx = f_series.ctx
    d_op = transfer_diffop(w_mod, dual(module) if dual_side else module)
    if d_op.dim != 1:
        raise MacdonaldError("base zero-weight space must be one-dimensional")
    terms = []
    for nu, mat in d_op.terms.items():
        if dual_side:
            terms.append(f_series.shift_mu_by(nu[0]).scale(mat[0, 0]))
        else:
            val, coeffs = zeta_expand(mat[0, 0], 2 * depth + 2)
            terms.append(f_series.shift_lambda_by(nu[0]).mul_zeta_series(val, coeffs))
    applied = reduce(TraceSeries.add, terms)
    if dual_side:
        # chi_W(q^{-2 lambda}) = zeta + zeta^{-1}
        rhs = f_series.mul_zeta_series(-1, [ctx.one, ctx.zero, ctx.one])
    else:
        rhs = f_series.scale(ctx.t(0) + 1 / ctx.t(0))
    resid = applied.sub(rhs)
    return resid, resid.is_zero_through(order)


def trace_residuals(depth, order, biorder):
    """Theorems 9.1 and 9.2 through zeta order 2 * order, and Theorem 9.3
    through the bi-order: (9.1 holds, 9.2 holds, symmetry mismatches).

    F_V is truncated at depth, so it is exact through zeta^(2 depth + 1) and,
    as the transfer operators multiply by zeta^(-1), D F_V through
    zeta^(2 depth): the checks are decided for order <= depth and biorder
    <= 2 depth + 1.  Past a bound, or checking nothing, PreconditionError."""
    if depth < 1:
        raise PreconditionError(f"depth {depth} has no trace series; need depth >= 1")
    if min(order, biorder) < 0:
        raise PreconditionError(f"order {order} biorder {biorder} compares no "
                                "coefficient; need both >= 0")
    if order > depth or biorder > 2 * depth + 1:
        raise PreconditionError(f"order {order} biorder {biorder} reads past the depth-{depth} "
                                f"series; need order <= {depth} and biorder <= {2 * depth + 1}")
    _, ok1 = mr_residual(depth, 2 * order)
    _, ok2 = mr_residual(depth, 2 * order, dual_side=True)
    return ok1, ok2, symmetry_residuals(depth, biorder)


def symmetry_residuals(depth, biorder):
    """Theorem 9.3: F_V(lambda,mu) = F*_{V*}(mu,lambda) through bi-order.

    Returns the list of mismatched coefficient positions (empty = pass)."""
    v, f_v = f_v_series(depth, 2 * depth + 2)
    _, f_vd = f_v_series(depth, 2 * depth + 2, dual(v))
    ctx = f_v.ctx
    bad = []
    for i in range(biorder + 1):
        for j in range(biorder + 1):
            lhs = _bi_coefficient(ctx, f_v, i, j, 2 * depth + 2)
            rhs = _bi_coefficient(ctx, f_vd, j, i, 2 * depth + 2)
            if not (lhs - rhs).is_zero:
                bad.append((i, j))
    return bad


def _bi_coefficient(ctx, series, i, j, order):
    """Coefficient of zeta_lambda^i zeta_mu^j after expanding the mu-rational
    coefficient of zeta_lambda^i at t -> infinity."""
    val, coeffs = zeta_expand(series.coeff_at(i), order)
    k = j - val
    if 0 <= k < len(coeffs):
        return coeffs[k]
    return ctx.zero
