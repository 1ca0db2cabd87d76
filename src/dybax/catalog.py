"""Constructors for the closed-form solution families.

Classical dynamical r-matrices are stored as tensors over the Lie algebra:
lists of (A, B, coefficient) with A, B concrete matrices and coefficients in
either the rational lambda-field or the exponential symbol field (where
"cotanh" is the rational function (eps/2)(u+1)/(u-1) in the monomial
u_alpha = exp(eps (alpha, lambda))).

Quantum families (R_X, R^eps_X, the gl_n closed forms) are Hecke-type
DynOp matrices on the vector representation, built by `reps.hecke_matrix`.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from .fusion import DynOp
from .linalg import Mat, kernel_basis, rank_of, rref
from .reps import hecke_matrix, vector_rep
from .rootdata import (
    add_tensor,
    build_type_A,
    mat_add,
    mat_bracket,
    weight_add,
    weight_neg,
    weight_scale,
    weight_sub,
)
from .scalars import symbol_ctx


# the zero and one `kernel_basis` fills its vectors with, for rational rows
RATIONALS = SimpleNamespace(zero=Fraction(0), one=Fraction(1))


class CatalogError(Exception):
    pass


class InvalidSubalgebraError(CatalogError):
    pass


class InvalidTripleError(CatalogError):
    pass


class ClassicalRMatrix:
    """A lambda-dependent element of g (x) g with declared coupling.

    w_eps records which coupling value the exponential symbols w_a carry
    (the symbol e for the generic trigonometric families, 1 for the
    Appendix-A family); the CDYBE derivation needs it.
    """

    def __init__(self, datum, ctx, terms, coupling, w_eps=None, name="r",
                 cartan_pairs=None):
        self.datum = datum
        self.ctx = ctx
        self.terms = [(a, b, ctx(c)) for (a, b, c) in terms]
        self.coupling = ctx(coupling)
        self.w_eps = w_eps
        self.name = name
        # (h element, lambda-coordinate) pairs realizing the invariant tensor
        # sum_i x_i (x) d/dx^i; r-matrices on l* != h* carry their own list
        self._cartan_pairs = cartan_pairs

    def cartan_pairs(self):
        if self._cartan_pairs is not None:
            return self._cartan_pairs
        return self.datum.cartan_pairs()

    def as_tensor(self):
        """Collect into {(E-index pair, E-index pair): Scalar}."""
        out = {}
        for (a, b, c) in self.terms:
            add_tensor(out, c, a, b)
        return {k: v for k, v in out.items() if not v.is_zero}

    def evaluate(self, m1, m2):
        """The matrix on V (x) V, over self.ctx, for V the classical vector
        representation, where each g-element is its own matrix: the
        coefficient of E_ij (x) E_kl in `as_tensor` is the entry at
        (v_i (x) v_k, v_j (x) v_l)."""
        for m in (m1, m2):
            if m.provenance[0] != "vector" or m.quantum:
                raise CatalogError(f"{m!r} is not the classical vector representation")
        n = m1.dim
        out = Mat(n * n, n * n, self.ctx)
        for ((i, j), (k, l)), c in self.as_tensor().items():
            out.set(i * n + k, j * n + l, c)
        return DynOp([m1, m2], out)


def wedge(x, y, c):
    """The terms of c * (x (x) y - y (x) x)."""
    return [(x, y, c), (y, x, -c)]


def _root_wedge(datum, alpha, c):
    """The terms of c * (e_alpha (x) e_-alpha - e_-alpha (x) e_alpha)."""
    return wedge(datum.root_vector(alpha), datum.root_vector(alpha, negative=True), c)


def _exp_monomial(ctx, kappas, error):
    """prod_a w_a^(-2 kappa_a) in the w-symbols of ctx; raises `error`
    unless every exponent is an integer."""
    out = ctx.one
    for a, kappa in enumerate(kappas):
        k2 = -2 * kappa
        if k2.denominator != 1:
            raise error
        if k2:
            out = out * ctx.w(a) ** int(k2)
    return out


def u_alpha(ctx, datum, alpha):
    """The monomial exp(eps*(alpha, lambda)) in the w-symbols."""
    return _exp_monomial(ctx, datum.form_dual(alpha),
                         CatalogError("non-integral exponential monomial"))


def _rational_r(datum, roots, name):
    """The zero-coupling r-matrix sum_alpha (e_a wedge e_-a)/(lambda, alpha)
    over the given positive roots, in their order."""
    ctx = datum.field(quantum=False)
    terms = []
    for alpha in roots:
        terms += _root_wedge(datum, alpha, 1 / datum.lambda_pairing(ctx, alpha))
    return ClassicalRMatrix(datum, ctx, terms, 0, name=name)


def basic_rational_r(datum):
    """r(lambda) = sum_{alpha>0} (e_a (x) e_-a - e_-a (x) e_a)/(lambda, alpha)."""
    return _rational_r(datum, datum.positive_roots, "basic-rational")


def basic_trig_r(datum):
    """(eps/2) Omega + sum (eps/2) cotanh((eps/2)(alpha,lambda)) e wedge f."""
    return classical_r_trig_X(datum, list(range(datum.rank)), name="basic-trig")


def classical_r_zero_coupling(datum, roots):
    """r^l for the reductive subalgebra spanned by h and the given positive
    roots (must be root-closed)."""
    positive = set(datum.positive_roots)
    chosen = []
    for r in roots:
        t = tuple(Fraction(x) for x in r)
        if t not in positive:
            why = (f"has {len(t)} entries, not {datum.n_coords}"
                   if len(t) != datum.n_coords else "is not a positive root")
            raise InvalidSubalgebraError(f"root ({','.join(map(str, t))}) {why}")
        chosen.append(t)
    chosen_set = set(chosen)
    for a in chosen:
        for b in chosen:
            for s1 in (1, -1):
                for s2 in (1, -1):
                    w = weight_add(weight_scale(a, s1), weight_scale(b, s2))
                    root = w if w in positive else weight_neg(w)
                    if root in positive and root not in chosen_set:
                        raise InvalidSubalgebraError(
                            "root set is not closed under addition")
    return _rational_r(datum, chosen, "r-l")


def _support(datum, alpha):
    """The simple roots, by index, that alpha has a nonzero coefficient on."""
    return [i for i, c in enumerate(datum.simple_coefficients(alpha)) if c]


def classical_r_trig_X(datum, x_indices, eps=None, name="r-eps-X"):
    """The Theorem-4.2 family r^eps_X over the exponential symbol field."""
    ctx = symbol_ctx(datum.n_coords)
    eps_s = ctx.eps if eps is None else ctx(eps)
    w_eps = None if eps is None else Fraction(eps)
    terms = [(a, b, eps_s * c / 2) for (a, b, c) in datum.casimir()]
    half = eps_s / 2
    for alpha in datum.positive_roots:
        if set(_support(datum, alpha)) <= set(x_indices):
            # phi_alpha = (eps/2) cotanh((eps/2)(lambda,alpha)); u carries
            # the same eps the w-symbols do
            u = u_alpha(ctx, datum, alpha)
            phi = half * (u + 1) / (u - 1)
        else:
            phi = half
        terms += _root_wedge(datum, alpha, phi)
    return ClassicalRMatrix(datum, ctx, terms, eps_s, w_eps=w_eps, name=name)


class BDTriple:
    """Generalized Belavin-Drinfeld triple with an l subalgebra of h."""

    def __init__(self, datum, gamma1, gamma2, tau, l_basis):
        self.datum = datum
        self.gamma1 = list(gamma1)
        self.gamma2 = list(gamma2)
        self.tau = dict(tau)
        self.l_basis = [tuple(Fraction(x) for x in v) for v in l_basis]
        for v in self.l_basis:
            if len(v) != datum.n_coords:
                raise InvalidTripleError(
                    f"l-basis vector ({','.join(map(str, v))}) has {len(v)} entries, "
                    f"not {datum.n_coords}")
        if sorted(self.tau) != sorted(self.gamma1) or \
                sorted(self.tau.values()) != sorted(self.gamma2):
            raise InvalidTripleError("tau must be a bijection Gamma1 -> Gamma2")
        # norm/angle preservation on the simple roots
        for i in self.gamma1:
            for j in self.gamma1:
                a = datum.pairing(datum.simple_roots[i], datum.simple_roots[j])
                b = datum.pairing(datum.simple_roots[self.tau[i]],
                                  datum.simple_roots[self.tau[j]])
                if a != b:
                    raise InvalidTripleError("tau is not norm-preserving")
        self._check_admissibility()

    def _check_admissibility(self):
        datum = self.datum
        for i in self.gamma1:
            diff = weight_sub(datum.simple_roots[self.tau[i]],
                              datum.simple_roots[i])
            for x in self.l_basis:
                if datum.pairing(diff, x) != 0:
                    raise InvalidTripleError(
                        "tau(alpha) - alpha is not orthogonal to l")
        # cycle sums must lie in l (span check over Q)
        for i in self.gamma1:
            cyc = [i]
            j = self.tau.get(i)
            while j is not None and j != i and j in self.tau:
                cyc.append(j)
                j = self.tau.get(j)
            if j == i:
                total = self.datum.zero_weight
                for k in cyc:
                    total = weight_add(total, datum.simple_roots[k])
                if not _in_span(total, self.l_basis):
                    raise InvalidTripleError("cycle sum not contained in l")

    def tau_on_root(self, alpha):
        """Extend tau linearly to roots supported on Gamma1; None if the
        image leaves Gamma2's span or the source leaves Gamma1's."""
        datum = self.datum
        out = datum.zero_weight
        for i, c in enumerate(datum.simple_coefficients(alpha)):
            if c == 0:
                continue
            if i not in self.tau:
                return None
            out = weight_add(out, weight_scale(datum.simple_roots[self.tau[i]], c))
        return out

    def tau_on_vector(self, alpha):
        """tau(e_alpha) with signs from iterated brackets of simple vectors."""
        datum = self.datum
        support = _support(datum, alpha)
        if any(i not in self.tau for i in support):
            return None, None
        target = self.tau_on_root(alpha)
        ht = datum.root_height(alpha)
        if ht == 1:
            i = support[0]
            return datum.root_vector(datum.simple_roots[self.tau[i]]), target
        # alpha = alpha_i + beta with e_alpha = [e_i, e_beta] (type A: the
        # bracket is a unit multiple of the root vector)
        positive = set(datum.positive_roots)
        for i in support:
            beta = weight_sub(alpha, datum.simple_roots[i])
            if beta not in positive:
                continue
            e_i = datum.root_vector(datum.simple_roots[i])
            e_b = datum.root_vector(beta)
            br = mat_bracket(e_i, e_b)
            scale = _proportionality(br, datum.root_vector(alpha))
            ti, _ = self.tau_on_vector(datum.simple_roots[i])
            tb, _ = self.tau_on_vector(beta)
            if ti is None or tb is None:
                return None, None
            img = mat_bracket(ti, tb)
            img = {k: v / scale for k, v in img.items()}
            return img, target
        raise InvalidTripleError("cannot decompose root for tau extension")


def _proportionality(x, y):
    """x = c*y for matrices; returns c."""
    for k, v in y.items():
        if k in x:
            return Fraction(x[k]) / Fraction(v)
    raise CatalogError("matrices not proportional")


def _in_span(vec, basis):
    rows = [list(map(Fraction, b)) for b in basis]
    ncols = len(vec)
    return rank_of(rows + [list(map(Fraction, vec))], ncols) == rank_of(rows, ncols)


def _orthocomplement(datum, l_basis):
    """Rational basis of l^perp inside h (epsilon coordinates)."""
    rows = [[Fraction(x) for x in v] for v in l_basis]
    return [tuple(v) for v in kernel_basis(RATIONALS, rows, datum.n_coords)]


def _inverse_gram(datum, vectors):
    """Inverse Gram matrix of rational weight vectors under the invariant
    form; ZeroDivisionError if they are linearly dependent."""
    d = len(vectors)
    rows = []
    for i, a in enumerate(vectors):
        row = {j: g for j, b in enumerate(vectors) if (g := datum.pairing(a, b))}
        row[d + i] = Fraction(1)
        rows.append(row)
    pivots, _ = rref(rows, d)
    if len(pivots) < d:
        raise ZeroDivisionError("singular Gram matrix")
    return [[row.get(d + j, Fraction(0)) for j in range(d)] for _, row in pivots]


def appendixA_r(triple):
    """The Theorem-A r-matrix for an admissible generalized BD triple.

    The matrix is a function on l*, so it is built in l-coordinates: for an
    integral basis b_1..b_d of l, lambda = sum u_j b_j and the symbols are
    w_j = exp(-u_j/2) (coupling constant 1, so eps = 1 is baked into the
    exponentials); exp(-n(alpha,lambda)) is then the exact monomial
    prod_j w_j^(2n (alpha,b_j)).  On tau-cycles the geometric series
    K(lambda) closes to u^{-j}/(1 - u^{-r}).
    """
    datum = triple.datum
    l_basis = triple.l_basis
    dim_l = len(l_basis)
    if dim_l == 0:
        raise InvalidTripleError("l must be nonzero (constant r-matrices are "
                                 "out of scope)")
    try:
        ginv = _inverse_gram(datum, l_basis)
    except ZeroDivisionError:
        raise InvalidTripleError("the form restricted to l is degenerate") from None
    ctx = symbol_ctx(dim_l)
    cartan_pairs = []
    for j in range(dim_l):
        coords = tuple(sum(ginv[j][i] * l_basis[i][a] for i in range(dim_l))
                       for a in range(datum.n_coords))
        cartan_pairs.append((_cartan_element(datum, coords), j))
    terms = [(a, b, c / 2) for (a, b, c) in datum.casimir()]
    # + 1/2 sum e_alpha wedge f_alpha
    for alpha in datum.positive_roots:
        terms += _root_wedge(datum, alpha, Fraction(1, 2))
    # + sum_{alpha > 0, e_alpha in g_Gamma1} K(lambda) e_alpha wedge f_alpha
    for alpha in datum.positive_roots:
        support = _support(datum, alpha)
        if not support or any(i not in triple.tau for i in support):
            continue
        e_m = datum.root_vector(alpha, negative=True)
        u = _exp_monomial(ctx, [datum.pairing(alpha, b) for b in l_basis],
                          InvalidTripleError("non-integral exponential monomial on l"))
        # walk tau^n(e_alpha), accumulating the scalar by which tau acts on
        # root vectors; a return to alpha closes a cycle of length n
        contributions = []
        cycle_len = None
        cur_alpha = tuple(alpha)
        scale = Fraction(1)
        n = 1
        while True:
            img_vec, img_root = triple.tau_on_vector(cur_alpha)
            if img_vec is None:
                break
            step = _proportionality(img_vec, datum.root_vector(img_root))
            scale *= step
            contributions.append((n, datum.root_vector(img_root), scale))
            if tuple(img_root) == tuple(alpha):
                cycle_len = n
                if scale != 1:
                    raise InvalidTripleError("tau cycle with nonunit monodromy")
                break
            cur_alpha = tuple(img_root)
            n += 1
            if n > 4 * len(datum.positive_roots) + 4:
                raise InvalidTripleError("tau orbit failed to terminate")
        if not contributions:
            continue
        geo = ctx.one if cycle_len is None else 1 / (1 - u ** -cycle_len)
        for (k, img_vec, sc) in contributions:
            terms += wedge(img_vec, e_m, (u ** -k) * geo * sc)
    # + r_0 from the linear equation on Lambda^2 h_0
    terms += _solve_r0(triple, ctx)
    return ClassicalRMatrix(datum, ctx, terms, 1, w_eps=Fraction(1), name="appA",
                            cartan_pairs=cartan_pairs)


def _solve_r0(triple, ctx):
    datum = triple.datum
    h0 = _orthocomplement(datum, triple.l_basis)
    d = len(h0)
    if d == 0 or not triple.gamma1:
        return []
    ginv = _inverse_gram(datum, h0)
    unknowns = [(i, j) for i in range(d) for j in range(i + 1, d)]
    nvars = len(unknowns)
    rows = []
    for isimp in triple.gamma1:
        alpha = datum.simple_roots[isimp]
        talpha = datum.simple_roots[triple.tau[isimp]]
        amta = weight_sub(alpha, talpha)
        apta = weight_add(alpha, talpha)
        # (alpha (x) 1 + 1 (x) tau alpha)(r0 + Omega_h0 / 2) = 0, the sign that
        # goes with the tau-terms e_(tau^k alpha) ^ e_-alpha above, that is
        # ((alpha - tau alpha) (x) 1) r0 = -1/2 ((tau alpha + alpha) (x) 1) Omega_h0
        # rhs vector: -1/2 proj_{h0} of t_(alpha+tau alpha)
        pair_a = [datum.pairing(apta, b) for b in h0]
        rhs_vec = [Fraction(-1, 2) * sum(ginv[k][i] * pair_a[k] for k in range(d))
                   for i in range(d)]
        pair_m = [datum.pairing(amta, b) for b in h0]
        for comp in range(d):
            row = {}
            for k, (i, j) in enumerate(unknowns):
                coeff = Fraction(0)
                if j == comp:
                    coeff += pair_m[i]
                if i == comp:
                    coeff -= pair_m[j]
                if coeff:
                    row[k] = coeff
            if rhs_vec[comp]:
                row[nvars] = rhs_vec[comp]
            rows.append(row)
    # a particular solution, free unknowns set to zero
    pivots, rest = rref(rows, nvars)
    if rest:
        raise InvalidTripleError("r0 equation is inconsistent")
    sol = {k: row.get(nvars) for k, row in pivots}
    out = []
    for k, (i, j) in enumerate(unknowns):
        c = sol.get(k)
        if not c:
            continue
        out += wedge(_cartan_element(datum, h0[i]), _cartan_element(datum, h0[j]),
                     Fraction(c))
    return out


def _cartan_element(datum, mu):
    """The element t_mu of h with (t_mu, x) = mu(x): sum_a (G mu)_a h_a over
    `RootDatum.cartan_pairs`."""
    out, dual = {}, datum.form_dual(mu)
    for h, a in datum.cartan_pairs():
        out = mat_add(out, h, dual[a])
    return out


# -- quantum families --------------------------------------------------------


def _runs(x_set):
    """Each 0-based index of the 1-based set x_set, mapped to the first
    member of its run of consecutive indices."""
    run_of = {}
    for k in sorted(set(x_set)):
        run_of[k - 1] = run_of.get(k - 2, k)
    return run_of


def quantum_R_X(n, x_set):
    """Theorem 6.1: the q=1 family on C^n (x) C^n (rational coefficients)."""
    datum = build_type_A(n, "gl")
    v = vector_rep(datum)
    ctx = v.ctx
    run_of = _runs(x_set)

    def beta(a, b):
        if a in run_of and run_of[a] == run_of.get(b):
            return 1 / (ctx.lam(a) - ctx.lam(b))
        return ctx.zero

    return DynOp([v, v], hecke_matrix(n, ctx, ctx.one,
                                      lambda a, b: ctx.one + beta(a, b), beta))


def quantum_R_eps_X(n, x_set):
    """Theorem 6.2: the q = e^eps family, with q kept as the symbol s^2."""
    datum = build_type_A(n, "gl")
    v = vector_rep(datum, quantum=True)
    ctx = v.ctx
    q = ctx.q_power(1)
    run_of = _runs(x_set)

    # beta_ab multiplies v_a (x) v_b -> v_b (x) v_a: the reading consistent
    # with the q = 1 family (beta_ab -> 1/(l_a - l_b)) and the only one
    # satisfying the QDYBE; the displayed E_ab (x) E_ba order is transposed
    def beta(a, b):
        if a in run_of and run_of[a] == run_of.get(b):
            return (q - 1) / (ctx.t(a) / ctx.t(b) - 1)
        if a > b:
            return 1 - q
        return ctx.zero

    return DynOp([v, v], hecke_matrix(n, ctx, ctx.one,
                                      lambda a, b: q + beta(a, b), beta))


def glN_closed_forms(n, quantum=False):
    """Theorem 6.3: the closed-form fusion and exchange matrices on C^n.

    Both are of Hecke type with one off-diagonal coefficient c(a, b): J
    sends v_a (x) v_b to c(a, b) v_b (x) v_a for a < b, and R sends it to
    c(b, a) v_b (x) v_a; `lower(a, b)` is R's entry at v_a (x) v_b, a > b."""
    datum = build_type_A(n, "gl")
    v = vector_rep(datum, quantum)
    ctx = v.ctx
    # Two spots below deviate from the displayed Theorem: the classical a > b
    # diagonal sign and the quantum off-diagonal factor order are fixed to the
    # construction-consistent reading (the displayed signs contradict the
    # worked 2x2 example and the q=1 involutivity R R^21 = 1).
    if not quantum:
        diag = ctx.one

        def x(a, b):
            return ctx.lam(b) - ctx.lam(a) + (a + 1) - (b + 1)

        def c(a, b):
            return 1 / x(a, b)

        def lower(a, b):
            y = x(a, b)
            return (y - 1) * (y + 1) / y ** 2
    else:
        q = diag = ctx.q_power(1)

        def qpow2(a, b):
            # q^(2(lambda_a - lambda_b + (b+1) - (a+1)))
            return (ctx.t(a) / ctx.t(b)) ** 2 * ctx.q_power(2 * (b - a))

        def c(a, b):
            return (1 / q - q) / (qpow2(a, b) - 1)

        def lower(a, b):
            y = qpow2(b, a)
            return (y - q ** -2) * (y - q ** 2) / (y - 1) ** 2

    jm = hecke_matrix(n, ctx, ctx.one, lambda a, b: ctx.one,
                      lambda a, b: c(a, b) if a < b else ctx.zero)
    rm = hecke_matrix(n, ctx, diag, lambda a, b: ctx.one if a < b else lower(a, b),
                      lambda a, b: c(b, a))
    return DynOp([v, v], jm), DynOp([v, v], rm)
