"""Finite-dimensional weight modules, classical and quantum.

A WeightModule stores a weight-homogeneous basis together with action
matrices for the simple generators e_i, f_i; the Cartan action is implied by
the weights.  The one quantum convention used throughout the package is

    Delta(e_i) = e_i (x) 1 + K_i^{-1} (x) e_i,
    Delta(f_i) = f_i (x) K_i + 1 (x) f_i,      K acting by q^((alpha_i, wt)),

which is the choice that reproduces the known sl2 fusion/exchange matrices
(see tests); the matching constant vector R-matrix is in `vector_R_matrix`.

Symmetric and exterior powers are carved out of tensor powers as joint
kernels of the pairwise (anti)symmetrizer projectors built from PR, where R
is the constant vector R-matrix (classically R = 1, so PR = P).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from .linalg import Mat, kernel_basis, kron
from .rootdata import weight_add, weight_neg, weight_sub


class ModuleError(Exception):
    pass


class ConventionError(ModuleError):
    """A projector rank or closure check failed: coproduct/R pairing is off."""


class TensorIndex:
    """Flat indexing of an ordered tensor product of factor dimensions."""

    def __init__(self, dims):
        self.dims = list(dims)
        self.size = 1
        for d in self.dims:
            self.size *= d

    def flat(self, multi):
        idx = 0
        for d, k in zip(self.dims, multi):
            idx = idx * d + k
        return idx

    def multi(self, idx):
        out = []
        for d in reversed(self.dims):
            out.append(idx % d)
            idx //= d
        return tuple(reversed(out))


class WeightModule:
    def __init__(self, datum, quantum, labels, weights, e_mats, f_mats,
                 provenance=("other",)):
        self.datum = datum
        self.quantum = quantum
        self.ctx = datum.field(quantum)
        self.labels = list(labels)
        self.weights = [tuple(Fraction(x) for x in w) for w in weights]
        self.dim = len(self.labels)
        self._e = e_mats
        self._f = f_mats
        self.provenance = provenance

    def __repr__(self):
        return f"WeightModule({self.provenance[0]}, dim={self.dim})"

    def e(self, i):
        return self._e[i]

    def f(self, i):
        return self._f[i]

    def k_power(self, i, j, inverse=False):
        """K_i (or K_i^-1) on basis j: q^(+-(alpha_i, wt_j)), 1 classically."""
        x = self.datum.pairing(self.datum.simple_roots[i], self.weights[j])
        return self.ctx.q_power(-x if inverse else x)

    def k_diag(self, i, inverse=False):
        out = Mat(self.dim, self.dim, self.ctx)
        for j in range(self.dim):
            out.set(j, j, self.k_power(i, j, inverse))
        return out

    def weight_blocks(self):
        blocks = {}
        for j, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(j)
        return blocks

    def root_action(self, alpha, negative):
        key = (tuple(alpha), negative)
        cache = getattr(self, "_root_cache", None)
        if cache is None:
            cache = self._root_cache = {}
        if key in cache:
            return cache[key]
        datum = self.datum
        for i, simple in enumerate(datum.simple_roots):
            if tuple(simple) == tuple(alpha):
                out = self.f(i) if negative else self.e(i)
                cache[key] = out
                return out
        return self._root_action_by_height(alpha, negative, cache, key)

    def _root_action_by_height(self, alpha, negative, cache, key):
        datum = self.datum
        # alpha = eps_a - eps_b with b > a + 1: use [E_ac, E_cb] with c = a+1
        coords = list(alpha)
        a = coords.index(Fraction(1))
        b = coords.index(Fraction(-1))
        mid = a + 1
        alpha1 = weight_sub(datum._eps(a), datum._eps(mid))
        alpha2 = weight_sub(datum._eps(mid), datum._eps(b))
        m1 = self.root_action(alpha1, negative)
        m2 = self.root_action(alpha2, negative)
        out = (m1 * m2 - m2 * m1) if not negative else (m2 * m1 - m1 * m2)
        cache[key] = out
        return out


def vector_rep(datum, quantum=False):
    """The n-dimensional defining module (or sl2's C^2)."""
    ctx = datum.field(quantum)
    if datum.sl2_model:
        labels = ["v+", "v-"]
        weights = [(Fraction(1),), (Fraction(-1),)]
    else:
        labels = [f"v{a + 1}" for a in range(datum.n)]
        weights = [datum._eps(a) for a in range(datum.n)]
    e_mats, f_mats = {}, {}
    for i in range(datum.rank):
        e = Mat(len(labels), len(labels), ctx)
        f = Mat(len(labels), len(labels), ctx)
        e.set(i, i + 1, ctx.one)
        f.set(i + 1, i, ctx.one)
        e_mats[i] = e
        f_mats[i] = f
    return WeightModule(datum, quantum, labels, weights, e_mats, f_mats,
                        provenance=("vector",))


def trivial_rep(datum, quantum=False):
    zero = datum.zero_weight
    d = 1
    ctx = datum.field(quantum)
    mats = {i: Mat(d, d, ctx) for i in range(datum.rank)}
    return WeightModule(datum, quantum, ["1"], [zero], dict(mats), dict(mats),
                        provenance=("trivial",))


def tensor(m1, m2):
    """Tensor product module under the fixed coproduct convention."""
    if m1.datum is not m2.datum or m1.quantum != m2.quantum:
        raise ModuleError("tensor factors over different data/flavors")
    datum, ctx = m1.datum, m1.ctx
    labels = [f"{a}(x){b}" for a in m1.labels for b in m2.labels]
    weights = [weight_add(w1, w2) for w1 in m1.weights for w2 in m2.weights]
    one1, one2 = Mat.identity(m1.dim, ctx), Mat.identity(m2.dim, ctx)
    e_mats, f_mats = {}, {}
    for i in range(datum.rank):
        e_mats[i] = kron(m1.e(i), one2) + kron(m1.k_diag(i, inverse=True), m2.e(i))
        f_mats[i] = kron(m1.f(i), m2.k_diag(i)) + kron(one1, m2.f(i))
    return WeightModule(datum, m1.quantum, labels, weights, e_mats, f_mats,
                        provenance=("tensor", m1, m2))


def dual(m):
    """Left dual module: a -> S(a)^T with S(e) = -K e and S(f) = -f K^{-1},
    so a -> -a^T classically (K = 1)."""
    datum = m.datum
    labels = [f"{a}*" for a in m.labels]
    weights = [weight_neg(w) for w in m.weights]
    e_mats, f_mats = {}, {}
    for i in range(datum.rank):
        e_mats[i] = (-(m.k_diag(i) * m.e(i))).transpose()
        f_mats[i] = (-(m.f(i) * m.k_diag(i, inverse=True))).transpose()
    return WeightModule(datum, m.quantum, labels, weights, e_mats, f_mats,
                        provenance=("dual", m))


def hecke_matrix(n, ctx, diag, alpha, beta):
    """The Hecke-type operator on C^n (x) C^n

        diag * sum_a E_aa (x) E_aa
        + sum_{a != b} (alpha(a, b) E_aa (x) E_bb + beta(a, b) E_ba (x) E_ab):

    alpha(a, b) is the entry at v_a (x) v_b, and beta(a, b) is the
    coefficient by which v_a (x) v_b is sent to v_b (x) v_a.  The flat index
    of v_a (x) v_b is a * n + b."""
    out = Mat(n * n, n * n, ctx)
    for a in range(n):
        for b in range(n):
            if a == b:
                out.set(a * n + a, a * n + a, diag)
            else:
                out.set(a * n + b, a * n + b, alpha(a, b))
                out.set(b * n + a, a * n + b, beta(a, b))
    return out


def vector_R_matrix(datum, ctx):
    """Constant R-matrix of the vector representation on V (x) V over ctx.

    q * sum E_aa (x) E_aa + sum_{a != b} E_aa (x) E_bb
    + (q - q^{-1}) * sum_{a < b} E_ab (x) E_ba,  so R = 1 classically (q = 1).
    """
    q = ctx.q_power(1)
    # E_ab (x) E_ba with a < b maps v_b (x) v_a -> v_a (x) v_b
    return hecke_matrix(datum.n, ctx, q, lambda a, b: ctx.one,
                        lambda a, b: q - 1 / q if a > b else ctx.zero)


def permutation_matrix(dim1, dim2, ctx):
    """P: X (x) Y -> Y (x) X on flat indices."""
    src = TensorIndex([dim1, dim2])
    dst = TensorIndex([dim2, dim1])
    out = Mat(dim1 * dim2, dim1 * dim2, ctx)
    for a in range(dim1):
        for b in range(dim2):
            out.set(dst.flat((b, a)), src.flat((a, b)), ctx.one)
    return out


def constant_R(m1, m2):
    """Evaluation of the universal constant R-matrix on m1 (x) m2.

    Supported for modules assembled from vector representations by tensor
    products and sym/ext restrictions (quasitriangularity:
    (Delta (x) 1) R = R_13 R_23 and (1 (x) Delta) R = R_13 R_12).
    """
    ctx = m1.ctx
    k1, k2 = m1.provenance[0], m2.provenance[0]
    if k1 == "trivial" or k2 == "trivial":
        return Mat.identity(m1.dim * m2.dim, ctx)
    if k1 == "dual":
        # (S (x) 1) R = R^{-1}:  R_{A*,B} = (R_{A,B}^{-1})^{T_1}
        base = constant_R(m1.provenance[1], m2)
        return partial_transpose(base.inverse(), m1.dim, m2.dim, 0, ctx)
    if k2 == "dual":
        # (1 (x) S^{-1}) R = R^{-1}:  R_{A,B*} = (R_{A,B}^{T_2})^{-1}
        base = constant_R(m1, m2.provenance[1])
        return partial_transpose(base, m1.dim, m2.dim, 1, ctx).inverse()
    if k1 == "sub":
        parent, embed = m1.provenance[1], m1.provenance[2]
        big = constant_R(parent, m2)
        emb = kron(embed, Mat.identity(m2.dim, ctx))
        return _restrict(big, emb)
    if k2 == "sub":
        parent, embed = m2.provenance[1], m2.provenance[2]
        big = constant_R(m1, parent)
        emb = kron(Mat.identity(m1.dim, ctx), embed)
        return _restrict(big, emb)
    if k1 == "tensor":
        a, b = m1.provenance[1], m1.provenance[2]
        # R_{(A(x)B),C} = R_13 R_23 on A (x) B (x) C
        r13 = place_operator(constant_R(a, m2), [a.dim, b.dim, m2.dim], 0, 2)
        r23 = place_operator(constant_R(b, m2), [a.dim, b.dim, m2.dim], 1, 2)
        return r13 * r23
    if k2 == "tensor":
        a, b = m2.provenance[1], m2.provenance[2]
        # R_{A,(B(x)C)} = R_13 R_12 on A (x) B (x) C
        r13 = place_operator(constant_R(m1, b), [m1.dim, a.dim, b.dim], 0, 2)
        r12 = place_operator(constant_R(m1, a), [m1.dim, a.dim, b.dim], 0, 1)
        return r13 * r12
    if k1 == "vector" and k2 == "vector":
        return vector_R_matrix(m1.datum, ctx)
    raise ModuleError(f"no constant R for provenance {k1}/{k2}")


def partial_transpose(mat, d1, d2, slot, ctx):
    """Transpose one tensor slot of an operator on a two-factor space."""
    idx = TensorIndex([d1, d2])
    out = Mat(mat.nrows, mat.ncols, ctx)
    for (r, c, val) in mat.entries():
        ra, rb = idx.multi(r)
        ca, cb = idx.multi(c)
        if slot == 0:
            out.set(idx.flat((ca, rb)), idx.flat((ra, cb)), val)
        else:
            out.set(idx.flat((ra, cb)), idx.flat((ca, rb)), val)
    return out


def place_operator(r, dims, slot_a, slot_b):
    """The two-slot operator r acting in slots (slot_a, slot_b) of the tensor
    product with factor dimensions dims, and as the identity elsewhere."""
    idx = TensorIndex(dims)
    pair = TensorIndex([dims[slot_a], dims[slot_b]])
    others = [k for k in range(len(dims)) if k not in (slot_a, slot_b)]
    cells = [(pair.multi(rr), pair.multi(cc), v) for rr, cc, v in r.entries()]
    out = Mat(idx.size, idx.size, r.ctx)
    for rest in product(*(range(dims[k]) for k in others)):
        row = [0] * len(dims)
        for k, x in zip(others, rest):
            row[k] = x
        col = list(row)
        for (ra, rb), (ca, cb), v in cells:
            row[slot_a], row[slot_b] = ra, rb
            col[slot_a], col[slot_b] = ca, cb
            out.set(idx.flat(row), idx.flat(col), v)
    return out


def _restrict(big, embed):
    """S with big * embed = embed * S, all columns by one elimination;
    errors if the span is not preserved."""
    try:
        return embed.solve(big * embed)
    except ZeroDivisionError as exc:
        raise ConventionError("operator does not preserve the submodule") from exc


def _power_projector_rows(module, power, anti):
    """Rows of the stacked pairwise operators whose joint kernel is the
    q-(anti)symmetric power inside the tensor power: PR has eigenvalues q
    (symmetric part) and -q^-1 (antisymmetric part), so S^m is the kernel
    of PR - q and Lambda^r that of PR + q^-1 in every adjacent pair."""
    ctx = module.ctx
    n = module.dim
    pr = permutation_matrix(n, n, ctx) * vector_R_matrix(module.datum, ctx)
    killer = pr + Mat.identity(n * n, ctx) * (ctx.q_power(-1) if anti else -ctx.q_power(1))
    dims = [n] * power
    idx = TensorIndex(dims)
    mats = [place_operator(killer, dims, k, k + 1) for k in range(power - 1)]
    return mats, idx


def _power_module(module, power, anti):
    if module.provenance[0] != "vector":
        raise ModuleError("powers are built on the vector representation")
    datum, quantum, ctx = module.datum, module.quantum, module.ctx
    if power == 0:
        return trivial_rep(datum, quantum)
    if power == 1:
        return module
    big = module
    for _ in range(power - 1):
        big = tensor(big, module)
    mats, idx = _power_projector_rows(module, power, anti)
    # joint kernel, weight block by weight block (keeps the basis homogeneous)
    blocks = big.weight_blocks()
    basis_vectors = []
    basis_weights = []
    for w in sorted(blocks, key=lambda t: tuple(map(float, t)), reverse=True):
        cols = blocks[w]
        rows = []
        for m in mats:
            for i in range(idx.size):
                row = [m[i, c] for c in cols]
                if any(not v.is_zero for v in row):
                    rows.append(row)
        if not rows:
            rows = [[ctx.zero] * len(cols)]
        for vec in kernel_basis(ctx, rows, len(cols)):
            full = {cols[k]: v for k, v in enumerate(vec) if not v.is_zero}
            basis_vectors.append(full)
            basis_weights.append(w)
    n = module.dim
    expected = comb(n + power - 1, power) if not anti else comb(n, power)
    if len(basis_vectors) != expected:
        raise ConventionError(
            f"projector rank {len(basis_vectors)} != classical dimension {expected}")
    embed = Mat(big.dim, len(basis_vectors), ctx)
    for col, vec in enumerate(basis_vectors):
        for i, v in vec.items():
            embed.set(i, col, v)
    e_mats, f_mats = {}, {}
    for i in range(datum.rank):
        e_mats[i] = _restrict(big.e(i), embed)
        f_mats[i] = _restrict(big.f(i), embed)
    kind = "ext" if anti else "sym"
    labels = [f"{kind}{power}.{k}" for k in range(len(basis_vectors))]
    sub = WeightModule(datum, quantum, labels, basis_weights, e_mats, f_mats,
                       provenance=("sub", big, embed, f"{kind}^{power}"))
    return sub


def sym_power(module, m):
    """q-symmetric power S^m of the vector representation."""
    return _power_module(module, m, anti=False)


def ext_power(module, r):
    """q-exterior power Lambda^r of the vector representation."""
    return _power_module(module, r, anti=True)


def check_module_relations(m):
    """Defining relations as exact matrix identities; raises on failure.
    [e_i, f_i] acts on basis vector b by [(alpha_i, wt_b)]_q, which is
    (alpha_i, wt_b) classically."""
    datum, ctx = m.datum, m.ctx
    for i in range(datum.rank):
        for j in range(datum.rank):
            comm = m.e(i) * m.f(j) - m.f(j) * m.e(i)
            if i != j:
                if not comm.is_zero:
                    raise ModuleError(f"[e_{i}, f_{j}] != 0")
                continue
            target = Mat(m.dim, m.dim, ctx)
            for b in range(m.dim):
                target.set(b, b, ctx.q_number(datum.pairing(datum.simple_roots[i], m.weights[b])))
            if not (comm - target).is_zero:
                raise ModuleError(f"[e_{i}, f_{i}] relation fails")
    # Serre relations on generators, with [2]_q = q + q^-1 (2 classically)
    two = ctx.q_number(2)
    for i in range(datum.rank):
        for j in range(datum.rank):
            if i == j:
                continue
            aij = datum.pairing(datum.simple_roots[i], datum.simple_roots[j])
            for gen in ("e", "f"):
                x = m.e(i) if gen == "e" else m.f(i)
                y = m.e(j) if gen == "e" else m.f(j)
                if aij == 0:
                    if not (x * y - y * x).is_zero:
                        raise ModuleError("distant Serre relation fails")
                else:
                    lhs = x * x * y - (x * y * x) * two + y * x * x
                    if not lhs.is_zero:
                        raise ModuleError("adjacent Serre relation fails")
    return True
