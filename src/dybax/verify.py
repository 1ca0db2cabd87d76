"""Exact residual checks: QDYBE, CDYBE, Hecke, unitarity, cocycle, gauge
closure, and the dynamical Hecke/braid representation.

Every check returns a ResidualReport whose exact_zero flag is true iff the
residual vanishes identically in the coefficient field; on failure the
first offending entry is recorded as a witness.  Nothing here is numeric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .catalog import ClassicalRMatrix, quantum_R_X, quantum_R_eps_X, wedge
from .fusion import DynOp, fusion_exchange_construction, place_in_slots
from .linalg import Mat
from .reps import TensorIndex, permutation_matrix, tensor
from .rootdata import add_tensor, mat_bracket


class VerifyError(Exception):
    pass


class PreconditionError(VerifyError):
    pass


class InvalidGaugeError(VerifyError):
    pass


@dataclass
class ResidualReport:
    """The outcome of one exact check.

    entries_checked counts what each check walks: the nonzero residual
    entries for qdybe, hecke and cocycle (so 0 on a pass), the touched
    g (x) g (x) g (or g (x) g) keys for cdybe and unitarity, and the
    relations for dynamical-hecke."""

    equation: str
    operands: str
    exact_zero: bool
    witness: Optional[Tuple] = None
    entries_checked: int = 0

    def to_dict(self):
        out = {
            "equation": self.equation,
            "operands": self.operands,
            "exact_zero": self.exact_zero,
            "entries_checked": self.entries_checked,
        }
        if self.witness is not None:
            out["witness"] = {"index": list(self.witness[0]),
                              "value": self.witness[1]}
        return out


def _report(equation, operands, pairs):
    """A report over sorted (key, value) pairs: every pair counts as checked,
    and the first nonzero value is the witness."""
    witness = None
    count = 0
    for key, v in pairs:
        count += 1
        if not v.is_zero and witness is None:
            witness = (key, v.to_text())
    return ResidualReport(equation, operands, witness is None, witness, count)


def _matrix_pairs(mat, idx):
    """The stored entries of mat in index order, keyed by multi-indices."""
    return (((idx.multi(r), idx.multi(c)), v) for (r, c, v) in sorted(mat.entries()))


def qdybe_residual(rop, name="R"):
    """R12(l-h3) R13 R23(l-h1) - R23 R13(l-h2) R12 on V (x) V (x) V."""
    if len(rop.factors) != 2:
        raise PreconditionError("QDYBE needs a two-factor operator")
    if not rop.is_weight_zero():
        raise PreconditionError("QDYBE needs a weight-zero operator")
    v, w = rop.factors
    if v is not w and v.dim != w.dim:
        raise PreconditionError("QDYBE is stated on V (x) V")
    factors = [v, v, v]
    r12 = place_in_slots(rop, factors, 0, 1)
    r13 = place_in_slots(rop, factors, 0, 2)
    r23 = place_in_slots(rop, factors, 1, 2)
    lhs = r12.shifted(2) * r13 * r23.shifted(0)
    rhs = r23 * r13.shifted(1) * r12
    diff = lhs.mat - rhs.mat
    idx = TensorIndex([v.dim, v.dim, v.dim])
    return _report("qdybe", name, _matrix_pairs(diff, idx))


def cdybe_residual(rmat):
    """The classical dynamical Yang-Baxter residual of a g (x) g tensor.

    Alt(sum_j h_j (x) d/dl_j applied to r) + [r12,r13]+[r12,r23]+[r13,r23],
    expanded over the elementary-matrix basis of g (x) g (x) g.
    """
    acc = {}
    # derivative part (r-matrices defined on l* carry their own pairs)
    for (h, coord) in rmat.cartan_pairs():
        for (a, b, c) in rmat.terms:
            dc = c.diff_lambda(coord, eps=rmat.w_eps)
            add_tensor(acc, dc, h, a, b)            # x^(1) d r^23
            add_tensor(acc, -dc, a, h, b)           # -x^(2) d r^13
            add_tensor(acc, dc, a, b, h)            # +x^(3) d r^12
    # commutator part
    terms = rmat.terms
    for (a1, b1, c1) in terms:
        for (a2, b2, c2) in terms:
            cc = c1 * c2
            add_tensor(acc, cc, mat_bracket(a1, a2), b1, b2)   # [r12, r13]
            add_tensor(acc, cc, a1, mat_bracket(b1, a2), b2)   # [r12, r23]
            add_tensor(acc, cc, a1, a2, mat_bracket(b1, b2))   # [r13, r23]
    return _report("cdybe", rmat.name, sorted(acc.items()))


def hecke_check(rop, q, name="R"):
    """PR has eigenvalue 1 on V_a (x) V_a and eigenvalues 1, -q on the mixed
    weight blocks: (PR - 1) kills the diagonal blocks and (PR-1)(PR+q) = 0."""
    v = rop.factors[0]
    ctx = rop.ctx
    n = v.dim
    idx = TensorIndex([n, n])
    pr = DynOp([v, v], permutation_matrix(n, n, ctx) * rop.mat)
    ident = Mat.identity(n * n, ctx)
    m1 = pr.mat - ident
    diagonal = _report("hecke", name, ((key, v) for key, v in _matrix_pairs(m1, idx)
                                       if key[1][0] == key[1][1]))
    if not diagonal.exact_zero:
        return diagonal
    quad = m1 * (pr.mat + ident * q)
    return _report("hecke", name, _matrix_pairs(quad, idx))


def family_cases(n_max):
    """Every case (family, n, X) of `family_check` for n = 2..n_max: for
    each n the subsets X by bitmask, each with R_X and then R^eps_X."""
    return [(family, n, [i + 1 for i in range(n) if mask >> i & 1])
            for n in range(2, n_max + 1) for mask in range(1 << n)
            for family in ("R-X", "R-eps-X")]


def family_check(case):
    """QDYBE and Hecke for one case (family, n, X) of R_X ("R-X") or
    R^eps_X ("R-eps-X"), X a 1-based subset of 1..n: True iff both hold."""
    family, n, subset = case
    op = (quantum_R_X if family == "R-X" else quantum_R_eps_X)(n, subset)
    return qdybe_residual(op).exact_zero and hecke_check(op, op.ctx.q_power(1)).exact_zero


def unitarity_check(rmat, eps=None):
    """r + r^21 = eps * Omega as an exact g (x) g tensor identity."""
    ctx = rmat.ctx
    eps = rmat.coupling if eps is None else ctx(eps)
    acc = {}
    for (a, b, c) in rmat.terms:
        add_tensor(acc, c, a, b)
        add_tensor(acc, c, b, a)
    for (a, b, c) in rmat.datum.casimir():
        add_tensor(acc, -eps * Fraction(c), a, b)
    return _report("unitarity", rmat.name, sorted(acc.items()))


def cocycle_residual(u, w, v):
    """J_{U(x)W,V} (J_{UW}(l-h3) (x) 1) = J_{U,W(x)V} (1 (x) J_{WV})."""
    uw = tensor(u, w)
    wv = tensor(w, v)
    factors = [u, w, v]
    j_uw_v = fusion_exchange_construction(uw, v)   # on (U (x) W) (x) V: same flat space
    j_uw = fusion_exchange_construction(u, w)
    j_u_wv = fusion_exchange_construction(u, wv)
    j_wv = fusion_exchange_construction(w, v)
    left = DynOp(factors, j_uw_v.mat) * place_in_slots(j_uw, factors, 0, 1).shifted(2)
    right = DynOp(factors, j_u_wv.mat) * place_in_slots(j_wv, factors, 1, 2)
    diff = left.mat - right.mat
    idx = TensorIndex([u.dim, w.dim, v.dim])
    return _report("cocycle", "J", _matrix_pairs(diff, idx))


# -- gauge transformations ---------------------------------------------------


def gauge_classical(rmat, kind, data):
    """The Section-4.1 moves on classical dynamical r-matrices."""
    datum, ctx = rmat.datum, rmat.ctx
    if kind == 1:
        coeffs = {tuple(k): ctx(val) for k, val in data.items()}
        _check_closed_2form(ctx, datum, coeffs, rmat.w_eps)
        terms = list(rmat.terms)
        pairs = datum.cartan_pairs()
        for (i, j), c in coeffs.items():
            terms += wedge(pairs[i][0], pairs[j][0], c)
        return ClassicalRMatrix(datum, ctx, terms, rmat.coupling, rmat.w_eps,
                                rmat.name + "+2form")
    if kind == 2:
        nu = [Fraction(x) for x in data]
        terms = [(a, b, c.shift_lambda(nu)) for (a, b, c) in rmat.terms]
        return ClassicalRMatrix(datum, ctx, terms, rmat.coupling, rmat.w_eps,
                                rmat.name + "+shift")
    if kind == 3:
        sigma = list(data)
        terms = [(_conjugate_by_permutation(a, sigma), _conjugate_by_permutation(b, sigma),
                  c.permute_lambda(sigma)) for (a, b, c) in rmat.terms]
        return ClassicalRMatrix(datum, ctx, terms, rmat.coupling, rmat.w_eps,
                                rmat.name + "+weyl")
    raise InvalidGaugeError(f"unknown classical gauge kind {kind}")


def _check_closed_2form(ctx, datum, coeffs, w_eps):
    n = datum.n_coords

    def get(i, j):
        if (i, j) in coeffs:
            return coeffs[(i, j)]
        if (j, i) in coeffs:
            return -coeffs[(j, i)]
        return ctx.zero

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                diff = (get(i, j).diff_lambda(k, eps=w_eps)
                        - get(i, k).diff_lambda(j, eps=w_eps)
                        + get(j, k).diff_lambda(i, eps=w_eps))
                if not diff.is_zero:
                    raise InvalidGaugeError("2-form is not closed")


def _conjugate_by_permutation(x, sigma):
    return {(sigma[a], sigma[b]): v for (a, b), v in x.items()}


def gauge_quantum(rop, kind, data):
    """The Section-6.2 moves on quantum dynamical R-matrices of Hecke form."""
    v = rop.factors[0]
    ctx = rop.ctx
    n = v.dim
    idx = TensorIndex([n, n])
    if kind == 1:
        phi = {k: ctx(val) for k, val in data.items()}
        _check_multiplicative_2form(ctx, v, phi)
        out = rop.mat.copy()
        for a in range(n):
            for b in range(n):
                if a != b:
                    k = idx.flat((a, b))
                    out.set(k, k, out[k, k] * _phi_get(ctx, phi, a, b))
        return DynOp([v, v], out)
    if kind == 2:
        nu = [Fraction(x) for x in data]
        return rop.shift_all(nu)
    if kind == 3:
        sigma = list(data)
        out = Mat(rop.dim, rop.dim, ctx)
        for (r, c, val) in rop.mat.entries():
            ra, rb = idx.multi(r)
            ca, cb = idx.multi(c)
            out.set(idx.flat((sigma[ra], sigma[rb])),
                    idx.flat((sigma[ca], sigma[cb])), val.permute_lambda(sigma))
        return DynOp([v, v], out)
    raise InvalidGaugeError(f"unknown quantum gauge kind {kind}")


def _phi_get(ctx, phi, a, b):
    if (a, b) in phi:
        return phi[(a, b)]
    if (b, a) in phi:
        return 1 / phi[(b, a)]
    return ctx.one


def _check_multiplicative_2form(ctx, v, phi):
    n = v.dim
    eps_a = [v.weights[a] for a in range(n)]
    for a in range(n):
        for b in range(n):
            pab = _phi_get(ctx, phi, a, b)
            pba = _phi_get(ctx, phi, b, a)
            if not (pab * pba - 1).is_zero:
                raise InvalidGaugeError("phi_ab phi_ba != 1")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                pab = _phi_get(ctx, phi, a, b)
                pbc = _phi_get(ctx, phi, b, c)
                pca = _phi_get(ctx, phi, c, a)
                lhs = (pab / pab.shift_lambda(eps_a[c])) \
                    * (pbc / pbc.shift_lambda(eps_a[a])) \
                    * (pca / pca.shift_lambda(eps_a[b]))
                if not (lhs - 1).is_zero:
                    raise InvalidGaugeError("multiplicative 2-form not closed")


# -- dynamical Hecke / braid representation ----------------------------------


def dynamical_hecke_rep(rop, p, q, name="R"):
    """Check operators R-hat_i = P R in slots (i, i+1), argument shifted by
    the weights of the earlier slots (lambda - sum_{k<i} h^(k)), on V^(x p).

    With the P-then-R composition this is the convention whose p = 3 braid
    relation is literally the QDYBE (shifting by the later slots gives the
    reversed-product equation instead).  Returns (operators, report): the
    report asserts braid relations, locality, and the quadratic Hecke
    relation per generator, exactly.
    """
    if p < 2:
        raise PreconditionError(f"p = {p} tensor slots carry no Hecke relation; need p >= 2")
    v = rop.factors[0]
    ctx = rop.ctx
    factors = [v] * p
    ops = []
    for i in range(p - 1):
        placed = place_in_slots(rop, factors, i, i + 1)
        for k in range(i):
            placed = placed.shifted(k)
        pmat = place_in_slots(
            DynOp([v, v], permutation_matrix(v.dim, v.dim, ctx)), factors, i, i + 1)
        ops.append(DynOp(factors, pmat.mat * placed.mat))
    ident = Mat.identity(ops[0].dim, ctx)
    idx = TensorIndex([v.dim] * p)

    def relations():
        for i, op in enumerate(ops):
            quad = (op.mat - ident) * (op.mat + ident * q)
            yield _relation_pair("quadratic", (i,), quad, idx)
        for i in range(len(ops) - 1):
            lhs = ops[i].mat * ops[i + 1].mat * ops[i].mat
            rhs = ops[i + 1].mat * ops[i].mat * ops[i + 1].mat
            yield _relation_pair("braid", (i, i + 1), lhs - rhs, idx)
        for i in range(len(ops)):
            for j in range(i + 2, len(ops)):
                comm = ops[i].mat * ops[j].mat - ops[j].mat * ops[i].mat
                yield _relation_pair("locality", (i, j), comm, idx)

    return ops, _report("dynamical-hecke", f"{name}, p={p}", relations())


def _relation_pair(relation, gens, mat, idx):
    """One (key, value) pair for the relation mat = 0: its first nonzero
    entry, keyed by the relation, its generators and the entry's row and
    column multi-indices, or a zero value when the relation holds."""
    for key, v in _matrix_pairs(mat, idx):
        if not v.is_zero:
            return (relation, gens) + key, v
    return (relation, gens), mat.ctx.zero


def _first_entry(mat):
    """The first nonzero entry of mat as ((row, col), text), or None; the
    benchmark's perturbed-J jobs record it as their witness."""
    for (r, c, v) in sorted(mat.entries()):
        if not v.is_zero:
            return ((r, c), v.to_text())
    return None


def perturb_dynop(rop, row_multi, col_multi, value):
    """Add value at a (weight-zero) position: negative-control helper."""
    out = rop.mat.copy()
    idx = rop.index
    out.add_to(idx.flat(tuple(row_multi)), idx.flat(tuple(col_multi)),
               rop.ctx(value))
    return DynOp(rop.factors, out)
