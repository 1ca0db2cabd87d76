from fractions import Fraction

import pytest

from dybax import macdonald, serialize
from dybax.cli import main
from dybax.fusion import exchange_matrix
from dybax.linalg import Mat
from dybax.macdonald import (
    DiffOp,
    MacdonaldError,
    corollary91_check,
    macdonald_eigenvalue,
    macdonald_operator,
    macdonald_polynomial,
    monomial_symmetric,
    mr_residual,
    schur_polynomial,
    sl2_trace_function,
    symmetry_residuals,
    transfer_diffop,
    zeta_expand,
)
from dybax.reps import TensorIndex, dual, sym_power, tensor, trivial_rep, vector_rep
from dybax.rootdata import build_type_A
from dybax.scalars import quantum_ctx


def test_diffop_composition_law():
    ctx = quantum_ctx(2)

    def term(nu, coeff):
        """coeff T_nu with a 1x1 coefficient."""
        return DiffOp(ctx, 1, {nu: Mat.identity(1, ctx) * coeff})

    a = term((1, 0), ctx.t(0))
    b = term((0, 1), ctx.t(1) ** 2)
    ab = a * b
    # (c T_nu)(c' T_mu) = c * c'(lambda+nu) T_(nu+mu)
    assert list(ab.terms) == [(1, 1)]
    assert ab.terms[(1, 1)][0, 0] == ctx.t(0) * (ctx.t(1) ** 2)
    # associativity on a third term
    c = term((1, 1), 1 / (ctx.t(0) - 1))
    assert ((a * b) * c - a * (b * c)).is_zero
    ident = term((0, 0), ctx.one)
    assert (ident * a - a).is_zero and (a * ident - a).is_zero


def test_macdonald_operator_coefficients():
    m1 = macdonald_operator(2, 1, 0)
    ctx = m1.ctx
    x1, x2 = ctx.t(0) ** 2, ctx.t(1) ** 2
    t = ctx.s ** 2
    assert m1.terms[(1, 0)][0, 0] == (t * x1 - x2 / t) / (x1 - x2)
    assert m1.terms[(0, 1)][0, 0] == (t * x2 - x1 / t) / (x2 - x1)
    # |I| = n: empty product
    mn = macdonald_operator(3, 3, 2)
    assert len(mn.terms) == 1
    assert mn.terms[(1, 1, 1)][0, 0] == mn.ctx.one


def test_macdonald_commutativity():
    for m in (0, 1, 2):
        ops = [macdonald_operator(3, r, m) for r in (1, 2, 3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert (ops[i] * ops[j] - ops[j] * ops[i]).is_zero, (i, j, m)


def test_macdonald_commutativity_on_monomials():
    # exact operator application to all Laurent monomials of degree <= 3
    ctx = quantum_ctx(2)
    m1 = macdonald_operator(2, 1, 1)
    m2 = macdonald_operator(2, 2, 1)
    comm = m1 * m2 - m2 * m1
    for e1 in range(-3, 4):
        for e2 in range(-3, 4):
            if abs(e1) + abs(e2) > 3:
                continue
            mono = ctx.t(0) ** (2 * e1) * ctx.t(1) ** (2 * e2)
            assert comm.apply_scalar(mono).is_zero


def test_macdonald_polynomial_small():
    p = macdonald_polynomial(2, (1, 0), 0)
    ctx = quantum_ctx(2)
    assert set(p) == {(1, 0)} and p[(1, 0)] == ctx.one
    p0 = macdonald_polynomial(2, (0, 0), 1)
    assert set(p0) == {(0, 0)}


def test_macdonald_polynomial_coefficient():
    # n=2, mu=(2,0): P = m_(2,0) + c m_(1,1), c = (1+q^2)(1-t^2... pinned by
    # the eigen-equation; at t=q the coefficient must be the Schur value 1
    p = macdonald_polynomial(2, (2, 0), 0)
    ctx = quantum_ctx(2)
    assert p[(1, 1)] == ctx.one
    # generic m: coefficient differs from 1
    p1 = macdonald_polynomial(2, (2, 0), 1)
    assert not (p1[(1, 1)] - 1).is_zero


def test_schur_specialization():
    for n, mu in ((2, (2, 0)), (2, (2, 1)), (3, (2, 1, 0)), (3, (1, 1, 1))):
        p = macdonald_polynomial(n, mu, 0)
        s = schur_polynomial(n, mu)
        assert set(p) == set(s)
        assert all((p[k] - s[k]).is_zero for k in p)


@pytest.mark.parametrize("build", [schur_polynomial,
                                   lambda n, mu: macdonald_polynomial(n, mu, 0)])
@pytest.mark.parametrize("mu", [(1, 1, 1), (0, 1), (2, -1), (1, 0, 0)])
def test_mu_must_be_a_partition_with_at_most_n_parts(build, mu):
    with pytest.raises(MacdonaldError):
        build(2, mu)


def test_eigenvalue_formula():
    # apply M_r directly and compare with the closed-form eigenvalue
    ctx = quantum_ctx(2)
    mu = (2, 1)
    m = 1
    coeffs = macdonald_polynomial(2, mu, m)
    poly = ctx.zero
    for nu, c in coeffs.items():
        poly = poly + c * monomial_symmetric(ctx, nu)
    for r in (1, 2):
        lhs = macdonald_operator(2, r, m).apply_scalar(poly)
        assert lhs == macdonald_eigenvalue(2, r, m, mu) * poly


def test_transfer_factorization_on_zero_weight():
    datum = build_type_A(2, "sl")
    for quantum in (False, True):
        v = vector_rep(datum, quantum)
        u = sym_power(v, 2)
        d_v = transfer_diffop(v, u)
        d_vw = transfer_diffop(tensor(v, v), u)
        assert (d_vw - d_v * d_v).is_zero
        d_s = transfer_diffop(u, u)
        assert (d_v * d_s - d_s * d_v).is_zero
        assert (transfer_diffop(tensor(v, u), u) - d_v * d_s).is_zero


def _transfer_by_shifting_every_entry(traced, base):
    """Reference for transfer_diffop: substitute lambda -> -lambda - rho into
    every entry of the exchange matrix, then trace each weight block."""
    datum = traced.datum
    rop = exchange_matrix(traced, base, normalized=True)
    ctx = rop.ctx
    if ctx.mode == "classical":
        mapping = {f"l{a + 1}": -ctx.lam(a) - datum.rho[a] for a in range(datum.n_coords)}
    else:
        mapping = {f"t{a + 1}": ctx.s ** int(-2 * Fraction(datum.rho[a])) / ctx.t(a)
                   for a in range(datum.n_coords)}
    shifted = Mat(rop.mat.nrows, rop.mat.ncols, ctx)
    for (r, c, v) in rop.mat.entries():
        shifted.set(r, c, v.subs(mapping))
    base_idx = [i for i, w in enumerate(base.weights) if w == datum.zero_weight]
    idx = TensorIndex([traced.dim, base.dim])
    terms = {}
    for nu, rows in traced.weight_blocks().items():
        coeff = Mat(len(base_idx), len(base_idx), ctx)
        for w in rows:
            for bi, vi in enumerate(base_idx):
                for bj, vj in enumerate(base_idx):
                    coeff.add_to(bi, bj, shifted[idx.flat((w, vi)), idx.flat((w, vj))])
        terms[nu] = coeff
    return DiffOp(ctx, len(base_idx), terms)


@pytest.mark.parametrize("quantum", [False, True])
def test_transfer_diffop_matches_shifting_every_entry(quantum):
    datum = build_type_A(2, "sl")
    v = vector_rep(datum, quantum)
    u = sym_power(v, 2)
    cases = [(v, u), (tensor(v, v), u), (u, u), (v, dual(u)),
             (trivial_rep(datum, quantum), u)]
    for traced, base in cases:
        fast = transfer_diffop(traced, base)
        ref = _transfer_by_shifting_every_entry(traced, base)
        assert serialize.diffop_json(fast) == serialize.diffop_json(ref)


def test_transfer_trivial_traced():
    datum = build_type_A(2, "sl")
    u = sym_power(vector_rep(datum), 2)
    d = transfer_diffop(trivial_rep(datum), u)
    assert list(d.terms) == [(0,)]
    assert d.terms[(Fraction(0),)].is_identity()


def test_corollary91():
    for m in (0, 1):
        ok, lhs, rhs = corollary91_check(m)
        assert ok, f"m={m}"


def test_zeta_expand():
    ctx = quantum_ctx(1)
    s, t = ctx.s, ctx.t(0)
    # 1/(t - 1) = zeta/(1 - zeta) = zeta + zeta^2 + ...
    val, coeffs = zeta_expand(1 / (t - 1), 3)
    assert val == 1
    assert all(c == ctx.one for c in coeffs)
    # s-dependence stays exact
    val2, coeffs2 = zeta_expand((s * t + 1) / t, 2)
    assert val2 == 0 and coeffs2[0] == s and coeffs2[1] == ctx.one


def test_trace_leading_coefficient():
    module, a = sl2_trace_function(2)
    assert a[0] == quantum_ctx(1).one
    # depth-1 coefficient is a nontrivial rational function of q^mu
    assert not a[1].is_zero


def test_mr_equations_and_symmetry():
    _, ok1 = mr_residual(depth=3, order=6)
    assert ok1
    _, ok2 = mr_residual(depth=3, order=6, dual_side=True)
    assert ok2
    assert symmetry_residuals(depth=3, biorder=2) == []


def test_trace_residual_builds_each_trace_series_once(monkeypatch, capsys):
    calls = []
    solve = macdonald.sl2_trace_function

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(macdonald, "sl2_trace_function", counted)
    macdonald.f_v_series.cache_clear()
    assert main(["macdonald", "trace-residual", "--depth", "3"]) == 0
    assert '"symmetry_mismatches": []' in capsys.readouterr().out
    # F_V of V serves Theorems 9.1, 9.2 and 9.3; F_V of V* only Theorem 9.3
    assert [args[1] is None for args in calls] == [True, False]
