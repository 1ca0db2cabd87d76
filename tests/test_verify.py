from fractions import Fraction

import pytest

from dybax.catalog import basic_rational_r, basic_trig_r, quantum_R_X, quantum_R_eps_X
from dybax.fusion import DynOp
from dybax.linalg import Mat
from dybax.reps import trivial_rep, vector_rep
from dybax.rootdata import build_type_A
from dybax.verify import (
    InvalidGaugeError,
    PreconditionError,
    cdybe_residual,
    cocycle_residual,
    dynamical_hecke_rep,
    gauge_classical,
    gauge_quantum,
    hecke_check,
    perturb_dynop,
    qdybe_residual,
    unitarity_check,
)


def test_qdybe_identity_and_negative_control():
    r = quantum_R_X(2, [1, 2])
    assert qdybe_residual(r).exact_zero
    ident = DynOp(r.factors, Mat.identity(r.dim, r.ctx))
    assert qdybe_residual(ident).exact_zero
    bad = perturb_dynop(r, (0, 1), (0, 1), r.ctx.lam(0))
    rep = qdybe_residual(bad)
    assert not rep.exact_zero
    assert rep.witness is not None


def test_qdybe_preconditions():
    datum = build_type_A(2, "gl")
    v = vector_rep(datum)
    op = DynOp([v, v], Mat.identity(4, v.ctx))
    # non-weight-zero perturbation -> precondition error
    bad = perturb_dynop(op, (0, 0), (0, 1), op.ctx.one)
    with pytest.raises(PreconditionError):
        qdybe_residual(bad)


def test_cdybe_zero_matrix_and_negative_control():
    datum = build_type_A(2, "gl")
    r0 = basic_rational_r(datum)
    assert cdybe_residual(r0).exact_zero
    zero = basic_rational_r(datum)
    zero.terms = []
    assert cdybe_residual(zero).exact_zero
    # perturb one coefficient
    bad = basic_rational_r(datum)
    a, b, c = bad.terms[0]
    bad.terms[0] = (a, b, c + bad.ctx.lam(0))
    assert not cdybe_residual(bad).exact_zero


def test_hecke_identity_parameter():
    # PR = P has eigenvalues 1, -1: the identity's Hecke parameter is q = 1
    # (eigenvalue -q = -1), and q = -1 is excluded
    datum = build_type_A(2, "gl")
    v = vector_rep(datum)
    ident = DynOp([v, v], Mat.identity(4, v.ctx))
    assert hecke_check(ident, ident.ctx.one).exact_zero
    assert not hecke_check(ident, ident.ctx.from_fraction(-1)).exact_zero


def test_hecke_diagonal_stage_is_a_residual_report():
    # 2 * identity: PR - 1 = 2P - 1 does not kill the diagonal blocks
    datum = build_type_A(2, "gl")
    v = vector_rep(datum)
    twice = DynOp([v, v], Mat.identity(4, v.ctx)) * v.ctx.from_fraction(2)
    report = hecke_check(twice, twice.ctx.one)
    assert not report.exact_zero and report.entries_checked == 2
    assert report.witness == (((0, 0), (0, 0)), "1")


def test_cocycle_zero_on_triples():
    d_sl2 = build_type_A(2, "sl")
    v = vector_rep(d_sl2)
    assert cocycle_residual(v, v, v).exact_zero
    d_gl2 = build_type_A(2, "gl")
    vq = vector_rep(d_gl2, quantum=True)
    assert cocycle_residual(vq, vq, vq).exact_zero
    # trivial V: both sides reduce to the J_{UW}-extension
    t = trivial_rep(d_sl2)
    assert cocycle_residual(v, v, t).exact_zero


def test_gauge_classical_closure():
    datum = build_type_A(3, "gl")
    r = basic_rational_r(datum)
    ctx = r.ctx
    # kind 1: a closed 2-form (C_12 constant, C_23 a function of l2, l3 only)
    r1 = gauge_classical(r, 1, {(0, 1): ctx.from_fraction(Fraction(3, 2)),
                                (1, 2): 1 / (ctx.lam(1) + ctx.lam(2))})
    assert cdybe_residual(r1).exact_zero
    # non-closed form rejected (dC_01/dl3 term survives)
    with pytest.raises(InvalidGaugeError):
        gauge_classical(r, 1, {(0, 1): ctx.lam(2)})
    # kind 2: shift
    r2 = gauge_classical(r, 2, (1, Fraction(1, 2), 0))
    assert cdybe_residual(r2).exact_zero
    assert unitarity_check(r2, 0).exact_zero
    r2id = gauge_classical(r, 2, (0, 0, 0))
    t1, t2 = r2id.as_tensor(), r.as_tensor()
    assert set(t1) == set(t2) and all((t1[k] - t2[k]).is_zero for k in t1)
    # kind 3: Weyl permutation
    r3 = gauge_classical(r, 3, [1, 2, 0])
    assert cdybe_residual(r3).exact_zero
    assert unitarity_check(r3, 0).exact_zero


def test_gauge_classical_trig_weyl():
    datum = build_type_A(2, "gl")
    rt = basic_trig_r(datum)
    r3 = gauge_classical(rt, 3, [1, 0])
    assert cdybe_residual(r3).exact_zero
    assert unitarity_check(r3).exact_zero


def test_gauge_quantum_closure():
    r = quantum_R_eps_X(3, [1, 2])
    ctx = r.ctx
    # kind 1 with constant phi (c_ab c_ba = 1): closedness automatic
    phi = {(0, 1): ctx.from_fraction(Fraction(2, 3)),
           (0, 2): ctx.from_fraction(5)}
    r1 = gauge_quantum(r, 1, phi)
    assert qdybe_residual(r1).exact_zero
    with pytest.raises(InvalidGaugeError):
        # explicitly give both phi_01 and phi_10 with product != 1
        gauge_quantum(r, 1, {(0, 1): ctx.t(0), (1, 0): ctx.t(0)})
    # kind 2: constant shift
    r2 = gauge_quantum(r, 2, (1, 0, Fraction(1, 2)))
    assert qdybe_residual(r2).exact_zero
    # kind 3: permutation maps R_X to R_{sigma(X)} when intervals map
    rx = quantum_R_X(3, [1, 2])
    r3 = gauge_quantum(rx, 3, [1, 2, 0])  # sends {1,2} -> {2,3}
    target = quantum_R_X(3, [2, 3])
    assert (r3.mat - target.mat).is_zero


def test_gauge_quantum_lambda_dependent_2form():
    # phi_ab(lambda) = t_a/t_b is multiplicative and closed
    r = quantum_R_eps_X(2, [1, 2])
    ctx = r.ctx
    phi = {(0, 1): ctx.t(0) / ctx.t(1)}
    r1 = gauge_quantum(r, 1, phi)
    assert qdybe_residual(r1).exact_zero


def test_dynamical_hecke_rep():
    r = quantum_R_eps_X(2, [1, 2])
    q = r.ctx.s ** 2
    ops, report = dynamical_hecke_rep(r, 3, q)
    assert report.exact_zero
    ops4, report4 = dynamical_hecke_rep(r, 4, q)
    assert report4.exact_zero
    rx = quantum_R_X(2, [1, 2])
    _, rep_x = dynamical_hecke_rep(rx, 3, rx.ctx.one)
    assert rep_x.exact_zero
    # p = 2: single generator, quadratic relation = Hecke restated
    _, rep2 = dynamical_hecke_rep(r, 2, q)
    assert rep2.exact_zero


def test_exchange_matrices_satisfy_qdybe():
    for flavor, quantum in (("sl", False), ("sl", True), ("gl", True)):
        datum = build_type_A(2, flavor)
        v = vector_rep(datum, quantum)
        from dybax.fusion import exchange_matrix
        r = exchange_matrix(v, v)
        assert qdybe_residual(r).exact_zero, (flavor, quantum)
