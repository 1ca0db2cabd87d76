import pytest

from dybax.catalog import (
    BDTriple,
    CatalogError,
    InvalidSubalgebraError,
    InvalidTripleError,
    _solve_r0,
    appendixA_r,
    basic_rational_r,
    basic_trig_r,
    classical_r_trig_X,
    classical_r_zero_coupling,
    glN_closed_forms,
    quantum_R_X,
    quantum_R_eps_X,
)
from dybax.fusion import abrr_fusion, exchange_matrix, fusion_exchange_construction
from dybax.reps import sym_power, vector_rep
from dybax.rootdata import build_type_A
from dybax.verify import cdybe_residual, hecke_check, qdybe_residual, unitarity_check


def test_basic_rational_sl2_form():
    datum = build_type_A(2, "sl")
    r = basic_rational_r(datum)
    ctx = r.ctx
    tensor = r.as_tensor()
    # (e (x) f - f (x) e)/lambda in the single sl2 coordinate: (lambda,alpha)=l
    assert tensor[((0, 1), (1, 0))] == 1 / ctx.lam(0)
    assert tensor[((1, 0), (0, 1))] == -1 / ctx.lam(0)
    assert r.coupling == ctx.zero


def test_coupling_constants():
    datum = build_type_A(2, "gl")
    assert basic_rational_r(datum).coupling.is_zero
    rt = basic_trig_r(datum)
    assert rt.coupling == rt.ctx.eps


def test_unitarity_of_families():
    datum = build_type_A(3, "gl")
    assert unitarity_check(basic_rational_r(datum), 0).exact_zero
    assert unitarity_check(basic_trig_r(datum)).exact_zero
    rl = classical_r_zero_coupling(datum, [(1, -1, 0)])
    assert unitarity_check(rl, 0).exact_zero
    for x in ([], [0], [0, 1]):
        assert unitarity_check(classical_r_trig_X(datum, x)).exact_zero


def test_r_l_cases():
    datum = build_type_A(3, "gl")
    # all roots: equals basic rational
    rall = classical_r_zero_coupling(datum, [tuple(a) for a in datum.positive_roots])
    rbasic = basic_rational_r(datum)
    t1, t2 = rall.as_tensor(), rbasic.as_tensor()
    assert set(t1) == set(t2) and all((t1[k] - t2[k]).is_zero for k in t1)
    # empty: zero
    rempty = classical_r_zero_coupling(datum, [])
    assert rempty.as_tensor() == {}
    # non-closed set rejected
    with pytest.raises(InvalidSubalgebraError):
        classical_r_zero_coupling(datum, [(1, -1, 0), (0, 1, -1)])


def test_trig_X_full_equals_basic():
    datum = build_type_A(2, "gl")
    ra = classical_r_trig_X(datum, [0])
    rb = basic_trig_r(datum)
    t1, t2 = ra.as_tensor(), rb.as_tensor()
    assert set(t1) == set(t2) and all((t1[k] - t2[k]).is_zero for k in t1)


def test_cdybe_residuals_rank3():
    datum = build_type_A(3, "gl")
    for r in (basic_rational_r(datum), basic_trig_r(datum),
              classical_r_zero_coupling(datum, [(1, -1, 0)]),
              classical_r_trig_X(datum, [0])):
        assert cdybe_residual(r).exact_zero, r.name


def test_quantum_R_X_examples():
    # X = empty, q = 1: identity
    r = quantum_R_X(3, [])
    assert r.mat.is_identity()
    # n=2 X={1,2}: entry 1/(l1-l2) in both alpha and beta positions
    r2 = quantum_R_X(2, [1, 2])
    ctx = r2.ctx
    c = 1 / (ctx.lam(0) - ctx.lam(1))
    # flat index of v_a (x) v_b is 2a + b
    assert r2.mat[1, 1] == 1 + c
    assert r2.mat[2, 1] == c


def test_quantum_R_eps_X_empty():
    # beta_ab multiplies v_a (x) v_b -> v_b (x) v_a (the arrangement pinned
    # by QDYBE and the q = 1 limit): beta_21 = 1-q, beta_12 = 0
    r = quantum_R_eps_X(2, [])
    ctx = r.ctx
    q = ctx.s ** 2
    # flat index of v_a (x) v_b is 2a + b
    assert r.mat[1, 2] == 1 - q   # beta_21 on v_2 (x) v_1
    assert r.mat[2, 1].is_zero    # beta_12
    assert r.mat[1, 1] == q       # alpha_12 = q + 0


def test_families_satisfy_qdybe_and_hecke():
    for n in (2, 3):
        subsets = [[], [1], list(range(1, n + 1))]
        for x in subsets:
            r = quantum_R_X(n, x)
            assert qdybe_residual(r).exact_zero
            assert hecke_check(r, r.ctx.one).exact_zero
            # Hecke with q = 1 implies R R^21 = 1
            assert (r.mat * r.flip21().mat).is_identity()
            rq = quantum_R_eps_X(n, x)
            assert qdybe_residual(rq).exact_zero
            assert hecke_check(rq, rq.ctx.s ** 2).exact_zero


def test_R_eps_family_matches_exchange_after_gauge():
    # The full-X Hecke family and the closed-form exchange matrix agree up to
    # the stated gauge freedom.  Bridging the lambda conventions (the family
    # uses q^(lambda_a - lambda_b), the exchange construction
    # q^(2(lambda_a - lambda_b + b - a))) and the standard flip/q-inversion
    # symmetry, the fixture is: take R^eps_X at parameter q^(-2) in the
    # doubled-lambda variables, flip the factors, rescale by q, and apply the
    # diagonal multiplicative 2-form phi_ab = q(Q_ab - 1)/(q^2 Q_ab - 1).
    from dybax.fusion import DynOp
    from dybax.linalg import Mat
    from dybax.reps import TensorIndex
    from dybax.verify import gauge_quantum

    for n in (2, 3):
        datum = build_type_A(n, "gl")
        v = vector_rep(datum, quantum=True)
        ctx = v.ctx
        s = ctx.s
        q = s ** 2
        idx = TensorIndex([n, n])

        def q_pow2(a, b):
            return (ctx.t(a) / ctx.t(b)) ** 2 * s ** (4 * (b - a))

        q6 = s ** -4
        mat = Mat(n * n, n * n, ctx)
        for a in range(n):
            mat.set(idx.flat((a, a)), idx.flat((a, a)), ctx.one)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                beta = (q6 - 1) / (q_pow2(a, b) - 1)
                mat.set(idx.flat((a, b)), idx.flat((a, b)), q6 + beta)
                mat.set(idx.flat((b, a)), idx.flat((a, b)), beta)
        family = DynOp([v, v], mat).flip21()
        phi = {(a, b): q * (q_pow2(a, b) - 1) / (q ** 2 * q_pow2(a, b) - 1)
               for a in range(n) for b in range(a + 1, n)}
        gauged = gauge_quantum(family, 1, phi)  # also checks closedness
        r_closed = glN_closed_forms(n, quantum=True)[1]
        assert (gauged.mat * q - r_closed.mat).is_zero
        assert qdybe_residual(r_closed).exact_zero


def test_limit_of_shifted_solution_matches_at_order_gamma():
    # constant kind-2 shifts wash out of the order-gamma term: the classical
    # limit commutes with the shift at leading order (nu rescaling to
    # gamma*nu), for both the t-variable and the rational-mode families
    from fractions import Fraction

    from dybax.fusion import classical_limit, exchange_matrix
    from dybax.verify import gauge_quantum

    datum = build_type_A(2, "gl")
    vq = vector_rep(datum, quantum=True)
    r = exchange_matrix(vq, vq, normalized=True)
    shifted = gauge_quantum(r, 2, (1, Fraction(-1, 2)))
    m_plain = classical_limit(r, 1)
    m_shift = classical_limit(shifted, 1)
    assert m_shift[0].is_identity()
    assert (m_plain[1] - m_shift[1]).is_zero
    rx = quantum_R_X(2, [1, 2])
    rx_shift = gauge_quantum(rx, 2, (3, 1))
    assert (classical_limit(rx, 1)[1] - classical_limit(rx_shift, 1)[1]).is_zero


def test_glN_closed_forms_match_construction():
    for n in (2, 3):
        for quantum in (False, True):
            datum = build_type_A(n, "gl")
            v = vector_rep(datum, quantum)
            j_closed, r_closed = glN_closed_forms(n, quantum)
            assert (j_closed.mat - fusion_exchange_construction(v, v).mat).is_zero
            assert (r_closed.mat - exchange_matrix(v, v).mat).is_zero
            assert (j_closed.mat - abrr_fusion(v, v).mat).is_zero


def test_appendixA_nontrivial_triple():
    datum = build_type_A(3, "gl")
    tri = BDTriple(datum, [0], [1], {0: 1}, [(1, 0, -1), (1, 1, 1)])
    r = appendixA_r(tri)
    assert cdybe_residual(r).exact_zero
    assert unitarity_check(r, 1).exact_zero


@pytest.mark.parametrize("n,gamma1,gamma2,l_basis", [
    (3, [0], [1], [(1, 1, 1)]),
    (4, [0], [1], [(1, 1, 1, 1)]),
    (4, [0], [2], [(1, 1, 1, 1)]),
    (4, [0, 1], [1, 2], [(1, 1, 1, 1)]),
    (4, [0], [1], [(1, 1, 1, 1), (1, 1, 1, -3)]),
])
def test_appendixA_with_nonzero_r0(n, gamma1, gamma2, l_basis):
    tri = BDTriple(build_type_A(n, "gl"), gamma1, gamma2, dict(zip(gamma1, gamma2)), l_basis)
    r = appendixA_r(tri)
    assert _solve_r0(tri, r.ctx)
    assert cdybe_residual(r).exact_zero
    assert unitarity_check(r, 1).exact_zero


def test_appendixA_rejects_dependent_l_basis():
    datum = build_type_A(3, "gl")
    # (2, 1, 0) = (1, 0, -1) + (1, 1, 1): admissible, but the form on l is degenerate
    tri = BDTriple(datum, [0], [1], {0: 1}, [(1, 0, -1), (1, 1, 1), (2, 1, 0)])
    with pytest.raises(InvalidTripleError, match="degenerate"):
        appendixA_r(tri)


def test_appendixA_identity_triple_reduces_to_thm42():
    datum = build_type_A(3, "gl")
    tri = BDTriple(datum, [0, 1], [0, 1], {0: 0, 1: 1},
                   [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    r = appendixA_r(tri)
    rx = classical_r_trig_X(datum, [0, 1], eps=1)
    t1, t2 = r.as_tensor(), rx.as_tensor()
    keys = set(t1) | set(t2)
    assert all((t1.get(k, r.ctx.zero) - t2.get(k, r.ctx.zero)).is_zero
               for k in keys)
    # l = h forces tau = id: a non-identity tau must be rejected
    with pytest.raises(InvalidTripleError):
        BDTriple(datum, [0], [1], {0: 1},
                 [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_admissibility_checks():
    datum = build_type_A(3, "gl")
    # l not orthogonal to tau(alpha) - alpha
    with pytest.raises(InvalidTripleError):
        BDTriple(datum, [0], [1], {0: 1}, [(1, 0, 0)])


def test_classical_r_evaluates_only_on_the_vector_representation():
    datum = build_type_A(2, "gl")
    v = vector_rep(datum)
    r = basic_rational_r(datum)
    assert r.evaluate(v, v).mat.nrows == 4
    with pytest.raises(CatalogError):
        r.evaluate(sym_power(v, 2), v)
    with pytest.raises(CatalogError):
        r.evaluate(v, vector_rep(datum, quantum=True))
