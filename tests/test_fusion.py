from fractions import Fraction

import pytest

from dybax.fusion import (
    DynOp,
    FusionError,
    _r0_21,
    abrr_fusion,
    classical_limit,
    evaluate_universal_sl2,
    exchange_matrix,
    fusion_exchange_construction,
    shapovalov_vs_fusion,
    singular_inverse_element,
    universal_sl2_at_zero,
    universal_sl2_fusion,
)
from dybax.linalg import Mat, kron
from dybax.reps import (
    TensorIndex,
    ext_power,
    permutation_matrix,
    sym_power,
    tensor,
    trivial_rep,
    vector_rep,
)
from dybax.rootdata import build_type_A
from dybax.verma import VermaError, verma_slice


def test_sl2_example_classical():
    datum = build_type_A(2, "sl")
    v = vector_rep(datum)
    j = fusion_exchange_construction(v, v)
    ctx = j.ctx
    lam = ctx.lam(0)
    ident = {(r, r): ctx.one for r in range(4)}
    for r in range(4):
        for c in range(4):
            expect = ident.get((r, c), ctx.zero)
            if (r, c) == (2, 1):
                expect = -1 / (lam + 1)
            assert j.mat[r, c] == expect
    r = exchange_matrix(v, v)
    assert r.mat[1, 2] == -1 / (lam + 1)
    assert r.mat[2, 1] == 1 / (lam + 1)
    assert r.mat[2, 2] == 1 - 1 / (lam + 1) ** 2
    assert r.mat[0, 0] == ctx.one and r.mat[3, 3] == ctx.one


def test_sl2_example_quantum():
    datum = build_type_A(2, "sl")
    v = vector_rep(datum, quantum=True)
    j = fusion_exchange_construction(v, v)
    ctx = j.ctx
    s, t = ctx.s, ctx.t(0)
    y = (s ** -2 - s ** 2) / (s ** 4 * t ** 2 - 1)
    assert j.mat[2, 1] == y
    r = exchange_matrix(v, v)
    q = s ** 2
    big_q = s ** 4 * t ** 2
    assert r.mat[0, 0] == q and r.mat[3, 3] == q
    assert r.mat[1, 1] == ctx.one
    assert r.mat[1, 2] == y
    assert r.mat[2, 1] == (s ** -2 - s ** 2) / (1 / big_q - 1)
    assert r.mat[2, 2] == (big_q - q ** 2) * (big_q - q ** -2) / (big_q - 1) ** 2


def test_triangularity():
    datum = build_type_A(3, "gl")
    v = vector_rep(datum)
    j = fusion_exchange_construction(v, v)
    datum_pairing = datum.pairing
    for (r, c, val) in j.mat.entries():
        if r == c:
            assert val == j.ctx.one
            continue
        rm = j.index.multi(r)
        cm = j.index.multi(c)
        # strictly lower in the first slot, higher in the second
        drop = [a - b for a, b in zip(v.weights[rm[0]], v.weights[cm[0]])]
        assert datum.root_height(tuple(-Fraction(x) for x in drop)) > 0


def test_abrr_matches_exchange_construction():
    cases = []
    d_sl2 = build_type_A(2, "sl")
    d_gl2 = build_type_A(2, "gl")
    for quantum in (False, True):
        for datum in (d_sl2, d_gl2):
            v = vector_rep(datum, quantum)
            cases.append((v, v))
    # gl3 pairs whose grades pass the non-simple root (spread >= 3)
    d_gl3 = build_type_A(3, "gl")
    s2 = sym_power(vector_rep(d_gl3), 2)
    cases.append((s2, s2))
    vq = vector_rep(d_gl3, quantum=True)
    s2q = sym_power(vq, 2)
    cases += [(vq, s2q), (s2q, vq)]
    for m1, m2 in cases:
        j1 = fusion_exchange_construction(m1, m2)
        j2 = abrr_fusion(m1, m2)
        assert (j1.mat - j2.mat).is_zero, (m1, m2)


def test_abrr_on_mixed_pair():
    datum = build_type_A(2, "sl")
    v = vector_rep(datum, quantum=True)
    s2 = sym_power(v, 2)
    j1 = fusion_exchange_construction(s2, v)
    j2 = abrr_fusion(s2, v)
    assert (j1.mat - j2.mat).is_zero


def test_fusion_with_trivial_factor():
    datum = build_type_A(2, "gl")
    v = vector_rep(datum)
    t = trivial_rep(datum)
    j = fusion_exchange_construction(t, v)
    assert j.mat.is_identity()
    j2 = fusion_exchange_construction(v, t)
    assert j2.mat.is_identity()


def test_composite_expectation():
    # <Phi^{v+,v-}> = v+ (x) v- - 1/(lambda+1) v- (x) v+: column (w, v) = (0, 1)
    # of J
    datum = build_type_A(2, "sl")
    v = vector_rep(datum)
    idx = TensorIndex([v.dim, v.dim])
    j = fusion_exchange_construction(v, v)
    out = {idx.multi(r): val for (r, c, val) in j.mat.entries()
           if c == idx.flat((0, 1))}
    ctx = v.ctx
    lam = ctx.lam(0)
    assert out[(0, 1)] == ctx.one
    assert out[(1, 0)] == -1 / (lam + 1)
    assert set(out) == {(0, 1), (1, 0)}
    # single intertwiner: <Phi^v> = v
    from dybax.verma import solve_intertwiner, verma_slice
    sl = verma_slice(datum, (1,), 1)
    phi = solve_intertwiner(sl, v, 1)
    top = {u: c for (key, u), c in phi.image.items() if key == ()}
    assert top[1] == ctx.one and top.get(0, ctx.zero).is_zero
    # the expectation lies in the weight space V[lambda - mu] (zero drop
    # components only): total weight of every cell is wt(w) + wt(v)
    total = datum.zero_weight
    for (i, j) in out:
        w = tuple(a + b for a, b in zip(v.weights[i], v.weights[j]))
        assert w == (0,)


def test_universal_sl2_terms():
    # J^(1) = -f (x) (lambda - h + 2)^{-1} e; on v+ (x) v-: -1/(lambda+1)
    datum = build_type_A(2, "sl")
    v = vector_rep(datum)
    terms = universal_sl2_fusion(2)
    j = evaluate_universal_sl2(terms, v, v)
    ctx = j.ctx
    assert j.mat[2, 1] == -1 / (ctx.lam(0) + 1)
    # n = 2 on S^2 (x) S^2: coefficient (1/2) f^2 (x) ((l-h+3)(l-h+4))^{-1} e^2
    s2 = sym_power(v, 2)
    ju = evaluate_universal_sl2(terms, s2, s2)
    jf = fusion_exchange_construction(s2, s2)
    assert (ju.mat - jf.mat).is_zero


def test_universal_r0_is_the_q_exponential():
    # R0^21 = 1 + sum_k d_k f^k (x) e^k on S^N (x) S^N, with the closed-form
    # d_k = q^(k(k-1)/2) (q - q^-1)^k / [k]_q! that universal_sl2_fusion uses
    datum = build_type_A(2, "sl")
    v = vector_rep(datum, quantum=True)
    ctx = v.ctx
    q = ctx.s ** 2
    for n in range(1, 5):
        big = sym_power(v, n) if n >= 2 else v
        expect = Mat.identity(big.dim ** 2, ctx)
        f_pow = e_pow = Mat.identity(big.dim, ctx)
        q_factorial = ctx.one
        for k in range(1, n + 1):
            f_pow, e_pow = big.f(0) * f_pow, big.e(0) * e_pow
            q_factorial = q_factorial * (q ** k - q ** -k) / (q - 1 / q)
            d_k = q ** (k * (k - 1) // 2) * (q - 1 / q) ** k / q_factorial
            expect = expect + kron(f_pow, e_pow) * d_k
        assert (_r0_21(big, big).mat - expect).is_zero, n


def test_universal_sl2_quantum_evaluates_to_fusion():
    datum = build_type_A(2, "sl")
    v = vector_rep(datum, quantum=True)
    terms = universal_sl2_fusion(2, quantum=True)
    ju = evaluate_universal_sl2(terms, v, v)
    jf = fusion_exchange_construction(v, v)
    assert (ju.mat - jf.mat).is_zero


def test_shapovalov_comparison():
    datum = build_type_A(2, "sl")
    for quantum in (False, True):
        res = shapovalov_vs_fusion(datum, 3, quantum)
        assert all(r.is_zero for r in res)
        # independent oracle: the Delta(e)-singular element
        coeffs = singular_inverse_element(datum, 3, quantum)
        terms = universal_sl2_fusion(3, quantum)
        sl = verma_slice(datum, datum.zero_weight, 3, quantum)
        for j_lvl in range(4):
            uni = universal_sl2_at_zero(terms[j_lvl], sl.ctx, 2 * j_lvl)
            assert (uni - coeffs[j_lvl]).is_zero


def test_shapovalov_depth_zero():
    datum = build_type_A(2, "sl")
    res = shapovalov_vs_fusion(datum, 0)
    assert len(res) == 1 and res[0].is_zero


def test_classical_limit_identity():
    datum = build_type_A(2, "gl")
    v = vector_rep(datum)
    ident = DynOp([v, v], Mat.identity(4, v.ctx))
    mats = classical_limit(ident, 2)
    assert mats[0].is_identity()
    assert mats[1].is_zero and mats[2].is_zero


def test_quantum_modules_specialize_at_s1():
    # action matrices of every constructed quantum module reduce to the
    # classical ones at s = 1
    datum = build_type_A(3, "gl")
    vq = vector_rep(datum, quantum=True)
    vc = vector_rep(datum)
    pairs = [(vq, vc), (tensor(vq, vq), tensor(vc, vc)),
             (ext_power(vq, 2), ext_power(vc, 2))]
    for mq, mc in pairs:
        for i in range(datum.rank):
            for kind in ("e", "f"):
                q_mat = mq.e(i) if kind == "e" else mq.f(i)
                c_mat = mc.e(i) if kind == "e" else mc.f(i)
                for r in range(mq.dim):
                    for c in range(mq.dim):
                        qv = q_mat[r, c]
                        # constants print alike in both fields
                        val = qv.subs({"s": qv.ctx.one})
                        assert val.to_text() == c_mat[r, c].to_text()


def test_weight_zero_and_shift():
    datum = build_type_A(2, "gl")
    v = vector_rep(datum)
    r = exchange_matrix(v, v)
    assert r.is_weight_zero()
    shifted = r.shifted(0)
    # shifting by slot-0 weights replaces l_a by l_a - (col weight)_a
    ctx = r.ctx
    col = r.index.flat((1, 0))  # v2 (x) v1: slot-0 weight eps_2
    for row in range(4):
        v0 = r.mat[row, col]
        assert shifted.mat[row, col] == v0.shift_lambda((0, 1))


def test_flip21_is_conjugation_by_the_swap():
    # flip21 places X at slots (1, 0); on factors of unequal dimension it
    # must equal P X P^T with P = permutation_matrix: X (x) Y -> Y (x) X
    datum = build_type_A(2, "gl")
    v = vector_rep(datum)
    s2 = sym_power(v, 2)
    ctx = v.ctx
    n = v.dim * s2.dim
    x = Mat(n, n, ctx)
    for r in range(n):
        for c in range(n):
            x.set(r, c, ctx.from_fraction(r * n + c + 1) * ctx.lam(r % 2))
    flipped = DynOp([v, s2], x).flip21()
    p = permutation_matrix(v.dim, s2.dim, ctx)
    assert [m.dim for m in flipped.factors] == [s2.dim, v.dim]
    assert flipped.mat == p * x * p.transpose()
    assert flipped.flip21().mat == x


def _flip_three_factors():
    v = vector_rep(build_type_A(2, "sl"))
    return DynOp([v, v, v], Mat.identity(8, v.ctx)).flip21()


@pytest.mark.parametrize("call,error", [
    (lambda: fusion_exchange_construction(vector_rep(build_type_A(2, "sl")),
                                          vector_rep(build_type_A(2, "sl"), quantum=True)),
     FusionError),
    (_flip_three_factors, FusionError),
    (lambda: shapovalov_vs_fusion(build_type_A(3, "gl"), 1), FusionError),
    # alpha_1 + alpha_2 has height 2, past the depth-1 slice
    (lambda: verma_slice(build_type_A(3, "gl"), (0, 0, 0), 1).weight_basis((1, 1)),
     VermaError),
    # a negative entry would give an empty basis and a 0-row solve, and a
    # weight passed as a drop has the wrong length
    (lambda: verma_slice(build_type_A(3, "gl"), (0, 0, 0), 2).weight_basis((2, -1)),
     VermaError),
    (lambda: verma_slice(build_type_A(3, "gl"), (0, 0, 0), 2).weight_basis((1, 0, -1)),
     VermaError),
], ids=["mixed-flavours", "flip21-three-factors", "shapovalov-gl3", "past-slice-depth",
        "negative-drop-entry", "drop-of-wrong-length"])
def test_input_guard_raises_its_named_error(call, error):
    with pytest.raises(error):
        call()
