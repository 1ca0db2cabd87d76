from fractions import Fraction

import pytest

from dybax.linalg import Mat
from dybax.reps import (
    ModuleError,
    WeightModule,
    check_module_relations,
    constant_R,
    dual,
    ext_power,
    permutation_matrix,
    sym_power,
    tensor,
    trivial_rep,
    vector_R_matrix,
    vector_rep,
)
from dybax.rootdata import build_type_A


def test_sl2_vector_rep_actions():
    datum = build_type_A(2, "sl")
    v = vector_rep(datum)
    # e.v- = v+, f.v+ = v-, h.v+- = +-v+-
    assert v.e(0)[0, 1] == v.ctx.one
    assert v.f(0)[1, 0] == v.ctx.one
    assert v.weights == [(1,), (-1,)]
    check_module_relations(v)


def test_gl3_vector_weights_distinct():
    datum = build_type_A(3, "gl")
    v = vector_rep(datum)
    assert len(set(v.weights)) == 3
    check_module_relations(v)


def test_quantum_relation_rank1():
    datum = build_type_A(2, "sl")
    v = vector_rep(datum, quantum=True)
    check_module_relations(v)
    # (K - K^-1)/(q - q^-1) acts by +-1 on v+-
    ctx = v.ctx
    q, qinv = ctx.s ** 2, ctx.s ** -2
    for j, sign in ((0, 1), (1, -1)):
        val = (v.k_power(0, j) - v.k_power(0, j, True)) / (q - qinv)
        assert val == ctx.from_fraction(sign)


def test_tensor_dims_and_weights():
    datum = build_type_A(2, "sl")
    v = vector_rep(datum)
    vv = tensor(v, v)
    assert vv.dim == 4
    assert vv.weights[1] == (0,)  # v+ (x) v-
    check_module_relations(vv)


def test_tensor_relations_gl3_triple():
    datum = build_type_A(3, "gl")
    for quantum in (False, True):
        v = vector_rep(datum, quantum)
        vvv = tensor(tensor(v, v), v)
        check_module_relations(vvv)


def test_sym_ext_dimensions():
    datum2 = build_type_A(2, "sl")
    v2 = vector_rep(datum2)
    assert sym_power(v2, 2).dim == 3
    datum3 = build_type_A(3, "gl")
    v3 = vector_rep(datum3)
    assert ext_power(v3, 3).dim == 1
    assert ext_power(v3, 2).dim == 3
    check_module_relations(sym_power(v2, 2))
    check_module_relations(ext_power(v3, 2))


def test_quantum_sym_power_and_hecke_split():
    datum = build_type_A(2, "gl")
    v = vector_rep(datum, quantum=True)
    s2 = sym_power(v, 2)
    assert s2.dim == 3
    check_module_relations(s2)
    # constant R eigen-split: (PR - q)(PR + q^-1) = 0 in this normalization
    ctx = v.ctx
    pr = permutation_matrix(2, 2, ctx) * vector_R_matrix(datum, ctx)
    q, qinv = ctx.s ** 2, ctx.s ** -2
    ident = Mat.identity(4, ctx)
    assert ((pr - ident * q) * (pr + ident * qinv)).is_zero


def test_quantum_ext_power():
    datum = build_type_A(3, "gl")
    v = vector_rep(datum, quantum=True)
    l2 = ext_power(v, 2)
    assert l2.dim == 3
    check_module_relations(l2)
    l3 = ext_power(v, 3)
    assert l3.dim == 1


def test_dual_module_relations():
    datum = build_type_A(2, "gl")
    for quantum in (False, True):
        v = vector_rep(datum, quantum)
        vd = dual(v)
        check_module_relations(vd)
        assert sorted(vd.weights) == sorted([(-1, 0), (0, -1)])


def test_trivial():
    datum = build_type_A(2, "gl")
    t = trivial_rep(datum)
    assert t.dim == 1 and t.weights == [(0, 0)]


def test_constant_R_intertwines_coproduct():
    # P R_{VW} must be a module map V (x) W -> W (x) V; checked on V (x) V
    # and on (V (x) V) (x) V to pin the quasitriangularity build order.
    datum = build_type_A(2, "gl")
    v = vector_rep(datum, quantum=True)
    ctx = v.ctx
    for a, b in [(v, v), (tensor(v, v), v), (v, tensor(v, v))]:
        r = constant_R(a, b)
        ab = tensor(a, b)
        ba = tensor(b, a)
        p = permutation_matrix(a.dim, b.dim, ctx)
        for i in range(datum.rank):
            for kind in ("e", "f"):
                x = ab.e(i) if kind == "e" else ab.f(i)
                y = ba.e(i) if kind == "e" else ba.f(i)
                assert (p * r * x - y * p * r).is_zero, (a, b, kind)


def test_constant_R_on_sym_restriction():
    datum = build_type_A(2, "gl")
    v = vector_rep(datum, quantum=True)
    s2 = sym_power(v, 2)
    r = constant_R(s2, v)   # must not raise: span preserved
    assert r.nrows == s2.dim * v.dim


def test_classical_action_of_nonsimple_root():
    datum = build_type_A(3, "gl")
    v = vector_rep(datum)
    alpha = (Fraction(1), Fraction(0), Fraction(-1))
    e13 = v.root_action(alpha, negative=False)  # E_13: v3 -> v1
    e31 = v.root_action(alpha, negative=True)   # E_31: v1 -> v3
    assert list(e13.entries()) == [(0, 2, v.ctx.one)]
    assert list(e31.entries()) == [(2, 0, v.ctx.one)]


def test_module_relations_catch_a_wrong_classical_cartan_action():
    # e_i, f_i of the gl3 vector representation on doubled weights: [e_i, f_i]
    # still acts by (alpha_i, wt), which now differs from the weights' value
    datum = build_type_A(3, "gl")
    v = vector_rep(datum)
    doubled = [tuple(2 * x for x in w) for w in v.weights]
    wrong = WeightModule(datum, False, v.labels, doubled,
                         {i: v.e(i) for i in range(datum.rank)},
                         {i: v.f(i) for i in range(datum.rank)})
    with pytest.raises(ModuleError, match=r"\[e_0, f_0\] relation fails"):
        check_module_relations(wrong)
