from fractions import Fraction

import pytest

from dybax.catalog import ClassicalRMatrix
from dybax.reps import tensor, vector_rep
from dybax.rootdata import RootDatumError, build_type_A


def test_gl2_basic_data():
    d = build_type_A(2, "gl")
    assert d.positive_roots == [(1, -1)]
    assert d.rho == (Fraction(1, 2), Fraction(-1, 2))


def test_gl3_positive_root_count():
    d = build_type_A(3, "gl")
    assert len(d.positive_roots) == 3


def test_root_norms():
    d = build_type_A(3, "gl")
    alpha = (Fraction(1), Fraction(0), Fraction(-1))
    assert d.pairing(alpha, alpha) == 2
    for a in d.positive_roots:
        assert d.pairing(a, a) == 2
    # rho pairs to 1 with every simple root
    for a in d.simple_roots:
        assert d.pairing(d.rho, a) == 1
    d2 = build_type_A(2, "sl")
    assert d2.pairing(d2.simple_roots[0], d2.simple_roots[0]) == 2
    assert d2.pairing(d2.rho, d2.simple_roots[0]) == 1


def test_invalid_rank():
    with pytest.raises(RootDatumError):
        build_type_A(1, "gl")


def test_casimir_symmetric():
    for d in (build_type_A(2, "sl"), build_type_A(3, "gl")):
        terms = d.casimir()
        # Omega = Omega^21 as a tensor
        tot = {}
        for (a, b, c) in terms:
            for (i1, j1), v1 in a.items():
                for (i2, j2), v2 in b.items():
                    k = ((i1, j1), (i2, j2))
                    tot[k] = tot.get(k, Fraction(0)) + Fraction(c) * v1 * v2
        for ((p, q), v) in list(tot.items()):
            assert tot.get((q, p), Fraction(0)) == v


def test_casimir_invariance_on_tensor_square():
    # [Delta(g), Omega] = 0 in the vector representation tensor square
    d = build_type_A(3, "gl")
    v = vector_rep(d)
    vv = tensor(v, v)
    omega = ClassicalRMatrix(d, v.ctx, d.casimir(), 0).evaluate(v, v).mat
    assert not omega.is_zero
    for i in range(d.rank):
        for kind in ("e", "f"):
            g = vv.e(i) if kind == "e" else vv.f(i)
            assert (g * omega - omega * g).is_zero


def test_form_matches_coordinate_dot():
    d = build_type_A(3, "gl")
    for a in d.positive_roots:
        for b in d.positive_roots:
            dot = sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
            assert d.pairing(a, b) == dot


def test_root_vectors_pair_to_one():
    # <e_alpha, e_-alpha> = tr(E_ab E_ba) = 1
    d = build_type_A(3, "gl")
    for alpha in d.positive_roots:
        e = d.root_vector(alpha)
        f = d.root_vector(alpha, negative=True)
        from dybax.rootdata import mat_mul
        prod = mat_mul(e, f)
        trace = sum(v for (i, j), v in prod.items() if i == j)
        assert trace == 1
