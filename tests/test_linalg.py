from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy_oracle import sympy_field, to_sympy

from dybax.catalog import RATIONALS
from dybax.linalg import Mat, kernel_basis, kron, rank_of, rref, solve_dense
from dybax.reps import (
    ConventionError,
    _restrict,
    constant_R,
    ext_power,
    sym_power,
    vector_rep,
)
from dybax.rootdata import build_type_A
from dybax.scalars import classical_ctx, quantum_ctx


def _reference_solve(ctx, rows, rhs):
    """Column-at-a-time dense Gauss-Jordan: the slow reference for Mat.solve."""
    m, n = len(rows), len(rows[0])
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((r for r in range(rank, m) if not a[r][col].is_zero), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for r in range(m):
            f = a[r][col]
            if r != rank and not f.is_zero:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    if any(not a[r][n].is_zero for r in range(len(pivots), m)):
        raise ZeroDivisionError("inconsistent linear system")
    if len(pivots) < n:
        raise ZeroDivisionError("underdetermined linear system")
    return [a[r][n] for r in range(n)]


def _mat(ctx, dense):
    out = Mat(len(dense), len(dense[0]), ctx)
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            out.set(i, j, v)
    return out


def _quantum_system():
    """A consistent overdetermined 4x3 system over Q(s, t1, t2), three columns."""
    ctx = quantum_ctx(2)
    s, t1, t2 = ctx.s, ctx.t(0), ctx.t(1)
    one, zero = ctx.one, ctx.zero
    a = _mat(ctx, [[s, one, zero],
                   [zero, t1 - t2, s * s],
                   [t1, zero, one / (s + t2)],
                   [s + t1, one, one / (s + t2)]])
    x = _mat(ctx, [[one, t2 / t1, zero],
                   [s ** -1, zero, t1 * t2],
                   [zero, s - one, -one]])
    return ctx, a, x


def test_block_solve_matches_column_by_column_reference():
    ctx, a, x = _quantum_system()
    b = a * x
    sol = a.solve(b)
    assert sol == x
    rows = [[a[i, j] for j in range(a.ncols)] for i in range(a.nrows)]
    for col in range(b.ncols):
        rhs = [b[i, col] for i in range(b.nrows)]
        expected = _reference_solve(ctx, rows, rhs)
        assert solve_dense(ctx, rows, rhs) == expected
        assert [sol[j, col] for j in range(sol.nrows)] == expected


def test_block_solve_rejects_inconsistent_and_underdetermined():
    ctx, a, x = _quantum_system()
    b = a * x
    b.add_to(3, 2, ctx.s)   # breaks row 3 = row 0 + row 2 in one column only
    with pytest.raises(ZeroDivisionError, match="inconsistent linear system"):
        a.solve(b)
    wide = _mat(ctx, [[ctx.one, ctx.s], [ctx.s, ctx.s ** 2]])
    with pytest.raises(ZeroDivisionError, match="underdetermined linear system"):
        wide.solve(Mat(2, 2, ctx))
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        wide.inverse()


def test_inverse_is_two_sided():
    ctx, a, _ = _quantum_system()
    square = _mat(ctx, [[a[i, j] for j in range(3)] for i in range(3)])
    inv = square.inverse()
    assert (square * inv).is_identity()
    assert (inv * square).is_identity()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.lists(st.integers(-2, 2), min_size=24, max_size=24))
def test_block_solve_agrees_with_reference(m, n, k, pool):
    ctx = classical_ctx(2)
    a = [[ctx.from_fraction(pool[i * n + j]) for j in range(n)] for i in range(m)]
    b = [[ctx.from_fraction(pool[12 + i * k + j]) for j in range(k)] for i in range(m)]
    outcome = []
    for col in range(k):
        try:
            outcome.append(_reference_solve(ctx, a, [row[col] for row in b]))
        except ZeroDivisionError as exc:
            outcome = str(exc)
            break
    try:
        x = _mat(ctx, a).solve(_mat(ctx, b))
    except ZeroDivisionError as exc:
        # column by column, an underdetermined column can come before the
        # inconsistent one that the block check reports
        assert outcome == str(exc) or outcome == "underdetermined linear system"
        return
    assert outcome == [[x[j, col] for j in range(n)] for col in range(k)]


@pytest.mark.parametrize("n,kind", [(3, "sym"), (3, "ext"), (4, "sym"), (4, "ext")])
def test_restrict_generators_and_constant_R(n, kind):
    v = vector_rep(build_type_A(n, "gl"), quantum=True)
    ctx = v.ctx
    sub = sym_power(v, 2) if kind == "sym" else ext_power(v, 2)
    _, big, embed, _ = sub.provenance
    for i in range(v.datum.rank):
        assert embed * sub.e(i) == big.e(i) * embed
        assert embed * sub.f(i) == big.f(i) * embed
    emb = kron(embed, Mat.identity(v.dim, ctx))
    assert emb * constant_R(sub, v) == constant_R(big, v) * emb
    emb = kron(Mat.identity(v.dim, ctx), embed)
    assert emb * constant_R(v, sub) == constant_R(v, big) * emb


def test_restrict_rejects_operator_leaving_the_submodule():
    v = vector_rep(build_type_A(3, "gl"))
    ctx = v.ctx
    s2 = sym_power(v, 2)
    _, _, embed, _ = s2.provenance
    e1_left = kron(v.e(0), Mat.identity(v.dim, ctx))
    with pytest.raises(ConventionError, match="does not preserve"):
        _restrict(e1_left, embed)


# -- the elimination kernel on Fraction and Q(s, t) matrices ------------------

_ST = quantum_ctx(1)
_S, _T = _ST.s, _ST.t(0)
# (ctx for kernel_basis, entry pool, map into a sympy domain, that domain);
# zeros are drawn often so that ranks drop
FIELDS = {
    "QQ": (RATIONALS,
           [Fraction(x) for x in (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))],
           lambda x: QQ(x.numerator, x.denominator), QQ),
    "Q(s,t)": (_ST,
               [_ST.zero, _ST.zero, _ST.zero, _ST.one, _S, _T, _S - _T, _S * _T,
                1 / (_S + 1), _T / _S],
               to_sympy, sympy_field(_ST.var_names).to_domain()),
}


@st.composite
def _matrix(draw, field):
    """Dense rows over the field, 1..4 by 1..4, sometimes with one more row
    that is a combination of two others."""
    _, pool, _, _ = FIELDS[field]
    ncols = draw(st.integers(1, 4))
    entry = st.sampled_from(pool)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    if len(rows) > 1 and draw(st.booleans()):
        c = draw(entry)
        rows.append([x - c * y for x, y in zip(rows[0], rows[-1])])
    return rows, ncols


def _reference_rank(field, rows, ncols):
    """Rank by sympy's dense DomainMatrix, an independent elimination."""
    _, _, to_domain, domain = FIELDS[field]
    return DomainMatrix([[to_domain(x) for x in r] for r in rows],
                        (len(rows), ncols), domain).rank()


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rank_matches_dense_reference(field, data):
    rows, ncols = data.draw(_matrix(field))
    assert rank_of(rows, ncols) == _reference_rank(field, rows, ncols)


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_basis_is_annihilated_and_complements_the_rank(field, data):
    rows, ncols = data.draw(_matrix(field))
    ctx = FIELDS[field][0]
    basis = kernel_basis(ctx, rows, ncols)
    assert len(basis) == ncols - _reference_rank(field, rows, ncols)
    for v in basis:
        for row in rows:
            assert not sum((a * b for a, b in zip(row, v)), ctx.zero)


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_is_invariant_under_row_permutation(field, data):
    rows, ncols = data.draw(_matrix(field))
    perm = data.draw(st.permutations(range(len(rows))))

    def reduced(dense):
        return rref([{j: v for j, v in enumerate(r) if v} for r in dense], ncols)

    assert reduced(rows) == reduced([rows[i] for i in perm])
