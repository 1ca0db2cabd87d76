"""The one Laurent expansion, `scalars.laurent_quotient`, against sympy.

`Scalar.gamma_expand` (lambda -> lambda/gamma classically; s -> exp(-e*gamma/4),
t_i -> w_i quantumly) and `macdonald.zeta_expand` (t -> 1/zeta) are compared
coefficient by coefficient with `sympy.series` of the same substitution,
written out independently here on sympy expressions.
"""

from fractions import Fraction

import pytest
import sympy as sp
from sympy_oracle import to_sympy

from dybax.macdonald import zeta_expand
from dybax.scalars import NotRegularError, classical_ctx, quantum_ctx

GAMMA, ZETA = sp.symbols("gamma zeta")


def gamma_reference(x, order):
    """The gamma-series coefficients of x by sympy, through gamma^order."""
    ctx = x.ctx
    if ctx.mode == "classical":
        images = {sp.Symbol(f"l{i + 1}"): sp.Symbol(f"l{i + 1}") / GAMMA for i in range(ctx.n)}
    else:
        images = {sp.Symbol("s"): sp.exp(-sp.Symbol("e") * GAMMA / 4)}
        images.update({sp.Symbol(f"t{i + 1}"): sp.Symbol(f"w{i + 1}") for i in range(ctx.n)})
    expr = to_sympy(x).as_expr().subs(images, simultaneous=True)
    series = sp.series(expr, GAMMA, 0, order + 1).removeO()
    return series, [sp.expand(series).coeff(GAMMA, k) for k in range(order + 1)]


def cases():
    c2, q2, q1 = classical_ctx(2), quantum_ctx(2), quantum_ctx(1)
    l1, l2 = c2.lam(0), c2.lam(1)
    s, t = q1.s, q1.t(0)
    return [
        pytest.param((l1 + 1) / (l1 ** 2 - 3 * l2 + 2), 3, id="classical-positive-valuation"),
        pytest.param(c2(Fraction(5, 3)), 2, id="classical-constant"),
        pytest.param((q2.s ** 2 - 1) / (q2.t(0) - q2.t(1)), 2, id="quantum-numerator-vanishing"),
        pytest.param((1 / s ** 2 - s ** 2) / (s ** 4 * t ** 2 - 1), 3, id="quantum-sl2-coth"),
    ]


@pytest.mark.parametrize("x, order", cases())
def test_gamma_expand_matches_sympy_series(x, order):
    ours = x.gamma_expand(order)
    _, want = gamma_reference(x, order)
    assert len(ours) == order + 1
    for k, (got, ref) in enumerate(zip(ours, want)):
        assert sp.cancel(to_sympy(got).as_expr() - ref) == 0, k


def test_classical_pole_raises_not_regular():
    ctx = classical_ctx(2)
    x = (ctx.lam(0) ** 2 + 1) / (ctx.lam(1) + 2)
    series, _ = gamma_reference(x, 1)
    assert sp.expand(series * GAMMA).coeff(GAMMA, 0) != 0   # sympy sees the 1/gamma
    with pytest.raises(NotRegularError):
        x.gamma_expand(1)


def test_zeta_expand_matches_sympy_series():
    ctx = quantum_ctx(1)
    s, t = ctx.s, ctx.t(0)
    x = (s * t ** 2 + 1) / (t ** 3 - s ** 2 * t + 2)
    order = 4
    val, ours = zeta_expand(x, order)
    expr = to_sympy(x).as_expr().subs(sp.Symbol("t1"), 1 / ZETA)
    series = sp.expand(sp.series(expr, ZETA, 0, val + order + 1).removeO())
    assert val == 1
    for k, got in enumerate(ours):
        assert sp.cancel(to_sympy(got).as_expr() - series.coeff(ZETA, val + k)) == 0, k
    assert series.coeff(ZETA, val - 1) == 0
