"""The acceptance table: one callable per criterion, each an exact check.

Every criterion returns True only if its residuals are exactly zero (or its
matrices match entrywise in canonical form); nothing here is numeric or
tolerance-based.  `run` executes one criterion or the whole table and
reports wall-clock seconds alongside each verdict.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .catalog import (
    BDTriple,
    ClassicalRMatrix,
    appendixA_r,
    basic_rational_r,
    basic_trig_r,
    classical_r_trig_X,
    classical_r_zero_coupling,
    glN_closed_forms,
    quantum_R_X,
    quantum_R_eps_X,
)
from .fusion import (
    abrr_fusion,
    classical_limit,
    exchange_matrix,
    fusion_exchange_construction,
    shapovalov_vs_fusion,
)
from .macdonald import (
    corollary91_check,
    macdonald_operator,
    macdonald_polynomial,
    schur_polynomial,
    trace_residuals,
    transfer_diffop,
)
from .reps import ext_power, sym_power, tensor, vector_rep
from .rootdata import build_type_A
from .scalars import quantum_ctx, symbol_ctx
from .verify import (
    cdybe_residual,
    cocycle_residual,
    dynamical_hecke_rep,
    family_cases,
    family_check,
    gauge_classical,
    gauge_quantum,
    hecke_check,
    perturb_dynop,
    qdybe_residual,
    unitarity_check,
    InvalidGaugeError,
)


def criterion_1():
    """sl2 Example-1 reproduction, byte-exact, both pipelines."""
    datum = build_type_A(2, "sl")
    v = vector_rep(datum)
    j = fusion_exchange_construction(v, v)
    ja = abrr_fusion(v, v)
    r = exchange_matrix(v, v)
    ra = exchange_matrix(v, v, method="abrr")
    ctx = j.ctx
    lam = ctx.lam(0)
    y = -1 / (lam + 1)
    ok = (j.mat - ja.mat).is_zero and (r.mat - ra.mat).is_zero
    expected_j = {(0, 0): "1", (1, 1): "1", (3, 3): "1", (2, 2): "1",
                  (2, 1): "(-1)/(l1 + 1)"}
    for (rr, cc, v_) in j.mat.entries():
        ok = ok and expected_j.get((rr, cc)) == v_.to_text()
    ok = ok and j.mat[2, 1].to_text() == y.to_text()
    expected_r = {(0, 0): "1", (3, 3): "1", (1, 1): "1",
                  (1, 2): "(-1)/(l1 + 1)", (2, 1): "(1)/(l1 + 1)",
                  (2, 2): "(l1^2 + 2*l1)/(l1^2 + 2*l1 + 1)"}
    for (rr, cc, v_) in r.mat.entries():
        ok = ok and expected_r.get((rr, cc)) == v_.to_text()
    ok = ok and r.mat[2, 2].to_text() == (1 - 1 / (lam + 1) ** 2).to_text()
    return ok


def criterion_2():
    """Quantum sl2 reproduction: the convention-pinning matrices."""
    datum = build_type_A(2, "sl")
    v = vector_rep(datum, quantum=True)
    j = fusion_exchange_construction(v, v)
    ja = abrr_fusion(v, v)
    r = exchange_matrix(v, v)
    ra = exchange_matrix(v, v, method="abrr")
    ctx = j.ctx
    t = ctx.t(0)
    q = ctx.q_power(1)
    big_q = ctx.q_power(2) * t ** 2  # q^(2(lambda+1))
    y = (1 / q - q) / (big_q - 1)
    ok = (j.mat - ja.mat).is_zero and (r.mat - ra.mat).is_zero
    ok = ok and j.mat[2, 1] == y
    ok = ok and all(j.mat[k, k] == ctx.one for k in range(4))
    ok = ok and r.mat[0, 0] == q and r.mat[3, 3] == q
    ok = ok and r.mat[1, 1] == ctx.one
    ok = ok and r.mat[1, 2] == y
    ok = ok and r.mat[2, 1] == (1 / q - q) / (1 / big_q - 1)
    ok = ok and r.mat[2, 2] == (big_q - q ** 2) * (big_q - q ** -2) / (big_q - 1) ** 2
    return ok


def criterion_3():
    """Theorem 6.3 closed forms match the exchange construction, n = 2, 3."""
    ok = True
    for n in (2, 3):
        for quantum in (False, True):
            datum = build_type_A(n, "gl")
            v = vector_rep(datum, quantum)
            j_closed, r_closed = glN_closed_forms(n, quantum)
            ok = ok and (j_closed.mat - fusion_exchange_construction(v, v).mat).is_zero
            ok = ok and (r_closed.mat - exchange_matrix(v, v).mat).is_zero
    return ok


def criterion_4():
    """Cross-method agreement on the full module test set."""
    ok = True
    d_sl2 = build_type_A(2, "sl")
    d_gl2 = build_type_A(2, "gl")
    d_gl3 = build_type_A(3, "gl")
    for quantum in (False, True):
        sl2_v = vector_rep(d_sl2, quantum)
        sl2_s2 = sym_power(sl2_v, 2)
        gl2_v = vector_rep(d_gl2, quantum)
        gl3_v = vector_rep(d_gl3, quantum)
        gl3_l2 = ext_power(gl3_v, 2)
        families = [
            [sl2_v, sl2_s2],
            [gl2_v],
            [gl3_v, gl3_l2],
        ]
        for family in families:
            for m1 in family:
                for m2 in family:
                    j1 = fusion_exchange_construction(m1, m2)
                    j2 = abrr_fusion(m1, m2)
                    ok = ok and (j1.mat - j2.mat).is_zero
    return ok


def criterion_5():
    """Classification families satisfy their equations (n <= 4, all X)."""
    if not all(family_check(case) for case in family_cases(4)):
        return False
    ok = True
    for n in (2, 3):
        datum = build_type_A(n, "gl")
        classical = [basic_rational_r(datum), basic_trig_r(datum)]
        simple_sets = [[], [0]] + ([[1], [0, 1]] if n == 3 else [[0]])
        for xs in simple_sets:
            classical.append(classical_r_trig_X(datum, xs))
        root_subsets = [[], [tuple(datum.positive_roots[0])]]
        if n == 3:
            root_subsets.append([tuple(a) for a in datum.positive_roots])
        for roots in root_subsets:
            classical.append(classical_r_zero_coupling(datum, roots))
        for rmat in classical:
            ok = ok and cdybe_residual(rmat).exact_zero
            ok = ok and unitarity_check(rmat).exact_zero
            if not ok:
                return False
    return ok


def criterion_6():
    """Appendix A: nontrivial nilpotent triple and the tau = id reduction."""
    datum = build_type_A(3, "gl")
    tri = BDTriple(datum, [0], [1], {0: 1}, [(1, 0, -1), (1, 1, 1)])
    r = appendixA_r(tri)
    ok = cdybe_residual(r).exact_zero and unitarity_check(r, 1).exact_zero
    tri_id = BDTriple(datum, [0, 1], [0, 1], {0: 0, 1: 1},
                      [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    r_id = appendixA_r(tri_id)
    rx = classical_r_trig_X(datum, [0, 1], eps=1)
    t1, t2 = r_id.as_tensor(), rx.as_tensor()
    keys = set(t1) | set(t2)
    ok = ok and all((t1.get(k, r_id.ctx.zero) - t2.get(k, r_id.ctx.zero)).is_zero
                    for k in keys)
    return ok


def criterion_7():
    """Gauge closure for every kind, classical and quantum."""
    datum = build_type_A(3, "gl")
    r = basic_rational_r(datum)
    ctx = r.ctx
    ok = True
    r1 = gauge_classical(r, 1, {(0, 1): ctx.from_fraction(Fraction(1, 3)),
                                (1, 2): 1 / (ctx.lam(1) + ctx.lam(2))})
    ok = ok and cdybe_residual(r1).exact_zero
    r2 = gauge_classical(r, 2, (1, Fraction(1, 2), -2))
    ok = ok and cdybe_residual(r2).exact_zero and unitarity_check(r2, 0).exact_zero
    r3 = gauge_classical(r, 3, [2, 0, 1])
    ok = ok and cdybe_residual(r3).exact_zero and unitarity_check(r3, 0).exact_zero
    rt = basic_trig_r(build_type_A(2, "gl"))
    rt3 = gauge_classical(rt, 3, [1, 0])
    ok = ok and cdybe_residual(rt3).exact_zero and unitarity_check(rt3).exact_zero
    try:
        gauge_classical(r, 1, {(0, 1): ctx.lam(2)})
        ok = False
    except InvalidGaugeError:
        pass
    rq = quantum_R_eps_X(3, [1, 2])
    cq = rq.ctx
    q1 = gauge_quantum(rq, 1, {(0, 1): cq.from_fraction(Fraction(2, 5)),
                               (1, 2): cq.t(1) / cq.t(2)})
    ok = ok and qdybe_residual(q1).exact_zero
    q2 = gauge_quantum(rq, 2, (1, Fraction(1, 2), 0))
    ok = ok and qdybe_residual(q2).exact_zero
    ok = ok and hecke_check(q2, cq.q_power(1)).exact_zero
    rx = quantum_R_X(3, [1, 2])
    q3 = gauge_quantum(rx, 3, [1, 2, 0])
    ok = ok and (q3.mat - quantum_R_X(3, [2, 3]).mat).is_zero
    return ok


def criterion_8():
    """Cocycle residuals and the dynamical braid/Hecke relations, p <= 4."""
    ok = True
    d_sl2 = build_type_A(2, "sl")
    v = vector_rep(d_sl2)
    ok = ok and cocycle_residual(v, v, v).exact_zero
    d_gl2 = build_type_A(2, "gl")
    vq = vector_rep(d_gl2, quantum=True)
    ok = ok and cocycle_residual(vq, vq, vq).exact_zero
    for n, fam in ((2, "R-X"), (2, "R-eps-X")):
        full = list(range(1, n + 1))
        op = quantum_R_X(n, full) if fam == "R-X" else quantum_R_eps_X(n, full)
        for p in (2, 3, 4):
            _, rep = dynamical_hecke_rep(op, p, op.ctx.q_power(1))
            ok = ok and rep.exact_zero
    return ok


def criterion_9():
    """Classical limits: gamma series and the classical ABRR limit."""
    ok = True
    for flavor, n in (("sl", 2), ("gl", 2)):
        datum = build_type_A(n, flavor)
        vq = vector_rep(datum, quantum=True)
        r = exchange_matrix(vq, vq, normalized=True)
        mats = classical_limit(r, 1)
        ok = ok and mats[0].is_identity()
        vc = vector_rep(datum)
        r_eps = basic_trig_r(datum).evaluate(vc, vc)
        ok = ok and (mats[1] + r_eps.mat).is_zero
    # classical ABRR limit: J(lambda/gamma) = 1 + gamma j + ..., with
    # j = -sum e_-alpha (x) e_alpha / (lambda, alpha)
    for flavor, n in (("sl", 2), ("gl", 3)):
        datum = build_type_A(n, flavor)
        vc = vector_rep(datum)
        j_op = abrr_fusion(vc, vc)
        mats = classical_limit(j_op, 1)
        ok = ok and mats[0].is_identity()
        tgt = symbol_ctx(datum.n_coords)
        terms = [(datum.root_vector(alpha, negative=True), datum.root_vector(alpha),
                  -1 / datum.lambda_pairing(tgt, alpha)) for alpha in datum.positive_roots]
        expected = ClassicalRMatrix(datum, tgt, terms, 0).evaluate(vc, vc).mat
        ok = ok and (mats[1] - expected).is_zero
    return ok


def criterion_10():
    """Shapovalov inverse vs universal J(0), sl2 depth 3."""
    datum = build_type_A(2, "sl")
    ok = True
    for quantum in (False, True):
        residuals = shapovalov_vs_fusion(datum, 3, quantum)
        ok = ok and all(r.is_zero for r in residuals)
    return ok


def criterion_11():
    """Macdonald suite: commutativity, eigen-equations, Schur, transfer."""
    ok = True
    ctx3 = quantum_ctx(3)
    for m in (0, 1):
        ops = {r: macdonald_operator(3, r, m) for r in (1, 2, 3)}
        for r in (1, 2, 3):
            for s in (r + 1, r + 2):
                if s > 3:
                    continue
                comm = ops[r] * ops[s] - ops[s] * ops[r]
                ok = ok and comm.is_zero
                # exact application to all Laurent monomials of degree <= 3
                for e1 in (-1, 0, 2):
                    for e2 in (-1, 0, 1):
                        mono = ctx3.t(0) ** (2 * e1) * ctx3.t(1) ** (2 * e2)
                        ok = ok and comm.apply_scalar(mono).is_zero
    for n, mu in ((2, (1, 0)), (2, (2, 0)), (2, (2, 1)), (3, (1, 1, 1)),
                  (3, (2, 1, 0)), (3, (3, 0, 0))):
        for m in (0, 1):
            coeffs = macdonald_polynomial(n, mu, m)  # verifies eigen-equations
            if m == 0:
                s = schur_polynomial(n, mu)
                ok = ok and set(coeffs) == set(s)
                ok = ok and all((coeffs[k] - s[k]).is_zero for k in coeffs)
    d_sl2 = build_type_A(2, "sl")
    for quantum in (False, True):
        v = vector_rep(d_sl2, quantum)
        u = sym_power(v, 2)
        d_v = transfer_diffop(v, u)
        d_vw = transfer_diffop(tensor(v, v), u)
        ok = ok and (d_vw - d_v * d_v).is_zero
    return ok


def criterion_12():
    """Corollary 9.1 as an exact difference-operator identity."""
    ok = True
    for m in (0, 1):
        passed, _, _ = corollary91_check(m)
        ok = ok and passed
    return ok


def criterion_13():
    """Trace functions: MR equations through order 3, symmetry to bi-order 2."""
    ok1, ok2, bad = trace_residuals(depth=3, order=3, biorder=2)
    return ok1 and ok2 and not bad


def criterion_14():
    """Negative controls: perturbed solutions produce nonzero witnesses."""
    r = quantum_R_X(3, [1, 2, 3])
    bad = perturb_dynop(r, (0, 1, 0)[:2], (0, 1, 0)[:2], r.ctx.lam(0))
    rep = qdybe_residual(bad)
    ok = (not rep.exact_zero) and rep.witness is not None
    datum = build_type_A(2, "gl")
    rc = basic_rational_r(datum)
    a, b, c = rc.terms[0]
    rc.terms[0] = (a, b, c + rc.ctx.lam(0))
    rep2 = cdybe_residual(rc)
    ok = ok and (not rep2.exact_zero) and rep2.witness is not None
    return ok


CRITERIA = [
    ("1 sl2 Example-1 byte-exact, both pipelines", criterion_1),
    ("2 quantum sl2 convention-pinning matrices", criterion_2),
    ("3 Theorem 6.3 closed forms, n=2,3", criterion_3),
    ("4 cross-method agreement on the module set", criterion_4),
    ("5 classification families (n<=4, all X; ranks<=3)", criterion_5),
    ("6 Appendix A triples", criterion_6),
    ("7 gauge closure, all kinds", criterion_7),
    ("8 cocycle and dynamical braid/Hecke", criterion_8),
    ("9 classical limits and classical ABRR", criterion_9),
    ("10 Shapovalov vs universal J(0)", criterion_10),
    ("11 Macdonald suite", criterion_11),
    ("12 Corollary 9.1", criterion_12),
    ("13 trace-function residuals", criterion_13),
    ("14 negative controls", criterion_14),
]


def run(criterion=None):
    results = []
    for name, fn in CRITERIA:
        number = int(name.split()[0])
        if criterion is not None and number != criterion:
            continue
        start = time.time()
        ok = fn()
        results.append((name, ok, time.time() - start))
    return results
