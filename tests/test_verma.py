import pytest

from dybax.linalg import rank_of, solve_dense
from dybax.reps import tensor, vector_rep
from dybax.rootdata import build_type_A
from dybax.verma import (
    apply_coproduct_word,
    enumerate_drops,
    root_partitions,
    shapovalov_gram,
    solve_intertwiner,
    verma_slice,
)


def test_sl2_basis_and_straightening():
    datum = build_type_A(2, "sl")
    sl = verma_slice(datum, (0,), 2)
    assert [sl.weight_basis(nu) for nu in enumerate_drops(datum, 2)] == [[()], [(0,)], [(0, 0)]]
    # e f^2 x = (2 lambda - 2) f x at highest weight lambda
    ctx = sl.ctx
    out = sl.act_simple("e", 0, {(0, 0): ctx.one})
    assert set(out) == {(0,)}
    assert out[(0,)] == 2 * ctx.lam(0) - 2
    # f x lies one alpha below the highest weight
    assert sl.drop_of((0,)) == (1,)


def test_gl3_slice_dimension():
    datum = build_type_A(3, "gl")
    sl = verma_slice(datum, (0, 0, 0), 2)
    dims = [len(sl.weight_basis(nu)) for nu in enumerate_drops(datum, 2)]
    # depth counts simple letters, so heights 0, 1, 2: 1 + 2 + (1 + 2 + 1)
    assert sum(dims) == 7
    # the words of each drop, root words in non-increasing order
    sl = verma_slice(datum, (0, 0, 0), 3)
    assert sl.weight_basis((1, 1)) == [(0, 1), (1, 0)]
    assert sl.weight_basis((1, 2)) == [(1, 0, 1), (1, 1, 0)]
    assert sl.weight_basis((2, 1)) == [(0, 1, 0), (1, 0, 0)]
    sl = verma_slice(build_type_A(4, "gl"), (0, 0, 0, 0), 4)
    assert sl.weight_basis((1, 2, 1)) == [
        (1, 2, 0, 1), (1, 0, 1, 2), (1, 2, 1, 0), (2, 1, 0, 1), (2, 1, 1, 0)]


def test_shapovalov_sl2():
    datum = build_type_A(2, "sl")
    sl = verma_slice(datum, (0,), 2)
    ctx = sl.ctx
    lam = ctx.lam(0)
    g1 = shapovalov_gram(sl, (1,))
    assert g1[0, 0] == lam
    g2 = shapovalov_gram(sl, (2,))
    assert g2[0, 0] == 2 * lam * (lam - 1)


def test_shapovalov_gl3_symmetric_invertible():
    datum = build_type_A(3, "gl")
    sl = verma_slice(datum, (0, 0, 0), 2)
    nu = (1, 1)  # alpha_1 + alpha_2: 2-dimensional weight space
    g = shapovalov_gram(sl, nu)
    assert g.nrows == 2
    assert g[0, 1] == g[1, 0]
    g.inverse()  # generically invertible


def test_kostant_counts():
    datum = build_type_A(3, "gl")
    assert len(root_partitions(datum, (1, 1))) == 2
    assert len(root_partitions(datum, (1, 0))) == 1
    assert len(root_partitions(datum, (2, 2))) == 3
    datum = build_type_A(4, "gl")
    assert len(root_partitions(datum, (1, 1, 1))) == 4
    assert len(root_partitions(datum, (1, 2, 1))) == 5


def test_intertwiner_sl2_classical():
    # Phi^{v-}: x -> x (x) v- - 1/(lambda+1) f x (x) v+
    datum = build_type_A(2, "sl")
    v = vector_rep(datum)
    sl = verma_slice(datum, (1,), 1)  # target hw = lambda - wt(v-) = lambda + 1
    phi = solve_intertwiner(sl, v, 1)
    ctx = sl.ctx
    lam = ctx.lam(0)
    assert phi.image[((), 1)] == ctx.one
    assert phi.image[((0,), 0)] == -1 / (lam + 1)
    # Phi^{v+} has no lower terms
    sl2 = verma_slice(datum, (-1,), 1)
    phi2 = solve_intertwiner(sl2, v, 0)
    assert set(k for k, c in phi2.image.items() if not c.is_zero) == {((), 0)}


def test_intertwiner_sl2_quantum():
    datum = build_type_A(2, "sl")
    v = vector_rep(datum, quantum=True)
    sl = verma_slice(datum, (1,), 1, quantum=True)
    phi = solve_intertwiner(sl, v, 1)
    ctx = sl.ctx
    s, t = ctx.s, ctx.t(0)
    # y(lambda) = (q^-1 - q)/(q^(2(lambda+1)) - 1), q^(2 lambda) = t^2;
    # the quantum slice key for f.x is the one-letter word (0,)
    expected = (s ** -2 - s ** 2) / (s ** 4 * t ** 2 - 1)
    assert phi.image[((0,), 0)] == expected


def test_intertwiner_singular_property():
    # Delta(e) Phi(x) = 0 for gl3 classical and quantum, with V and V (x) V as
    # the aux module; the weight spaces e_a + e_b of V (x) V are
    # 2-dimensional, so there a drop solves for two aux columns at once
    datum = build_type_A(3, "gl")
    for quantum in (False, True):
        v = vector_rep(datum, quantum)
        # v3, wt e3, and v3 (x) v3, wt 2 e3, each at its module's height spread
        for aux, widx, depth in ((v, 2, 2), (tensor(v, v), 8, 4)):
            off = tuple(-x for x in aux.weights[widx])
            sl = verma_slice(datum, off, depth, quantum=quantum)
            phi = solve_intertwiner(sl, aux, widx)
            ctx = sl.ctx
            columns = {}
            for (key, u), c in phi.image.items():
                if not c.is_zero:
                    columns.setdefault((key, aux.weights[u]), set()).add(u)
            assert max(map(len, columns.values())) == (2 if aux is not v else 1)
            for i in range(datum.rank):
                # Delta(e_i) Phi(x) as word vectors, one per (drop, aux index)
                acc = {}
                for (key, u), c in phi.image.items():
                    for key2, v2 in sl.act_simple("e", i, {key: ctx.one}).items():
                        vec = acc.setdefault((sl.drop_of(key2), u), {})
                        vec[key2] = vec.get(key2, ctx.zero) + c * v2
                    kinv = sl.k_inverse(i, sl.drop_of(key))
                    for (r, uc, vv) in aux.e(i).entries():
                        if uc == u:
                            vec = acc.setdefault((sl.drop_of(key), r), {})
                            vec[key] = vec.get(key, ctx.zero) + c * kinv * vv
                # words past height 2 obey Serre relations, so each vector is
                # tested in the Kostant basis of its drop
                for (mu, u), vec in acc.items():
                    assert all(x.is_zero for x in sl.coords(mu, [vec])[0]), (quantum, aux, i)


def test_intertwiner_property_on_slice():
    # Phi(f_j x) = Delta(f_j) Phi(x): check e_i Delta-singularity propagates:
    # apply Delta(e_i) to Phi(f_j x) and compare with Phi(e_i f_j x).
    datum = build_type_A(2, "sl")
    v = vector_rep(datum)
    sl = verma_slice(datum, (1,), 3)
    src = verma_slice(datum, (0,), 3)
    phi = solve_intertwiner(sl, v, 1)
    ctx = sl.ctx
    phi_f = apply_coproduct_word(phi, [0])
    # Delta(e) Phi(f x)
    acc = {}
    for (key, u), c in phi_f.items():
        for key2, v2 in sl.act_simple("e", 0, {key: ctx.one}).items():
            cell = (key2, u)
            acc[cell] = acc.get(cell, ctx.zero) + c * v2
        for (r, uc, vv) in v.e(0).entries():
            if uc == u:
                cell = (key, r)
                acc[cell] = acc.get(cell, ctx.zero) + c * vv
    # Phi(e f x) = lambda * Phi(x) at source hw lambda
    lam_val = src.act_simple("e", 0, {(0,): ctx.one})[()]
    expect = {cell: c * lam_val for cell, c in phi.image.items()}
    keys = set(acc) | set(expect)
    for k in keys:
        assert acc.get(k, ctx.zero) == expect.get(k, ctx.zero)


def test_enumerate_drops():
    datum = build_type_A(2, "gl")
    assert enumerate_drops(datum, 2) == [(0,), (1,), (2,)]


def test_quantum_block_coords_match_per_vector_solves():
    # coords(nu, vecs) solves the Gram system once for the e_i-images of a
    # whole weight space; each column must equal its own dense solve and
    # reproduce <a, vec> for every basis word a, in both flavours
    datum = build_type_A(3, "gl")
    checked = 0
    # 2 alpha_1 + alpha_2, alpha_1 + 2 alpha_2 and alpha_1 + alpha_2
    for quantum in (False, True):
        sl = verma_slice(datum, (0, 0, 0), 3, quantum=quantum)
        ctx = sl.ctx
        for nu in [(2, 1), (1, 2), (1, 1)]:
            keys = sl.weight_basis(nu)
            for i in range(datum.rank):
                mu = tuple(c - (k == i) for k, c in enumerate(nu))
                mu_keys = sl.weight_basis(mu)
                vecs = [sl.act_simple("e", i, {key: ctx.one}) for key in keys]
                block = sl.coords(mu, vecs)
                g = sl.gram(mu)
                rows = [[g[r, c] for c in range(len(mu_keys))] for r in range(len(mu_keys))]
                for vec, got in zip(vecs, block):
                    rhs = [sum((v * sl.pairing(a, w) for w, v in vec.items()), ctx.zero)
                           for a in mu_keys]
                    assert got == solve_dense(ctx, rows, rhs)
                    for a, target in zip(mu_keys, rhs):
                        back = sum((c * sl.pairing(a, b) for b, c in zip(mu_keys, got)),
                                   ctx.zero)
                        assert (back - target).is_zero
                    checked += 1
    assert checked == 24   # two words times two generators per weight and flavour


@pytest.mark.parametrize("quantum", [False, True])
def test_word_basis_is_a_kostant_basis(quantum):
    # weight_basis(nu) is one word of drop nu per Kostant partition, chosen
    # without a rank test; its Gram matrix must be invertible at symbolic
    # lambda, on every drop of gl3 and gl4 to height 3 and on the gl4 drop
    # alpha_1 + 2 alpha_2 + alpha_3
    cases = [(build_type_A(n, "gl"), 3, None) for n in (3, 4)]
    cases.append((build_type_A(4, "gl"), 4, [(1, 2, 1)]))
    for datum, depth, drops in cases:
        sl = verma_slice(datum, datum.zero_weight, depth, quantum=quantum)
        for nu in drops or enumerate_drops(datum, depth):
            words = sl.weight_basis(nu)
            assert len(set(words)) == len(words) == len(root_partitions(datum, nu)), nu
            assert all(sl.drop_of(w) == nu for w in words), nu
            g = sl.gram(nu)
            if drops is None:
                g.inverse()
            else:
                # full rank, i.e. invertible: the 5 x 5 quantum inverse
                # itself takes minutes, its forward elimination seconds
                rows = [[g[r, c] for c in range(g.ncols)] for r in range(g.nrows)]
                assert rank_of(rows, g.ncols) == g.nrows == 5
