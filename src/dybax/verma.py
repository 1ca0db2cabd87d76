"""Depth-truncated Verma modules with symbolic highest weight, and the
intertwiner solver.

The highest weight is lambda + offset with lambda held symbolic (the
coordinates l_i of the coefficient field) and offset a concrete weight; all
action coefficients are exact rational functions of lambda (polynomials,
in fact) classically, or Laurent in s and the t_i quantumly.

One engine serves both flavours.  A vector is a sparse combination of words
in the simple f_i (word[0] outermost), and depth counts letters.  e_i acts
by e_i f_j w = f_j e_i w + delta_ij [e_i, f_i] w, so a flavour only supplies
the scalar by which [e_i, f_i] acts on a weight vector (h_i classically,
(K_i - K_i^-1)/(q - q^-1) quantumly).  The K_i^-1 factor of the coproduct
is q^-(weight, alpha_i) for both, 1 on the classical field.  Each weight
space is spanned by the words of its Kostant partitions
(`VermaSlice.weight_basis`), and coordinates in that basis come from one
solve of the Shapovalov (contravariant) Gram system per block.

A drop is a tuple of nonnegative ints, one multiplicity per simple root:
the weight space at drop d has weight lambda + offset - sum_i d[i] alpha_i,
its words have d[i] letters i, and its height sum(d) is the depth it needs.
`drop_weight` gives the weight where a pairing or an aux weight block needs it.

The intertwiner solve keeps the tensor structure of the singular condition:
at each drop the unknown block is (words) x (aux weight space), the slice
side acts on it as A (x) 1, and the drop is one multi-column solve A X = B
whose right-hand side comes from the block one simple root below.

The contravariant form satisfies <f u, v> = <u, e v> with <x, x> = 1, and
is nondegenerate at symbolic lambda, which is what makes the word
coordinates exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product

from .linalg import Mat
from .rootdata import weight_add, weight_sub


class VermaError(Exception):
    pass


class DegenerateWeightError(VermaError):
    """Singular intertwiner system; only possible at non-generic lambda."""


def _accumulate(vec, key, term):
    """vec[key] += term on a sparse vector, dropping an entry that cancels."""
    s = vec.get(key)
    s = term if s is None else s + term
    if s.is_zero:
        vec.pop(key, None)
    else:
        vec[key] = s


def shapovalov_gram(slice_, nu):
    """Gram matrix of the contravariant form on the weight space at the drop
    nu, in the slice's weight_basis(nu); both slice classes bind it as `gram`."""
    keys = slice_.weight_basis(nu)
    g = Mat(len(keys), len(keys), slice_.ctx)
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            if j < i:
                g.set(i, j, g[j, i])
            else:
                g.set(i, j, slice_.pairing(a, b))
    return g


def enumerate_drops(datum, depth):
    """All drops of height <= depth, in (height, drop) order."""
    drops = (c for c in product(range(depth + 1), repeat=datum.rank) if sum(c) <= depth)
    return sorted(drops, key=lambda c: (sum(c), c))


def drop_weight(datum, drop):
    """The weight sum_i drop[i] alpha_i."""
    return tuple(sum(c * x for c, x in zip(drop, coord)) for coord in zip(*datum.simple_roots))


@cache
def ordered_positive_roots(datum):
    """The positive roots as drops, by height and then by drop."""
    roots = (tuple(int(c) for c in datum.simple_coefficients(beta))
             for beta in datum.positive_roots)
    return tuple(sorted(roots, key=lambda b: (sum(b), b)))


def root_partitions(datum, nu):
    """Multisets of positive roots summing to the drop nu, as exponent tuples
    over `ordered_positive_roots`, in increasing order."""
    roots = ordered_positive_roots(datum)
    results = []

    def rec(idx, residue, exps):
        if idx == len(roots):
            if not any(residue):
                results.append(exps)
            return
        m = 0
        while min(residue) >= 0:
            rec(idx + 1, residue, exps + (m,))
            residue = weight_sub(residue, roots[idx])
            m += 1

    rec(0, nu, ())
    return results


class VermaSlice:
    """Depth-truncated Verma module on words in the simple f_i, with weight
    spaces indexed by drops.

    A flavour subclass supplies `cartan(i, drop)`, the scalar of [e_i, f_i]
    on the weight space at drop; `k_inverse(i, drop)` is the K_i^-1 factor
    there that the coproduct puts on the slice side.
    """

    quantum = False

    def __init__(self, datum, offset, depth):
        self.datum = datum
        self.ctx = datum.field(self.quantum)
        self.offset = tuple(Fraction(x) for x in offset)
        self.depth = depth
        self._e_cache = {}
        self._pair_cache = {}
        self._basis_cache = {}

    def drop_of(self, word):
        return tuple(word.count(i) for i in range(self.datum.rank))

    def e_word(self, i, word):
        """e_i applied to a word vector; a sparse {word: Scalar}."""
        key = (i, word)
        hit = self._e_cache.get(key)
        if hit is not None:
            return hit
        out = {}
        if word:
            j, rest = word[0], word[1:]
            for w, v in self.e_word(i, rest).items():
                out[(j,) + w] = v
            if i == j:
                _accumulate(out, rest, self.cartan(i, self.drop_of(rest)))
        self._e_cache[key] = out
        return out

    def act_simple(self, kind, i, vec):
        """Simple-generator action (kind 'e' or 'f') on a sparse vector."""
        out = {}
        if kind == "f":
            for w, v in vec.items():
                if len(w) + 1 <= self.depth:
                    _accumulate(out, (i,) + w, v)
            return out
        for w, v in vec.items():
            for w2, v2 in self.e_word(i, w).items():
                _accumulate(out, w2, v * v2)
        return out

    def pairing(self, w1, w2):
        """Contravariant form <f_w1 x, f_w2 x>."""
        key = (w1, w2)
        hit = self._pair_cache.get(key)
        if hit is not None:
            return hit
        if not w1:
            out = self.ctx.one if not w2 else self.ctx.zero
        else:
            i, rest = w1[0], w1[1:]
            out = self.ctx.zero
            for w, v in self.e_word(i, w2).items():
                out = out + v * self.pairing(rest, w)
        self._pair_cache[key] = out
        return out

    def weight_basis(self, nu):
        """One word per Kostant partition of the drop nu: the root words of
        the partition concatenated in non-increasing order, where a root's
        word is the indices of its nonzero multiplicities.

        These are the good Lyndon words of type A, whose monomials form a
        basis of U(n_-) (Lalonde-Ram 1995) and of U_q(n_-) (Leclerc 2004),
        so no rank test is made here; `coords` still raises on a singular
        Gram system.
        """
        hit = self._basis_cache.get(nu)
        if hit is not None:
            return hit
        if len(nu) != self.datum.rank or sum(nu) > self.depth or \
                not all(isinstance(c, int) and c >= 0 for c in nu):
            raise VermaError(f"{nu} is not a drop of this slice: want {self.datum.rank} "
                             f"nonnegative ints summing to at most {self.depth}")
        words = [tuple(i for i, m in enumerate(beta) if m)
                 for beta in ordered_positive_roots(self.datum)]
        out = []
        for exps in root_partitions(self.datum, nu):
            parts = sorted((w for w, k in zip(words, exps) for _ in range(k)), reverse=True)
            out.append(sum(parts, ()))
        self._basis_cache[nu] = out
        return out

    def k_inverse(self, i, drop):
        """K_i^-1 on the weight space at drop, of weight lambda + offset - nu
        with nu = drop_weight(drop): q^-(lambda + offset - nu, alpha_i), 1
        classically."""
        datum, ctx = self.datum, self.ctx
        alpha = datum.simple_roots[i]
        return datum.q_lambda_pairing(ctx, alpha, factor=-1) * ctx.q_power(
            -datum.pairing(alpha, weight_sub(self.offset, drop_weight(datum, drop))))

    def coords(self, nu, vecs):
        """Coordinates of sparse vectors at the drop nu in weight_basis(nu): one
        solve of the Gram system for the block of right-hand sides
        <a, vec>, a running over the basis words."""
        keys = self.weight_basis(nu)
        rhs = Mat(len(keys), len(vecs), self.ctx)
        for i, a in enumerate(keys):
            for col, vec in enumerate(vecs):
                acc = self.ctx.zero
                for w, v in vec.items():
                    acc = acc + v * self.pairing(a, w)
                rhs.set(i, col, acc)
        x = self.gram(nu).solve(rhs)
        return [[x[i, col] for i in range(len(keys))] for col in range(len(vecs))]


# Both flavours bind `gram` and `coords` in their own class body: the span
# tracer of the benchmark wraps them per class, through the class __dict__.

class VermaSliceC(VermaSlice):
    """Classical slice: [e_i, f_i] = h_i and K_i = 1."""

    def cartan(self, i, drop):
        """h_i on the weight space at drop: (lambda + offset - nu, alpha_i)
        with nu = drop_weight(drop)."""
        alpha = self.datum.simple_roots[i]
        return self.datum.lambda_pairing(self.ctx, alpha) + self.ctx.from_fraction(
            self.datum.pairing(alpha, weight_sub(self.offset, drop_weight(self.datum, drop))))

    gram = shapovalov_gram
    coords = VermaSlice.coords


class VermaSliceQ(VermaSlice):
    """Quantum slice: [e_i, f_i] = (K_i - K_i^-1)/(q - q^-1), q = s^2."""

    quantum = True

    def cartan(self, i, drop):
        kinv = self.k_inverse(i, drop)
        return (1 / kinv - kinv) / (self.ctx.q_power(1) - self.ctx.q_power(-1))

    gram = shapovalov_gram
    coords = VermaSlice.coords


def verma_slice(datum, offset, depth, quantum=False):
    """Depth-truncated Verma module with highest weight lambda + offset."""
    cls = VermaSliceQ if quantum else VermaSliceC
    return cls(datum, offset, depth)


class Intertwiner:
    """Phi^v: M_lambda -> M_(lambda - wt v) (x) V, stored through its value on
    the highest weight vector, in slice-key (x) aux-index coordinates."""

    def __init__(self, slice_, aux, v_index, image):
        self.slice = slice_
        self.aux = aux
        self.v_index = v_index
        self.image = image  # {(key, aux index): Scalar}


def solve_intertwiner(slice_, aux, v_index):
    """The unique intertwiner with leading term x (x) v_(v_index).

    slice_ is the target Verma slice (offset already includes -wt(v)); its
    depth bounds the drops, which need the height spread of aux.

    The unknown block at drop nu is X_nu, words of nu by aux indices of
    weight wt(v) + drop_weight(nu), and Delta(e_i) = e_i (x) 1 + K_i^-1 (x)
    e_i acts on it as A (x) 1 plus a term from the block solved at the drop
    nu - alpha_i, one letter i fewer.  So
    each drop is one solve A X_nu = B: A has a row per (i, word of
    nu - alpha_i) holding the e_i-coordinates of the words of nu, and B
    carries -K_i^-1 (x) e_i applied to X_(nu - alpha_i), one column per aux
    index.
    """
    datum, ctx = slice_.datum, slice_.ctx
    v_wt = aux.weights[v_index]
    aux_blocks = aux.weight_blocks()
    image = {((), v_index): ctx.one}
    # drop -> ({aux index: column}, solved block)
    zero, *drops = enumerate_drops(datum, slice_.depth)
    solved = {zero: ({v_index: 0}, Mat.identity(1, ctx))}
    for nu in drops:
        cols = aux_blocks.get(weight_add(v_wt, drop_weight(datum, nu)))
        if not cols:
            continue
        keys = slice_.weight_basis(nu)
        at = {u: k for k, u in enumerate(cols)}
        a_rows, b_rows, nrows = {}, {}, 0
        for i in range(datum.rank):
            if not nu[i]:
                continue
            mu = nu[:i] + (nu[i] - 1,) + nu[i + 1:]
            images = [slice_.act_simple("e", i, {key: ctx.one}) for key in keys]
            for k, col in enumerate(slice_.coords(mu, images)):
                for m, c in enumerate(col):
                    if not c.is_zero:
                        a_rows.setdefault(nrows + m, {})[k] = c
            known = solved.get(mu)
            if known is not None:
                prev_at, prev = known
                e_t = Mat(prev.ncols, len(cols), ctx)   # e_i, transposed
                for r, c, v in aux.e(i).entries():
                    if c in prev_at:
                        e_t.set(prev_at[c], at[r], v)
                kval = slice_.k_inverse(i, mu)
                for m, row in (prev * e_t).rows.items():
                    b_rows[nrows + m] = {u: -kval * v for u, v in row.items()}
            nrows += len(slice_.weight_basis(mu))
        try:
            x = Mat(nrows, len(keys), ctx, a_rows).solve(Mat(nrows, len(cols), ctx, b_rows))
        except ZeroDivisionError as exc:
            raise DegenerateWeightError(str(exc)) from exc
        solved[nu] = (at, x)
        for k, key in enumerate(keys):
            for u, aux_index in enumerate(cols):
                image[(key, aux_index)] = x[k, u]
    return Intertwiner(slice_, aux, v_index, image)


def apply_coproduct_word(phi, letters):
    """Delta(f_word) applied to Phi(x): the value Phi(f_word . x) as a sparse
    {(key, aux): Scalar}.  letters are simple indices, applied left to right
    as written (word[0] outermost), with Delta(f_i) = f_i (x) K_i + 1 (x) f_i
    and K_i = 1 classically."""
    slice_, aux, ctx = phi.slice, phi.aux, phi.slice.ctx
    vec = dict(phi.image)
    for i in reversed(letters):
        nxt = {}
        for (key, u), c in vec.items():
            k = aux.k_power(i, u)
            for key2, v2 in slice_.act_simple("f", i, {key: ctx.one}).items():
                _accumulate(nxt, (key2, u), c * v2 * k)
            for (r, uc, vv) in aux.f(i).entries():
                if uc == u:
                    _accumulate(nxt, (key, r), c * vv)
        vec = nxt
    return vec
