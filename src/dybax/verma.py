"""Depth-truncated Verma modules with symbolic highest weight, and the
intertwiner solver.

The highest weight is lambda + offset with lambda held symbolic (the
coordinates l_i of the coefficient field) and offset a concrete weight; all
action coefficients are exact rational functions of lambda (polynomials,
in fact) classically, or Laurent in s and the t_i quantumly.

Depth counts lowering-operator factors.  Classical slices carry the PBW
basis in root vectors (positive roots ordered by height, then
lexicographically) with recursive straightening.  Quantum slices use words
in the simple f_i, with linear coordinates obtained through the Shapovalov
(contravariant) form; for sl2 the two bases coincide.

The contravariant form satisfies <f u, v> = <u, e v> with <x, x> = 1, and
is nondegenerate at symbolic lambda, which is what makes the word
coordinates exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .linalg import Mat, rank_of, solve_dense
from .rootdata import RootDatumError, mat_bracket, weight_add, weight_scale, weight_sub


class VermaError(Exception):
    pass


class DegenerateWeightError(VermaError):
    """Singular intertwiner system; only possible at non-generic lambda."""


def _height_or_none(datum, nu):
    try:
        return datum.root_height(nu)
    except RootDatumError:
        return None


def _accumulate(vec, key, term):
    """vec[key] += term on a sparse vector, dropping an entry that cancels."""
    s = vec.get(key)
    s = term if s is None else s + term
    if s.is_zero:
        vec.pop(key, None)
    else:
        vec[key] = s


def shapovalov_gram(slice_, nu):
    """Gram matrix of the contravariant form on the weight space at drop nu,
    in the slice's weight_basis(nu); both slice classes bind it as `gram`."""
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
    """All nonnegative integer combinations of simple roots of height <= depth,
    in (height, coefficient-tuple) order."""
    rank = datum.rank
    out = []

    def rec(i, coeffs, left):
        if i == rank:
            nu = datum.zero_weight
            for c, alpha in zip(coeffs, datum.simple_roots):
                nu = weight_add(nu, weight_scale(alpha, c))
            out.append((sum(coeffs), tuple(coeffs), nu))
            return
        for c in range(left + 1):
            rec(i + 1, coeffs + [c], left - c)

    rec(0, [], depth)
    out.sort(key=lambda t: (t[0], t[1]))
    return [nu for _, _, nu in out]


def root_partitions(datum, nu):
    """Multisets of positive roots summing to nu, as exponent tuples over the
    slice root order (height, then coordinates)."""
    roots = ordered_positive_roots(datum)
    results = []

    def rec(idx, residue, exps):
        h = _height_or_none(datum, residue)
        if h is None:
            return
        if h == 0:
            if all(x == 0 for x in residue):
                results.append(tuple(exps))
            return
        if idx == len(roots):
            return
        beta = roots[idx]
        hb = datum.root_height(beta)
        m = 0
        res = residue
        while True:
            rec(idx + 1, res, exps + [m])
            res = weight_sub(res, beta)
            m += 1
            if _height_or_none(datum, res) is None:
                break

    rec(0, nu, [])
    # pad exponent tuples to the full root list length
    padded = []
    for e in results:
        padded.append(tuple(e) + (0,) * (len(roots) - len(e)))
    return sorted(padded)


def kostant(datum, nu):
    return len(root_partitions(datum, nu))


def ordered_positive_roots(datum):
    roots = list(datum.positive_roots)
    roots.sort(key=lambda b: (datum.root_height(b), tuple(map(Fraction, b))))
    return roots


class VermaSliceC:
    """Classical depth-truncated Verma module over U(n_-)."""

    def __init__(self, datum, offset, depth):
        self.datum = datum
        self.quantum = False
        self.ctx = datum.classical_field()
        self.offset = tuple(Fraction(x) for x in offset)
        self.depth = depth
        self.roots = ordered_positive_roots(datum)
        self.basis = self._enumerate_basis()
        self.index = {m: k for k, m in enumerate(self.basis)}
        self._act_cache = {}
        self._gram_cache = {}

    def _enumerate_basis(self):
        out = []

        def rec(i, exps, left):
            if i == len(self.roots):
                out.append(tuple(exps))
                return
            for c in range(left + 1):
                rec(i + 1, exps + [c], left - c)

        rec(0, [], self.depth)
        out.sort(key=lambda m: (sum(m), m))
        return out

    def drop_of(self, mono):
        nu = self.datum.zero_weight
        for k, beta in zip(mono, self.roots):
            if k:
                nu = weight_add(nu, weight_scale(beta, k))
        return nu

    def weight_basis(self, nu):
        return [m for m in self.basis if self.drop_of(m) == tuple(nu)]

    def empty_key(self):
        return (0,) * len(self.roots)

    # -- straightening -------------------------------------------------------

    def act_pure(self, part, mono):
        """Action of a pure element ('e', j) | ('f', j) | ('h', diag) on a
        basis monomial, as a sparse vector {mono: Scalar}."""
        key = (part, mono)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        kind = part[0]
        if all(k == 0 for k in mono):
            if kind == "e":
                out = {}
            elif kind == "h":
                val = self.datum.lambda_of_diag(list(part[1]), self.ctx, self.offset)
                out = {mono: val} if not val.is_zero else {}
            else:
                j = part[1]
                if 1 <= self.depth:
                    unit = list(mono)
                    unit[j] += 1
                    out = {tuple(unit): self.ctx.one}
                else:
                    out = {}
        else:
            lead = next(i for i, k in enumerate(mono) if k)
            if kind == "f" and part[1] <= lead:
                if sum(mono) + 1 <= self.depth:
                    bumped = list(mono)
                    bumped[part[1]] += 1
                    out = {tuple(bumped): self.ctx.one}
                else:
                    out = {}
            else:
                rest = list(mono)
                rest[lead] -= 1
                rest = tuple(rest)
                sub = self.act_pure(part, rest)
                out = self._prepend_f(lead, sub)
                x = self._pure_matrix(part)
                flead = self.datum.root_vector(self.roots[lead], negative=True)
                bracket = mat_bracket(x, flead)
                for bpart, coeff in self._decompose_pure(bracket):
                    for m, v in self.act_pure(bpart, rest).items():
                        _accumulate(out, m, v * coeff)
        self._act_cache[key] = out
        return out

    def _prepend_f(self, j, vec):
        out = {}
        for m, v in vec.items():
            for m2, v2 in self.act_pure(("f", j), m).items():
                _accumulate(out, m2, v * v2)
        return out

    def _pure_matrix(self, part):
        if part[0] == "e":
            return self.datum.root_vector(self.roots[part[1]])
        if part[0] == "f":
            return self.datum.root_vector(self.roots[part[1]], negative=True)
        diag = part[1]
        out = {}
        for a, d in enumerate(diag):
            if d:
                out[(a, a)] = Fraction(d)
        return out

    def _decompose_pure(self, x):
        pos, diag, neg = self.datum.decompose(x)
        parts = []
        root_index = {tuple(b): i for i, b in enumerate(self.roots)}
        for alpha, c in pos.items():
            parts.append((("e", root_index[tuple(alpha)]), self.ctx.from_fraction(c)))
        for alpha, c in neg.items():
            parts.append((("f", root_index[tuple(alpha)]), self.ctx.from_fraction(c)))
        if any(diag):
            parts.append((("h", tuple(diag)), self.ctx.one))
        return parts

    def act_matrix(self, x, vec):
        """Action of an arbitrary Lie algebra element on a sparse vector."""
        out = {}
        for part, coeff in self._decompose_pure(x):
            for m, v in vec.items():
                for m2, v2 in self.act_pure(part, m).items():
                    _accumulate(out, m2, v * v2 * coeff)
        return out

    def act_simple(self, kind, i, vec):
        """Simple-generator action (kind 'e' or 'f') on a sparse vector."""
        alpha = self.datum.simple_roots[i]
        neg = kind == "f"
        x = self.datum.root_vector(alpha, negative=neg)
        return self.act_matrix(x, vec)

    # -- shapovalov -----------------------------------------------------------

    def pairing(self, m1, m2):
        """Contravariant form <m1 x, m2 x>."""
        key = (m1, m2)
        hit = self._gram_cache.get(key)
        if hit is not None:
            return hit
        if all(k == 0 for k in m1):
            out = self.ctx.one if all(k == 0 for k in m2) else self.ctx.zero
        else:
            lead = next(i for i, k in enumerate(m1) if k)
            rest = list(m1)
            rest[lead] -= 1
            rest = tuple(rest)
            raised = self.act_pure(("e", lead), m2)
            out = self.ctx.zero
            for m, v in raised.items():
                out = out + v * self.pairing(rest, m)
        self._gram_cache[key] = out
        return out

    gram = shapovalov_gram

    def coords(self, nu, vecs):
        """Coordinates of weight-nu sparse vectors in weight_basis(nu)."""
        keys = self.weight_basis(nu)
        return [[vec.get(k, self.ctx.zero) for k in keys] for vec in vecs]


class VermaSliceQ:
    """Quantum depth-truncated Verma module via words in the simple f_i."""

    def __init__(self, datum, offset, depth):
        self.datum = datum
        self.quantum = True
        self.ctx = datum.quantum_field()
        self.offset = tuple(Fraction(x) for x in offset)
        self.depth = depth
        self._e_cache = {}
        self._pair_cache = {}
        self._basis_cache = {}

    def empty_key(self):
        return ()

    def drop_of(self, word):
        nu = self.datum.zero_weight
        for i in word:
            nu = weight_add(nu, self.datum.simple_roots[i])
        return nu

    def _k_value(self, i, drop):
        """K_i on a vector of weight lambda + offset - drop."""
        datum, ctx = self.datum, self.ctx
        alpha = datum.simple_roots[i]
        const = datum.pairing(alpha, weight_sub(self.offset, drop))
        k2 = 2 * Fraction(const)
        if k2.denominator != 1:
            raise VermaError("K eigenvalue not Laurent in s")
        return datum.q_lambda_pairing(ctx, alpha) * ctx.s ** int(k2)

    def e_word(self, i, word):
        """e_i applied to a word vector; a sparse {word: Scalar}."""
        key = (i, word)
        hit = self._e_cache.get(key)
        if hit is not None:
            return hit
        if not word:
            out = {}
        else:
            j, rest = word[0], word[1:]
            out = {}
            for w, v in self.e_word(i, rest).items():
                out[(j,) + w] = v
            if i == j:
                ctx = self.ctx
                kv = self._k_value(i, self.drop_of(rest))
                _accumulate(out, rest, (kv - 1 / kv) / (ctx.s ** 2 - ctx.s ** -2))
        self._e_cache[key] = out
        return out

    def act_simple(self, kind, i, vec):
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
        nu = tuple(Fraction(x) for x in nu)
        hit = self._basis_cache.get(nu)
        if hit is not None:
            return hit
        ht = self.datum.root_height(nu)
        if ht > self.depth:
            raise VermaError(f"weight drop {nu} beyond slice depth")
        target = kostant(self.datum, nu)
        # content of nu in simple roots
        coeffs = self._simple_content(nu)
        letters = []
        for i, c in enumerate(coeffs):
            letters += [i] * c
        candidates = sorted(set(permutations(letters)))
        chosen = []
        for w in candidates:
            if len(chosen) == target:
                break
            trial = chosen + [w]
            g = [[self.pairing(a, b) for b in trial] for a in trial]
            if rank_of(g, len(trial)) == len(trial):
                chosen.append(w)
        if len(chosen) != target:
            raise VermaError("could not select an independent word basis")
        self._basis_cache[nu] = chosen
        return chosen

    def _simple_content(self, nu):
        # type A: invert the simple-root coordinate change exactly
        rank = self.datum.rank
        coeffs = []
        if self.datum.sl2_model:
            c = Fraction(nu[0]) / 2
            coeffs = [c]
        else:
            acc = Fraction(0)
            for a in range(rank):
                acc += Fraction(nu[a])
                coeffs.append(acc)
        out = []
        for c in coeffs:
            if c.denominator != 1 or c < 0:
                raise VermaError(f"{nu} is not a nonnegative root combination")
            out.append(int(c))
        return out

    gram = shapovalov_gram

    def coords(self, nu, vecs):
        """Coordinates of weight-nu sparse vectors in weight_basis(nu): one
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

    def expectation(self):
        """<Phi> as a dense aux-module coefficient vector."""
        ctx = self.slice.ctx
        out = [ctx.zero] * self.aux.dim
        empty = self.slice.empty_key()
        for (key, u), c in self.image.items():
            if key == empty:
                out[u] = out[u] + c
        return out


def solve_intertwiner(slice_, aux, v_index):
    """The unique intertwiner with leading term x (x) v_(v_index).

    slice_ is the target Verma slice (offset already includes -wt(v)); its
    depth bounds the weight drops, which need the height spread of aux.
    """
    datum, ctx = slice_.datum, slice_.ctx
    v_wt = aux.weights[v_index]
    aux_blocks = aux.weight_blocks()
    drops = enumerate_drops(datum, slice_.depth)
    unknown_blocks = {}
    for nu in drops:
        ht = datum.root_height(nu)
        if ht == 0:
            continue
        target_wt = weight_add(v_wt, nu)
        cols = aux_blocks.get(target_wt)
        if not cols:
            continue
        keys = slice_.weight_basis(nu)
        if not keys:
            continue
        unknown_blocks[nu] = (keys, cols)

    solution = {(slice_.empty_key(), v_index): ctx.one}
    by_height = {}
    for nu in unknown_blocks:
        by_height.setdefault(datum.root_height(nu), []).append(nu)

    solved_drops = {datum.zero_weight: [(slice_.empty_key(), v_index)]}

    for h in sorted(by_height):
        for nu in by_height[h]:
            keys, cols = unknown_blocks[nu]
            nvars = len(keys) * len(cols)
            rows = []
            rhs = []
            for i in range(datum.rank):
                mu = weight_sub(nu, datum.simple_roots[i])
                mu_ht = _height_or_none(datum, mu)
                if mu_ht is None or mu_ht != h - 1:
                    if mu_ht is not None and mu_ht >= 0:
                        raise VermaError("drop bookkeeping error")
                    continue
                mu_keys = slice_.weight_basis(mu)
                # aux indices of the equation block (weight v_wt + nu)
                eq_cols = cols
                # coefficient rows: e_i on slice part
                e_coords = slice_.coords(
                    mu, [slice_.act_simple("e", i, {key: ctx.one}) for key in keys])
                # contributions of solved components at drop mu via K (x) e_i
                known = solved_drops.get(tuple(mu), [])
                kn_vec = {}
                for (key, u) in known:
                    c = solution[(key, u)]
                    if slice_.quantum:
                        kscal = slice_._k_value(i, mu)
                        kval = 1 / kscal
                    else:
                        kval = ctx.one
                    for (r, uc, vv) in aux.e(i).entries():
                        if uc == u:
                            mu_pos = mu_keys.index(key) if key in mu_keys else None
                            if mu_pos is None:
                                raise VermaError("known component not in basis")
                            _accumulate(kn_vec, (mu_pos, r), c * kval * vv)
                for mu_pos in range(len(mu_keys)):
                    for r_aux_pos, r_aux in enumerate(eq_cols):
                        row = [ctx.zero] * nvars
                        any_nonzero = False
                        for k_pos in range(len(keys)):
                            coeff = e_coords[k_pos][mu_pos]
                            if not coeff.is_zero:
                                for u_pos, u in enumerate(cols):
                                    if u == r_aux:
                                        row[k_pos * len(cols) + u_pos] = coeff
                                        any_nonzero = True
                        target = kn_vec.get((mu_pos, r_aux), ctx.zero)
                        if any_nonzero or not target.is_zero:
                            rows.append(row)
                            rhs.append(-target)
            if not rows:
                rows = [[ctx.zero] * nvars]
                rhs = [ctx.zero]
            try:
                x = solve_dense(ctx, rows, rhs)
            except ZeroDivisionError as exc:
                raise DegenerateWeightError(str(exc)) from exc
            placed = []
            for k_pos, key in enumerate(keys):
                for u_pos, u in enumerate(cols):
                    val = x[k_pos * len(cols) + u_pos]
                    if not val.is_zero:
                        solution[(key, u)] = val
                    placed.append((key, u))
                    if (key, u) not in solution:
                        solution[(key, u)] = ctx.zero
            solved_drops[tuple(nu)] = placed
    return Intertwiner(slice_, aux, v_index, solution)


def apply_coproduct_word(phi, letters):
    """Delta(f_word) applied to Phi(x): the value Phi(f_word . x) as a sparse
    {(key, aux): Scalar}.  letters are slice letters: root indices for the
    classical PBW slice, simple indices quantumly, applied left to right as
    written (word[0] outermost)."""
    slice_, aux, ctx = phi.slice, phi.aux, phi.slice.ctx
    vec = dict(phi.image)
    for letter in reversed(letters):
        nxt = {}
        if slice_.quantum:
            i = letter
            for (key, u), c in vec.items():
                # f_i (x) K_i
                for key2, v2 in slice_.act_simple("f", i, {key: ctx.one}).items():
                    _accumulate(nxt, (key2, u), c * v2 * aux.k_power(i, u))
                # 1 (x) f_i
                for (r, uc, vv) in aux.f(i).entries():
                    if uc == u:
                        _accumulate(nxt, (key, r), c * vv)
        else:
            root_idx = letter
            beta = slice_.roots[root_idx]
            aux_f = aux.root_action(beta, negative=True)
            for (key, u), c in vec.items():
                for key2, v2 in slice_.act_pure(("f", root_idx), key).items():
                    _accumulate(nxt, (key2, u), c * v2)
                for (r, uc, vv) in aux_f.entries():
                    if uc == u:
                        _accumulate(nxt, (key, r), c * vv)
        vec = nxt
    return vec


def key_letters(slice_, key):
    """The letter sequence of a slice basis key, outermost first."""
    if slice_.quantum:
        return list(key)
    letters = []
    for idx, k in enumerate(key):
        letters += [idx] * k
    return letters
