"""Small exact matrices over a Scalar context: products, solves, kernels.

Matrices here are sparse row-major dictionaries of Scalars.  Everything is
exact Gaussian elimination over the fraction field.  `Mat.solve` is the one
Gauss-Jordan routine for linear systems: it reduces [A | B] once for a whole
block B of right-hand sides, so restricting an operator to a submodule
(every column of the restriction at once), `Mat.inverse` (B = 1) and
`solve_dense` (one column) share a single elimination.  Sizes in this
package stay below a few hundred rows, so no pivoting strategy beyond
"first nonzero" is needed.
"""

from __future__ import annotations

from .scalars import Scalar


class Mat:
    __slots__ = ("nrows", "ncols", "ctx", "rows")

    def __init__(self, nrows, ncols, ctx, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.ctx = ctx
        self.rows = rows if rows is not None else {}

    @classmethod
    def identity(cls, n, ctx):
        return cls(n, n, ctx, {i: {i: ctx.one} for i in range(n)})

    @classmethod
    def zero(cls, nrows, ncols, ctx):
        return cls(nrows, ncols, ctx)

    def copy(self):
        return Mat(self.nrows, self.ncols, self.ctx,
                   {i: dict(r) for i, r in self.rows.items()})

    def __getitem__(self, key):
        i, j = key
        return self.rows.get(i, {}).get(j, self.ctx.zero)

    def set(self, i, j, val):
        if val.is_zero:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
            return
        self.rows.setdefault(i, {})[j] = val

    def add_to(self, i, j, val):
        self.set(i, j, self[i, j] + val)

    def entries(self):
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, v

    def __mul__(self, other):
        if isinstance(other, Scalar):
            out = Mat(self.nrows, self.ncols, self.ctx)
            for i, j, v in self.entries():
                out.set(i, j, v * other)
            return out
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = Mat(self.nrows, other.ncols, self.ctx)
        for i, row in self.rows.items():
            acc = {}
            for k, a in row.items():
                brow = other.rows.get(k)
                if not brow:
                    continue
                for j, b in brow.items():
                    prod = a * b
                    if j in acc:
                        acc[j] = acc[j] + prod
                    else:
                        acc[j] = prod
            clean = {j: v for j, v in acc.items() if not v.is_zero}
            if clean:
                out.rows[i] = clean
        return out

    def __add__(self, other):
        out = self.copy()
        for i, j, v in other.entries():
            out.add_to(i, j, v)
        return out

    def __sub__(self, other):
        out = self.copy()
        for i, j, v in other.entries():
            out.add_to(i, j, -v)
        return out

    def __neg__(self):
        return Mat(self.nrows, self.ncols, self.ctx,
                   {i: {j: -v for j, v in r.items()} for i, r in self.rows.items()})

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return (self - other).is_zero

    @property
    def is_zero(self):
        return all(v.is_zero for _, _, v in self.entries())

    def is_identity(self):
        return self == Mat.identity(self.nrows, self.ctx)

    def transpose(self):
        out = Mat(self.ncols, self.nrows, self.ctx)
        for i, j, v in self.entries():
            out.set(j, i, v)
        return out

    def first_nonzero(self):
        """Smallest (row, col) with a nonzero entry, or None."""
        best = None
        for i, j, v in self.entries():
            if not v.is_zero and (best is None or (i, j) < best[:2]):
                best = (i, j, v)
        return best

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        try:
            return self.solve(Mat.identity(self.nrows, self.ctx))
        except ZeroDivisionError:
            raise ZeroDivisionError("singular matrix") from None

    def solve(self, rhs):
        """The unique X with self * X == rhs, for all columns of rhs at once.

        [self | rhs] is brought to reduced row echelon form by one sparse
        Gauss-Jordan pass.  Raises ZeroDivisionError if a zero row of self
        meets a nonzero entry of rhs in any column, or if self has a kernel
        (overdetermined systems are fine when consistent).
        """
        if rhs.nrows != self.nrows:
            raise ValueError("shape mismatch")
        n = self.ncols
        a = []
        for i in range(self.nrows):
            row = {j: v for j, v in self.rows.get(i, {}).items() if not v.is_zero}
            row.update((n + j, v) for j, v in rhs.rows.get(i, {}).items()
                       if not v.is_zero)
            a.append(row)
        rank = 0
        for col in range(n):
            piv = next((r for r in range(rank, len(a)) if col in a[r]), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            p = a[rank][col]
            prow = a[rank] = {j: x / p for j, x in a[rank].items()}
            others = [(j, y) for j, y in prow.items() if j != col]
            for r, row in enumerate(a):
                f = row.get(col)
                if f is None or r == rank:
                    continue
                del row[col]
                for j, y in others:
                    v = row[j] - f * y if j in row else -(f * y)
                    if v.is_zero:
                        del row[j]
                    else:
                        row[j] = v
            rank += 1
        if any(a[rank:]):
            raise ZeroDivisionError("inconsistent linear system")
        if rank < n:
            raise ZeroDivisionError("underdetermined linear system")
        # full column rank: row i holds pivot i, so its other entries are X's row i
        out = Mat(n, rhs.ncols, self.ctx)
        for i in range(n):
            sol = {j - n: v for j, v in a[i].items() if j >= n}
            if sol:
                out.rows[i] = sol
        return out

    def apply(self, vec):
        """Matrix times a sparse column vector {index: Scalar}."""
        out = {}
        for i, row in self.rows.items():
            acc = None
            for k, a in row.items():
                b = vec.get(k)
                if b is None or b.is_zero:
                    continue
                term = a * b
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero:
                out[i] = acc
        return out


def solve_dense(ctx, rows, rhs):
    """Solve A x = b exactly; rows is a list of dense coefficient lists.

    The one-column case of `Mat.solve`: returns the unique solution or
    raises if the system is singular or inconsistent.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    a, b = Mat(m, n, ctx), Mat(m, 1, ctx)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            a.set(i, j, v)
        b.set(i, 0, rhs[i])
    x = a.solve(b)
    return [x[j, 0] for j in range(n)]


def kernel_basis(ctx, rows, ncols):
    """Exact kernel of the matrix given by dense rows; returns RREF-normalized
    basis vectors (deterministic)."""
    m = len(rows)
    a = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, m):
            if not a[r][col].is_zero:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        a[rank] = [x / p for x in a[rank]]
        for r in range(m):
            if r != rank and not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ctx.zero] * ncols
        v[fc] = ctx.one
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def rank_of(rows, ncols):
    """Rank over the fraction field (destructive on a copy)."""
    a = [list(r) for r in rows]
    m = len(a)
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, m):
            if not a[r][col].is_zero:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        a[rank] = [x / p for x in a[rank]]
        for r in range(rank + 1, m):
            if not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank
