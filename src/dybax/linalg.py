"""Small exact matrices over a Scalar context: products, solves, kernels.

Matrices here are sparse row-major dictionaries of Scalars.  Every exact
elimination in the package is the one sparse Gauss-Jordan kernel below: a
forward pass `_forward` and a back-substitution to reduced row echelon form
`rref`, on rows {col: value} of any field whose elements support `/`, `*`,
`-` and truthiness (Scalar and Fraction alike).  Its callers:

- `Mat.solve` reduces [A | B] once for a whole block B of right-hand sides;
  restricting an operator to a submodule, `Mat.inverse` (B = 1), the Verma
  coordinates (the Gram matrix of one weight space against all e_i-images
  of the next), the intertwiner block of each weight drop (one column per
  aux index) and `solve_dense` (one column, kept as the tests' oracle) all
  go through it;
- `kernel_basis` reads the kernel off the full RREF;
- `rank_of` counts the pivots of the forward pass alone;
- the catalog's rational solves (span test, orthocomplement, Gram inverse,
  the r_0 equation) call `rank_of`, `kernel_basis` and `rref`.

Sizes in this package stay below a few hundred rows, so no pivoting
strategy beyond "first nonzero" is needed.
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

    def map(self, fn):
        """The matrix of fn(entry) over this matrix's field, with the
        entries that fn sends to zero dropped."""
        out = Mat(self.nrows, self.ncols, self.ctx)
        for i, row in self.rows.items():
            image = {}
            for j, v in row.items():
                w = fn(v)
                if not w.is_zero:
                    image[j] = w
            if image:
                out.rows[i] = image
        return out

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.map(lambda v: v * other)
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
        return self.map(lambda v: -v)

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

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        try:
            return self.solve(Mat.identity(self.nrows, self.ctx))
        except ZeroDivisionError:
            raise ZeroDivisionError("singular matrix") from None

    def solve(self, rhs):
        """The unique X with self * X == rhs, for all columns of rhs at once.

        [self | rhs] is brought to reduced row echelon form by `rref`.
        Raises ZeroDivisionError if a zero row of self meets a nonzero entry
        of rhs in any column, or if self has a kernel (overdetermined
        systems are fine when consistent).
        """
        if rhs.nrows != self.nrows:
            raise ValueError("shape mismatch")
        n = self.ncols
        rows = []
        for i in range(self.nrows):
            row = {j: v for j, v in self.rows.get(i, {}).items() if v}
            row.update((n + j, v) for j, v in rhs.rows.get(i, {}).items() if v)
            rows.append(row)
        pivots, rest = rref(rows, n)
        if rest:
            raise ZeroDivisionError("inconsistent linear system")
        if len(pivots) < n:
            raise ZeroDivisionError("underdetermined linear system")
        # full column rank: pivot i sits in column i, so its other entries
        # are X's row i
        out = Mat(n, rhs.ncols, self.ctx)
        for i, (_, prow) in enumerate(pivots):
            sol = {j - n: v for j, v in prow.items() if j >= n}
            if sol:
                out.rows[i] = sol
        return out


def _subtract(row, f, terms):
    """row -= f * terms in place, dropping entries that cancel."""
    for j, y in terms:
        if j in row:
            v = row[j] - f * y
            if v:
                row[j] = v
            else:
                del row[j]
        else:
            row[j] = -(f * y)


def _forward(rows, ncols):
    """Forward pass of the elimination, in place on sparse rows {col: value}.

    Column by column below ncols, the first remaining row with an entry in
    that column becomes the next pivot row: it is divided by the entry and
    eliminated from the remaining rows.  Returns (pivots, rest): the
    (col, row) pairs in column order, each row with a unit pivot and no
    entry in an earlier pivot column, and the nonzero rows left over, which
    have no entry below ncols.
    """
    todo = [r for r in rows if r]
    pivots = []
    for col in range(ncols):
        k = next((k for k, r in enumerate(todo) if col in r), None)
        if k is None:
            continue
        prow = todo.pop(k)
        p = prow[col]
        prow = {j: x / p for j, x in prow.items()}
        others = [(j, y) for j, y in prow.items() if j != col]
        for row in todo:
            f = row.pop(col, None)
            if f is not None:
                _subtract(row, f, others)
        pivots.append((col, prow))
    return pivots, [r for r in todo if r]


def rref(rows, ncols):
    """Reduced row echelon form of sparse rows {col: value}, pivoting only in
    columns below ncols: `_forward`, then back-substitution, so that no
    pivot row has an entry in another pivot's column.  The rows are consumed;
    returns (pivots, rest) as `_forward` does.
    """
    pivots, rest = _forward(rows, ncols)
    for k in range(len(pivots) - 1, 0, -1):
        col, prow = pivots[k]
        others = [(j, y) for j, y in prow.items() if j != col]
        for _, row in pivots[:k]:
            f = row.pop(col, None)
            if f is not None:
                _subtract(row, f, others)
    return pivots, rest


def _sparse(dense_rows):
    return [{j: v for j, v in enumerate(r) if v} for r in dense_rows]


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
    """Exact kernel of the matrix given by dense rows: one basis vector per
    free column of the RREF, 1 there and minus the RREF entries at the
    pivots (deterministic, since the RREF is unique)."""
    pivots, _ = rref(_sparse(rows), ncols)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [ctx.zero] * ncols
        v[fc] = ctx.one
        for pc, prow in pivots:
            if fc in prow:
                v[pc] = -prow[fc]
        basis.append(v)
    return basis


def rank_of(rows, ncols):
    """Rank over the fraction field: the forward pass alone."""
    return len(_forward(_sparse(rows), ncols)[0])


def kron(a, b):
    """Kronecker product a (x) b: row (i1, i2) is i1 * b.nrows + i2."""
    out = Mat(a.nrows * b.nrows, a.ncols * b.ncols, a.ctx)
    for (i1, j1, v1) in a.entries():
        for (i2, j2, v2) in b.entries():
            out.set(i1 * b.nrows + i2, j1 * b.ncols + j2, v1 * v2)
    return out
