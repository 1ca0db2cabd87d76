"""sympy as the tests' oracle: Scalars and their polynomials as sympy elements.

The package keeps its own polynomials over Z; tests that compare it with
sympy read a Scalar through `to_sympy` and a polynomial through
`poly_to_sympy`, which keep numerator and denominator exactly as the package
holds them; `sympy_factors` is sympy's factorisation of a polynomial.
"""

from collections import Counter
from functools import lru_cache

from sympy.polys.domains import ZZ
from sympy.polys.fields import field


@lru_cache(maxsize=None)
def sympy_field(names):
    """sympy's fraction field over ZZ on the generator names."""
    return field(",".join(names), ZZ)[0]


def poly_to_sympy(poly, names):
    """A package polynomial as an element of sympy's ring on the names."""
    return sympy_field(names).ring(dict(poly))


def to_sympy(x):
    """A Scalar as an element of sympy's fraction field on its context's
    generator names, its numerator and denominator taken as they are."""
    names = x.ctx.var_names
    return sympy_field(names).raw_new(poly_to_sympy(x.numer, names),
                                      poly_to_sympy(x.denom, names))


def sympy_factors(poly, names):
    """sympy's factor_list of a package polynomial, content dropped: a
    Counter of (factor, multiplicity), each factor a package polynomial
    with positive leading coefficient."""
    return Counter((type(poly)({m: int(c) for m, c in (f if f.LC > 0 else -f).items()}), k)
                   for f, k in poly_to_sympy(poly, names).factor_list()[1])
