"""Canonical JSON encoders: deterministic ordering, canonical Scalar text.

Matrices are serialized as {factors, basis, entries} with entries keyed
"row,col" over nonzero positions only; difference operators as lists of
{shift, coeff | matrix}.  Identical inputs produce byte-identical output
(sorted keys everywhere).
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA = "dybax/1"


def _frac(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def weight_json(w):
    return [_frac(x) for x in w]


def datum_json(datum):
    return {
        "schema": SCHEMA,
        "kind": "root-datum",
        "flavor": datum.flavor,
        "n": datum.n,
        "coordinates": datum.n_coords,
        "simple_roots": [weight_json(a) for a in datum.simple_roots],
        "positive_roots": [weight_json(a) for a in datum.positive_roots],
        "rho": weight_json(datum.rho),
        "form": [[_frac(datum.pairing(a, b)) for b in datum.positive_roots]
                 for a in datum.positive_roots],
    }


def module_json(module):
    out = {
        "schema": SCHEMA,
        "kind": "weight-module",
        "quantum": module.quantum,
        "dim": module.dim,
        "basis": list(module.labels),
        "weights": [weight_json(w) for w in module.weights],
        "actions": {},
    }
    for i in range(module.datum.rank):
        for kind in ("e", "f"):
            mat = module.e(i) if kind == "e" else module.f(i)
            out["actions"][f"{kind}{i + 1}"] = matrix_entries(mat)
    return out


def matrix_entries(mat):
    return {f"{r},{c}": v.to_text() for (r, c, v) in sorted(mat.entries())}


def dynop_json(op, name="operator"):
    return {
        "schema": SCHEMA,
        "kind": "dynamical-operator",
        "name": name,
        "factors": [{"dim": m.dim, "labels": list(m.labels),
                     "weights": [weight_json(w) for w in m.weights]}
                    for m in op.factors],
        "entries": matrix_entries(op.mat),
    }


def classical_r_json(rmat):
    terms = []
    for (a, b, c) in rmat.terms:
        terms.append({
            "left": {f"{i},{j}": _frac(v) for (i, j), v in sorted(a.items())},
            "right": {f"{i},{j}": _frac(v) for (i, j), v in sorted(b.items())},
            "coeff": c.to_text(),
        })
    return {
        "schema": SCHEMA,
        "kind": "classical-r-matrix",
        "name": rmat.name,
        "coupling": rmat.coupling.to_text(),
        "terms": terms,
    }


def diffop_json(op, name="diffop"):
    terms = []
    for nu in sorted(op.terms):
        mat = op.terms[nu]
        entry = {"shift": weight_json(nu)}
        if op.dim == 1:
            entry["coeff"] = mat[0, 0].to_text()
        else:
            entry["matrix"] = matrix_entries(mat)
        terms.append(entry)
    return {"schema": SCHEMA, "kind": "difference-operator", "name": name,
            "terms": terms}


def gamma_series_json(mats, name="series"):
    return {
        "schema": SCHEMA,
        "kind": "gamma-series",
        "name": name,
        "orders": [matrix_entries(m) for m in mats],
    }


def report_json(report):
    out = report.to_dict()
    out["schema"] = SCHEMA
    out["kind"] = "residual-report"
    return out


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
