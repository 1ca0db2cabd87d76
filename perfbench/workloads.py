"""Job menus of the three benchmark workloads.

A job is one exact check with a known answer.  In-process jobs
(`residuals`, `fusion`) are `Job`s whose `run(state)` returns an `Outcome`;
`cli-jobs` jobs are argument lists for `python -m dybax.cli`.

`menu(workload)` lists every job any seed can draw (the golden file covers
exactly this set); `seeded(workload, seed)` draws parameters from the fixed
menus and fixes the job order; `smoke(workload)` is one short job.

dybax functions are always reached through their module (`verify.qdybe_residual`,
never a name imported into this file), so the traced pass sees the wrappers
that `tracer.install` puts on the module attributes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("residuals", "fusion", "cli-jobs")


@dataclass
class Outcome:
    ok: bool                      # the identity holds / the methods agree
    witness: bool                 # a failing check named its first offending entry
    artifact: Callable[[], object]  # canonical JSON payload, built outside the timer


@dataclass
class Job:
    id: str
    run: Callable[[dict], Outcome]
    group: Optional[str] = None   # jobs of one group run adjacently, in menu order


def _subsets(n):
    return [[i + 1 for i in range(n) if mask >> i & 1] for mask in range(1 << n)]


def _xs(subset):
    return ",".join(map(str, subset)) or "-"


# -- residuals ----------------------------------------------------------------

def _report(rep, op=None):
    """A report's outcome; the artifact pins the checked operator too, since
    a passing report alone carries no entry of it."""
    from dybax import serialize
    if op is None:
        return Outcome(rep.exact_zero, rep.witness is not None,
                       lambda: serialize.report_json(rep))
    return Outcome(rep.exact_zero, rep.witness is not None,
                   lambda: {"operator": serialize.dynop_json(op),
                            "report": serialize.report_json(rep)})


def _quantum_op(fam, n, subset):
    from dybax import catalog
    if fam == "R-X":
        return catalog.quantum_R_X(n, subset)
    return catalog.quantum_R_eps_X(n, subset)


def _hecke_q(fam, op):
    return op.ctx.one if fam == "R-X" else op.ctx.s ** 2


def _qdybe_job(fam, n, subset):
    def run(state):
        from dybax import verify
        op = _quantum_op(fam, n, subset)
        return _report(verify.qdybe_residual(op, name=fam), op)
    return Job(f"qdybe/{fam}/n{n}/X={_xs(subset)}", run)


def _hecke_job(fam, n, subset):
    def run(state):
        from dybax import verify
        op = _quantum_op(fam, n, subset)
        return _report(verify.hecke_check(op, _hecke_q(fam, op), name=fam), op)
    return Job(f"hecke/{fam}/n{n}/X={_xs(subset)}", run)


def _hecke_rep_job(fam, p):
    def run(state):
        from dybax import verify
        op = _quantum_op(fam, 2, [1, 2])
        _, rep = verify.dynamical_hecke_rep(op, p, _hecke_q(fam, op), name=fam)
        return _report(rep)
    return Job(f"hecke-rep/{fam}/n2/X=1,2/p{p}", run)


def _classical_families(n):
    """The criterion-5 classical families at rank n, as (name, constructor)."""
    from dybax import catalog, rootdata
    datum = rootdata.build_type_A(n, "gl")
    out = [("basic-rational", lambda: catalog.basic_rational_r(datum)),
           ("basic-trig", lambda: catalog.basic_trig_r(datum))]
    simple_sets = [[], [0], [1], [0, 1]] if n == 3 else [[], [0]]
    for xs in simple_sets:
        out.append((f"r-eps-X/X={_xs([x + 1 for x in xs])}",
                    lambda xs=xs: catalog.classical_r_trig_X(datum, xs)))
    root_sets = [("none", []), ("first", [tuple(datum.positive_roots[0])])]
    if n == 3:
        root_sets.append(("all", [tuple(a) for a in datum.positive_roots]))
    for label, roots in root_sets:
        out.append((f"r-l/roots={label}",
                    lambda roots=roots: catalog.classical_r_zero_coupling(datum, roots)))
    return out


def _classical_jobs():
    jobs = []
    for n in (2, 3):
        for name, build in _classical_families(n):
            def cdybe(state, build=build):
                from dybax import verify
                return _report(verify.cdybe_residual(build()))

            def unitarity(state, build=build):
                from dybax import verify
                return _report(verify.unitarity_check(build()))
            jobs.append(Job(f"cdybe/gl{n}/{name}", cdybe))
            jobs.append(Job(f"unitarity/gl{n}/{name}", unitarity))
    return jobs


# Gauge closure (criterion 7): each menu's parameters are rationals for which
# the gauged solution is again a solution.
GAUGE_CLASSICAL_2FORM = [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4), Fraction(3)]
GAUGE_CLASSICAL_SHIFT = [(1, Fraction(1, 2), -2), (0, 3, Fraction(-1, 3)),
                         (-1, Fraction(2, 3), Fraction(5, 2)), (Fraction(1, 4), 0, 1)]
GAUGE_PERMUTATIONS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
GAUGE_QUANTUM_2FORM = [Fraction(2, 5), Fraction(-3), Fraction(7, 2), Fraction(1, 9)]
GAUGE_QUANTUM_SHIFT = [(1, Fraction(1, 2), 0), (0, -1, Fraction(3, 2)),
                       (Fraction(1, 2), Fraction(1, 2), -1), (2, 0, Fraction(-1, 2))]


def _frac_id(values):
    return ",".join(str(Fraction(v)) for v in values)


def _gauge_menus():
    """{menu name: [Job, ...]}; a seed draws one job from each menu."""
    def classical_2form(c):
        def run(state):
            from dybax import catalog, rootdata, verify
            r = catalog.basic_rational_r(rootdata.build_type_A(3, "gl"))
            ctx = r.ctx
            g = verify.gauge_classical(r, 1, {(0, 1): ctx.from_fraction(c),
                                              (1, 2): 1 / (ctx.lam(1) + ctx.lam(2))})
            return _report(verify.cdybe_residual(g))
        return Job(f"gauge/classical/2form/c={c}", run)

    def classical_shift(nu):
        def run(state):
            from dybax import catalog, rootdata, verify
            r = catalog.basic_rational_r(rootdata.build_type_A(3, "gl"))
            g = verify.gauge_classical(r, 2, nu)
            return _pair(verify.cdybe_residual(g), verify.unitarity_check(g, 0))
        return Job(f"gauge/classical/shift/nu={_frac_id(nu)}", run)

    def classical_weyl(sigma):
        def run(state):
            from dybax import catalog, rootdata, verify
            r = catalog.basic_rational_r(rootdata.build_type_A(3, "gl"))
            g = verify.gauge_classical(r, 3, list(sigma))
            return _pair(verify.cdybe_residual(g), verify.unitarity_check(g, 0))
        return Job(f"gauge/classical/weyl/sigma={_frac_id(sigma)}", run)

    def quantum_2form(c):
        def run(state):
            from dybax import catalog, verify
            rq = catalog.quantum_R_eps_X(3, [1, 2])
            cq = rq.ctx
            g = verify.gauge_quantum(rq, 1, {(0, 1): cq.from_fraction(c),
                                             (1, 2): cq.t(1) / cq.t(2)})
            return _report(verify.qdybe_residual(g))
        return Job(f"gauge/quantum/2form/c={c}", run)

    def quantum_shift(nu):
        def run(state):
            from dybax import catalog, verify
            rq = catalog.quantum_R_eps_X(3, [1, 2])
            g = verify.gauge_quantum(rq, 2, nu)
            return _pair(verify.qdybe_residual(g), verify.hecke_check(g, rq.ctx.s ** 2))
        return Job(f"gauge/quantum/shift/nu={_frac_id(nu)}", run)

    def quantum_weyl(sigma):
        def run(state):
            from dybax import catalog, verify
            g = verify.gauge_quantum(catalog.quantum_R_X(3, [1, 2]), 3, list(sigma))
            return _report(verify.qdybe_residual(g))
        return Job(f"gauge/quantum/weyl/sigma={_frac_id(sigma)}", run)

    return {
        "classical-2form": [classical_2form(c) for c in GAUGE_CLASSICAL_2FORM],
        "classical-shift": [classical_shift(nu) for nu in GAUGE_CLASSICAL_SHIFT],
        "classical-weyl": [classical_weyl(s) for s in GAUGE_PERMUTATIONS],
        "quantum-2form": [quantum_2form(c) for c in GAUGE_QUANTUM_2FORM],
        "quantum-shift": [quantum_shift(nu) for nu in GAUGE_QUANTUM_SHIFT],
        "quantum-weyl": [quantum_weyl(s) for s in GAUGE_PERMUTATIONS],
    }


def _pair(first, second):
    from dybax import serialize
    return Outcome(first.exact_zero and second.exact_zero,
                   first.witness is not None or second.witness is not None,
                   lambda: [serialize.report_json(first), serialize.report_json(second)])


def _invalid_gauge_job():
    def run(state):
        from dybax import catalog, rootdata, verify
        r = catalog.basic_rational_r(rootdata.build_type_A(3, "gl"))
        try:
            verify.gauge_classical(r, 1, {(0, 1): r.ctx.lam(2)})
        except verify.InvalidGaugeError as exc:
            message = str(exc)
            return Outcome(False, True, lambda: {"rejected": message})
        return Outcome(True, False, lambda: {"rejected": None})
    return Job("negative/gauge/non-closed-2form", run)


# Negative controls: each perturbation breaks the identity, so the known
# answer is FAIL with a witness.  A zero test made vacuous would pass them.
NEG_QDYBE = [([1, 2, 3], (0, 1), (0, 1)), ([1, 2, 3], (1, 2), (1, 2)),
             ([1, 2], (0, 2), (0, 2)), ([2], (2, 1), (2, 1))]
NEG_CDYBE = [(0, "l1"), (1, "l2"), (2, "l1"), (3, "one")]


def _negative_menus():
    def qdybe(subset, row, col):
        def run(state):
            from dybax import catalog, verify
            r = catalog.quantum_R_X(3, subset)
            bad = verify.perturb_dynop(r, row, col, r.ctx.lam(0))
            return _report(verify.qdybe_residual(bad))
        return Job(f"negative/qdybe/R-X/n3/X={_xs(subset)}/at={_frac_id(row)}", run)

    def cdybe(term, value):
        def run(state):
            from dybax import catalog, rootdata, verify
            rc = catalog.basic_rational_r(rootdata.build_type_A(3, "gl"))
            a, b, c = rc.terms[term]
            v = rc.ctx.one if value == "one" else rc.ctx.gen(value)
            rc.terms[term] = (a, b, c + v)
            return _report(verify.cdybe_residual(rc))
        return Job(f"negative/cdybe/basic-rational/n3/term={term}/plus={value}", run)

    return {"negative-qdybe": [qdybe(*x) for x in NEG_QDYBE],
            "negative-cdybe": [cdybe(*x) for x in NEG_CDYBE]}


def _residuals_fixed():
    jobs = []
    for n in (2, 3, 4):
        for subset in _subsets(n):
            for fam in ("R-X", "R-eps-X"):
                jobs.append(_qdybe_job(fam, n, subset))
                jobs.append(_hecke_job(fam, n, subset))
    # QDYBE on R^eps_X at n = 5 for all 32 subsets: the cost of one check
    # ranges 0.05-1.3 s with X, so drawing one X per seed would make the
    # seed, not the program, set wall_s and max_job_s.
    for subset in _subsets(5):
        jobs.append(_qdybe_job("R-eps-X", 5, subset))
    jobs.extend(_classical_jobs())
    for fam in ("R-X", "R-eps-X"):
        for p in (3, 4, 5):
            jobs.append(_hecke_rep_job(fam, p))
    jobs.append(_invalid_gauge_job())
    return jobs


# -- fusion -------------------------------------------------------------------

def _module(n, flavor, spec, quantum):
    from dybax import reps, rootdata
    datum = rootdata.build_type_A(n, flavor)
    v = reps.vector_rep(datum, quantum)
    if spec == "V":
        return v
    kind, power = spec[0], int(spec[1:])
    return reps.sym_power(v, power) if kind == "S" else reps.ext_power(v, power)


def _dynop_artifact(op, name):
    from dybax import serialize
    return lambda: serialize.dynop_json(op, name)


def _j_intertwiners(n, spec1, spec2, group=None):
    key = f"gl{n}q/{spec1}x{spec2}"

    def run(state):
        from dybax import fusion
        j = fusion.fusion_exchange_construction(_module(n, "gl", spec1, True),
                                                _module(n, "gl", spec2, True))
        state[key] = j
        return Outcome(j.is_weight_zero(), False, _dynop_artifact(j, "J"))
    return Job(f"J-intertwiners/{key}", run, group)


def _j_abrr(n, spec1, spec2, group):
    key = f"gl{n}q/{spec1}x{spec2}"

    def run(state):
        from dybax import fusion
        ja = fusion.abrr_fusion(_module(n, "gl", spec1, True),
                                _module(n, "gl", spec2, True))
        diff = ja.mat - state[key].mat
        return Outcome(diff.is_zero, not diff.is_zero, _dynop_artifact(ja, "J"))
    return Job(f"J-abrr/{key}", run, group)


def _exchange(n, spec1, spec2, method, group):
    key = f"R/gl{n}q/{spec1}x{spec2}"

    def run(state):
        from dybax import fusion
        r = fusion.exchange_matrix(_module(n, "gl", spec1, True),
                                   _module(n, "gl", spec2, True), method=method)
        if key not in state:
            state[key] = r
            return Outcome(r.is_weight_zero(), False, _dynop_artifact(r, "R"))
        diff = r.mat - state[key].mat
        return Outcome(diff.is_zero, not diff.is_zero, _dynop_artifact(r, "R"))
    return Job(f"exchange-{method}/gl{n}q/{spec1}x{spec2}", run, group)


def _criterion4_jobs():
    """Cross-method agreement on the criterion-4 module set."""
    families = [("sl", 2, ["V", "S2"]), ("gl", 2, ["V"]), ("gl", 3, ["V", "L2"])]
    jobs = []
    for quantum in (False, True):
        for flavor, n, specs in families:
            for s1 in specs:
                for s2 in specs:
                    def run(state, flavor=flavor, n=n, s1=s1, s2=s2, quantum=quantum):
                        from dybax import fusion
                        m1 = _module(n, flavor, s1, quantum)
                        m2 = _module(n, flavor, s2, quantum)
                        j1 = fusion.fusion_exchange_construction(m1, m2)
                        diff = j1.mat - fusion.abrr_fusion(m1, m2).mat
                        return Outcome(diff.is_zero, not diff.is_zero,
                                       _dynop_artifact(j1, "J"))
                    tag = "q" if quantum else "c"
                    jobs.append(Job(f"J-both/{flavor}{n}{tag}/{s1}x{s2}", run))
    return jobs


def _cocycle_job():
    def run(state):
        from dybax import verify
        v = _module(2, "gl", "V", True)
        return _report(verify.cocycle_residual(v, v, v))
    return Job("cocycle/gl2q/VxVxV", run)


# Perturbed J on gl3 V (x) V (quantum): (row, col) weight-zero positions.
NEG_J = [((0, 1), (1, 0)), ((1, 2), (2, 1)), ((0, 0), (0, 0)), ((2, 0), (0, 2))]


def _negative_j_menu():
    def neg(row, col):
        def run(state):
            from dybax import fusion, verify
            v = _module(3, "gl", "V", True)
            j = fusion.fusion_exchange_construction(v, v)
            bad = verify.perturb_dynop(j, row, col, j.ctx.t(0))
            diff = bad.mat - fusion.abrr_fusion(v, v).mat
            witness = verify._first_entry(diff)
            return Outcome(diff.is_zero, witness is not None,
                           lambda: {"witness": witness and [list(witness[0]), witness[1]]})
        return Job(f"negative/perturbed-J/gl3q/VxV/at={_frac_id(row)};{_frac_id(col)}", run)
    return {"negative-J": [neg(*x) for x in NEG_J]}


def _fusion_fixed():
    jobs = [_j_intertwiners(4, "L2", "L2", "gl4-L2xL2"),
            _j_abrr(4, "L2", "L2", "gl4-L2xL2"),
            _j_intertwiners(4, "V", "L2"),
            _j_intertwiners(4, "L2", "V"),
            _exchange(3, "V", "S2", "exchange", "gl3-VxS2"),
            _exchange(3, "V", "S2", "abrr", "gl3-VxS2"),
            _cocycle_job()]
    return jobs + _criterion4_jobs()


# -- cli-jobs -----------------------------------------------------------------

# Left out, so that two passes fit in a run: jobs whose whole work another
# job or workload already runs.  `verify-suite --n 3` and criterion 5 are
# QDYBE/Hecke sets that `residuals` runs in-process, criterion 4 is the
# module set `fusion` runs, and `macdonald trace-residual --depth 3 ...`
# makes exactly the calls of criterion 13.
README_FIXED = [
    "catalog appA --n 3 --gamma1 1 --gamma2 2 --l-basis 1,0,-1;1,1,1",
    "fusion --n 2 --flavor sl --quantum --method both",
    "verify hecke-rep --catalog R-X --n 2 --X 1,2 --p 4",
    "limit --catalog gl-closed-form --n 2 --order 2 --check-eq4",
    "shapovalov --depth 3 --quantum",
]
EXTRA_FIXED = ["macdonald trace-residual --depth 4 --order 4 --biorder 2"]
# README lines whose parameters a seed draws; every variant is cheap (< 0.1 s
# of work), so the draw does not move wall_s.
CLI_MENUS = {
    "datum": [f"datum --n {n} --flavor {f}" for n in (2, 3, 4) for f in ("gl", "sl")],
    "module": [f"module --n 2 --spec {s} --quantum" for s in ("vec", "sym2", "sym3", "ext2")],
    "catalog-trig": [f"catalog basic-trig --n {n}" for n in (2, 3)],
    "catalog-R-eps-X": [f"catalog R-eps-X --n 3 --X {_xs(x)}" for x in _subsets(3)],
    "verify-qdybe": [f"verify qdybe --catalog R-eps-X --n 3 --X {_xs(x)}" for x in _subsets(3)],
    "verify-cdybe": [f"verify cdybe --catalog basic-rational --n {n}" for n in (2, 3)],
    "macdonald-operator": [f"macdonald operator --n 3 --r {r} --m {m}"
                           for r in (1, 2, 3) for m in (0, 1)],
    "macdonald-polynomial": [f"macdonald polynomial --n 2 --mu {mu} --m {m}"
                             for mu in ("1,0", "2,0", "1,1", "2,1") for m in (0, 1)],
    "corollary91": [f"macdonald corollary91 --m {m}" for m in (0, 1)],
    # Negative control: the fusion matrix J is not a QDYBE solution, so the
    # known answer is exit code 1 with a witness in the report.
    "negative-qdybe-J": ["verify qdybe --catalog gl-closed-form --n 2 --part J",
                         "verify qdybe --catalog gl-closed-form --n 2 --part J --quantum"],
}


def cli_argv(line):
    """Split a job line; `-` stands for an empty --X value."""
    return [("" if tok == "-" else tok) for tok in line.split(" ")]


def _cli_fixed():
    criteria = [f"acceptance --criterion {k}" for k in range(1, 15) if k not in (4, 5)]
    return README_FIXED + criteria + EXTRA_FIXED


# -- public -------------------------------------------------------------------

def _drawn_menus(workload):
    if workload == "residuals":
        return {**_gauge_menus(), **_negative_menus()}
    if workload == "fusion":
        return _negative_j_menu()
    return dict(CLI_MENUS)


def _fixed(workload):
    if workload == "residuals":
        return _residuals_fixed()
    if workload == "fusion":
        return _fusion_fixed()
    return _cli_fixed()


def menu(workload):
    """Every job any seed can draw, in a fixed order."""
    out = list(_fixed(workload))
    for items in _drawn_menus(workload).values():
        out.extend(items)
    return out


def seeded(workload, seed):
    """The fixed jobs plus one draw per menu, in a seed-shuffled order;
    jobs of one group stay adjacent and in menu order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = list(_fixed(workload))
    menus = _drawn_menus(workload)
    for name in sorted(menus):
        jobs.append(rng.choice(menus[name]))
    units, seen = [], {}
    for job in jobs:
        group = getattr(job, "group", None)
        if group is None:
            units.append([job])
        elif group in seen:
            seen[group].append(job)
        else:
            seen[group] = [job]
            units.append(seen[group])
    rng.shuffle(units)
    return [job for unit in units for job in unit]


SMOKE = {"residuals": "qdybe/R-eps-X/n3/X=1,2",
         "fusion": "J-both/sl2q/VxV",
         "cli-jobs": "datum --n 3 --flavor gl"}


def smoke(workload):
    """One short job of the workload."""
    return [job for job in menu(workload) if job_id(job) == SMOKE[workload]]


def job_id(job):
    return job if isinstance(job, str) else job.id
