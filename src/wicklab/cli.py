"""Command-line reproduction harness.

Subcommands cover the four computational layers plus an `all` battery; every
run emits one JSON report (stdout or --out) and exits 0 iff all its checks
pass.  Reports are byte-reproducible for a fixed seed except the wall-time
field.  Function arguments for the chaos commands are piecewise-polynomial
JSON, e.g. '{"pieces": [{"lo": "0", "hi": "1/2", "coeffs": ["1"]}]}', or a
bare coefficient list '["0", "1"]' for a global polynomial.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time

from . import chaos, discrete, laws, rademacher, wick
from .chaos.identities import ito_residual
from .exact import Q, as_fraction
from .report import Check, ExperimentReport

QUICK_TRUNCATION = 8
QUICK_PATHS = 10_000
# Largest truncation of the exact fourth-moment commands (order4, bound4).
# It guards order4's order tensors, whose term count grows as N^4; bound4's
# E[J^4] is O(N^3) and would stand a larger cap.
MAX_EXACT_TRUNCATION = 16
# The laws whose Wick tables `all` checks by all three routes up to W_6.
WICK_CATALOG = (
    laws.Law.normal(),
    laws.Law.exponential(1),
    laws.Law.gamma(2, 3),
    laws.Law.gamma(Q(1, 2), Q(1, 2)),
    laws.Law.poisson(1),
    laws.Law.binomial(3, Q(1, 2)),
)


def _from_json(text: str, option: str, build):
    """build(json.loads(text)); a missing key, a wrong shape or a number that
    is not an exact rational is bad input that names the option."""
    try:
        return build(json.loads(text))
    except KeyError as exc:
        raise ValueError(f"{option}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{option}: {exc}") from None


def _rationals(data) -> list:
    """A JSON list of ints or rational strings ("1/3"), as Fractions."""
    if not isinstance(data, list):
        raise TypeError(f"expected a JSON list, got {json.dumps(data)}")
    return [as_fraction(x) for x in data]


def parse_piecewise(text: str, option: str = "function") -> chaos.PiecewisePoly:
    """A bare coefficient list or {"pieces": [{"lo", "hi", "coeffs"}, ...]};
    PiecewisePoly reads every rational with as_fraction."""

    def build(data):
        if isinstance(data, list):
            return chaos.PiecewisePoly.from_poly(data)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON list or {{\"pieces\": [...]}}, got {json.dumps(data)}")
        return chaos.PiecewisePoly(
            tuple((p["lo"], p["hi"], _rationals(p["coeffs"])) for p in data["pieces"])
        )

    return _from_json(text, option, build)


ONE = chaos.PiecewisePoly.constant(1)


def _functions(args, h1: chaos.PiecewisePoly = ONE, h2: chaos.PiecewisePoly = ONE) -> tuple:
    """--h1 and --h2 if given, else the defaults h1 and h2."""
    return (
        parse_piecewise(args.h1, "--h1") if args.h1 else h1,
        parse_piecewise(args.h2, "--h2") if args.h2 else h2,
    )


def parse_fraction_list(text: str) -> list:
    return [as_fraction(tok) for tok in text.split(",") if tok]


# ---------------------------------------------------------------------------
# checks shared by the subcommands and the battery


def _wick_rows(m: laws.MomentSequence, nmax: int) -> list:
    """(W_n, ok) for n = 0, ..., nmax: W_n from the explicit formula, and
    whether both recurrences' tables agree with it and both
    differential-equation residuals vanish.  The inverse-Laplace
    coefficients and the first recurrence's weights are built once, to
    order nmax, and serve every n."""
    rows = []
    a = laws.inverse_laplace_coeffs(m, nmax)
    b = wick._recurrence_weights(m, a)
    tables = zip(wick._recurrence1_table(m, nmax, b), wick._recurrence2_table(m, nmax))
    for n, (r1, r2) in enumerate(tables):
        w = wick._explicit(m, a, n)
        agree = w.coeffs == r1.coeffs == r2.coeffs
        ode_ok = wick._residual1(w.poly(), m, b) == [] and wick.ode_residual(w, m, 2) == []
        rows.append((w, agree and ode_ok))
    return rows


def _factorization(ps: rademacher.PartitionSystem, cdf: rademacher.JumpCDF, tuples) -> list:
    """(ks, eps, joint law, product of phi_factor) for every sign pattern of
    every index tuple; independence means joint == product on each row."""
    rows = []
    for ks in tuples:
        for eps in itertools.product((-1, 1), repeat=len(ks)):
            joint = rademacher.transport_joint_law(ps, cdf, ks, list(eps))
            product = Q(1)
            for k, e in zip(ks, eps):
                product *= rademacher.phi_factor(ps, k, e)
            rows.append((ks, list(eps), joint, product))
    return rows


def _worst_order_residual(draws, tab: chaos.GammaTables) -> float:
    """Largest relative residual of the pointwise order decomposition over
    (kernel, realization) draws."""
    worst = 0.0
    for K, xs in draws:
        out = chaos.order_decomposition(K, tab, xs)
        worst = max(worst, out["residual"] / out["scale"])
    return worst


def _rounding_check(name: str, worst: float) -> Check:
    """A pointwise identity whose residual must be rounding noise only."""
    return Check(name, "estimate", worst, tol=1e-10, passed=worst < 1e-10)


def _seed(text: str) -> int:
    """The value of a --seed option: an integer >= 0 that the samplers'
    64-bit seed holds."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"must be >= 0 and < 2**64, got {seed}")
    return seed


def _at_least_one(args, option: str) -> None:
    """Reject a size below 1, which would leave nothing to check."""
    if getattr(args, option) < 1:
        raise ValueError(f"--{option} must be >= 1")


def _exact_truncation(args) -> int:
    """--truncation of a command on the exact tensor engine; above its limit
    is bad input."""
    if args.truncation > MAX_EXACT_TRUNCATION:
        raise ValueError(f"--truncation must be <= {MAX_EXACT_TRUNCATION} for exact fourth moments")
    return args.truncation


def _open_for_write(path: str, option: str):
    """open(path, "w"); a path that cannot be opened is bad input."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {option} {path}: {exc.strerror or exc}") from None


def _decreasing(xs: list) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


# ---------------------------------------------------------------------------
# wick


def run_wick_table(args) -> ExperimentReport:
    law = laws.parse_law(args.law)
    nmax = args.max_n
    rep = ExperimentReport("wick table", {"law": law.label(), "max_n": nmax})
    m = laws.moments(law, 2 * nmax)
    lines = []
    for n, (w, ok) in enumerate(_wick_rows(m, nmax)):
        rep.add(
            Check(
                f"W_{n}",
                "exact",
                {"coeffs": list(w.coeffs), "text": str(w)},
                passed=ok and w.is_monic(),
            )
        )
        lines.append(f"W_{n}(x) = {w}")
    rep.add(Check("table_text", "info", lines))
    return rep


# ---------------------------------------------------------------------------
# rademacher


def run_rademacher_verify(args) -> ExperimentReport:
    _at_least_one(args, "tuples")
    depth = args.depth
    try:
        rademacher.check_depth(depth)
    except ValueError as exc:
        raise ValueError(f"--depth: {exc}") from None
    cfg: dict = {"depth": depth}
    cdf = rademacher.JumpCDF.diffuse()
    if args.scheme:
        fx0, delta = as_fraction(args.fx0), as_fraction(args.delta)
        cdf = rademacher.JumpCDF(fx0, delta)
        scheme = rademacher.alpha_scheme(args.scheme, cdf, depth)
        alphas = list(scheme.alphas)
        cfg.update(
            {
                "scheme": args.scheme,
                "condition": scheme.condition,
                "fx0": fx0,
                "delta": delta,
            }
        )
    else:
        alphas = parse_fraction_list(args.alphas)
        cfg["alphas"] = alphas
    ps = rademacher.build_partition(alphas, depth)
    rep = ExperimentReport("rademacher verify", cfg)
    rng = random.Random(args.seed)
    tuples = []
    for size in (1, 2, 3):
        for _ in range(args.tuples):
            ks = sorted(rng.sample(range(1, depth + 1), min(size, depth)))
            if ks not in tuples:
                tuples.append(ks)
    for ks, eps, joint, product in _factorization(ps, cdf, tuples):
        rep.add(
            Check(
                f"tuple {ks} signs {eps}",
                "exact",
                {"joint": joint, "product": product},
                passed=joint == product,
            )
        )
    if cdf.delta > 0:
        gap_ok = all(rademacher.gap_inside_cell(ps, cdf, k) for k in range(1, depth + 1))
        rep.add(Check("gap_inside_single_cell", "exact", gap_ok, passed=gap_ok))
    return rep


# ---------------------------------------------------------------------------
# discrete


def run_discrete_nmax(args) -> ExperimentReport:
    rep = ExperimentReport("discrete nmax", {"n": args.n})
    rep.add(Check("n_max", "exact", discrete.n_max(args.n), passed=True))
    return rep


def run_discrete_check(args) -> ExperimentReport:
    if len(args.rv) < 2:
        raise ValueError("discrete check needs at least two --rv")
    weights = _from_json(args.space, "--space", _rationals)
    sp = discrete.FiniteSpace(tuple(weights))
    rvs = [discrete.DiscreteRV(tuple(_from_json(r, "--rv", _rationals))) for r in args.rv]
    rep = ExperimentReport(
        "discrete check",
        {"space": weights, "rvs": [list(r.values) for r in rvs]},
    )
    for i in range(len(rvs)):
        for j in range(i + 1, len(rvs)):
            a_test = discrete.independent(sp, rvs[i], rvs[j])
            oracle = discrete.independent_oracle(sp, rvs[i], rvs[j])
            rep.add(
                Check(
                    f"independent({i},{j})",
                    "exact",
                    {"bilinear": a_test, "oracle": oracle},
                    passed=a_test == oracle,
                )
            )
    conds = discrete.necessary_conditions(sp, rvs[0], rvs[1:])
    rep.add(Check("necessary_conditions", "exact", conds, passed=None))
    return rep


def run_discrete_maxsystem(args) -> ExperimentReport:
    try:
        sp, bs = discrete.build_max_system(args.N)
    except ValueError as exc:
        raise ValueError(f"--N: {exc}") from None
    atoms = discrete.atom_condition(sp, bs)
    rep = ExperimentReport("discrete maxsystem", {"N": args.N})
    rep.add(Check("atom_condition", "exact", atoms, passed=atoms))
    pairwise = all(
        discrete.independent(sp, bs[i], bs[j])
        for i in range(len(bs))
        for j in range(i + 1, len(bs))
    )
    rep.add(Check("pairwise_independent", "exact", pairwise, passed=pairwise))
    rep.add(
        Check(
            "family_size_is_maximal",
            "exact",
            {"members_with_constant": len(bs) + 1, "n_max": discrete.n_max(sp.n)},
            passed=len(bs) + 1 == discrete.n_max(sp.n),
        )
    )
    return rep


# ---------------------------------------------------------------------------
# chaos


def run_chaos_norm(args) -> ExperimentReport:
    _at_least_one(args, "count")
    law = laws.parse_law(args.law)
    N = args.truncation
    rep = ExperimentReport(
        "chaos norm",
        {"law": law.label(), "truncation": N, "count": args.count, "seed": args.seed,
         "h1": args.h1, "h2": args.h2},
    )
    tab = chaos.GammaTables.for_law(law)
    basis = chaos.LegendreBasis(N)
    rng = random.Random(args.seed)
    if args.h1 or args.h2:
        pairs = [_functions(args)]
    else:
        pairs = [(_random_piecewise(rng), _random_piecewise(rng)) for _ in range(args.count)]
    for i, (h, g) in enumerate(pairs):
        out = chaos.norm_identity(h, g, basis, tab)
        rep.add(
            Check(
                f"norm_identity_{i}",
                "exact",
                {"lhs": out["lhs"], "rhs": out["rhs"], "second_term": out["second_term"]},
                passed=out["equal"],
            )
        )
    return rep


# Paths on which ``chaos ito`` checks the pointwise Ito residual.
_ITO_CHECKED_PATHS = 200


def run_chaos_ito(args) -> ExperimentReport:
    _at_least_one(args, "paths")
    law = laws.parse_law(args.law)
    N = args.truncation
    rep = ExperimentReport(
        "chaos ito",
        {"law": law.label(), "truncation": N, "paths": args.paths, "seed": args.seed,
         "h1": args.h1, "h2": args.h2},
    )
    basis = chaos.LegendreBasis(N)
    h, g = _functions(
        args,
        chaos.PiecewisePoly.from_poly([0, 1]),
        chaos.PiecewisePoly(((Q(0), Q(1, 2), (Q(1),)), (Q(1, 2), Q(1), (Q(0), Q(2))))),
    )
    br = chaos.ito_bracket(h, g, basis)
    rep.add(
        Check(
            "bracket",
            "exact",
            {
                "truncated": br["bracket_truncated"],
                "exact": br["bracket_exact"],
                "truncation_error": br["truncation_error"],
            },
        )
    )
    # the first paths of the stream are the first rows of the whole sample
    checked = min(args.paths, _ITO_CHECKED_PATHS)
    xs = laws.sample(law, args.seed, checked * N).reshape(checked, N)
    worst = float(ito_residual(h, g, basis, xs).max())
    rep.add(_rounding_check("pointwise_residual_max", worst))
    return rep


def run_chaos_order4(args) -> ExperimentReport:
    _at_least_one(args, "draws")
    _at_least_one(args, "truncation")
    law = laws.parse_law(args.law)
    N = _exact_truncation(args)
    rep = ExperimentReport(
        "chaos order4", {"law": law.label(), "truncation": N, "draws": args.draws, "seed": args.seed}
    )
    rng = random.Random(args.seed)
    draws = (
        (_random_kernel(rng, N), laws.sample(law, args.seed + i + 1, N)) for i in range(args.draws)
    )
    worst = _worst_order_residual(draws, chaos.GammaTables.for_law(law))
    rep.add(_rounding_check("order_identity_worst_residual", worst))
    return rep


def run_chaos_qv(args) -> ExperimentReport:
    law = laws.parse_law(args.law)
    N = args.truncation
    try:
        depths = [int(d) for d in args.depths.split(",") if d]
    except ValueError as exc:
        raise ValueError(f"--depths: {exc}") from None
    if not depths:
        raise ValueError("--depths: give at least one depth")
    h1, h2 = _functions(args)
    rep = ExperimentReport(
        "chaos qv",
        {
            "law": law.label(),
            "truncation": N,
            "depths": depths,
            "paths": args.paths,
            "seed": args.seed,
            "h1": args.h1,
            "h2": args.h2,
            "joint": bool(args.joint),
        },
    )
    # the fixed-N depths and the joint schedule in one call: a pair whose N
    # is --truncation shares the fixed rows' kernels and sample
    fixed = [(N, d) for d in depths]
    pairs = fixed + ([(4, 1), (8, 2), (16, 3), (32, 4)] if args.joint else [])
    try:
        rows = chaos.qv_joint_refinement(law, pairs, args.paths, args.seed, h1=h1, h2=h2)["rows"]
    except ValueError as exc:
        raise ValueError(f"--truncation/--depths/--paths: {exc}") from None
    table, joint = rows[: len(fixed)], rows[len(fixed) :]
    if args.csv:
        with _open_for_write(args.csv, "--csv") as fh:
            fh.write("depth,estimate,stderr\n")
            for row in table:
                fh.write(f"{row['depth']},{row['err']['mean']!r},{row['err']['stderr']!r}\n")
    for row in table:
        rep.add(
            Check(
                f"fixed_N_err_depth_{row['depth']}",
                "estimate",
                row["err"]["mean"],
                stderr=row["err"]["stderr"],
            )
        )
        rep.add(
            Check(
                f"fixed_N_means_depth_{row['depth']}",
                "estimate",
                {"qv": row["qv"]["mean"], "rhs": row["rhs"]["mean"]},
                stderr=row["mean_gap_stderr"],
            )
        )
    if args.joint:
        errs = [row["err"]["mean"] for row in joint]
        rep.add(
            Check("joint_refinement_error_decreasing", "estimate", errs, passed=_decreasing(errs))
        )
    return rep


def run_chaos_bound4(args) -> ExperimentReport:
    law = laws.parse_law(args.law)
    _at_least_one(args, "grid")
    N = _exact_truncation(args)
    rep = ExperimentReport(
        "chaos bound4", {"law": law.label(), "truncation": N, "grid": args.grid}
    )
    tab = chaos.GammaTables.for_law(law)
    basis = chaos.LegendreBasis(N)
    m = args.grid
    pairs = [(Q(k, m), Q(k + 1, m)) for k in range(m)]
    out = chaos.fourth_moment_grid(ONE, ONE, basis, tab, pairs)
    for row in out["rows"]:
        rep.add(
            Check(
                f"bound_s={row['s']}_t={row['t']}",
                "exact",
                {"lhs": row["lhs"], "rhs": row["rhs"]},
                passed=None,  # the printed constant is known-unreliable; see slope
            )
        )
    rep.add(Check("holds_everywhere", "info", out["all_hold"]))
    rep.add(
        Check("holder_slope", "estimate", out["slope"], tol=1.9, passed=out["slope"] >= 1.9)
    )
    return rep


def _random_piecewise(rng: random.Random) -> chaos.PiecewisePoly:
    cuts = sorted(rng.sample([Q(k, 8) for k in range(1, 8)], rng.randint(1, 2)))
    points = [Q(0)] + cuts + [Q(1)]
    pieces = []
    for lo, hi in zip(points, points[1:]):
        coeffs = tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))
        if any(coeffs):
            pieces.append((lo, hi, coeffs))
    if not pieces:
        pieces = [(Q(0), Q(1), (Q(1),))]
    return chaos.PiecewisePoly(tuple(pieces))


def _random_kernel(rng: random.Random, N: int) -> chaos.SymmetricKernel2:
    rows = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(i):
            rows[j][i] = rows[i][j]
    return chaos.SymmetricKernel2.from_rationals(rows)


# ---------------------------------------------------------------------------
# the full battery


def run_all(args) -> ExperimentReport:
    seed = args.seed
    quick = args.quick
    N = QUICK_TRUNCATION if quick else 16
    paths = QUICK_PATHS if quick else 100_000
    rep = ExperimentReport("all", {"quick": quick, "seed": seed})

    # wick layer: golden hermite row and the triple oracle across the catalog
    m = laws.moments(laws.Law.normal(), 10)
    h5 = wick.wick_explicit(m, 5)
    rep.add(
        Check(
            "hermite_row5",
            "exact",
            list(h5.coeffs),
            passed=list(h5.coeffs) == [0, 15, 0, -10, 0, 1],
        )
    )
    oracle_ok = all(ok for law in WICK_CATALOG for _, ok in _wick_rows(laws.moments(law, 6), 6))
    rep.add(Check("wick_triple_oracle_n6", "exact", oracle_ok, passed=oracle_ok))

    # rademacher layer
    rng = random.Random(seed)
    rows = []
    for _ in range(3):
        alphas = [Q(rng.randint(1, 9), 10) for _ in range(6)]
        ps = rademacher.build_partition(alphas, 6)
        rows += _factorization(ps, rademacher.JumpCDF.diffuse(), ([2, 5], [1, 3, 6]))
    cdf = rademacher.JumpCDF(Q(3, 10), Q(1, 5))
    for variant in ("jump_after", "jump_before", "jump_alternating"):
        ps = rademacher.alpha_scheme(variant, cdf, 8).partition()
        rows += _factorization(ps, cdf, ([2, 6],))
    rad_ok = all(joint == product for *_, joint, product in rows)
    rep.add(Check("rademacher_exact_independence", "exact", rad_ok, passed=rad_ok))

    ex1 = rademacher.build_partition([Q(1, 2), Q(1, 2)], 2)
    jump = rademacher.JumpCDF(Q(1, 2), Q(1, 4))
    e12 = rademacher.transport_product_expectation(ex1, jump, [1, 2])
    e1e2 = rademacher.transport_product_expectation(
        ex1, jump, [1]
    ) * rademacher.transport_product_expectation(ex1, jump, [2])
    rep.add(
        Check(
            "jump_counterexample",
            "exact",
            {"E[r1r2]": e12, "E[r1]E[r2]": e1e2},
            passed=e12 == Q(1, 4) and e1e2 == Q(-1, 16),
        )
    )

    # discrete layer
    rep.add(Check("n_max_8", "exact", discrete.n_max(8), passed=discrete.n_max(8) == 4))
    atoms = discrete.atom_condition(*discrete.build_max_system(3))
    rep.add(Check("max_system_3", "exact", atoms, passed=atoms))
    sweep_ok = True
    for _ in range(100):
        n = rng.randint(2, 5)
        w = [rng.randint(1, 5) for _ in range(n)]
        spc = discrete.FiniteSpace(tuple(Q(x, sum(w)) for x in w))
        b = discrete.DiscreteRV(tuple(Q(rng.randint(-2, 2)) for _ in range(n)))
        c = discrete.DiscreteRV(tuple(Q(rng.randint(-2, 2)) for _ in range(n)))
        a_test, oracle = discrete.independent(spc, b, c), discrete.independent_oracle(spc, b, c)
        sweep_ok = sweep_ok and a_test == oracle
    rep.add(Check("bilinear_vs_oracle_sweep", "exact", sweep_ok, passed=sweep_ok))
    rank = discrete.walsh_gram_rank([Q(-1), Q(3), Q(-2)], [Q(1, 3)] * 3, 2)
    rep.add(Check("walsh_gram_rank_3_2", "exact", rank, passed=rank == 9))

    # chaos layer
    basis8 = chaos.LegendreBasis(8)
    for law in (laws.Law.normal(), laws.Law.exponential(1)):
        tab = chaos.GammaTables.for_law(law)
        pairs = [(_random_piecewise(rng), _random_piecewise(rng)) for _ in range(3)]
        ok = all(chaos.norm_identity(h, g, basis8, tab)["equal"] for h, g in pairs)
        rep.add(Check(f"norm_identity_{law.label()}", "exact", ok, passed=ok))
        xs_all = laws.sample(law, seed, 50 * 5).reshape(50, 5)
        worst = _worst_order_residual(((_random_kernel(rng, 5), xs) for xs in xs_all), tab)
        rep.add(_rounding_check(f"order_identity_{law.label()}", worst))
        iso = all(chaos.isometry_check(_random_kernel(rng, 5), tab) == 0 for _ in range(10))
        rep.add(Check(f"isometry_C_{law.label()}", "exact", iso, passed=iso))

    # Riemann sums at fixed truncation only track the integral while the
    # partition stays within the basis resolution (~log2 N dyadic levels)
    depths = list(range(1, N.bit_length()))
    # the Riemann sums, the fixed-N depths and the joint schedule in one
    # Monte Carlo pass, one stream of draws and one kernel stack per
    # distinct N: the joint (N, log2 N - 1) row shares the fixed rows'
    fixed = [(N, d) for d in depths]
    pairs = fixed + [(4, 1), (8, 2), (16, 3)]
    riemann, rows = chaos.experiments._pass_rows(
        laws.Law.normal(), paths, seed, riemann=(ONE, ONE, N, depths), pairs=pairs
    )
    errs = [row["err"]["mean"] for row in riemann]
    rep.add(Check("riemann_error_decreasing", "estimate", errs, passed=_decreasing(errs)))
    jerrs = [row["err"]["mean"] for row in rows[len(fixed) :]]
    rep.add(
        Check("qv_joint_refinement_decreasing", "estimate", jerrs, passed=_decreasing(jerrs))
    )
    rep.add(
        Check(
            "qv_fixed_truncation_errors",
            "info",
            [row["err"]["mean"] for row in rows[: len(fixed)]],
        )
    )
    return rep


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wicklab", description=__doc__)
    ap.add_argument("--out", help="write the JSON report to this path")
    sub = ap.add_subparsers(dest="command", required=True)

    wt = sub.add_parser("wick", help="wick polynomial tables")
    wsub = wt.add_subparsers(dest="subcommand", required=True)
    t = wsub.add_parser("table")
    t.add_argument("--law", required=True)
    t.add_argument("--max-n", type=int, default=5)
    t.set_defaults(func=run_wick_table)

    rd = sub.add_parser("rademacher", help="partition systems and transport")
    rsub = rd.add_subparsers(dest="subcommand", required=True)
    v = rsub.add_parser("verify")
    ratios = v.add_mutually_exclusive_group(required=True)
    ratios.add_argument("--alphas", help="comma-separated rationals in (0,1)")
    ratios.add_argument("--scheme", choices=["jump_after", "jump_before", "jump_alternating"])
    v.add_argument("--fx0", default="3/10")
    v.add_argument("--delta", default="1/5")
    v.add_argument("--depth", type=int, default=8)
    v.add_argument("--tuples", type=int, default=3)
    v.add_argument("--seed", type=_seed, default=0)
    v.set_defaults(func=run_rademacher_verify)

    dc = sub.add_parser("discrete", help="finite-space independence")
    dsub = dc.add_subparsers(dest="subcommand", required=True)
    nm = dsub.add_parser("nmax")
    nm.add_argument("--n", type=int, required=True)
    nm.set_defaults(func=run_discrete_nmax)
    ck = dsub.add_parser("check")
    ck.add_argument("--space", required=True, help='JSON list of weights, e.g. \'["1/2","1/4","1/4"]\'')
    ck.add_argument("--rv", action="append", default=[], help="JSON list of values; repeatable")
    ck.set_defaults(func=run_discrete_check)
    ms = dsub.add_parser("maxsystem")
    ms.add_argument("--N", type=int, required=True)
    ms.set_defaults(func=run_discrete_maxsystem)

    ch = sub.add_parser("chaos", help="chaos calculus experiments")
    csub = ch.add_subparsers(dest="subcommand", required=True)
    chaos_options = {
        "law": {"required": True},
        "truncation": {"type": int, "default": 8},
        "seed": {"type": _seed, "default": 0},
        "paths": {"type": int, "default": QUICK_PATHS},
        "depths": {"default": "3,4,5,6"},
        "count": {"type": int, "default": 5},
        "draws": {"type": int, "default": 100},
        "grid": {"type": int, "default": 8},
        "h1": {},
        "h2": {},
        "joint": {"action": "store_true"},
        "csv": {"help": "write the convergence table as CSV"},
    }
    for name, fn, options in (
        ("norm", run_chaos_norm, "law truncation seed count h1 h2"),
        ("ito", run_chaos_ito, "law truncation seed paths h1 h2"),
        ("order4", run_chaos_order4, "law truncation seed draws"),
        ("qv", run_chaos_qv, "law truncation seed paths depths h1 h2 joint csv"),
        ("bound4", run_chaos_bound4, "law truncation grid"),
    ):
        c = csub.add_parser(name)
        for opt in options.split():
            c.add_argument(f"--{opt}", **chaos_options[opt])
        c.set_defaults(func=fn)

    al = sub.add_parser("all", help="the full verification battery")
    al.add_argument("--quick", action="store_true")
    al.add_argument("--seed", type=_seed, default=42)
    al.set_defaults(func=run_all)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        rep = args.func(args)
        out = _open_for_write(args.out, "--out") if args.out else None
    except (ValueError, rademacher.InfeasibleSchemeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep.wall_time_s = round(time.perf_counter() - t0, 6)
    text = rep.to_json()
    if out is not None:
        with out:
            out.write(text)
    else:
        sys.stdout.write(text)
    return 0 if rep.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
