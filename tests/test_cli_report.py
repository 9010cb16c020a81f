"""CLI harness and report serialization."""

import json
import os
import re
from fractions import Fraction as Q
from pathlib import Path

import pytest

from wicklab import laws
from wicklab.cli import main, parse_piecewise
from wicklab.report import Check, ExperimentReport

# one atom past the cap of 2^12: every weight 1/4097, and two constant variables
ABOVE_ATOM_CAP = ["discrete", "check", "--space", json.dumps(["1/4097"] * 4097),
                  "--rv", "[1]", "--rv", "[1]"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_wick_table_matches_golden_row(capsys):
    code, rep = run_cli(capsys, "wick", "table", "--law", "normal", "--max-n", "5")
    assert code == 0
    w5 = next(r for r in rep["results"] if r["name"] == "W_5")
    assert w5["value"]["coeffs"] == ["0", "15", "0", "-10", "0", "1"]


def test_wick_table_exponential(capsys):
    code, rep = run_cli(capsys, "wick", "table", "--law", "exponential:2", "--max-n", "3")
    assert code == 0
    w3 = next(r for r in rep["results"] if r["name"] == "W_3")
    assert w3["value"]["coeffs"] == ["0", "0", "-3/2", "1"]


@pytest.mark.parametrize("law", ["normal", "exponential:2"])
def test_wick_table_at_max_n_0_is_w0(capsys, law):
    # W_0 = 1 has no drift term in the first differential equation
    code, rep = run_cli(capsys, "wick", "table", "--law", law, "--max-n", "0")
    assert code == 0 and rep["status"] == "pass"
    assert [r["name"] for r in rep["results"]] == ["W_0", "table_text"]
    assert rep["results"][0]["value"]["coeffs"] == ["1"]


def test_discrete_nmax(capsys):
    code, rep = run_cli(capsys, "discrete", "nmax", "--n", "8")
    assert code == 0
    assert rep["results"][0]["value"] == 4


def test_rademacher_verify_alphas(capsys):
    code, rep = run_cli(
        capsys,
        "rademacher",
        "verify",
        "--alphas",
        "1/3,1/4,2/5,1/2,1/6",
        "--depth",
        "5",
        "--tuples",
        "2",
    )
    assert code == 0
    assert rep["status"] == "pass"


def test_rademacher_infeasible_scheme_is_an_error(capsys):
    code = main(
        [
            "rademacher",
            "verify",
            "--scheme",
            "jump_alternating",
            "--fx0",
            "1/10",
            "--delta",
            "1/20",
            "--depth",
            "4",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "C3" in err


GOLDEN_ALL_QUICK = Path(__file__).parent / "data" / "all_quick_seed42.json"
GOLDEN_ALL = Path(__file__).parent / "data" / "all_seed42.json"


def golden_view(report):
    """What ``all`` must reproduce exactly: the status and, per row, its name,
    kind and passed flag, with the value of every exact row.  Float values
    are left out: their last bits depend on the BLAS build."""
    rows = []
    for r in report["results"]:
        kept = {k: r[k] for k in ("name", "kind", "passed") if k in r}
        if r["kind"] == "exact":
            kept["value"] = r["value"]
        rows.append(kept)
    return {"status": report["status"], "results": rows}


def test_all_quick_matches_golden(capsys):
    code, rep = run_cli(capsys, "all", "--quick", "--seed", "42")
    assert code == 0
    assert golden_view(rep) == json.loads(GOLDEN_ALL_QUICK.read_text())


def test_all_matches_golden(capsys):
    code, rep = run_cli(capsys, "all", "--seed", "42")
    assert code == 0
    assert golden_view(rep) == json.loads(GOLDEN_ALL.read_text())


def test_all_takes_one_qv_table_per_truncation(capsys, monkeypatch):
    # the Riemann sums, the fixed-N depths and the joint schedule share one
    # Monte Carlo pass, with one quadratic-variation body (one kernel stack
    # and one table of forms) per distinct N: (4, 1), (8, 2), and N = 16 at
    # depths 1-3
    from wicklab.chaos import experiments

    passes, mc_pass = [], experiments._mc_pass

    def counted(law, seed, paths, bodies):
        passes.append(sorted((type(body).__name__, body.N) for body in bodies))
        return mc_pass(law, seed, paths, bodies)

    monkeypatch.setattr(experiments, "_mc_pass", counted)
    code, _ = run_cli(capsys, "all", "--seed", "42")
    assert code == 0
    assert passes == [[("_QVBody", 4), ("_QVBody", 8), ("_QVBody", 16), ("_RiemannBody", 16)]]


@pytest.mark.parametrize(
    "argv, draws",
    [(["all", "--seed", "42"], 1_600_500), (["all", "--quick", "--seed", "42"], 160_500)],
    ids=["all", "quick"],
)
def test_all_draws_its_monte_carlo_stream_once(capsys, monkeypatch, argv, draws):
    # one pass draws paths * max N = 10^5 * 16 (10^4 * 16 with --quick)
    # normals for the Riemann sums and every truncation of the QV schedule,
    # and the order identities 2 * 50 * 5 more
    counts, draw = [], laws.Sampler.draw

    def counted(self, count, out=None):
        counts.append(count)
        return draw(self, count, out)

    monkeypatch.setattr(laws.Sampler, "draw", counted)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sum(counts) == draws


def test_wick_rows_build_each_table_once_per_law(monkeypatch):
    # one table of inverse-Laplace coefficients and one of the first
    # recurrence's weights per law serve every degree of the explicit
    # formula, the first recurrence and the first residual
    from wicklab import cli, wick

    calls = []

    def counting(module, name):
        f = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return f(*args)

        monkeypatch.setattr(module, name, counted)

    counting(laws, "inverse_laplace_coeffs")
    counting(wick, "inverse_laplace_coeffs")
    counting(wick, "_recurrence_weights")
    for law in cli.WICK_CATALOG:
        calls.clear()
        rows = cli._wick_rows(laws.moments(law, 6), 6)
        assert all(ok for _, ok in rows), law.label()
        assert sorted(calls) == ["_recurrence_weights", "inverse_laplace_coeffs"], law.label()
        m = laws.moments(law, 6)
        assert [w.coeffs for w, _ in rows] == [wick.wick_explicit(m, n).coeffs for n in range(7)]


def row(rep, name):
    return next(r for r in rep["results"] if r["name"] == name)


def test_chaos_norm_constant_kernel(capsys):
    # h1 = h2 = 1: the kernel is (1/2) e_1 (x) e_1, so E[I^2] = E(x^2 - 1)^2 / 4
    code, rep = run_cli(
        capsys, "chaos", "norm", "--law", "normal", "--truncation", "3", "--h1", '["1"]'
    )
    assert code == 0
    value = row(rep, "norm_identity_0")["value"]
    assert value == {"lhs": "1/2", "rhs": "1/2", "second_term": "0"}


def test_chaos_ito(capsys):
    code, rep = run_cli(
        capsys, "chaos", "ito", "--law", "exponential:1", "--truncation", "6", "--paths", "3"
    )
    assert code == 0
    # default h(s) = s, g = 1 on (0, 1/2] and 2s after: int h g = 1/8 + 7/12
    assert row(rep, "bracket")["value"]["exact"] == "17/24"
    assert row(rep, "pointwise_residual_max")["passed"] is True


def test_chaos_ito_draws_only_the_checked_paths(capsys, monkeypatch):
    # the residual is checked on the first 200 paths, so only they are drawn,
    # and they are the first 200 rows of the whole sample
    argv = ("chaos", "ito", "--law", "exponential:1", "--truncation", "6", "--seed", "3")
    _, first = run_cli(capsys, *argv, "--paths", "200")
    counts = []
    sample = laws.sample
    monkeypatch.setattr(laws, "sample", lambda *a: counts.append(a[2]) or sample(*a))
    _, rep = run_cli(capsys, *argv, "--paths", "100000")
    assert counts == [200 * 6]
    assert row(rep, "pointwise_residual_max") == row(first, "pointwise_residual_max")


def test_chaos_order4(capsys):
    code, rep = run_cli(
        capsys, "chaos", "order4", "--law", "exponential:1", "--truncation", "4", "--draws", "3"
    )
    assert code == 0
    assert row(rep, "order_identity_worst_residual")["value"] < 1e-10


def test_chaos_order4_beyond_eight(capsys):
    code, rep = run_cli(
        capsys, "chaos", "order4", "--law", "exponential:1", "--truncation", "12", "--draws", "2"
    )
    assert code == 0
    assert rep["config"]["truncation"] == 12
    assert row(rep, "order_identity_worst_residual")["value"] < 1e-10


@pytest.mark.parametrize("command", ["order4", "bound4"])
def test_exact_truncation_above_limit_names_the_option(capsys, command):
    assert main(["chaos", command, "--law", "normal", "--truncation", "17"]) == 2
    captured = capsys.readouterr()
    assert "error: --truncation must be <= 16" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("law", ["gamma:2,3", "poisson:2", "binomial:3,1/2", "gammacombo:1,2,3,1,1,1"])
def test_chaos_qv_runs_on_laws_without_exact_standardization(capsys, law):
    # the variance of each is not a rational square
    code, rep = run_cli(capsys, "chaos", "qv", "--law", law, "--paths", "500", "--depths", "1,2")
    assert code == 0 and rep["status"] == "pass"


def test_chaos_qv_joint_csv(tmp_path, capsys):
    csv = tmp_path / "qv.csv"
    code, rep = run_cli(
        capsys,
        "chaos", "qv", "--law", "normal", "--truncation", "4", "--depths", "1,2",
        "--paths", "10000", "--seed", "0", "--joint", "--csv", str(csv),
    )
    assert code == 0
    assert len(row(rep, "joint_refinement_error_decreasing")["value"]) == 4
    lines = csv.read_text().splitlines()
    assert lines[0] == "depth,estimate,stderr"
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2"]
    assert float(lines[1].split(",")[1]) == row(rep, "fixed_N_err_depth_1")["value"]


def test_chaos_qv_joint_reads_h1_h2(capsys):
    argv = ["chaos", "qv", "--law", "normal", "--truncation", "8", "--paths", "2000",
            "--depths", "2", "--seed", "0", "--joint"]
    _, default = run_cli(capsys, *argv)
    _, given = run_cli(capsys, *argv, "--h1", '["0","5"]', "--h2", '["3"]')
    assert (default["config"]["h1"], default["config"]["h2"]) == (None, None)
    assert (given["config"]["h1"], given["config"]["h2"]) == ('["0","5"]', '["3"]')
    # compare the errors, not the status: on this lockstep schedule the
    # "decreasing" check can fail at 2000 paths
    errs = [row(rep, "joint_refinement_error_decreasing")["value"] for rep in (default, given)]
    assert len(errs[1]) == 4 and all(a != b for a, b in zip(*errs))


@pytest.mark.parametrize("command, size", [("norm", "--count"), ("ito", "--paths")])
def test_chaos_config_echoes_functions(capsys, command, size):
    argv = ["chaos", command, "--law", "normal", "--truncation", "3", size, "3", "--h2", '["1","1"]']
    _, rep = run_cli(capsys, *argv)
    assert (rep["config"]["h1"], rep["config"]["h2"]) == (None, '["1","1"]')


def test_chaos_bound4(capsys):
    code, rep = run_cli(
        capsys, "chaos", "bound4", "--law", "normal", "--truncation", "3", "--grid", "2"
    )
    assert code == 0
    assert [r["name"] for r in rep["results"][:2]] == ["bound_s=0_t=1/2", "bound_s=1/2_t=1"]
    assert row(rep, "holder_slope")["passed"] is True


def _floats(x):
    if isinstance(x, dict):
        return [f for v in x.values() for f in _floats(v)]
    if isinstance(x, list):
        return [f for v in x for f in _floats(v)]
    return [x] if isinstance(x, float) else []


def test_chaos_bound4_exact_rows_hold_no_floats(capsys):
    code, rep = run_cli(
        capsys, "chaos", "bound4", "--law", "exponential:1", "--truncation", "4", "--grid", "2"
    )
    assert code == 0
    exact = [r for r in rep["results"] if r["kind"] == "exact"]
    assert len(exact) == 2
    for r in exact:
        assert _floats(r["value"]) == []
        lhs = r["value"]["lhs"]  # {radicand: "p/q"}
        assert lhs and all(int(w) >= 1 and Q(q) != 0 for w, q in lhs.items())
        assert Q(r["value"]["rhs"]) > 0


# zero-size inputs that would otherwise pass after checking nothing
ZERO_SIZE = {
    "--count": ["chaos", "norm", "--law", "normal", "--count", "0"],
    "--draws": ["chaos", "order4", "--law", "normal", "--draws", "0"],
    "--tuples": ["rademacher", "verify", "--alphas", "1/2,1/3", "--tuples", "0"],
    "--paths": ["chaos", "ito", "--law", "normal", "--paths", "0"],
    "--truncation": ["chaos", "order4", "--law", "normal", "--truncation", "0"],
}
UNOPENABLE = os.path.join(os.devnull, "report.json")  # a path below a file


@pytest.mark.parametrize(
    "argv",
    [
        ["chaos", "norm", "--law", "normal", "--grid", "4"],  # a flag norm does not read
        ["chaos", "norm", "--law", "exponential"],
        ["chaos", "norm", "--law", "gamma:2"],
        ["chaos", "norm", "--law", "binomial:3"],
        ["rademacher", "verify"],
        ["rademacher", "verify", "--alphas", "1/2", "--scheme", "jump_after"],
        ["chaos", "bound4", "--law", "normal", "--grid", "0"],
        ["chaos", "qv", "--law", "normal", "--truncation", "2", "--depths", "1", "--paths", "1"],
        *ZERO_SIZE.values(),
        ["chaos", "qv", "--law", "normal", "--truncation", "2", "--depths", "-1"],
        ["chaos", "qv", "--law", "normal", "--truncation", "2", "--depths", "1",
         "--csv", UNOPENABLE],
        ["--out", UNOPENABLE, "discrete", "nmax", "--n", "3"],
        ["discrete", "check", "--space", '["1/2","1/2"]', "--rv", '["1","-1"]'],
        *(
            ["chaos", "norm", "--law", "normal", "--truncation", "3", "--h1", h1]
            for h1 in ('{}', '{"pieces": [{"lo": "0"}]}', '"abc"', '{"pieces": 3}', '[null]',
                       '[0.1]', '[true]')
        ),
        ["discrete", "check", "--space", '[null]', "--rv", '[1]', "--rv", '[1]'],
        ["discrete", "check", "--space", '3', "--rv", '[1]', "--rv", '[1]'],
        ["rademacher", "verify", "--alphas", "1/0", "--depth", "1"],
        ["rademacher", "verify", "--scheme", "jump_after", "--fx0", "1/0"],
        ["chaos", "norm", "--law", "exponential:1/0"],
        ["chaos", "norm", "--law", "gamma:2,1/0"],
        ["rademacher", "verify", "--alphas", "1/2,1/3", "--depth", "0"],
        ["rademacher", "verify", "--alphas", "1/2,1/3", "--depth", "-1"],
    ],
)
def test_bad_input_exits_2_with_message(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects before any runner starts
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["normal:1", "gaussian:0,1"])
def test_law_without_parameters_rejects_them(capsys, spec):
    assert main(["chaos", "bound4", "--law", spec, "--truncation", "2"]) == 2
    captured = capsys.readouterr()
    assert f"error: law spec {spec!r} needs the parameters" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["chaos", "qv", "--law", "normal", "--h2", '{"pieces": [{"lo": "0"}]}'], "--h2"),
        (["chaos", "ito", "--law", "normal", "--h1", '["1/3", 0.5]'], "--h1"),
        (["discrete", "check", "--space", '["1/2","1/2"]', "--rv", '[1]', "--rv", '{}'], "--rv"),
        (["chaos", "qv", "--law", "normal", "--depths", "a,2"], "--depths"),
    ],
)
def test_malformed_json_names_the_option(capsys, argv, option):
    assert main(argv) == 2
    assert f"error: {option}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["all", "--quick", "--seed", "-1"],
        ["chaos", "ito", "--law", "normal", "--seed", "-1"],
        ["chaos", "qv", "--law", "normal", "--seed", "-1"],
        ["chaos", "order4", "--law", "normal", "--seed", "-5"],
        ["chaos", "norm", "--law", "normal", "--seed", "-1"],
        ["rademacher", "verify", "--alphas", "1/2,1/3", "--seed", "-1"],
        ["chaos", "qv", "--law", "normal", "--seed", str(2**64)],
    ],
    ids=lambda argv: " ".join(argv[: argv.index("--law") if "--law" in argv else 2] + argv[-1:]),
)
def test_seed_outside_uint64_names_the_option(capsys, argv):
    # one seed type for every --seed: argparse rejects it before any run
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "error: argument --seed: must be >= 0 and < 2**64, got " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "size",
    [["--depths", "30"], ["--truncation", "1000000", "--depths", "1", "--paths", "2"]],
    ids=["depths", "truncation"],
)
def test_chaos_qv_above_the_size_cap_names_the_options(capsys, size):
    assert main(["chaos", "qv", "--law", "normal", *size]) == 2
    captured = capsys.readouterr()
    assert "error: --truncation/--depths/--paths: " in captured.err
    assert "above the cap" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["discrete", "maxsystem", "--N", "13"], "--N"),
        (["discrete", "maxsystem", "--N", "100000"], "--N"),
        (["rademacher", "verify", "--scheme", "jump_after", "--depth", "15"], "--depth"),
        (["rademacher", "verify", "--alphas", "1/2", "--depth", "1000000000"], "--depth"),
        (ABOVE_ATOM_CAP, "--space"),
        (["chaos", "bound4", "--law", "normal", "--grid", "129"], "--grid"),
        (["chaos", "bound4", "--law", "normal", "--grid", "100000000"], "--grid"),
    ],
)
def test_exponential_size_above_the_cap_names_the_option(capsys, argv, option):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {option}: " in captured.err
    assert "above the cap" in captured.err
    assert captured.out == ""


def test_readme_quotes_the_cap_messages(capsys):
    # README quotes each cap's error line; the commands print them, whitespace
    # aside, in README's order
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    quoted = re.findall(r"`(error: [^`]*above the cap[^`]*)`", readme)
    printed = []
    for argv in (
        ["chaos", "qv", "--law", "normal", "--truncation", "1024", "--depths", "9", "--paths", "100000"],
        ["chaos", "bound4", "--law", "normal", "--grid", "129"],
        ["discrete", "maxsystem", "--N", "13"],
        ABOVE_ATOM_CAP,
        ["rademacher", "verify", "--scheme", "jump_after", "--depth", "15"],
    ):
        assert main(argv) == 2
        printed.append(" ".join(capsys.readouterr().err.split()))
    assert printed == quoted


@pytest.mark.parametrize("option", sorted(ZERO_SIZE))
def test_zero_size_input_names_the_option(capsys, option):
    assert main(ZERO_SIZE[option]) == 2
    assert f"error: {option} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("route", [["--alphas", "1/2,1/3"], ["--scheme", "jump_after"]])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_rademacher_depth_below_1_names_the_option(capsys, route, depth):
    assert main(["rademacher", "verify", *route, "--depth", depth]) == 2
    captured = capsys.readouterr()
    assert "error: --depth must be >= 1" in captured.err
    assert captured.out == ""


def test_parse_piecewise_forms():
    p = parse_piecewise('["0", "1"]')
    assert p.eval(Q(1, 2)) == Q(1, 2)
    p2 = parse_piecewise('{"pieces": [{"lo": "0", "hi": "1/2", "coeffs": ["2"]}]}')
    assert p2.eval(Q(1, 4)) == 2
    assert p2.eval(Q(3, 4)) == 0


def test_report_roundtrip():
    rep = ExperimentReport("demo", {"law": "normal", "x": Q(1, 3)})
    rep.add(Check("exact_value", "exact", Q(22, 7), passed=True))
    rep.add(Check("estimate", "estimate", 0.5, stderr=0.01, tol=0.05, passed=True))
    rep.add(Check("note", "info", [1, 2, 3]))
    text = rep.to_json()
    d = json.loads(text)
    assert d == rep.to_dict()
    assert d["status"] == "pass"
    assert d["config"]["x"] == "1/3"
    assert d["results"][0]["value"] == "22/7"


def test_report_status_fail():
    rep = ExperimentReport("demo", {})
    rep.add(Check("good", "exact", 1, passed=True))
    rep.add(Check("bad", "exact", 0, passed=False))
    assert rep.status == "fail"
