"""wicklab benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload exact-fourth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

For each workload this starts fresh worker processes (see ``worker.py``):
set-up-only ones before and after one measuring worker, which sets up, runs
one untimed warm-up item and then whole passes of seeded items in a closed
loop (one client, one item at a time) for ``--seconds``.  It prints a summary
with each metric's value and the median, quartiles and count of its raw
samples, then, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).

End-to-end metrics, measured with tracing off (README.md has the details and
the reason timings are taken from each item's fastest repeat):

    setup_s       median over fresh processes of: import wicklab, generate the
                  seeded inputs, build their tables
    run_s         sum over a pass's items of each item's fastest repeat
    item_p50_ms   median over a pass's items of each item's fastest repeat
    item_p90_ms   90th percentile of the same
    peak_rss_mb   peak resident memory of the measuring worker (getrusage)

``fail_frac`` (failed over attempted items) is printed and carried by the
``failed``/``attempted`` fields; it is 0 on a correct run, so it is not a
timed metric.  With ``--trace 1`` half of the time runs untraced and half
traced; per-layer metrics are per pass, and ``trace_overhead_s`` is traced
minus untraced ``run_s``.  Spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_UNITS, TARGETS, label
from worker import BLAS_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("battery", "exact-fourth", "qv-kernels", "qv-paths")
DEFAULT_SEED = 42
SETUP_SAMPLES = 5  # the measuring worker plus two before and two after it
TIMEOUT_S = 170  # a one-workload run must end within 180 s
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    """One BLAS thread (the worker runs pinned to one CPU) and a fixed hash
    seed, so that set iteration order, and with it every output, repeats."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args: list, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            stdout=subprocess.PIPE,
            env=worker_env(),
            cwd=ROOT,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Set-up samples before and after the measuring worker, so that they are
    spread over the run rather than taken in one burst."""
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_samples(first: int, n: int) -> list:
        return [
            call_worker(base + ["--setup-only", str(i)], deadline)["setup_s"]
            for i in range(first, first + n)
        ]

    half = SETUP_SAMPLES // 2
    before = setup_samples(0, half)
    extra = ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        OUT.mkdir(exist_ok=True)
        extra += ["--trace-out", str(OUT / f"trace-{workload}-seed{seed}.jsonl")]
    res = call_worker(base + extra, deadline)
    res["setup_samples"] = before + [res["setup_s"]] + setup_samples(half, half)
    return res


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def best_items_ms(item_ms: list) -> list:
    """Each item's fastest repeat, from item times per pass."""
    return [min(times) for times in zip(*item_ms)]


def best_pass_s(item_ms: list) -> float:
    return sum(best_items_ms(item_ms)) / 1e3


def end_to_end(res: dict) -> dict:
    """{metric: (value, samples)}: each reported value with the raw samples
    it summarizes.  Timings are built from each item's fastest repeat: run_s
    is their sum, the pass time with the machine's slow phases filtered out
    item by item.  Set-up time is the median of its samples."""
    best = best_items_ms(res["item_ms"])
    every_item = [t for times in res["item_ms"] for t in times]
    return {
        "setup_s": (statistics.median(res["setup_samples"]), res["setup_samples"]),
        "run_s": (best_pass_s(res["item_ms"]), res["pass_s"]),
        "item_p50_ms": (statistics.median(best), every_item),
        "item_p90_ms": (p90(best), every_item),
        "peak_rss_mb": (res["peak_rss_mb"], [res["peak_rss_mb"]]),
    }


def per_layer(res: dict) -> dict:
    trace = res["trace"]
    out = {}
    for name, n in trace["calls"].items():
        out[f"{name}.calls"] = (n, "count")
        out[f"{name}.self_s"] = (trace["self_s"][name], "s")
    for name in COUNT_UNITS:
        out[name] = (trace["counts"].get(name, 0), COUNT_UNITS[name])
    out["trace_overhead_s"] = (best_pass_s(res["traced_item_ms"]) - best_pass_s(res["item_ms"]), "s")
    return out


def layer_shares(res: dict) -> dict:
    """Share of the median traced pass by layer group, from median per-pass
    self times."""
    run_s = statistics.median(res["traced_pass_s"])
    shares = {}
    for module, qualname, layer in TARGETS:
        shares[layer] = shares.get(layer, 0.0) + res["trace"]["self_s"][label(module, qualname)]
    shares = {k: v / run_s for k, v in shares.items()}
    shares["untraced"] = 1.0 - sum(shares.values())
    return shares


def print_summary(workload: str, seed: int, res: dict, e2e: dict) -> None:
    failed = len(res["failures"])
    print(f"== {workload}  seed {seed}  cpus {res['cpus']}  blas threads {res['blas_threads']}")
    print(f"   {'metric':12s} {'unit':5s} {'value':>11s}   samples: {'median':>11s} {'q1':>11s} {'q3':>11s} {'n':>4s}")
    for name, (value, samples) in e2e.items():
        q1, median, q3 = quartiles(samples)
        print(
            f"   {name:12s} {E2E_UNITS[name]:5s} {value:11.6g}   {'':9s}"
            f"{median:11.6g} {q1:11.6g} {q3:11.6g} {len(samples):4d}"
        )
    n_items = len(res["item_ms"][0])
    print(
        f"   item percentiles are over the {n_items} items of a pass, each at its best of"
        f" {len(res['item_ms'])} repeats"
        + ("; fewer than ten lie beyond p90, so it is not a resolved tail" if n_items < 100 else "")
    )
    print(f"   fail_frac    ratio {failed / res['attempted']:11.6g}   ({failed} of {res['attempted']} items)")
    for f in res["failures"][:10]:
        print(f"     FAILED {f['item']} pass {f['pass']}: {'; '.join(f['why'])}")
    if not res["exact_outputs"]:
        print("   no exact outputs (Monte Carlo floats only); every mean checked against its exact expectation")
    else:
        status = "checked against" if res["has_reference"] else "no"
        print(
            f"   exact digest {res['digest'][:16]}  ({res['exact_outputs']} exact outputs in"
            f" {len(res['item_digests'])} items; {status} stored reference for this seed)"
        )
    if res["drift"] is not None:
        d, key = res["drift"]
        print(f"   largest float drift from reference: {d:.3g} relative ({key})")
    if "trace" in res:
        overhead = per_layer(res)["trace_overhead_s"][0]
        print(f"   traced: {res['trace']['spans']} spans, trace_overhead_s {overhead:.4g}")
        print("   layer shares of the median traced pass:")
        for layer, share in sorted(layer_shares(res).items(), key=lambda kv: -kv[1]):
            print(f"     {layer:10s} {share:7.1%}")


def write_reference(workload: str, seed: int, res: dict) -> None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs.setdefault(workload, {})[str(seed)] = {
        "digests": res["item_digests"],
        "floats": res["floats"],
    }
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-reference", action="store_true",
        help="store this run's exact digests and float outputs as the reference for its seed",
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wicklab" / "__init__.py").is_file():
        print(f"error: no wicklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        deadline = time.monotonic() + TIMEOUT_S
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        e2e = end_to_end(res)
        print_summary(name, args.seed, res, e2e)
        if args.write_reference:
            write_reference(name, args.seed, res)
        correct = correct and not res["failures"]
        attempted += res["attempted"]
        failed += len(res["failures"])
        if args.trace:
            values = per_layer(res)
        else:
            values = {k: (value, E2E_UNITS[k]) for k, (value, _) in e2e.items()}
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
