"""One benchmark worker process: set up, warm up, run passes, check outputs.

Started by ``run.py`` with the BLAS thread count fixed in its environment.
The worker imports wicklab from the checkout's ``src/`` (never an installed
copy), builds one pass of seeded items and then, in a closed loop with one
client, runs whole passes until ``--seconds`` have elapsed, each pinned to
one CPU.  Outputs are checked after the loop, untimed.  With ``--trace 1``
the time is split: untraced passes first, then traced ones.  The result is
one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import TARGETS, Tracer, label

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# CPUs this process may use, read once before the first pin narrows them.
CPUS = sorted(os.sched_getaffinity(0))


def pin(index: int) -> None:
    """Pin this process to one of its CPUs, chosen round-robin by ``index``.

    Consecutive passes run on different CPUs: on a VM whose vCPUs each slow
    down for tens of seconds at a time, a run's fastest repeat then comes from
    whichever vCPU was not slowed, instead of from one slowed vCPU.
    """
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


def import_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import wicklab

    src = (ROOT / "src").resolve()
    if src not in Path(wicklab.__file__).resolve().parents:
        raise SystemExit(f"wicklab imported from {wicklab.__file__}, not from {src}")
    import workloads

    return workloads


def run_passes(items, budget: float, tracer=None) -> tuple:
    """Whole passes until ``budget`` seconds have elapsed (at least one).

    Returns (pass seconds, item milliseconds per pass, outputs per pass); an
    output is the raised exception when the call raised.
    """
    pass_s, item_ms, outputs = [], [], []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < budget:
        pin(len(pass_s))
        gc.collect()
        outs, times = [], []
        p0 = time.perf_counter()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = f"{len(pass_s)}:{i}"
            t0 = time.perf_counter()
            try:
                out = item.call()
            except Exception as exc:  # a failed item is counted, not fatal
                out = exc
            times.append((time.perf_counter() - t0) * 1e3)
            outs.append(out)
        pass_s.append(time.perf_counter() - p0)
        item_ms.append(times)
        outputs.append(outs)
    return pass_s, item_ms, outputs


def item_digest(outcome) -> str:
    return hashlib.sha256("\n".join(outcome.exact).encode()).hexdigest()[:16]


def check(items, outputs, reference: dict) -> dict:
    """Oracles on the first pass; later passes must reproduce it with ``==``.

    An item fails if it raised, missed an oracle, differs from the first
    pass, or its exact digest differs from the stored reference.
    """
    failures, digests, floats = [], {}, {}
    exact_outputs = 0
    first = outputs[0]
    for i, item in enumerate(items):
        out = first[i]
        if isinstance(out, Exception):
            bad = [f"raised {out!r}"]
        else:
            outcome = item.check(out)
            bad = list(outcome.failures)
            digests[item.name] = item_digest(outcome)
            exact_outputs += len(outcome.exact)
            floats.update({f"{item.name}/{k}": v for k, v in outcome.floats.items()})
            ref = reference.get("digests", {}).get(item.name)
            if ref is not None and ref != digests[item.name]:
                bad.append("exact digest differs from the stored reference")
        for p, outs in enumerate(outputs):
            if bad:
                failures.append({"item": item.name, "pass": p, "why": bad})
            elif p and not outs[i] == out:
                failures.append({"item": item.name, "pass": p, "why": ["differs from pass 0"]})
    drift = None
    ref_floats = reference.get("floats", {})
    for key, value in floats.items():
        if key in ref_floats:
            ref = ref_floats[key]
            d = abs(value - ref) / abs(ref) if ref else abs(value)
            if drift is None or d > drift[0]:
                drift = (d, key)
    run_digest = hashlib.sha256(
        "\n".join(f"{k} {v}" for k, v in sorted(digests.items())).encode()
    ).hexdigest()
    return {
        "failures": failures,
        "digest": run_digest,
        "item_digests": digests,
        "exact_outputs": exact_outputs,
        "floats": floats,
        "drift": drift,
        "has_reference": bool(reference),
    }


def trace_summary(tracer, traced_pass_s, n_items: int) -> dict:
    """Per-pass calls, median per-pass self time, and per-pass counts."""
    per_item = tracer.per_item()
    passes = len(traced_pass_s)
    calls, self_s = {}, {}
    for module, qualname, _layer in TARGETS:
        name = label(module, qualname)
        per_pass = [
            sum(per_item[f"{p}:{i}"][name][1] for i in range(n_items)) for p in range(passes)
        ]
        calls[name] = sum(per_item[f"0:{i}"][name][0] for i in range(n_items))
        self_s[name] = statistics.median(per_pass)
    counts = {}
    for i in range(n_items):
        for key, n in tracer.counts[f"0:{i}"].items():
            counts[key] = counts.get(key, 0) + n
    return {"calls": calls, "self_s": self_s, "counts": counts, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=int, metavar="SAMPLE",
                    help="only set up, pinned round-robin by this sample number")
    ap.add_argument("--trace-out", help="write the spans here as JSON lines")
    args = ap.parse_args(argv)

    pin(0 if args.setup_only is None else args.setup_only)
    t_setup = time.perf_counter()
    workloads = import_workloads()
    items = workloads.build(args.workload, args.seed)
    result = {
        "setup_s": time.perf_counter() - t_setup,
        "cpus": CPUS,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }
    if args.setup_only is not None:
        print(json.dumps(result))
        return 0

    items[0].call()  # untimed warm-up item
    budget = args.seconds / 2 if args.trace else args.seconds
    pass_s, item_ms, outputs = run_passes(items, budget)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["pass_s"] = pass_s
    result["item_ms"] = item_ms
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_pass_s, traced_item_ms, traced_outputs = run_passes(items, budget, tracer)
        finally:
            tracer.uninstall()
        outputs += traced_outputs
        result["traced_pass_s"] = traced_pass_s
        result["traced_item_ms"] = traced_item_ms
        result["trace"] = trace_summary(tracer, traced_pass_s, len(items))
        if args.trace_out:
            tracer.write(args.trace_out)
    reference_path = HERE / "reference.json"
    references = json.loads(reference_path.read_text()) if reference_path.exists() else {}
    reference = references.get(args.workload, {}).get(str(args.seed), {})
    result.update(check(items, outputs, reference))
    result["attempted"] = sum(len(outs) for outs in outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
