"""treepin benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload rates --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.

With `--trace 0` the run starts WORKERS fresh processes one after another.
Each sets up the workload (timed: the set-up samples), then measures its
share of `--seconds` starting at its own offset in the list of ops, so
between them they cover every op and no single process's speed decides the
result.  This process merges their samples and prints the end-to-end
metrics.  With `--trace 1` it runs the workload itself, alternating
untraced and traced executions of the same ops, writes the spans under
perfbench/out/, runs the kernel probes and prints the per-layer metrics.

The last stdout line is one JSON object.  A wrong output prints it with
"correct": false and exits 1.  See perfbench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import speed  # noqa: E402

_CAL0 = speed.probe()

# one thread per BLAS/OpenMP pool: the runs share a 2-core machine
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")
WORKERS = 5
WORKLOAD_NAMES = ("rates", "schemes", "protocol", "cli-small")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# layer spans reported as shares of traced op time (see README.md)
LAYER_SPANS = (
    "model.load_instance",
    "model.save_instance",
    "capacity.capacity_report",
    "reduce.reduce_full",
    "scheme.synth_random",
    "scheme.save_scheme",
    "scheme.load_scheme",
    "scheme.validate",
    "verify.verify_scheme",
    "simulate.decoder_setup",
    "simulate.trial_loop",
    "cli.analyze",
    "cli.reduce",
    "cli.synth",
    "cli.verify",
    "cli.simulate",
    "cli.oracle-check",
    "oracle.entropy_exhaustive",
    "oracle.mcf_exhaustive",
    "oracle.cond_mutual_info_exhaustive",
)
COUNT_METRICS = (
    "reduce.steps",
    "reduce.errors",
    "scheme.ext_degree.max",
    "cli.analyze.exit_nonzero",
    "cli.reduce.exit_nonzero",
    "cli.synth.exit_nonzero",
    "cli.verify.exit_nonzero",
    "cli.simulate.exit_nonzero",
    "cli.oracle-check.exit_nonzero",
    "oracle.vectors",
)


class WrongOutput(Exception):
    """A worker reported a wrong output."""


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "treepin", "__init__.py")):
        sys.exit(f"error: no treepin package under {SRC}; run from a full checkout")


def _import_program():
    """Import treepin (from this checkout's src/ only) and the workloads."""
    _check_checkout()
    sys.path.insert(0, SRC)
    import treepin

    if os.path.dirname(os.path.dirname(os.path.abspath(treepin.__file__))) != SRC:
        sys.exit(f"error: treepin imported from {treepin.__file__}, not {SRC}")
    import workloads

    return workloads


def _commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "treepin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _print_env(numpy_version):
    print(
        f"env: nproc = {os.cpu_count()}  python = {platform.python_version()}  "
        f"numpy = {numpy_version}  commit = {_commit()}  src_digest = {_src_digest()}  "
        f"OMP_NUM_THREADS = 1  OPENBLAS_NUM_THREADS = 1"
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _emit(name, value, unit, note=""):
    print(f"{name} = {value!r} {unit}{'  (' + note + ')' if note else ''}")
    return name, {"value": value, "unit": unit}


def _fail(message, attempted, failed) -> int:
    print(f"wrong output: {message}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
    return 1


# ---------------------------------------------------------------------------
# statistics


def _quantile(weighted, p):
    """Weighted quantile of [(value, weight)], 0 <= p <= 1: each sample
    sits at the middle of its weight, with linear interpolation between
    neighbours (for equal weights this is the usual median)."""
    srt = sorted(weighted)
    total = sum(w for _, w in srt)
    acc = 0.0
    prev = None
    for value, w in srt:
        pos = (acc + w / 2) / total
        if pos >= p:
            if prev is None:
                return value
            ppos, pval = prev
            return pval + (value - pval) * (p - ppos) / (pos - ppos)
        prev = (pos, value)
        acc += w
    return srt[-1][0]


def _tail_p(n):
    """Highest percentile with at least ten of n samples beyond it."""
    return next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 100.0)


def _pass_stats(samples):
    """Statistics over the op mix of one pass over the distinct ops.

    Runs end part-way through a pass, so some ops ran once more than
    others; weighting each sample by 1 / (samples of its op) gives every
    distinct op the same weight, as whole passes would.
    samples: [(op, seconds, completed)].  Returns (ops_per_s, p50, tail,
    tail percentile, ok_share, completed samples)."""
    by_op: dict[int, list[tuple[float, bool]]] = {}
    for k, dt, ok in samples:
        by_op.setdefault(k, []).append((dt, ok))
    pass_s = sum(statistics.fmean(dt for dt, _ in v) for v in by_op.values())
    ok_ops = sum(1 for v in by_op.values() if all(ok for _, ok in v))
    weighted = [(dt, 1 / len(v)) for v in by_op.values() for dt, ok in v if ok]
    n = len(weighted)
    p = _tail_p(n)
    return (ok_ops / pass_s, _quantile(weighted, 0.5), _quantile(weighted, p / 100),
            p, ok_ops / len(by_op), n)


# ---------------------------------------------------------------------------
# one process running the workload


class Loop:
    """Closed loop with one client: op i+1 starts when op i returns."""

    def __init__(self, wl, wrong):
        self.wl = wl
        self.wrong = wrong                # the workloads' WrongAnswer class
        self.samples: list[list] = []     # [op, seconds, speed window, completed]
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.outputs: dict[int, str] = {}

    def one(self, i, tracer, window=0, span=False) -> float:
        wl = self.wl
        t = time.perf_counter()
        try:
            if span:
                with tracer.span("op"), wl.trace_hooks(i, tracer):
                    res = wl.run(i, tracer)
            else:
                res = wl.run(i, tracer)
        except self.wrong:
            raise
        except Exception as exc:   # a raised error is a failed op, not a crash
            dt = time.perf_counter() - t
            self.attempted += 1
            self.failed += 1
            self.samples.append([i, dt, window, False])
            first = str(exc).splitlines()[0][:100] if str(exc) else ""
            key = f"{type(exc).__name__}: {first}"
            self.errors[key] = self.errors.get(key, 0) + 1
            wl.failed(i, exc)
            return dt
        dt = time.perf_counter() - t
        self.attempted += 1
        self.samples.append([i, dt, window, True])
        digest = _sha(wl.check(i, res))
        if self.outputs.setdefault(i, digest) != digest:
            raise self.wrong(f"op {i} gave a different output on a repeat")
        return dt


def _setup(workloads, args):
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    wl.setup()
    wl.warm_up()
    raw = time.perf_counter() - _T0
    return wl, raw * speed.REF_S / ((_CAL0 + speed.probe()) / 2)


def worker(args) -> int:
    """Set up, measure from this worker's offset, print one JSON line."""
    workloads = _import_program()
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    wl, setup_s = _setup(workloads, args)
    import numpy

    loop = Loop(wl, workloads.WrongAnswer)
    track = speed.SpeedTrack()
    start = time.perf_counter()
    i = int(args.offset * wl.n_ops) // wl.chain * wl.chain
    try:
        while time.perf_counter() - start < args.seconds:
            k = i % wl.n_ops
            i += 1
            if not wl.skip(k):
                loop.one(k, workloads.NULL, track.window)
                track.tick()
    except workloads.WrongAnswer as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        return 1
    track.finish()
    print(json.dumps({
        "setup_s": setup_s,
        "samples": [[k, dt * track.scale(w), dt, ok] for k, dt, w, ok in loop.samples],
        "outputs": loop.outputs,
        "errors": loop.errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel": track.points,
        "input_digest": wl.input_digest(),
        "set_aside": len(wl.set_aside),
        "n_ops": wl.n_ops,
        "why": wl.why,
        "numpy": numpy.__version__,
    }))
    return 0


# ---------------------------------------------------------------------------
# end-to-end run: merge the workers


def _run_workers(args):
    results = []
    for j in range(WORKERS):
        cmd = [
            sys.executable, os.path.abspath(__file__), "--worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / WORKERS), "--offset", repr(j / WORKERS),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            if "wrong output" in proc.stderr:
                raise WrongOutput(proc.stderr.strip())
            sys.exit(f"error: worker {j} failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def end_to_end(args) -> int:
    _check_checkout()
    try:
        results = _run_workers(args)
    except WrongOutput as exc:
        return _fail(exc, 0, 0)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    outputs: dict[str, str] = {}
    for r in results:
        for k, d in r["outputs"].items():
            if outputs.setdefault(k, d) != d:
                return _fail(f"op {k} gave different outputs in two processes", attempted, failed)
    if len({r["input_digest"] for r in results}) != 1:
        return _fail("workers generated different inputs", attempted, failed)
    samples = [s for r in results for s in r["samples"]]
    if not outputs:
        return _fail("no op completed", attempted, failed)

    first = results[0]
    ops_per_s, p50, tail, p, ok_share, n = _pass_stats([(k, dt, ok) for k, dt, _, ok in samples])
    raw = _pass_stats([(k, dt, ok) for k, _, dt, ok in samples])
    kernel = [x for r in results for x in r["kernel"]]
    setups = [r["setup_s"] for r in results]
    errors: dict[str, int] = {}
    for r in results:
        for key, c in r["errors"].items():
            errors[key] = errors.get(key, 0) + c

    print(f"workload = {args.workload}: {first['why']}")
    print(f"seed = {args.seed}  seconds = {args.seconds}  trace = 0  workers = {WORKERS}")
    _print_env(first["numpy"])
    print(f"input_digest = {first['input_digest']}  ({first['n_ops']} distinct ops, "
          f"{first['set_aside']} cw = 0 draws set aside)")
    print(f"output_digest = {_sha(repr(sorted(outputs.items(), key=lambda kv: int(kv[0]))))}"
          f"  ({len(outputs)} of {first['n_ops']} ops completed at least once)")
    for key, c in sorted(errors.items()):
        print(f"failed op: {c} x {key}")
    print(f"speed: {len(kernel)} kernel timings, median {statistics.median(kernel)!r} s, "
          f"min {min(kernel)!r} s, max {max(kernel)!r} s; reference {speed.REF_S} s")
    print(f"failed_share = {1 - ok_share!r} share  (distinct ops that failed, over one pass; "
          f"{failed} of {attempted} attempted ops failed)")
    print(f"raw (unscaled): ops_per_s = {raw[0]!r}  op_s_p50 = {raw[1]!r}  op_s_tail = {raw[2]!r}")
    metrics = dict([
        _emit("ops_per_s", ops_per_s, "1/s", f"{n} completed of {attempted} attempted"),
        _emit("op_s_p50", p50, "s", f"n = {n}"),
        _emit("op_s_tail", tail, "s", f"p{p:g}, n = {n}"),
        _emit("setup_s", statistics.median(setups), "s",
              "median of " + ", ".join(f"{s:.3f}" for s in setups)),
        _emit("peak_rss_mb", max(r["rss_mb"] for r in results), "MB", "largest worker"),
    ])
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced(args) -> int:
    workloads = _import_program()
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    import numpy
    from probes import run_probes
    from tracing import NULL, Tracer

    wl, setup_s = _setup(workloads, args)
    print(f"workload = {wl.name}: {wl.why}")
    print(f"seed = {args.seed}  seconds = {args.seconds}  trace = 1")
    _print_env(numpy.__version__)
    print(f"input_digest = {wl.input_digest()}  ({wl.n_ops} distinct ops, "
          f"{len(wl.set_aside)} cw = 0 draws set aside)")
    print(f"set-up: {setup_s!r} s, of which {wl.field_s!r} s building field contexts")

    tracer = Tracer()
    plain = Loop(wl, workloads.WrongAnswer)
    loop = Loop(wl, workloads.WrongAnswer)
    traced_s = plain_s = 0.0
    done_trials = 0
    start = time.perf_counter()
    i = 0
    try:
        while time.perf_counter() - start < args.seconds:
            k = i % wl.n_ops
            i += 1
            if wl.skip(k):
                continue
            plain_s += plain.one(k, NULL)
            if wl.skip(k):   # the plain run just failed: the chain stops here
                continue
            tracer.op_id = i
            wl.traced_extra(k, tracer)
            traced_s += loop.one(k, tracer, span=True)
            done_trials += wl.trials(k)
        for k, d in plain.outputs.items():
            if loop.outputs.setdefault(k, d) != d:
                raise workloads.WrongAnswer(f"op {k} gave a different output traced and untraced")
    except workloads.WrongAnswer as exc:
        return _fail(exc, plain.attempted + loop.attempted, plain.failed + loop.failed)

    spans_path = os.path.join(OUT, f"spans-{wl.name}-{args.seed}.jsonl")
    tracer.write(spans_path)
    stats = tracer.layer_stats()
    op_s = stats.get("op", {}).get("busy_s", 0.0)
    if "simulate.run_protocol" in stats:
        loop_busy = stats["simulate.run_protocol"]["busy_s"] - stats["simulate.decoder_setup"]["busy_s"]
        stats["simulate.trial_loop"] = {
            "calls": stats["simulate.run_protocol"]["calls"], "busy_s": loop_busy, "self_s": loop_busy,
        }
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    for name in sorted(stats):
        s = stats[name]
        print(f"layer {name}: calls = {s['calls']}  busy_s = {s['busy_s']:.6f}  self_s = {s['self_s']:.6f}")
    with open(os.path.join(OUT, f"layers-{wl.name}-{args.seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=1, sort_keys=True)

    metrics = {}
    for name in LAYER_SPANS:
        busy = stats.get(name, {}).get("busy_s", 0.0)
        metrics.update([_emit(f"{name}.busy_share", busy / op_s if op_s else 0.0, "share",
                              f"busy_s = {busy:.6f} of {op_s:.6f} traced op seconds")])
    loop_s = stats.get("simulate.trial_loop", {}).get("busy_s", 0.0)
    metrics.update([_emit("simulate.trials_per_s", done_trials / loop_s if loop_s > 0 else 0.0, "1/s",
                          f"{done_trials} trials")])
    counts = wl.counts()
    refused = wl.set_aside_errors()
    print(f"set aside: reduce_full refused {refused} of {len(wl.set_aside)} cw = 0 draws")
    counts["reduce.errors"] = counts.get("reduce.errors", 0) + refused
    for name in COUNT_METRICS:
        note = "timed ops and set-aside draws" if name == "reduce.errors" else "over the distinct ops seen"
        metrics.update([_emit(name, counts.get(name, 0), "count", note)])
    probe_metrics, probe_lines = run_probes(wl.probe_material())
    for line in probe_lines:
        print(line)
    for name, (value, unit) in probe_metrics.items():
        metrics.update([_emit(name, value, unit)])
    metrics.update([_emit("trace.overhead_share", traced_s / plain_s - 1 if plain_s else 0.0, "share",
                          f"traced {traced_s:.3f} s over untraced {plain_s:.3f} s, same ops")])
    errors = dict(plain.errors)
    for key, c in loop.errors.items():
        errors[key] = errors.get(key, 0) + c
    for key, c in sorted(errors.items()):
        print(f"failed op: {c} x {key}")
    print(json.dumps({
        "correct": True,
        "attempted": plain.attempted + loop.attempted,
        "failed": plain.failed + loop.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--offset", type=float, default=0.0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args)
    if args.trace:
        return traced(args)
    return end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
