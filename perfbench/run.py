"""hcmu-lab benchmark: one workload, in one process, for a fixed time.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The run makes its inputs from ``--seed``, runs ops in a
closed loop (one op at a time, the next after the previous one's check) for
``--seconds`` seconds and at least the workload's minimum op count, checks
every output, and prints as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Between ops it times a fixed
reference computation of its own (see ``Reference``), so that op latency
can also be given relative to the host's speed at that moment.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs ops
untraced for half the time, then replays the same inputs with every traced
library function wrapped, and reports the per-layer metrics; the spans go
to ``.perfbench-run/trace-<workload>-seed<seed>.jsonl``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-run"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Setup is measured this many times per run (this process plus fresh
# interpreters), and the median reported.
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("certify", "falsify", "converge", "realize", "holonomy")
# The reference is sampled before the first op, again once REF_EVERY_S of
# ops have run since its last sample, and after the last op.  A sample is
# the median of at least REF_REPEATS timings that together last REF_SHARE of
# the op time since the last sample (REF_FIRST_S for the first sample).
REF_EVERY_S = 0.5
REF_REPEATS = 3
REF_SHARE = 0.03
REF_FIRST_S = 0.25


def pin_threads():
    # The program is single-threaded; pinning BLAS/OpenMP pools to one
    # thread (at most nproc) keeps library thread pools from adding noise.
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import hcmu_lab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hcmu_lab" / "__init__.py").is_file():
        sys.exit(f"error: no hcmu_lab sources under {src}")
    sys.path.insert(0, str(src))
    import hcmu_lab
    if Path(hcmu_lab.__file__).resolve().parent != (src / "hcmu_lab").resolve():
        sys.exit(f"error: imported hcmu_lab from {hcmu_lab.__file__}")
    import workloads
    return workloads


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg": os.getloadavg(), "commit": git_commit(),
    }


class Reference:
    """A fixed computation of the benchmark's own, timed between ops.

    On a shared host the same op can take twice as long for tens of seconds
    at a time while neighbours are busy.  The reference slows down with it,
    so an op's latency over the reference time around it keeps the
    program's speed and drops most of the host's.  It mixes the kinds of
    work the workloads' hot spots do: a scalar Python loop, ``brentq`` on a
    Python function, ``Fraction`` sums and a sparse LU factorization of a
    1,600-unknown Laplacian.  The program never runs this code, so a change
    to the program moves the ratio exactly as it moves the op's latency.
    """

    def __init__(self):
        import scipy.sparse as sp
        from scipy.optimize import brentq
        from scipy.sparse.linalg import splu
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(40, 40))
        eye = sp.identity(40)
        self._lap = (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()
        self._brentq = brentq
        self._splu = splu

    def sample(self, budget_s):
        times = []
        start = time.perf_counter()
        while len(times) < REF_REPEATS or time.perf_counter() - start < budget_s:
            times.append(self.seconds())
        return statistics.median(times)

    def seconds(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1, 10000):
            acc += math.sqrt(i) / (i + 0.5)
        for k in range(75):
            self._brentq(lambda x: x * x * x - 2.0 * x - 1.0 - 1e-3 * k,
                         1.0, 3.0, xtol=1e-14)
        exact = Fraction(0)
        for k in range(1, 200):
            exact += Fraction(k, 7 * k + 3) * Fraction(3, k + 1)
        self._splu(self._lap)
        return time.perf_counter() - t0


class OpLog:
    """Latency, outcome and counters of every op a phase attempted."""

    def __init__(self):
        self.latencies = []     # seconds, for ops that passed their check
        self.rel = []           # the same, over the reference time around each
        self.op_seconds = 0.0   # program time of every attempted op
        self.attempted = 0
        self.failures = []
        self.counters = {}
        self.wall = 0.0         # timed loop, without the reference samples


def run_ops(wl, inputs, work, seconds=None, count=None, tracer=None):
    """Closed loop: run `count` ops, or until `seconds` elapse, at least
    min_ops ran and the last block of the input mix is whole.

    Each passed op's latency is also divided by the mean of the reference
    samples on either side of it (see `Reference`).
    """
    log = OpLog()
    ref = Reference()
    ref_prev = ref.sample(REF_FIRST_S)
    ref_total = 0.0
    pending = []

    def sample_reference():
        nonlocal ref_prev
        ref_next = ref.sample(REF_SHARE * sum(pending))
        scale = 0.5 * (ref_prev + ref_next)
        log.rel.extend(lat / scale for lat in pending)
        pending.clear()
        ref_prev = ref_next

    start = last_ref = time.perf_counter()
    while True:
        k = log.attempted
        if count is not None:
            if k >= count:
                break
        elif (time.perf_counter() - start >= seconds and k >= wl.min_ops
              and k % wl.block == 0):
            break
        inp = inputs[k % len(inputs)]
        log.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inp, work)
            else:
                tracer.op = k
                with tracer.span("op"):
                    out = wl.run(inp, work)
            latency = time.perf_counter() - t0
            log.op_seconds += latency
            wl.check(inp, out)
        except Exception as e:  # a failed op is counted, never fatal
            log.op_seconds += time.perf_counter() - t0
            log.failures.append(f"op {k}: {type(e).__name__}: {e}")
            continue
        log.latencies.append(latency)
        pending.append(latency)
        for key, value in wl.counters(out).items():
            log.counters[key] = log.counters.get(key, 0) + value
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            t_ref = time.perf_counter()
            sample_reference()
            last_ref = time.perf_counter()
            ref_total += last_ref - t_ref
    log.wall = time.perf_counter() - start - ref_total
    sample_reference()
    return log


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it.

    With 10 or fewer samples there is no such percentile; the maximum is
    reported then, as percentile 100 with 0 samples beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def setup_probe_seconds(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(args, wl, inputs, work, setup_own):
    log = run_ops(wl, inputs, work, seconds=args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_own] + [setup_probe_seconds(args)
                            for _ in range(SETUP_SAMPLES - 1)]
    passed = len(log.latencies)
    if not passed:
        return log, None
    p50 = statistics.median(log.latencies)
    p50_rel = statistics.median(log.rel)
    tail_s, tail_pct, beyond = tail(log.latencies)
    print(f"{wl.name}: attempted={log.attempted} passed={passed} "
          f"fail_frac={len(log.failures) / log.attempted:.6g} "
          f"ops_per_s={passed / log.wall:.6g} 1/s over {log.wall:.3f} s; "
          f"op_p50_ms={1e3 * p50:.6g} ms (n={passed}); "
          f"op_p50_rel={p50_rel:.6g} ref; "
          f"op_tail_ms={1e3 * tail_s:.6g} ms (p{tail_pct:.2f}, {beyond} beyond); "
          f"setup_s={statistics.median(setups):.6g} s "
          f"(samples {', '.join(f'{s:.4f}' for s in setups)}); "
          f"peak_rss_mib={peak_rss_mib:.6g} MiB")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_rel": (p50_rel, "ref"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return log, metrics


def per_layer(args, wl, inputs, work):
    import tracing
    untraced = run_ops(wl, inputs, work, seconds=args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_ops(wl, inputs, work, count=untraced.attempted,
                         tracer=tracer)
    finally:
        tracer.uninstall()
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    n = traced.attempted
    if traced.rel and untraced.rel:
        overhead = sum(traced.rel) / sum(untraced.rel) - 1.0
    else:
        overhead = traced.op_seconds / untraced.op_seconds - 1.0
    print(f"{wl.name}: traced {n} ops, {len(tracer.spans)} spans -> {trace_path}; "
          f"trace.overhead_frac={overhead:.4f}")
    print(f"{'layer':36s} {'calls/op':>10s} {'self ms/op':>11s} "
          f"{'incl ms/op':>11s} {'share':>7s}")
    total_ms = 1e3 * traced.op_seconds / n
    for name, calls, self_ms, incl_ms in tracing.layer_table(tracer.spans, n):
        print(f"{name:36s} {calls:10.2f} {self_ms:11.3f} {incl_ms:11.3f} "
              f"{self_ms / total_ms:7.3f}")
    for grid, (k, ms, nnz) in tracing.splu_by_grid(tracer.spans).items():
        print(f"optimize.splu {grid}x{grid} grid: {k} factorizations, "
              f"{ms:.1f} ms each, nnz(L+U) {nnz:.0f}")
    values = tracing.layer_metrics(tracer.spans, n, traced.counters, overhead)
    units = dict(tracing.PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in tracing.PER_LAYER}
    log = OpLog()
    log.attempted = untraced.attempted + traced.attempted
    log.failures = untraced.failures + traced.failures
    return log, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="import, make inputs, print the setup seconds, exit")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    pin_threads()
    workloads = import_program()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    setup_own = time.perf_counter() - _T0
    if args.probe_setup:
        print(f"{setup_own!r}")
        return 0

    print("env: " + json.dumps(environment(args)))
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            log, metrics = per_layer(args, wl, inputs, str(work))
        else:
            log, metrics = end_to_end(args, wl, inputs, str(work), setup_own)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in log.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if metrics is None:
        print("error: no op passed its check", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
