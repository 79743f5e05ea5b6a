"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py            # all checks, then the smoke run
    python3 perfbench/selftest.py --no-smoke

Checks that input generation is deterministic per seed, that every output
check rejects a deliberately corrupted output, and that BENCHMARK.json
lists exactly the metrics the benchmark prints.  The smoke run makes one
checked op of every workload at full size (about 20 s).
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run

run.pin_threads()
workloads = run.import_program()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def _same(a, b) -> bool:
    if hasattr(a, "noise"):
        return a.k2_init == b.k2_init and np.array_equal(a.noise, b.noise)
    return a == b


def test_inputs_deterministic_per_seed():
    for wl in WORKLOADS.values():
        a, b, other = wl.inputs(5), wl.inputs(5), wl.inputs(6)
        assert len(a) == len(b) and all(map(_same, a, b)), wl.name
        assert not all(map(_same, a, other)), f"{wl.name}: seed has no effect"


def test_certify_mix():
    inputs = WORKLOADS["certify"].inputs(5)
    rooted = sum(inp.roots_inside > 0 for inp in inputs)
    cusps = sum(inp.k2 == -inp.k1 / 2 for inp in inputs)
    assert rooted == 180 and cusps == 60, (rooted, cusps)


def _rejects(fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def test_certify_rejects_flipped_verdict(work):
    wl = WORKLOADS["certify"]
    inputs = wl.inputs(5)
    for inp in (next(i for i in inputs if i.roots_inside),
                next(i for i in inputs if not i.roots_inside)):
        text = Path(wl.run(inp, work)).read_text()
        workloads.check_obstruction_file(inp, text)
        lines = text.splitlines()
        flipped = "\n".join(
            ("verdict=no-root" if ln == "verdict=roots-isolated" else
             "verdict=roots-isolated" if ln == "verdict=no-root" else ln)
            for ln in lines)
        assert _rejects(workloads.check_obstruction_file, inp, flipped)
        if inp.roots_inside:
            dropped = "\n".join(ln for ln in lines
                                if not ln.startswith("root_interval="))
            assert _rejects(workloads.check_obstruction_file, inp, dropped)


def test_falsify_rejects_low_floor_ratio():
    good = {"floor_32x32": "0.47948675420938950", "floor_64x64": "0.48007549"}
    workloads.check_floors(good)
    low = dict(good, floor_64x64=repr(0.89 * 0.4794867542093895))
    assert _rejects(workloads.check_floors, low)
    assert _rejects(workloads.check_floors,
                    {"floor_32x32": "5e-5", "floor_64x64": "5e-5"})


def test_converge_rejects_floor_above_tol():
    class Report:
        refinement_history = ((32, 32, 1.3e-12), (64, 64, 2e-8))
    assert _rejects(WORKLOADS["converge"].check, None, Report())


def test_realize_rejects_perturbed_vertex(work):
    wl = WORKLOADS["realize"]
    inp = wl.inputs(5)[1]            # c = 1, the S^3 quadric
    out = wl.run(inp, work)
    wl.check(inp, out)
    mesh = Path(work, "surface.mesh")
    lines = mesh.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("v ")) + 41 * 50 + 20
    vals = lines[k].split()
    vals[1] = repr(float(vals[1]) + 1e-4)
    lines[k] = " ".join(vals)
    mesh.write_text("\n".join(lines) + "\n")
    common = ["--k1", "2", "--k2", "1", f"--c={inp.c}", "--k0", "1.5",
              "--k2-init", inp.k2_init]
    workloads._cli(["verify", *common, "--mesh", str(mesh),
                    "--out", str(Path(work, "verify.txt"))])
    verify = workloads._read_kv(Path(work, "verify.txt"))
    assert _rejects(workloads.check_realization, inp.c, verify, out.gc,
                    out.path_gap)


def test_holonomy_rejects_ratio_off_by_ten_percent(work):
    wl = WORKLOADS["holonomy"]
    inp = wl.inputs(5)[0]
    hd = wl.run(inp, work)
    workloads.check_holonomy(hd.measured, hd.predicted)
    assert _rejects(workloads.check_holonomy, 1.1 * hd.measured, hd.predicted)


def test_benchmark_json_lists_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in tracing.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_p50_rel", "peak_rss_mib"}


def test_tracer_restores_functions():
    from hcmu_lab import fields, optimize, realize
    before = (realize.curvature_at, optimize.splu, fields.GridDomain.create)
    tracer = tracing.Tracer()
    tracer.install()
    assert realize.curvature_at is not before[0]
    tracer.uninstall()
    assert (realize.curvature_at, optimize.splu, fields.GridDomain.create) == before


def smoke(work):
    """One checked op per workload, at full size."""
    for wl in WORKLOADS.values():
        t0 = time.perf_counter()
        log = run.run_ops(wl, wl.inputs(1), work, count=1)
        assert not log.failures, log.failures
        print(f"  smoke {wl.name}: 1 op passed in {time.perf_counter() - t0:.2f} s")


def main(argv):
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work:
        for name, fn in tests:
            try:
                fn(work) if fn.__code__.co_argcount else fn()
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
            else:
                print(f"ok   {name}")
        if "--no-smoke" not in argv:
            smoke(work)
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
