"""Benchmark of the exact Hecke engine: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, seed 1, untraced

Run from the root of a source checkout; the package is imported from
``src``.  Every workload drives the public API of ``affine_hecke`` with one
caller, each op starting when the previous one has returned:

    rank2_kl    KL products, form and u_reduce at rank 2 (memo reuse)
    induction   induce, check the relations and y-commutation (dim <= 4)
    cli_cold    one fresh `python -m affine_hecke.cli` process per op

With ``--trace 0`` the run reports the end-to-end metrics.  Set-up (fresh
interpreter, ``import affine_hecke.cli``, first round of inputs) is timed
in eleven fresh processes, five before the measured run and six after it,
and reported as the median.  ``error_rate`` is printed and carried by
``attempted``/``failed`` in the result line; the run exits with code 1
when any op failed.

Times are reported at reference speed (reference.py): each set-up time is
scaled by the time of a fixed kernel timed just before and just after it,
and each op time by the nearest such passes before and after it (one per
0.1 s of op time), because the host's speed drifts.  The printed lines give
the figures as timed too.

With ``--trace 1`` the run executes a fixed number of rounds three times in
fresh processes (once untraced, twice under cProfile), checks that the
call counts of the two traced runs are identical, and reports the
per-layer metrics of layers.py.  Only the library calls an op makes are
profiled, and the package import.  Spans go to ``.perfbench_out/``.

The last stdout line is the result: for one workload one JSON object with
the keys correct, attempted, failed and metrics; for every workload one
object of those, keyed by workload name.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PKG = os.path.join(ROOT, "src", "affine_hecke")
WORKLOADS = ("rank2_kl", "induction", "cli_cold")
SETUP_RUNS = 11
IMPORT_RUNS = 5
CHILD_TIMEOUT_S = 170
# rounds of a traced run per second of --seconds, so the counts are fixed
# for a given --seconds; a round is 50 ops (rank2_kl), 6 (induction) or 9 (cli_cold)
TRACE_ROUNDS_PER_S = {"rank2_kl": 0.5, "induction": 2, "cli_cold": 0.06}


class BenchError(Exception):
    pass


def _worker(workload, seed, *extra):
    """Run worker.py; return (set-up seconds, result dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker for {workload} exited with code {code}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _import_seconds():
    """Median seconds of `import affine_hecke.cli`, measured in fresh
    children with -X importtime."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, "-X", "importtime", "-c", "import affine_hecke.cli"]
    samples = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "affine_hecke.cli":
                samples.append(int(parts[1]) * 1e-6)
    if len(samples) != IMPORT_RUNS:
        raise BenchError("could not read the import time of affine_hecke.cli")
    return statistics.median(samples)


def _metadata(workload, seed, mode):
    lines = {}
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                lines[name[:-3]] = sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "loop": "closed, 1 caller",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _result(correct, attempted, failed, metrics, units):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _setup_sample(workload, seed):
    """One set-up time in a fresh worker: (as timed, at reference speed)."""
    before = reference.time_pass()
    setup_s = _worker(workload, seed, "--setup-only")[0]
    return setup_s, reference.at_reference(setup_s, before, reference.time_pass())


def run_untraced(workload, seed, seconds, min_ops, inject_wrong):
    # set-up samples before and after the measured run, so they span it
    setups = [_setup_sample(workload, seed) for _ in range(SETUP_RUNS // 2)]
    extra = ["--seconds", str(seconds), "--min-ops", str(min_ops), "--inject-wrong", str(inject_wrong)]
    res = _worker(workload, seed, *extra)[1]
    setups += [_setup_sample(workload, seed) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    raw = dict(res["as_timed"], peak_rss_mb=res["peak_rss_mb"], setup_s=statistics.median(s for s, _ in setups))
    metrics = dict(res["reported"], peak_rss_mb=res["peak_rss_mb"], setup_s=statistics.median(r for _, r in setups))
    n, failed = res["attempted"], res["failed"]
    units = _units()
    print(f"{workload}  seed={seed}  closed loop, 1 caller: {n} ops, {res['busy_s']:.2f} s busy, "
          f"speed {res['speed']:.3f} x reference ({res['ref_passes']} reference passes)")
    for name, value in metrics.items():
        note = f"  (as timed: {raw[name]:.4f})" if raw[name] != value else ""
        if name == "op_p90_ms":
            note += f"  (p90 of {n} samples, {n - int(0.9 * n)} beyond it)"
        elif name == "setup_s":
            note += f"  (median of {len(setups)} set-ups)"
        print(f"  {name:<12} {value:12.4f} {units[name]}{note}")
    print(f"  {'error_rate':<12} {failed / n:12.4f}       ({failed} of {n} ops failed)")
    print("meta " + json.dumps(_metadata(workload, seed, "untraced")))
    return _result(failed == 0, n, failed, metrics, units)


def run_traced(workload, seed, seconds, inject_wrong):
    import layers

    rounds = max(1, round(seconds * TRACE_ROUNDS_PER_S[workload]))
    base = ["--rounds", str(rounds), "--inject-wrong", str(inject_wrong)]
    plain = _worker(workload, seed, *base)[1]
    traced = [_worker(workload, seed, *base, "--profile", "--tag", tag)[1] for tag in ("a", "b")]
    first, second = traced[0]["layers"], traced[1]["layers"]
    mismatched = [m for m in layers.COUNT_METRICS if first[m] != second[m]]
    for m in mismatched:
        print(f"perfbench: {workload}: {m} differs between traced runs: {first[m]} vs {second[m]}", file=sys.stderr)
    metrics = {m: first[m] if m in layers.COUNT_METRICS else (first[m] + second[m]) / 2 for m in first}
    metrics["cli.import_s"] = _import_seconds()
    traced_rate = statistics.mean(r["reported"]["ops_per_s"] for r in traced)
    metrics["trace.overhead_ratio"] = traced_rate / plain["reported"]["ops_per_s"]
    units = _units()
    attempted = plain["attempted"] + sum(r["attempted"] for r in traced)
    failed = plain["failed"] + sum(r["failed"] for r in traced)
    print(f"{workload}  seed={seed}  traced: {rounds} rounds, {plain['attempted']} ops per run, "
          f"counts {'identical' if not mismatched else 'DIFFER'} across two traced runs")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':<28} {failed / attempted:14.6g}  ({failed} of {attempted} ops failed)")
    for names, moves in layers.PREDICTIONS.items():
        print(f"  prediction: {names} -> {moves}")
    print("meta " + json.dumps(_metadata(workload, seed, "traced")))
    return _result(failed == 0 and not mismatched, attempted, failed, metrics, units)


def main(argv=None):
    parser = argparse.ArgumentParser(description="benchmark of the exact Hecke engine")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the self-test: a smaller op floor, and one op fed a wrong answer
    parser.add_argument("--min-ops", type=int, default=100, help=argparse.SUPPRESS)
    parser.add_argument("--inject-wrong", type=int, default=-1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        print(f"perfbench: no package source at {PKG}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    ok = True
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            if args.trace:
                result = run_traced(workload, args.seed, args.seconds, args.inject_wrong)
            else:
                result = run_untraced(workload, args.seed, args.seconds, args.min_ops, args.inject_wrong)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        results[workload] = result
    # one workload: its result object; every workload: one object keyed by name
    print(json.dumps(result if len(results) == 1 else results), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
