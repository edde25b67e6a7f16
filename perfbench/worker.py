"""One benchmark process: set up, run one workload's closed loop, report.

Started by run.py, never imported.  Set-up is interpreter start, the
import of ``affine_hecke.cli`` (which loads every layer), and generating
the first round of inputs; the worker then prints ``ready``.  The program's
memo tables are empty at that point and nothing warms them before the
timed loop.  Between ops the worker times the reference kernel of
reference.py, with which it converts op times to reference speed.  The
last stdout line is one JSON object for run.py.

    python3 perfbench/worker.py --workload W --seed N
        (--seconds S [--min-ops M] | --rounds R) [--profile] [--setup-only]
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from reference import REF_PASS_S, at_reference, time_pass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WALL_CAP_S = 150  # stay inside the 180-s limit whatever --seconds says
# A reference pass is timed before the loop, after an op once REF_EVERY_S
# of op time has passed since the last one, and after the loop; each op
# time is converted to reference speed with the passes around it.
REF_EVERY_S = 0.1


def _direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Spans:
    """In-memory spans (name, start, end, parent index, op id); written out
    when the run ends.  An op's span is the parent of the spans of the
    library calls it makes.  With a profiler, only those library calls are
    profiled: input generation and the op's own checks are not."""

    def __init__(self, profiler=None):
        self.rows = []
        self.profiler = profiler
        self._op_id = None
        self._op_row = None

    def _span(self, name, parent, fn, args, kwargs, profile=False):
        index = len(self.rows)
        self.rows.append(None)
        start = time.perf_counter()
        if profile:
            self.profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            if profile:
                self.profiler.disable()
            self.rows[index] = (name, start, time.perf_counter(), parent, self._op_id)

    def op(self, op_id, fn, *args):
        self._op_id, self._op_row = op_id, len(self.rows)
        return self._span("op", None, fn, args, {})

    def call(self, name, fn, *args, **kwargs):
        return self._span(name, self._op_row, fn, args, kwargs, profile=self.profiler is not None)

    def dump(self, path):
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, row)) for row in self.rows], fh)


def _summary(latencies, failed):
    ms = sorted(x * 1e3 for x in latencies)
    return {
        "ops_per_s": (len(ms) - failed) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0],
    }


def _workload(name, profile_dir):
    """(round generator, op) of a workload."""
    import workloads as w

    if name == "rank2_kl":
        return w.rank2_round, w.rank2_op
    if name == "induction":
        return w.induction_round, w.induction_op
    if name == "cli_cold":
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        return w.cli_round, w.make_cli_op(env, profile_dir)
    raise SystemExit(f"unknown workload {name!r}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--min-ops", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-wrong", type=int, default=-1)
    parser.add_argument("--tag", default="run")
    args = parser.parse_args()

    # cli_cold runs its ops in child processes and profiles those instead
    in_children = args.workload == "cli_cold"
    profiler = cProfile.Profile() if args.profile and not in_children else None
    if profiler is not None:
        profiler.enable()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import affine_hecke.cli  # noqa: F401  the import every ahecke call pays

    if profiler is not None:
        profiler.disable()  # from here on only the ops' library calls

    profile_dir = None
    if args.profile and in_children:
        profile_dir = os.path.join(OUT_DIR, f"profiles-{args.workload}-{args.tag}")
        os.makedirs(profile_dir, exist_ok=True)
        for stale in os.listdir(profile_dir):
            os.remove(os.path.join(profile_dir, stale))
    make_round, op = _workload(args.workload, profile_dir)
    rng = random.Random(args.seed)
    batch = make_round(rng)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    spans = Spans(profiler) if args.profile else None
    call = spans.call if spans else _direct
    latencies, outcomes, errors = [], [], []
    busy = 0.0
    rounds = 0
    ref, ref_at, ref_busy = [time_pass()], [], 0.0
    while True:
        for inp in batch:
            index = len(latencies)
            ref_at.append(len(ref) - 1)
            wrong = index == args.inject_wrong
            t0 = time.perf_counter()
            try:
                outcome = spans.op(index, op, inp, call, wrong) if spans else op(inp, call, wrong)
            except Exception:
                outcome = False
                errors.append(f"op {index}: {traceback.format_exc(limit=3)}")
            dt = time.perf_counter() - t0
            latencies.append(dt)
            outcomes.append(outcome)
            busy += dt
            if busy - ref_busy >= REF_EVERY_S:
                ref.append(time_pass())
                ref_busy = busy
        rounds += 1
        if args.rounds is not None:
            done = rounds >= args.rounds
        else:
            done = busy >= args.seconds and len(latencies) >= args.min_ops
        if done or time.perf_counter() - _START > WALL_CAP_S:
            break
        batch = make_round(rng)
    ref.append(time_pass())
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF)

    failed = 0
    for index, outcome in enumerate(outcomes):
        if callable(outcome):
            try:
                outcome = outcome()
            except Exception:
                outcome = False
                errors.append(f"op {index} check: {traceback.format_exc(limit=3)}")
        if outcome is not True:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {index}: wrong answer")
    for message in errors[:5]:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)

    result = {
        "attempted": len(latencies),
        "failed": failed,
        "busy_s": busy,
        "as_timed": _summary(latencies, failed),
        "reported": _summary([at_reference(dt, ref[i], ref[i + 1]) for dt, i in zip(latencies, ref_at)], failed),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "rounds": rounds,
        "speed": REF_PASS_S / statistics.mean(ref),
        "ref_passes": len(ref),
    }
    if args.profile:
        import layers

        if in_children:
            files = [os.path.join(profile_dir, f) for f in sorted(os.listdir(profile_dir))]
            stats = pstats.Stats(*files).stats if files else {}
        else:
            profiler.create_stats()
            stats = profiler.stats
        result["layers"] = layers.layer_metrics(stats)
        spans.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{args.tag}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
