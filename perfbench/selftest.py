"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

For every workload, at one round:
  * an untraced run whose first op's checker is fed a wrong answer must
    print every end-to-end metric of BENCHMARK.json with its unit, count
    exactly that op as failed, report correct=false and exit with 1;
  * a traced run must print every per-layer metric with its unit, report
    correct=true and exit with 0.
Then a copy of the benchmark without the package source must exit non-zero
without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def _check_metrics(result, expected, where):
    got = result["metrics"]
    assert set(got) == set(expected), f"{where}: metrics {sorted(set(got) ^ set(expected))} differ"
    for name, unit in expected.items():
        assert got[name]["unit"] == unit, f"{where}: {name} has unit {got[name]['unit']}, not {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{where}: {name} is not a number"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in (w["name"] for w in spec["workloads"]):
        tiny = ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--min-ops", "1"]
        proc = _run(*tiny, "--trace", "0", "--inject-wrong", "0")
        where = f"{workload} untraced"
        assert proc.returncode == 1, f"{where}: exit {proc.returncode}\n{proc.stderr}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _check_metrics(result, end_to_end, where)
        assert result["failed"] == 1 and result["correct"] is False, f"{where}: {result}"
        assert "error_rate" in proc.stdout, f"{where}: error_rate not printed"

        proc = _run(*tiny, "--trace", "1")
        where = f"{workload} traced"
        assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _check_metrics(result, per_layer, where)
        assert result["failed"] == 0 and result["correct"] is True, f"{where}: {result}"
        print(f"ok  {workload}", flush=True)

    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("--workload", "rank2_kl", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, "bare copy printed a result"
    print("ok  without the package source: no result, exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
