"""Run the ahecke CLI under cProfile: one traced cli_cold op.

    python3 perfbench/cli_child.py PROFILE_PATH ARG...

Behaves like ``python -m affine_hecke.cli ARG...`` (same output, exit code
and tracebacks) and writes the profile, import included, to PROFILE_PATH.
"""

import cProfile
import sys


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        from affine_hecke import cli

        return cli.main(argv)
    finally:
        profiler.disable()
        profiler.dump_stats(path)


if __name__ == "__main__":
    sys.exit(main())
