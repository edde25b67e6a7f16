"""Reference speed: times converted to a fixed speed of the host.

On a shared host the speed of a pure-Python process drifts by up to a
factor of two over minutes and moves by a third within seconds, and every
process on the host sees the same shifts.  So the benchmark times a fixed
kernel, ``reference_pass``, just before and just after each thing it
measures, and reports that time at reference speed: the speed at which
one pass takes ``REF_PASS_S`` seconds.
"""

import time

REF_PASS_S = 0.0021


def reference_pass():
    """A fixed pure-Python kernel of dict, int and string work, the kind the
    engine's inner loops do.  It allocates no containers, so it never
    triggers the cyclic garbage collector, whose cost grows with the
    program's heap."""
    table = {}
    total = 0
    for i in range(6000):
        key = i & 1023
        table[key] = table.get(key, 0) + i * i
        total += len(str(i))
    return total


def time_pass():
    t0 = time.perf_counter()
    reference_pass()
    return time.perf_counter() - t0


def at_reference(seconds, before, after):
    """``seconds`` timed between passes that took ``before`` and ``after``,
    converted to reference speed."""
    return 2 * seconds * REF_PASS_S / (before + after)
