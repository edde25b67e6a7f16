#!/usr/bin/env python3
"""Tabulate KL-basis structure constants in rank 2 and cross-check them.

Every product of two KL basis elements expands with coefficients in
{1, 2, [2]}; the closed junction rule is compared against the
expand-multiply-convert oracle for every printed line.

Usage: python scripts/kl_products.py [--max-len 4]
"""

import argparse

from affine_hecke import KLLabel, alt_word, kl_mul_closed, kl_to_std, std_to_kl
from affine_hecke.serialize import to_text


def labels(max_len):
    out = []
    for l in range(1, max_len + 1):
        out.append(KLLabel(0, alt_word(l, first=0)))
        out.append(KLLabel(0, alt_word(l, first=1)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-len", type=int, default=4)
    args = parser.parse_args()

    mismatches = 0
    for a in labels(args.max_len):
        for b in labels(args.max_len):
            closed = kl_mul_closed(a, b)
            oracle = std_to_kl(kl_to_std(a) * kl_to_std(b))
            mark = "" if closed == oracle else "   <-- MISMATCH"
            mismatches += closed != oracle
            print(f"{a} * {b} = {to_text(closed)}{mark}")
    print()
    print("all products match the oracle" if not mismatches else f"{mismatches} MISMATCHES")
    return 0 if not mismatches else 1


if __name__ == "__main__":
    raise SystemExit(main())
