"""Checks that `analysis.gen_instance` draws the instances of
`helpers.ref_gen_instance`, cost for cost, and that one instance per class
hashes to its pinned sha256. It needs no pytest, so it runs under every
Python the package supports, from a checkout:

    PYTHONPATH=src python tests/check_gen_identity.py

It prints one line per mismatch and exits 1 on any. `test_analysis` runs
the same two checks.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction

from choremms.analysis import GEN_KINDS, gen_instance
from choremms.io import format_instance
from helpers import ref_gen_instance

SIZES = ([(1, 0), (2, 1), (3, 7)] + [(n, m) for n in range(3, 9) for m in range(10, 15)]
         + [(8, 80), (10, 100)])
SEEDS = range(40)

# sha256 of `format_instance(gen_instance(kind, 10, 100, 1, **params))`: a
# Python whose `random` draws another stream fails here, where it would
# otherwise change every generated pool without a sign
PINNED = [
    ("factored", {"levels": 2}, "40286a8d260398ef81fbcafa0e10f25d22cd95c183e81014757703c2d49838b8"),
    ("bivalued", {}, "f03c3cfc277302539d8a5405e5433bc320ff1a2d9b57fded2ec516b8cd2c77eb"),
    ("personalized_bivalued", {},
     "1207c3b3b0f44fcf7917b555e8a01b27568fae10d505c28802242161ca5ea416"),
    ("general", {}, "84f2bd5a28e5c0aa017e00f12804f95479f1018db51ce17be084b7edd6fe9039"),
]


def identity_cases():
    """(kind, n, m, seed, params): every class at every size of SIZES and
    every seed of SEEDS, and factored 10 x 100 on chains of 1 to 3 steps."""
    for kind in GEN_KINDS:
        for seed in SEEDS:
            for n, m in SIZES:
                yield kind, n, m, seed, {}
            if kind == "factored":
                for levels in (1, 2, 3):
                    yield kind, 10, 100, seed, {"levels": levels}


def identity_mismatches() -> list[str]:
    """The cases whose rows differ from the oracle's in a value or in a
    cost that is not a `Fraction`."""
    found = []
    for kind, n, m, seed, params in identity_cases():
        got = [list(row) for row in gen_instance(kind, n, m, seed, **params).costs]
        want = [list(row) for row in ref_gen_instance(kind, n, m, seed, **params).costs]
        if got != want or any(type(c) is not Fraction for row in got for c in row):
            found.append(f"{kind} {n}x{m} seed {seed} {params}: rows differ")
    return found


def digest_mismatches() -> list[str]:
    found = []
    for kind, params, digest in PINNED:
        text = format_instance(gen_instance(kind, 10, 100, 1, **params))
        got = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if got != digest:
            found.append(f"{kind} 10x100 seed 1 {params}: sha256 {got}, pinned {digest}")
    return found


def main() -> int:
    found = identity_mismatches() + digest_mismatches()
    for line in found:
        print(line)
    print(f"{'FAIL' if found else 'ok'}: gen_instance on Python {sys.version.split()[0]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
