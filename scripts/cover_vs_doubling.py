"""Scan orbits: how small can a difference cover get while doubling stays low?

For random coprime rotations p/q the orbit of N multiples has |B+B| = 2N-1,
the smallest possible doubling, yet its minimum difference cover stays tiny.
Prints one row per sampled orbit.

Usage:
    python3 scripts/cover_vs_doubling.py --sizes 8,12,16 --trials 5
"""

import argparse
import random
from fractions import Fraction
from math import gcd

from gaplab.gap_spectrum import fractional_orbit
from gaplab.sumset_engine import doubling_ratio, minimal_difference_cover


def sample_orbit(rng, n):
    q = rng.randrange(4 * n, 40 * n)
    p = rng.randrange(1, q)
    while gcd(p, q) != 1:
        p += 1
    return Fraction(p, q), q


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="6,8,10,12,14,16",
                        help="comma-separated orbit sizes")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--exact-limit", type=int, default=20)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rng = random.Random(args.seed)
    print(f"{'n':>4} {'alpha':>12} {'|B+B|':>6} {'ratio':>7} "
          f"{'cover':>5} {'exact':>5} {'nodes':>7}")
    for n in sizes:
        for _ in range(args.trials):
            alpha, q = sample_orbit(rng, n)
            b = fractional_orbit(alpha, n).to_exact_set()
            ratio = doubling_ratio(b)
            cov = minimal_difference_cover(b, exact_limit=args.exact_limit)
            print(f"{n:>4} {str(alpha):>12} {len(b) * 2 - 1:>6} "
                  f"{float(ratio):>7.3f} {len(cov.cover):>5} "
                  f"{'yes' if cov.exact else 'no':>5} {cov.nodes:>7}")


if __name__ == "__main__":
    main()
