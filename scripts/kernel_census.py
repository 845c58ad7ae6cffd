"""Census of the kernel streams of the iterated doubling map on BS(2,3).

Prints, for each level i, the first few kernel words and how sparse the
kernel is inside the shortlex enumeration (useful for sizing stream budgets
in tests and searches).
"""

import argparse
import itertools
import time

from fpw.bs import ST, kernel_stream
from fpw.harness import tower_oracle
from fpw.words import format_word, shortlex_stream


def density(level: int, scan: int) -> tuple[int, int]:
    oracle = tower_oracle(level)
    hits = sum(1 for w in itertools.islice(shortlex_stream(ST), scan) if oracle(w))
    return hits, scan


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=int, default=3, help="largest iterate to census")
    parser.add_argument("--count", type=int, default=8, help="kernel words to print per level")
    parser.add_argument("--scan", type=int, default=20000, help="shortlex prefix for density")
    args = parser.parse_args()

    for level in range(args.levels + 1):
        t0 = time.time()
        words = list(itertools.islice(kernel_stream(level), args.count))
        hits, scan = density(level, args.scan)
        print(f"level {level}: {hits}/{scan} of the shortlex prefix is in the kernel "
              f"({time.time() - t0:.1f}s)")
        for w in words:
            print(f"  {format_word(w) or '(empty word)'}")


if __name__ == "__main__":
    main()
