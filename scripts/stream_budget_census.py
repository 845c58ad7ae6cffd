"""Census of short trivial words in BS(2,3) and their stream positions.

Answers two questions the test suite pins constants from:

  1. which reduced words of length <= L are trivial in BS(2,3) (the
     shortlex kernel stream of the identity map, cut at length L), and
  2. at what emission index the certificate stream first produces each
     of them.

The maximum over (2) is the budget within which any solver-trivial word
of length <= L is guaranteed to appear.
"""

import argparse
import itertools
import time

from fpw.bs import BS23, bs_presentation, kernel_stream
from fpw.presentations import _emissions
from fpw.words import format_word


def census(max_len: int) -> list:
    return list(itertools.takewhile(lambda w: len(w) <= max_len, kernel_stream(0)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-len", type=int, default=10)
    parser.add_argument("--stream-cap", type=int, default=2_000_000,
                        help="give up on a word after this many emissions")
    args = parser.parse_args()

    t0 = time.time()
    words = census(args.max_len)
    print(f"trivial words of reduced length <= {args.max_len}: {len(words)} "
          f"(scan took {time.time() - t0:.1f}s)")

    # the raw stream, keyed by codes: no certificate is built for an emission
    pending = {w.codes: w for w in words}
    positions: dict = {}
    pres = bs_presentation(BS23)
    t0 = time.time()
    for idx, (codes, *_) in enumerate(itertools.islice(_emissions(pres), args.stream_cap)):
        w = pending.pop(codes, None)
        if w is not None:
            positions[w] = idx + 1
            if not pending:
                break
    print(f"stream scan took {time.time() - t0:.1f}s")

    if pending:
        print(f"NOT FOUND within {args.stream_cap} emissions: {len(pending)} words")
        for w in sorted(pending.values(), key=lambda v: v.shortlex_key()):
            print(f"  {format_word(w)!r}")
    for w in sorted(positions, key=lambda v: positions[v]):
        print(f"{positions[w]:>9}  {format_word(w)}")
    if positions:
        print(f"max position: {max(positions.values())}")


if __name__ == "__main__":
    main()
