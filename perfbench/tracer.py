"""Spans around the calls into each ``fpw`` module, installed from outside.

``Tracer.install(fp)`` replaces every public function of every ``fpw``
module, in every module namespace that holds it (``fpw.search`` imports
``trivial_word_stream`` from ``fpw.presentations``, so both names are
wrapped), with a wrapper that records a span: name, start, end, parent and
the exception that ended it, if any.  An iterator a function returns is
wrapped too and timed per ``next()``.  A few hot, tiny functions are only
counted, because a span would cost more than the call.

Spans stay in memory; ``metrics()`` derives the per-layer figures from them
and ``dump()`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Iterator

MODULES = ("words", "presentations", "bs", "search", "tietze", "harness", "cli")

# counted, not timed
COUNT_ONLY = {
    "words.concat",
    "words.invert",
    "words.free_reduce",
    "words.format_word",
    "presentations.exponent_vector",
    "harness.cantor_pair",
    "harness.cantor_unpair",
    "harness.cantor_tuple",
    "harness.cantor_untuple",
}

BRITTON = ("bs.britton_reduce_counted", "bs.britton_reduce", "bs.bs_is_trivial", "bs.bs_equal")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, exception name]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._after = {
            "words.substitute": self._after_substitute,
            "presentations.semidecide_trivial": self._after_semidecide,
            "presentations.certificate_word": self._after_cert_eval,
            "presentations.smith_normal_form": self._after_snf,
            "bs.britton_reduce_counted": self._after_britton,
            "bs.apply_f": self._after_apply_f,
            "search.iso_search": self._after_iso,
            "search.semidecide_homomorphism": self._after_hom,
            "tietze.check_move": self._after_check_move,
            "harness.tower_oracle": self._after_tower_oracle,
            "cli.main": self._after_cli,
        }

    # ---------------------------------------------------------------- spans

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        now = time.perf_counter()  # end stays at start if a deadline cuts _end short
        self.spans.append([name, now, now, self._open[-1] if self._open else -1, None])
        self._open.append(idx)
        return idx

    def _end(self, idx: int, exc: BaseException | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if exc is not None:
            span[4] = type(exc).__name__
        self._open.pop()

    def task_boundary(self) -> None:
        """Forget spans a deadline left open; the next span starts at the top."""
        self._open.clear()

    def call(self, name: str, fn, args, kwargs):
        idx = self._begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            self._end(idx, e)
            raise
        self._end(idx)
        return result

    def _span_wrapper(self, name: str, fn):
        before = self._before_subgroup if name == "search.subgroup_presentation_search" else None
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            result = self.call(name, fn, args, kwargs)
            if isinstance(result, Iterator):
                result = _TimedIterator(self, name, result)
            if after is not None:
                replaced = after(args, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------------- install

    def install(self, fp) -> None:
        modules = [getattr(fp, m) for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                wrappers[id(value)] = make(name, value)
        for mod in modules + [fp]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # ---------------------------------------------------------------- hooks

    def _after_substitute(self, args, result):
        self.counts["substitute.out_letters"] += len(result)

    def _after_semidecide(self, args, result):
        self.counts["semidecide.steps"] += result.steps
        self.counts["semidecide.proved"] += type(result).__name__ == "ProvedTrivial"

    def _after_cert_eval(self, args, result):
        self.counts["cert_eval.factors"] += len(args[1].factors)

    def _after_snf(self, args, result):
        bits = max((abs(x).bit_length() for m in result for row in m.entries for x in row), default=0)
        self.counts["snf.max_entry_bits"] = max(self.counts["snf.max_entry_bits"], bits)

    def _after_britton(self, args, result):
        self.counts["britton.pinches"] += result[1]
        s_letters = 0
        for token in str(args[1]).split():
            name, _, exp = token.partition("^")
            if name == "s":
                s_letters += abs(int(exp)) if exp else 1
        self.counts["britton.in_syllables"] += 2 * s_letters + 1

    def _after_apply_f(self, args, result):
        self.counts["apply_f.out_letters"] += len(result)

    def _after_iso(self, args, result):
        found = type(result).__name__ == "Found"
        self.counts["iso.pairs"] += result.pair_index + 1 if found else args[2].max_candidates
        self.counts["iso.units"] += result.steps

    def _before_subgroup(self, args):
        oracle = args[1]

        def counted(word):
            accepted = oracle(word)
            self.counts["subgroup.oracle_calls"] += 1
            self.counts["subgroup.accepted"] += bool(accepted)
            return accepted

        return (args[0], counted) + tuple(args[2:])

    def _after_hom(self, args, result):
        self.counts["hom.steps"] += result.steps

    def _after_check_move(self, args, result):
        self.counts["check.unverifiable"] += type(result).__name__ == "Unverifiable"

    def _after_tower_oracle(self, args, result):
        # the returned closure is the oracle users call; time it as a layer
        level = args[0]
        self.counts["oracle.max_level"] = max(self.counts["oracle.max_level"], level)

        @functools.wraps(result)
        def oracle(word):
            return self.call("harness.oracle", result, (word,), {})

        return oracle

    def _after_cli(self, args, result):
        out = sys.stdout
        if hasattr(out, "getvalue"):
            self.counts["cli.stdout_bytes"] += len(out.getvalue().encode())

    # ---------------------------------------------------------------- report

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        calls: Counter = Counter()
        ok_calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, exc in self.spans:
            if parent >= 0:
                child[parent] += end - start
        misses = 0
        kernel_scanned = 0
        for i, (name, start, end, parent, exc) in enumerate(self.spans):
            calls[name] += 1
            ok_calls[name] += exc is None
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if exc == "DeadlineExceeded" and name == "presentations.smith_normal_form":
                misses += 1
            if name == "bs.apply_f" and parent >= 0 and self.spans[parent][0] == "bs.kernel_stream.next":
                kernel_scanned += 1
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        stream = "presentations.trivial_word_stream"
        emissions = ok_calls[stream + ".next"]
        kernel_emitted = ok_calls["bs.kernel_stream.next"]
        iso_pairs = c["iso.pairs"]
        subgroup_oracle = c["subgroup.oracle_calls"]
        m = {
            "words.parse.calls": (calls["words.parse_word"], "count"),
            "words.parse.self_s": (self_s["words.parse_word"], "s"),
            "words.substitute.calls": (calls["words.substitute"], "count"),
            "words.substitute.self_s": (self_s["words.substitute"], "s"),
            "words.substitute.out_letters": (c["substitute.out_letters"], "count"),
            "words.shortlex.words": (ok_calls["words.shortlex_stream.next"], "count"),
            "words.concat.calls": (c["words.concat"], "count"),
            "presentations.stream.opened": (calls[stream], "count"),
            "presentations.stream.emissions": (emissions, "count"),
            "presentations.stream.self_s": (self_s[stream + ".next"], "s"),
            "presentations.stream.emissions_per_s": (ratio(emissions, self_s[stream + ".next"]), "1/s"),
            "presentations.stream.distinct_ratio": (ratio(c["stream.distinct"], emissions), "ratio"),
            "presentations.semidecide.calls": (calls["presentations.semidecide_trivial"], "count"),
            "presentations.semidecide.steps": (c["semidecide.steps"], "count"),
            "presentations.semidecide.proved_ratio": (
                ratio(c["semidecide.proved"], ok_calls["presentations.semidecide_trivial"]), "ratio"
            ),
            "presentations.cert_eval.calls": (calls["presentations.certificate_word"], "count"),
            "presentations.cert_eval.factors": (c["cert_eval.factors"], "count"),
            "presentations.cert_eval.self_s": (self_s["presentations.certificate_word"], "s"),
            "presentations.snf.calls": (calls["presentations.smith_normal_form"], "count"),
            "presentations.snf.self_s": (self_s["presentations.smith_normal_form"], "s"),
            "presentations.snf.max_entry_bits": (c["snf.max_entry_bits"], "bits"),
            "presentations.snf.deadline_misses": (misses, "count"),
            "bs.britton.calls": (calls["bs.britton_reduce_counted"], "count"),
            "bs.britton.self_s": (sum(self_s[n] for n in BRITTON), "s"),
            "bs.britton.pinches": (c["britton.pinches"], "count"),
            "bs.britton.in_syllables": (c["britton.in_syllables"], "count"),
            "bs.apply_f.calls": (calls["bs.apply_f"], "count"),
            "bs.apply_f.self_s": (self_s["bs.apply_f"], "s"),
            "bs.apply_f.out_letters": (c["apply_f.out_letters"], "count"),
            "bs.kernel.scanned": (kernel_scanned, "count"),
            "bs.kernel.emitted": (kernel_emitted, "count"),
            "bs.kernel.hit_ratio": (ratio(kernel_emitted, kernel_scanned), "ratio"),
            "search.iso.calls": (calls["search.iso_search"], "count"),
            "search.iso.self_s": (self_s["search.iso_search"], "s"),
            "search.iso.pairs": (iso_pairs, "count"),
            "search.iso.units": (c["iso.units"], "count"),
            "search.iso.pairs_per_s": (ratio(iso_pairs, total["search.iso_search"]), "1/s"),
            "search.subgroup.calls": (calls["search.subgroup_presentation_search"], "count"),
            "search.subgroup.self_s": (self_s["search.subgroup_presentation_search"], "s"),
            "search.subgroup.oracle_calls": (subgroup_oracle, "count"),
            "search.subgroup.accept_ratio": (ratio(c["subgroup.accepted"], subgroup_oracle), "ratio"),
            "search.hom.calls": (calls["search.semidecide_homomorphism"], "count"),
            "search.hom.steps": (c["hom.steps"], "count"),
            "search.verify.calls": (calls["search.verify_iso_witness"], "count"),
            "search.verify.self_s": (self_s["search.verify_iso_witness"], "s"),
            "tietze.moves": (calls["tietze.apply_move"], "count"),
            "tietze.apply.self_s": (self_s["tietze.apply_move"] + self_s["tietze.apply_sequence"], "s"),
            "tietze.check.calls": (calls["tietze.check_move"], "count"),
            "tietze.check.unverifiable": (c["check.unverifiable"], "count"),
            "tietze.hash.self_s": (self_s["tietze.presentation_hash"], "s"),
            "harness.oracle.calls": (calls["harness.oracle"], "count"),
            "harness.oracle.self_s": (self_s["harness.oracle"], "s"),
            "harness.oracle.max_level": (c["oracle.max_level"], "count"),
            "harness.recover.calls": (calls["harness.recover_cardinality"], "count"),
            "harness.recover.self_s": (self_s["harness.recover_cardinality"], "s"),
            "cli.calls": (calls["cli.main"], "count"),
            "cli.self_s": (self_s["cli.main"], "s"),
            "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        return m

    def dump(self, path, stamp: dict) -> None:
        with open(path, "w") as out:
            json.dump({"stamp": stamp, "fields": ["name", "start", "end", "parent", "exception"]}, out)
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")


class _TimedIterator:
    """Times each ``next()`` of an iterator a wrapped function returned."""

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer = tracer
        self._name = name + ".next"
        self._it = it
        self._seen: set | None = set() if name == "presentations.trivial_word_stream" else None

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer.call(self._name, next, (self._it,), {})
        if self._seen is not None and item[0] not in self._seen:
            self._seen.add(item[0])
            self._tracer.counts["stream.distinct"] += 1
        return item
