"""Spans around the calls into each nilq layer, patched in from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` wraps the
public functions listed in ``SPANNED`` and ``COUNTED`` and rebinds every
name in every loaded ``nilq`` module that refers to the original function
(``nilq.diophantine.multiply`` as well as ``nilq.nilpotent2.multiply``, and
aliases such as ``nilq.randwalk.zrank``), so calls between modules are seen
too.  ``uninstall`` restores the originals.

A span is ``(name, start, end, parent, job, arith)``: ``parent`` indexes the
enclosing span (-1 for none) and ``arith`` is the time spent directly under
it in the counted nilpotent2 primitives.  Spans stay in memory until the
run ends.  A span's self time is its duration minus its child spans and its
``arith`` time.  The hot primitives (multiply, inverse, power, commutator,
eval_gword) are counted, not spanned: the four nilpotent2 ones also add their
time, measured at the outermost primitive call only, to
``nilpotent2.arith``.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

SPANNED = {
    "nilq.zmatrix": ("smith_normal_form", "rank", "minor_polynomial", "lattice_membership",
                     "hermite_normal_form"),
    "nilq.words": ("parse_word", "nielsen_normalize", "rewrite_through_generator_moves", "random_word"),
    "nilq.nilpotent2": ("from_word",),
    "nilq.presentation": ("parse_presentation", "normalize", "classify", "express_in_normalized_basis",
                          "is_trivial_in_G", "is_trivial_mod_torsion", "is_central_mod_torsion",
                          "is_c_small"),
    "nilq.randwalk": ("rank_experiment", "coordinate_clt_stats", "escape_probability",
                      "schwartz_zippel_check", "decay_slope", "return_probability_exact"),
    "nilq.diophantine": ("bounded_solve_group", "verify_correspondence", "odot_law_failures",
                         "bounded_solve_ring", "compile_system"),
    "nilq.cli": ("main",),
}
ARITH = ("multiply", "inverse", "power", "commutator")
COUNTED = {"nilq.nilpotent2": ARITH, "nilq.diophantine": ("eval_gword",)}


def _layer(module: str) -> str:
    return module.split(".", 1)[1]


def _return_state_bits(m: int, n_max: int) -> int:
    """State cells times digit bits times steps of the exact return engine,
    computed here from its documented sizing (one digit per cell of the box
    [-n-1, n+1]^m, ceil((n_max+1) log2 2m) + 8 bits each)."""
    n_total = n_max + 1
    cells = (2 * n_total + 3) ** m
    bits = math.ceil(n_total * math.log2(2 * m)) + 8
    return cells * bits * n_total


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []  # [span index, name, parent, start, arith time]
        self._patched = []
        self._in_arith = False

    # -- recording -------------------------------------------------------

    def enter(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, parent, time.perf_counter(), 0.0])

    def leave(self):
        end = time.perf_counter()
        idx, name, parent, start, arith = self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.job, arith)

    def _span(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer.leave()
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn, timed):
        counts = self.counts
        key = f"{name}.calls"
        if not timed:
            def counted(*args):
                counts[key] += 1
                return fn(*args)

            return counted
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def counted_timed(*args):
            counts[key] += 1
            if tracer._in_arith:
                return fn(*args)
            tracer._in_arith = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                if stack:
                    stack[-1][4] += clock() - t0
                tracer._in_arith = False

        return counted_timed

    # -- patching --------------------------------------------------------

    def install(self):
        import nilq  # noqa: F401  (loads every layer)

        wrappers = {}  # id of the original function -> (original, wrapper)
        for module, names in SPANNED.items():
            mod = sys.modules[module]
            for fname in names:
                name = f"{_layer(module)}.{fname}"
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._span(name, fn, OBSERVERS.get(name)))
        for module, names in COUNTED.items():
            mod = sys.modules[module]
            for fname in names:
                name = f"{_layer(module)}.{fname}"
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._count(name, fn, fname in ARITH))
        for modname, mod in list(sys.modules.items()):
            if modname != "nilq" and not modname.startswith("nilq."):
                continue
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------

    def aggregate(self):
        """Per-name calls, total and self seconds, and the arith total."""
        child = defaultdict(float)
        for name, start, end, parent, job, arith in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        arith_total = 0.0
        for idx, (name, start, end, parent, job, arith) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx] - arith
            arith_total += arith
        return calls, self_s, arith_total


# --- counters read from arguments and results ------------------------------


def _snf(counts, args, kwargs, result):
    counts["zmatrix.snf_ops"] += len(result.ops)
    bits = max((abs(v).bit_length() for M in (result.U, result.D, result.V) for v in M.entries), default=0)
    counts["zmatrix.snf_max_entry_bits"] = max(counts["zmatrix.snf_max_entry_bits"], bits)


def _nielsen(counts, args, kwargs, result):
    rewritten, log, _ = result
    counts["words.nielsen_moves"] += len(log.moves)
    counts["words.rewritten_letters"] += sum(len(w) for w in rewritten.relators)


def _letters_out(key):
    def observe(counts, args, kwargs, result):
        counts[key] += len(result)

    return observe


def _from_word(counts, args, kwargs, result):
    counts["nilpotent2.from_word.letters"] += len(args[0])


def _normalize(counts, args, kwargs, result):
    counts["presentation.closure_lattice_vectors"] += len(result.closure_lattice)


def _trials(counts, args, kwargs, result):
    if hasattr(result, "trials"):  # CltSummary, EscapeEstimate
        counts["randwalk.trials"] += result.trials
    elif hasattr(result, "total"):  # SchwartzZippelResult: matrices enumerated
        counts["randwalk.trials"] += result.total
    else:  # rank_experiment rows
        counts["randwalk.trials"] += sum(row.trials for row in result)


def _return_table(counts, args, kwargs, result):
    counts["randwalk.return_steps"] += result.n_max + 1
    if result.exact:
        counts["randwalk.return_state_bits_computed"] += _return_state_bits(result.m, result.n_max)


def _solve_group(counts, args, kwargs, result):
    counts["diophantine.searches_found"] += bool(result)


OBSERVERS = {
    "zmatrix.smith_normal_form": _snf,
    "words.nielsen_normalize": _nielsen,
    "words.parse_word": _letters_out("words.parse_word.letters"),
    "words.rewrite_through_generator_moves": _letters_out("words.rewrite_through_generator_moves.letters_out"),
    "nilpotent2.from_word": _from_word,
    "presentation.normalize": _normalize,
    "randwalk.rank_experiment": _trials,
    "randwalk.coordinate_clt_stats": _trials,
    "randwalk.escape_probability": _trials,
    "randwalk.schwartz_zippel_check": _trials,
    "randwalk.return_probability_exact": _return_table,
    "diophantine.bounded_solve_group": _solve_group,
}
