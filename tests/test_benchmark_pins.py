"""The names and attributes that the benchmark under perfbench/ reads from
nilq still exist.

perfbench/tracer.py wraps the functions it lists by name and its observers
read attributes of their results; perfbench/worker.py calls a few more
functions directly.  A rename in src/ that drops one of them breaks the
benchmark, so these tests read perfbench/ (changing nothing there) and
check each name against the code.  perfbench/ is not put on sys.path: its
modules ``run``, ``inputs`` and ``worker`` would shadow others, so each file
is loaded under a private module name.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from nilq import diophantine, presentation, randwalk, words

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
inputs = _load("inputs")


def test_every_traced_name_resolves():
    for table in (tracer.SPANNED, tracer.COUNTED):
        for module, names in table.items():
            mod = importlib.import_module(module)
            for name in names:
                assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_every_observer_reads_real_results():
    # each observer the tracer attaches, run on a real call of the function
    # it observes, must read its attributes and count something.  The
    # nielsen_normalize observer is left out: no benchmark job calls that
    # function, and its result is a pair, which the observer does not unpack
    p = presentation.parse_presentation("4 2\na1^2 a2\n")
    w = words.parse_word("a1 a2^-3 a1", 4)
    group = diophantine.GroupSystem(("x",), ("a", "b"), (((("x", 1),), (("a", 1),)),))
    calls = {
        "zmatrix.smith_normal_form": ([[2, 4, 4], [-6, 6, 12]], 3),
        "words.parse_word": ("a1 a2^-3 a1", 4),
        "words.rewrite_through_generator_moves": (w, presentation.normalize(p).snf.ops),
        "nilpotent2.from_word": (w,),
        "presentation.normalize": (p,),
        "randwalk.rank_experiment": (randwalk.ExperimentConfig(2, 1, (4,), 3, 1),),
        "randwalk.coordinate_clt_stats": (2, 10, 3, 1),
        "randwalk.escape_probability": (2, 10, 3, 1),
        "randwalk.schwartz_zippel_check": (1, 1, 1),
        "randwalk.return_probability_exact": (2, 4),
        "diophantine.bounded_solve_group": (group, diophantine.FreeNilpotentAmbient(2), 1),
    }
    assert set(calls) | {"words.nielsen_normalize"} == set(tracer.OBSERVERS)
    for name, args in calls.items():
        layer, function = name.split(".")
        result = getattr(importlib.import_module(f"nilq.{layer}"), function)(*args)
        counts = Counter()
        tracer.OBSERVERS[name](counts, args, {}, result)
        assert any(counts.values()), name
    # the return-table observer reads m only from an exact table
    table = randwalk.return_probability_exact(2, 4)
    assert table.exact and (table.m, table.n_max) == (2, 4)


def test_every_worker_call_exists():
    # the jobs' direct calls: the gadget law through its three names, and
    # each decider of a query on a presentation where all four decide
    failures = diophantine.odot_law_failures(diophantine.z_in_g_templates(),
                                             diophantine.FreeNilpotentAmbient(2), 1, 1)
    assert failures == []
    np_ = presentation.normalize(presentation.parse_presentation("4 2\na1^2 a2\n"))
    report = presentation.classify(np_)
    assert (report.regime, report.rank, report.invariant_factors) == (
        presentation.REGIME_UNDECIDABLE, 1, (1,))
    h = presentation.express_in_normalized_basis(words.parse_word("a3 a4 a3^-1 a4^-1", 4), np_)
    answers = [getattr(presentation, d)(h, np_) for d in inputs.DECIDERS]
    assert len(answers) == 4 and all(isinstance(a, bool) for a in answers)
