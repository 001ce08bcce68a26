"""Command-line front-end.

Thin adapters only: every subcommand parses arguments, calls one library
function, and serializes the result.  Machine-readable output (JSON or CSV)
goes to stdout; one-line human summaries go to stderr.  Exit codes: 0 on
success, 1 on a domain error (reported as a JSON object on stdout), 2 on
usage or input-syntax errors.  Stochastic commands require an explicit seed
(no wall-clock default) and all outputs echo the resolved configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import diophantine, presentation, randwalk
from .nilpotent2 import MalcevElement, format_element, from_word, pair_list
from .words import RankLimitError, WordSyntaxError, parse_word


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise _UsageError(f"{path} nests too deeply to read") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_presentation(path: str) -> presentation.NormalizedPresentation:
    try:
        p = presentation.parse_presentation(_read_text(path))
    except (ValueError, WordSyntaxError) as exc:
        raise _UsageError(f"{path}: {exc}") from exc
    return presentation.normalize(p)


def _emit(text: str, summary: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    print(summary, file=sys.stderr)


def _finite(value):
    """value with each non-finite float in it, at any depth of lists and
    tuples, as None: JSON has no infinity."""
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _jsonable(obj):
    """json.dumps fallback: a dataclass by its fields, a non-finite float
    among them as null, and a Fraction as [numerator, denominator]."""
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj, dict_factory=lambda fields: {k: _finite(v) for k, v in fields})
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_json(obj, summary: str):
    _emit(json.dumps(obj, sort_keys=True, indent=2, default=_jsonable, allow_nan=False), summary)


def _emit_format(args, obj, csv, summary: str):
    """Emit obj as JSON under --format json, else the CSV text csv(obj)."""
    if args.format == "json":
        _emit_json(obj, summary)
    else:
        _emit(csv(obj), summary)


def _element_jsonable(el: MalcevElement) -> dict:
    return {"alpha": list(el.alpha), "gamma": list(el.gamma)}


def _infer_m(text: str) -> int:
    """Largest generator index a<k> in the word (exponents do not count).
    An index int() refuses, past its digit limit, does not count: parse_word
    refuses it too."""
    indices = [1]
    for k in re.findall(r"a(\d+)", text):
        try:
            indices.append(int(k))
        except ValueError:
            pass
    return max(indices)


def _cmd_classify(args) -> int:
    np_ = _load_presentation(args.file)
    report = presentation.classify(np_)
    _emit_json(report, f"regime {report.regime} (rank {report.rank})")
    return 0


def _cmd_normalize(args) -> int:
    np_ = _load_presentation(args.file)
    names = [f"a{k}" for k in range(1, np_.m + 1)] + ["[a%d,a%d]" % pq for pq in pair_list(np_.m)]
    out = {
        "m": np_.m,
        "s": np_.s,
        "r": np_.r,
        "rank": np_.snf.rank,
        "rank_full": np_.rank_full,
        "alphas": list(np_.alphas),
        "invariant_factors": list(np_.snf.invariant_factors),
        "d_pq": list(np_.d_pq),
        "echelon": {
            "columns": [names[c] for c in np_.coordinates],
            "rows": [list(row) for row in np_.echelon.rows],
            "pivots": list(np_.echelon.pivots),
        },
        "smith_ops": np_.snf.ops,
    }
    _emit_json(out, f"normalized {np_.r} relators over m={np_.m}, rank {np_.snf.rank}")
    return 0


def _word_text(arg: str) -> str:
    """A word argument's text: stdin for '-', the file's text for '@path',
    else the argument itself (neither is valid word text)."""
    if arg == "-":
        return sys.stdin.read()
    if arg.startswith("@"):
        return _read_text(arg[1:])
    return arg


def _cmd_is_trivial(args) -> int:
    np_ = _load_presentation(args.file)
    try:
        w = parse_word(_word_text(args.word), np_.m)
    except WordSyntaxError as exc:
        raise _UsageError(f"word: {exc}") from exc
    # the word is over the original generators; the deciders work in the
    # rewritten basis
    h = presentation.express_in_normalized_basis(w, np_)
    out = {
        "word": args.word,
        "trivial_in_G": presentation.is_trivial_in_G(h, np_),
        "trivial_mod_torsion": presentation.is_trivial_mod_torsion(h, np_),
    }
    _emit_json(out, f"trivial_in_G={out['trivial_in_G']}")
    return 0


def _cmd_word_eval(args) -> int:
    text = _word_text(args.word)
    m = args.m if args.m is not None else _infer_m(text)
    try:
        w = parse_word(text, m)
    except WordSyntaxError as exc:
        raise _UsageError(f"word: {exc}") from exc
    el = from_word(w)
    out = {
        "m": m,
        "alpha": list(el.alpha),
        "gamma": list(el.gamma),
        "normal_form": format_element(el),
    }
    _emit_json(out, f"normal form: {out['normal_form']}")
    return 0


def _experiment_config(path: str) -> randwalk.ExperimentConfig:
    data = _read_json(path)
    try:
        return randwalk.ExperimentConfig(
            m=data["m"],
            r=data["r"],
            lengths=tuple(data["lengths"]),
            trials=data["trials"],
            seed=data["seed"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad experiment config: {exc}") from exc


def _cmd_rank_exp(args) -> int:
    cfg = _experiment_config(args.config)
    rows = randwalk.rank_experiment(cfg)
    _emit_format(args, {"config": cfg, "rows": rows},
                 lambda d: randwalk.rank_experiment_csv(d["config"], d["rows"]),
                 f"{len(rows)} lengths, seed {cfg.seed}")
    return 0


def _cmd_clt(args) -> int:
    summary = randwalk.coordinate_clt_stats(args.m, args.n, args.trials, args.seed)
    _emit_format(args, summary, randwalk.clt_csv, f"variances {summary.variances}")
    return 0


def _cmd_escape(args) -> int:
    estimates = [
        randwalk.escape_probability(args.m, n, args.trials, args.seed, args.epsilon)
        for n in args.n
    ]
    _emit_format(args, estimates, randwalk.escape_csv, f"{len(estimates)} grid points")
    return 0


def _cmd_return_prob(args) -> int:
    table = randwalk.return_probability_exact(args.m, args.n_max)
    _emit(
        randwalk.return_table_csv(table),
        f"m={table.m} n_max={table.n_max} exact={table.exact}",
    )
    return 0


def _cmd_slope(args) -> int:
    fit = randwalk.decay_slope(args.m, (args.n_lo, args.n_hi))
    _emit_format(args, fit, randwalk.decay_fit_csv, f"slope {fit.slope:.4f}")
    return 0


def _cmd_sz_check(args) -> int:
    res = randwalk.schwartz_zippel_check(args.r, args.m, args.b)
    _emit_format(args, res, randwalk.schwartz_zippel_csv,
                 f"zeros {res.zero_count} <= bound {res.bound}")
    return 0


def _ring_system(data) -> diophantine.RingSystem:
    """The ring system of a parsed JSON file; a usage error if malformed."""
    try:
        return diophantine.RingSystem.from_jsonable(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad ring system: {exc}") from exc


def _ambient(args) -> diophantine.Ambient:
    if getattr(args, "presentation", None):
        return diophantine.QuotientAmbient(_load_presentation(args.presentation))
    return diophantine.FreeNilpotentAmbient(args.m)


def _cmd_compile(args) -> int:
    S = _ring_system(_read_json(args.ring))
    compiled = diophantine.compile_system(diophantine.z_in_g_templates(), S)
    _emit_json(
        compiled.system,
        f"{len(compiled.system.variables)} group variables, "
        f"{len(compiled.system.equations)} equations",
    )
    return 0


def _cmd_solve_bounded(args) -> int:
    data = _read_json(args.system)
    if isinstance(data, dict) and "constants" in data:
        try:
            S = diophantine.GroupSystem.from_jsonable(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"bad group system: {exc}") from exc
        ambient = _ambient(args)
        try:
            diophantine.ambient_constants(S, ambient)
        except ValueError as exc:
            raise _UsageError(f"bad group system: {exc}") from exc
        sols = diophantine.bounded_solve_group(
            S, ambient, args.box, find_all=not args.first, eval_limit=args.limit
        )
        payload = {
            "kind": "group",
            "box": args.box,
            "solutions": [
                {name: _element_jsonable(el) for name, el in sol.items()} for sol in sols
            ],
        }
    else:
        S = _ring_system(data)
        ring_sols = diophantine.bounded_solve_ring(S, args.box, args.limit, find_all=not args.first)
        payload = {"kind": "ring", "box": args.box, "solutions": ring_sols}
    _emit_json(payload, f"{len(payload['solutions'])} solutions within box {args.box}")
    return 0


def _cmd_verify(args) -> int:
    S = _ring_system(_read_json(args.ring))
    ambient = _ambient(args)
    report = diophantine.verify_correspondence(
        S,
        diophantine.z_in_g_templates(),
        ambient,
        args.box_ring,
        args.box_group,
        eval_limit=args.limit,
    )
    _emit_json(report, "correspondence ok" if report.ok else "COUNTEREXAMPLES")
    return 0


_WORD_HELP = "word text, or - to read it from stdin, or @path to read it from a file"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nilq",
        description="2-step nilpotent groups: presentations, walks, equation compilation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="regime report for a presentation file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("normalize", help="Smith form and its ops, closure echelon")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("is-trivial", help="word-problem query against a presentation")
    p.add_argument("file")
    p.add_argument("word", help=_WORD_HELP)
    p.set_defaults(fn=_cmd_is_trivial)

    p = sub.add_parser("word-eval", help="Malcev coordinates and normal form of a word")
    p.add_argument("word", help=_WORD_HELP)
    p.add_argument("--m", type=int, default=None, help="rank (default: inferred from the word)")
    p.set_defaults(fn=_cmd_word_eval)

    p = sub.add_parser("rank-exp", help="full-rank frequency experiment (CSV)")
    p.add_argument("config", help="JSON file with m, r, lengths, trials, seed")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_rank_exp)

    p = sub.add_parser("clt", help="coordinate CLT statistics (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_clt)

    p = sub.add_parser("escape", help="escape-probability estimates (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, action="append", required=True, help="repeatable")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None, help="threshold override (default ln n)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_escape)

    p = sub.add_parser(
        "return-prob",
        help=f"exact return-probability table (CSV), n_max <= {randwalk.RETURN_N_MAX_LIMIT}",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(fn=_cmd_return_prob)

    p = sub.add_parser("slope", help="log-log decay slope of the return probability")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_slope)

    p = sub.add_parser("sz-check", help="exhaustive Schwartz-Zippel zero count")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_sz_check)

    p = sub.add_parser("compile", help="compile a ring system to a group system")
    p.add_argument("ring", help="ring system JSON file")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("solve-bounded", help="exhaustive bounded solving (ring or group JSON)")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--m", type=int, default=2, help="rank of the free ambient (group systems)")
    p.add_argument("--presentation", default=None, help="quotient ambient presentation file")
    p.add_argument("--first", action="store_true", help="stop at the first solution")
    p.add_argument("--limit", type=int, default=diophantine.EVAL_LIMIT)
    p.set_defaults(fn=_cmd_solve_bounded)

    p = sub.add_parser("verify", help="two-directional compiler correspondence check")
    p.add_argument("ring", help="ring system JSON file")
    p.add_argument("--box-ring", type=int, required=True)
    p.add_argument("--box-group", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--presentation", default=None)
    p.add_argument("--limit", type=int, default=diophantine.EVAL_LIMIT)
    p.set_defaults(fn=_cmd_verify)

    return ap


_DOMAIN_ERRORS = (
    randwalk.ResourceLimitError,
    randwalk.EnumerationLimitError,
    diophantine.SearchSpaceError,
    RankLimitError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        _emit_json({"error": type(exc).__name__, "message": str(exc)}, f"domain error: {exc}")
        return 1
    except ValueError as exc:
        _emit_json({"error": "ValueError", "message": str(exc)}, f"domain error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
