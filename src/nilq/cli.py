"""Command-line front-end.

Thin adapters only: every subcommand parses arguments, calls one library
function, and serializes the result.  Machine-readable output (JSON or CSV)
goes to stdout; one-line human summaries go to stderr.  Exit codes: 0 on
success, 1 on a domain error (reported as a JSON object on stdout), 2 on
usage or input errors: a file or stdin that cannot be read or decoded as
UTF-8, malformed JSON, word or presentation text, or a malformed system or
config.  Handlers return nothing; ``main`` alone maps their outcome to an
exit code.  Options shared by several subcommands (``--format``, and the
solver's ``--m``, ``--presentation`` and ``--limit``) are declared once, in
parent parsers.  Stochastic commands require an explicit seed (no wall-clock
default) and all outputs echo the resolved configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import diophantine, presentation, randwalk
from .nilpotent2 import MalcevElement, coordinate_names, format_element, from_word
from .words import RankLimitError, WordSyntaxError, parse_word


class _UsageError(Exception):
    pass


@contextlib.contextmanager
def _usage_error(label: str, errors=(KeyError, TypeError, ValueError)):
    """Re-raise any of errors raised in the block as the usage error
    'label: message' (exit 2)."""
    try:
        yield
    except errors as exc:
        raise _UsageError(f"{label}: {exc}") from exc


def _read_text(path: str, stream=None) -> str:
    """The text of stream if given, else of the file at path; text that
    cannot be read or decoded is a usage error."""
    with _usage_error(f"cannot read {path}", (OSError, UnicodeDecodeError)):
        if stream is not None:
            return stream.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise _UsageError(f"{path} nests too deeply to read") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_presentation(path: str) -> presentation.NormalizedPresentation:
    text = _read_text(path)
    with _usage_error(path, ValueError):
        p = presentation.parse_presentation(text)
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
    return {"alpha": el.alpha, "gamma": el.gamma}


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


def _cmd_classify(args):
    np_ = _load_presentation(args.file)
    report = presentation.classify(np_)
    _emit_json(report, f"regime {report.regime} (rank {report.rank})")


def _cmd_normalize(args):
    np_ = _load_presentation(args.file)
    names = coordinate_names(np_.m)
    out = {
        "m": np_.m,
        "s": np_.s,
        "r": np_.r,
        "rank": np_.snf.rank,
        "rank_full": np_.rank_full,
        "alphas": np_.alphas,
        "invariant_factors": np_.snf.invariant_factors,
        "d_pq": np_.d_pq,
        "echelon": {
            "columns": [names[c] for c in np_.coordinates],
            "rows": np_.echelon.rows,
            "pivots": np_.echelon.pivots,
        },
        "smith_ops": np_.snf.ops,
    }
    _emit_json(out, f"normalized {np_.r} relators over m={np_.m}, rank {np_.snf.rank}")


def _word_text(arg: str) -> str:
    """A word argument's text: stdin for '-', the file's text for '@path',
    else the argument itself (neither is valid word text)."""
    if arg == "-":
        return _read_text("stdin", sys.stdin)
    if arg.startswith("@"):
        return _read_text(arg[1:])
    return arg


def _parse_word(text: str, m: int):
    """parse_word(text, m); a syntax error is a usage error, while a word
    too long to hold stays a domain error (exit 1)."""
    with _usage_error("word", WordSyntaxError):
        return parse_word(text, m)


def _cmd_is_trivial(args):
    np_ = _load_presentation(args.file)
    w = _parse_word(_word_text(args.word), np_.m)
    # the word is over the original generators; the deciders work in the
    # rewritten basis
    h = presentation.express_in_normalized_basis(w, np_)
    out = {
        "word": args.word,
        "trivial_in_G": presentation.is_trivial_in_G(h, np_),
        "trivial_mod_torsion": presentation.is_trivial_mod_torsion(h, np_),
    }
    _emit_json(out, f"trivial_in_G={out['trivial_in_G']}")


def _cmd_word_eval(args):
    text = _word_text(args.word)
    m = args.m if args.m is not None else _infer_m(text)
    el = from_word(_parse_word(text, m))
    out = {"m": m, **_element_jsonable(el), "normal_form": format_element(el)}
    _emit_json(out, f"normal form: {out['normal_form']}")


def _cmd_rank_exp(args):
    data = _read_json(args.config)
    with _usage_error("bad experiment config"):
        cfg = randwalk.ExperimentConfig(
            m=data["m"],
            r=data["r"],
            lengths=tuple(data["lengths"]),
            trials=data["trials"],
            seed=data["seed"],
        )
    rows = randwalk.rank_experiment(cfg)
    _emit_format(args, {"config": cfg, "rows": rows},
                 lambda d: randwalk.rank_experiment_csv(d["config"], d["rows"]),
                 f"{len(rows)} lengths, seed {cfg.seed}")


def _cmd_clt(args):
    summary = randwalk.coordinate_clt_stats(args.m, args.n, args.trials, args.seed)
    _emit_format(args, summary, randwalk.clt_csv, f"variances {summary.variances}")


def _cmd_escape(args):
    estimates = [
        randwalk.escape_probability(args.m, n, args.trials, args.seed, args.epsilon)
        for n in args.n
    ]
    _emit_format(args, estimates, randwalk.escape_csv, f"{len(estimates)} grid points")


def _cmd_return_prob(args):
    table = randwalk.return_probability_exact(args.m, args.n_max)
    _emit(
        randwalk.return_table_csv(table),
        f"m={table.m} n_max={table.n_max} exact={table.exact}",
    )


def _cmd_slope(args):
    fit = randwalk.decay_slope(args.m, (args.n_lo, args.n_hi))
    _emit_format(args, fit, randwalk.decay_fit_csv, f"slope {fit.slope:.4f}")


def _cmd_sz_check(args):
    res = randwalk.schwartz_zippel_check(args.r, args.m, args.b)
    _emit_format(args, res, randwalk.schwartz_zippel_csv,
                 f"zeros {res.zero_count} <= bound {res.bound}")


def _ring_system(data) -> diophantine.RingSystem:
    """The ring system of a parsed JSON file; a usage error if malformed."""
    with _usage_error("bad ring system"):
        return diophantine.RingSystem.from_jsonable(data)


def _ambient(args) -> diophantine.Ambient:
    if args.presentation:
        return diophantine.QuotientAmbient(_load_presentation(args.presentation))
    return diophantine.FreeNilpotentAmbient(args.m)


def _cmd_compile(args):
    S = _ring_system(_read_json(args.ring))
    compiled = diophantine.compile_system(diophantine.z_in_g_templates(), S)
    _emit_json(
        compiled.system,
        f"{len(compiled.system.variables)} group variables, "
        f"{len(compiled.system.equations)} equations",
    )


def _cmd_solve_bounded(args):
    data = _read_json(args.system)
    if isinstance(data, dict) and "constants" in data:
        with _usage_error("bad group system"):
            S = diophantine.GroupSystem.from_jsonable(data)
        ambient = _ambient(args)
        with _usage_error("bad group system"):
            diophantine.ambient_constants(S, ambient)
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


def _cmd_verify(args):
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


_WORD_HELP = "word text, or - to read it from stdin, or @path to read it from a file"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nilq",
        description="2-step nilpotent groups: presentations, walks, equation compilation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, parents=()):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(fn=fn)
        return p

    # options shared by several subcommands, each declared once
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--m", type=int, default=2, help="rank of the free ambient")
    solver.add_argument("--presentation", default=None, help="quotient ambient presentation file")
    solver.add_argument("--limit", type=int, default=diophantine.EVAL_LIMIT)

    command("classify", _cmd_classify, "regime report for a presentation file").add_argument("file")
    command("normalize", _cmd_normalize, "Smith form and its ops, closure echelon").add_argument("file")

    p = command("is-trivial", _cmd_is_trivial, "word-problem query against a presentation")
    p.add_argument("file")
    p.add_argument("word", help=_WORD_HELP)

    p = command("word-eval", _cmd_word_eval, "Malcev coordinates and normal form of a word")
    p.add_argument("word", help=_WORD_HELP)
    p.add_argument("--m", type=int, default=None, help="rank (default: inferred from the word)")

    p = command("rank-exp", _cmd_rank_exp, "full-rank frequency experiment (CSV)", [fmt])
    p.add_argument("config", help="JSON file with m, r, lengths, trials, seed")

    p = command("clt", _cmd_clt, "coordinate CLT statistics (CSV)", [fmt])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command("escape", _cmd_escape, "escape-probability estimates (CSV)", [fmt])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, action="append", required=True, help="repeatable")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None, help="threshold override (default ln n)")

    p = command("return-prob", _cmd_return_prob,
                f"exact return-probability table (CSV), n_max <= {randwalk.RETURN_N_MAX_LIMIT}")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = command("slope", _cmd_slope, "log-log decay slope of the return probability", [fmt])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)

    p = command("sz-check", _cmd_sz_check, "exhaustive Schwartz-Zippel zero count", [fmt])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    command("compile", _cmd_compile, "compile a ring system to a group system").add_argument(
        "ring", help="ring system JSON file")

    p = command("solve-bounded", _cmd_solve_bounded,
                "exhaustive bounded solving (ring or group JSON)", [solver])
    p.add_argument("system", help="system JSON file")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--first", action="store_true", help="stop at the first solution")

    p = command("verify", _cmd_verify, "two-directional compiler correspondence check", [solver])
    p.add_argument("ring", help="ring system JSON file")
    p.add_argument("--box-ring", type=int, required=True)
    p.add_argument("--box-group", type=int, required=True)

    return ap


# exit 1 with the error JSON, named by the exception's class
_DOMAIN_ERRORS = (
    randwalk.ResourceLimitError,
    randwalk.EnumerationLimitError,
    diophantine.SearchSpaceError,
    RankLimitError,
    ValueError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: --help, or a usage error
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        _emit_json({"error": type(exc).__name__, "message": str(exc)}, f"domain error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
