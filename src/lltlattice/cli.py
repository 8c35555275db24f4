"""Command-line surface: compute, verify, stats.

Exit codes: 0 success, 1 verification failed, 2 bad parameters or parse error,
3 cross-engine mismatch, 141 stdout closed by its reader.  Commands raise; only ``main``
maps a ``ValueError``, ``OverflowError`` or ``MemoryError`` to 2, an ``EngineMismatch`` to 3
and a ``BrokenPipeError`` to 141.
Every case is fixed, and numeric YBE draws only from its --seed, so identical
invocations give byte-identical output.  The parser is built once, at import:
``build_parser`` records each command's own parser (``compute``, ``stats``,
``verify <identity>``) as it makes it, and no code walks the parser tree.
``main``, and ``verify all`` for each case of its suite, hand a command's
arguments straight to its parser, and the root parser reads anything else.
Every parser is argparse's own and refuses, by name, each argument it cannot place.
``verify all`` checks its whole suite first, then prints each report as its
case returns.  The CLI parses, dispatches and prints what reports and
polynomials render (``to_text()`` or ``to_json_dict()``, ``to_grouped_text()``
or ``serialize()``) and reads none of their fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import identities, yangbaxter
from .shapes import (
    SkewShapeTuple,
    check_box_tuple,
    check_int,
    check_size,
    column_range,
    d_stat,
    dtilde_stat,
    inv_stat,
    m_bruteforce,
    m_formula,
    n_stat,
    parse_shape_text,
)
from .identities import EngineMismatch, llt


def _parse_shape(args) -> SkewShapeTuple:
    beta = parse_shape_text(args.beta, "--beta")
    if args.gamma is not None:
        gamma = parse_shape_text(args.gamma, "--gamma")
        return _fit("--gamma", "--beta", SkewShapeTuple, beta, gamma)
    return SkewShapeTuple.straight(beta)


def cmd_compute(args) -> int:
    poly = llt(**_shape_kwargs(args), engine=args.engine)
    print(poly.serialize() if args.format == "json" else poly.to_grouped_text())
    return 0


def cmd_stats(args) -> int:
    shape = _parse_shape(args)
    lengths = {len(p) for p in shape.beta}
    if args.M is not None:  # refused before any statistic is computed
        if not (shape.is_straight() and len(lengths) == 1):
            raise ValueError("--M needs a straight shape with equal part counts")
        (parts,) = lengths
        if args.M < parts:
            raise ValueError(f"--M must be at least the number of parts ({parts})")
        dtilde = _fit("--beta", f"--M {args.M}", dtilde_stat, shape.beta, args.M)
    r, s = column_range(shape)
    out = {
        "shape": shape.text(),
        "r": r,
        "s": s,
        "band": s - r,
        "m": m_bruteforce(shape),
    }
    if shape.is_straight():
        out["m_formula"] = m_formula(shape.beta)
        if all(len(p) == 1 for p in shape.beta):
            comp = tuple(p[0] for p in shape.beta)
            out["inv"] = inv_stat(comp)
            out["n_mu"] = n_stat(tuple(sorted(comp, reverse=True)))
        if len(lengths) == 1:
            out["d"] = d_stat(shape.beta)
            if args.M is not None:
                out["dtilde"] = dtilde
    print(json.dumps(out, sort_keys=True))
    return 0


# -- verify ------------------------------------------------------------------


def _at_least(args, name: str, low: int, high: int = sys.maxsize) -> int:
    return check_int(getattr(args, name), f"--{name}", low, high)


def _ybe_kwargs(args) -> dict:
    # 2^(6k) boundaries: k = 4, 5, 6 take about 0.14 s, 1.0 s and 19 s (35 MB)
    kwargs = {"k": _at_least(args, "k", 0, 6), "mode": args.mode}
    if args.mode == "numeric":
        kwargs.update(seed=args.seed, trials=_at_least(args, "trials", 1))
    return kwargs


def _shape_kwargs(args) -> dict:
    return {"shape": _parse_shape(args), "n": _at_least(args, "n", 1)}


def _mu_kwargs(args) -> dict:
    mu = "2,1" if args.mu is None else args.mu
    if ";" in mu:
        raise ValueError("--mu takes a single partition")
    return {"mu": parse_shape_text(mu, "--mu")[0], "n": _at_least(args, "n", 1)}


def _fit(flag: str, given: str, check, *args):
    """``check(*args)``, its error naming ``flag`` and what its value must fit."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"{flag} does not fit {given}: {exc}") from None


def _box_lam(args, M: int, M_flag: str, M_given: str):
    """--lam and --n, with lam inside the (M - n)^n box.  ``M_flag`` names M
    when it is below --n, and ``M_given`` (the flag with its value) when lam
    does not fit."""
    lam = parse_shape_text(args.lam, "--lam")
    n = _at_least(args, "n", 1)
    if M < n:
        raise ValueError(f"{M_flag} must be at least --n")
    return _fit("--lam", f"{M_given} with --n {n}", check_box_tuple, lam, n, M), n


def _box_kwargs(args) -> dict:
    lam, n = _box_lam(args, check_size(args.M, "--M"), "--M", f"--M {args.M}")
    return {"lam": lam, "M": args.M, "n": n}


def _lstar_kwargs(args) -> dict:
    try:
        Ms = tuple(int(v) for v in args.M_list.split(","))
    except ValueError:
        raise ValueError(f"--M-list values must be integers, not {args.M_list!r}") from None
    check_size(max(Ms), "--M-list values")
    # what fits the narrowest box fits all
    lam, n = _box_lam(args, min(Ms), "--M-list values", f"--M-list {args.M_list}")
    return {"lam": lam, "n": n, "Ms": Ms}


def _cauchy_kwargs(args) -> dict:
    return {
        "n": _at_least(args, "n", 1),
        "k": _at_least(args, "k", 1),
        "D": _at_least(args, "degree", 0),
    }


def _skew_cauchy_kwargs(args) -> dict:
    kwargs = _cauchy_kwargs(args)
    n, k = kwargs["n"], kwargs["k"]
    if args.mu is None:  # one box, in the first component
        mu = ((1,) + (0,) * (n - 1),) + ((0,) * n,) * (k - 1)
    else:
        mu = _fit("--mu", f"--n {n}", check_box_tuple, parse_shape_text(args.mu, "--mu"), n)
    if len(mu) != k:
        raise ValueError(f"--mu must have --k {k} components")
    if sum(map(sum, mu)) > kwargs["D"]:
        raise ValueError("--degree must be at least 1 when --mu is not given"
                         if args.mu is None else "--mu must have size at most --degree")
    return {"mu": mu, **kwargs}


def _with_engine(build):
    """``build`` for a verifier that takes an engine."""
    return lambda args: {**build(args), "engine": args.engine}


_ENGINES = ("tableaux", "lattice", "both")  # the --engine choices of compute and verify

# Every verify flag, by its dest: its option strings and argparse keywords.
_VERIFY_FLAGS = {
    "k": (["--k"], dict(type=int, default=2)),
    "n": (["--n"], dict(type=int, default=2)),
    "M": (["--M"], dict(type=int, default=4)),
    "M_list": (["--M-list"], dict(default="3,4,5", help="comma list of M values")),
    "degree": (["--degree", "-D"], dict(type=int, default=3, help="x-degree truncation bound")),
    "beta": (["--beta"], dict(default="1;1")),
    "gamma": (["--gamma"], dict()),
    "mu": (["--mu"], dict(help="hl, modified-hl: default 2,1; skew-cauchy: default one box")),
    "lam": (["--lam"], dict(default="1,0;1,1")),
    "engine": (["--engine"], dict(choices=_ENGINES, default="tableaux")),
    "mode": (["--mode"], dict(choices=("symbolic", "numeric"), default="symbolic")),
    "trials": (["--trials"], dict(type=int, default=3)),
    "seed": (["--seed"], dict(type=int, default=1, help="seed of the numeric trials")),
    "quick": (["--quick"], dict(action="store_true", help="minimal parameters")),
    "format": (["--format"], dict(choices=("json", "text"), default="text")),
}

# identity -> (module, verifier name, builder of its kwargs from the parsed
# arguments, the flags that builder reads).  A builder raises ValueError on a
# bad parameter before any case runs.  The verifier is looked up by name on
# each call, so wrappers set on the module take effect.
VERIFY = {
    "ybe": (yangbaxter, "ybe_check", _ybe_kwargs, "k mode seed trials"),
    "lstar-ybe": (yangbaxter, "lstar_ybe_check", _ybe_kwargs, "k mode seed trials"),
    "symmetry": (identities, "verify_symmetry", _with_engine(_shape_kwargs), "beta gamma n engine"),
    "inv-coinv": (identities, "verify_inv_coinv", _shape_kwargs, "beta gamma n"),
    "hl": (identities, "verify_hl", _with_engine(_mu_kwargs), "mu n engine"),
    "modified-hl": (identities, "verify_modified_hl", _mu_kwargs, "mu n"),
    "box-skew": (identities, "verify_box_skew", _with_engine(_box_kwargs), "lam M n engine"),
    "complement": (identities, "verify_complement", _with_engine(_box_kwargs), "lam M n engine"),
    "lstar": (identities, "verify_lstar", _with_engine(_lstar_kwargs), "lam M_list n engine"),
    "cauchy": (identities, "verify_cauchy", _with_engine(_cauchy_kwargs), "n k degree engine"),
    "skew-cauchy": (identities, "verify_skew_cauchy", _skew_cauchy_kwargs, "n k degree mu"),
    "cauchy-rot": (identities, "verify_cauchy_rot", _cauchy_kwargs, "n k degree"),
    "engine-equivalence": (identities, "verify_engine_equivalence", lambda args: {}, ""),
}


def _verify_case(task):
    """Run one (identity, kwargs) case.

    ``cmd_verify`` calls it by its module-global name, once per case, so a
    wrapper set on the module (such as a timing span) sees every case.
    """
    name, kwargs = task
    module, verifier = VERIFY[name][:2]
    return getattr(module, verifier)(**kwargs)


# `verify all`'s symmetry and inv-coinv shapes, some with empty skew components
# (1/1); `--quick` runs the first 7.
_SUITE_SHAPES = [
    "3;2/0;0", "3,3;3,1/2,1;1,0", "1;1/0;0", "2,1/0,0", "2/0", "3,3;3,0/1,0;3,0",
    "2,1;0,0;3,1/2,0;0,0;0,0", "2,1;2,0/0,0;1,0", "2,0/2,0", "2;3,0;3,1/1;3,0;2,1",
    "1,0/1,0", "3;3,1/0;1,0", "1/1", "3,2;3;3/2,2;1;0", "3,1;2,0/3,1;2,0", "1;0/0;0",
]


def _suite(quick: bool) -> list[str]:
    """`verify all`: the arguments of one `lltlattice verify <identity>` each."""
    commands = ["ybe --k 1", "ybe --k 2", "ybe --k 3 --mode numeric --seed 1 --trials 3"]
    commands += ["lstar-ybe --k 1", "lstar-ybe --k 2"]
    for shape in _SUITE_SHAPES[:7] if quick else _SUITE_SHAPES:
        flags = "--beta {} --gamma {} --n 2".format(*shape.split("/"))
        commands += [f"symmetry {flags}", f"inv-coinv {flags}"]
    for mu in ("2,1", "3,2") if quick else ("2,1", "3,2", "2,2,1", "3,1"):
        commands += [f"hl --mu {mu} --n 2", f"modified-hl --mu {mu} --n 2"]
    commands += ["box-skew --lam 1,0;1,1 --M 4 --n 2", "complement --lam 2,1;1,0 --M 4 --n 2"]
    commands += ["lstar --lam 1,0;0,0 --n 2"]
    if quick:
        return commands + ["cauchy --n 1 --k 1 -D 4", "cauchy-rot --n 1 --k 2 -D 3"]
    for nkD in ("--n 1 --k 1 -D 4", "--n 2 --k 1 -D 4", "--n 1 --k 2 -D 4", "--n 2 --k 2 -D 3"):
        commands += [f"cauchy {nkD}", f"cauchy-rot {nkD}"]
    commands += ["skew-cauchy --mu 1,0;0,0 --n 2 --k 2 -D 3"]
    return commands + ["engine-equivalence"]


def cmd_verify(args) -> int:
    runs = ([_parse(["verify", *c.split()]) for c in _suite(args.quick)]
            if args.identity == "all" else [args])
    cases = [(run.identity, VERIFY[run.identity][2](run)) for run in runs]
    n_failed = 0
    for report in map(_verify_case, cases):   # each printed as its case returns
        print(json.dumps(report.to_json_dict(), sort_keys=True)
              if args.format == "json" else report.to_text())
        n_failed += not report.passed
    print(f"summary: {len(cases) - n_failed}/{len(cases)} passed")
    return 1 if n_failed else 0


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The root parser, and each command's own parser by its words, such as ("verify", "ybe")."""
    parser = argparse.ArgumentParser(
        prog="lltlattice",
        description="Coinversion LLT polynomials and their verified identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = {}

    # no command takes abbreviations: --M on lstar is not --M-list
    pc = leaves[("compute",)] = sub.add_parser(
        "compute", help="compute one LLT polynomial", allow_abbrev=False)
    pc.add_argument("--beta", required=True, help='e.g. "3,3;3,1"')
    pc.add_argument("--gamma", default=None, help='e.g. "2,1;1,0" (default: zeros)')
    pc.add_argument("--n", type=int, required=True, help="number of x variables")
    pc.add_argument("--engine", choices=_ENGINES, default="both")
    pc.add_argument("--format", choices=("json", "text"), default="text")
    pc.set_defaults(command="compute", func=cmd_compute)

    ps = leaves[("stats",)] = sub.add_parser(
        "stats", help="combinatorial statistics of a shape", allow_abbrev=False)
    ps.add_argument("--beta", required=True)
    ps.add_argument("--gamma", default=None)
    ps.add_argument("--M", type=int, default=None, help="box columns for dtilde")
    ps.set_defaults(command="stats", func=cmd_stats)

    pv = sub.add_parser("verify", help="machine-verify an identity")
    identity = pv.add_subparsers(dest="identity", required=True)
    flags = {name: entry[3] for name, entry in VERIFY.items()} | {"all": "quick"}
    for name, dests in flags.items():
        pi = leaves["verify", name] = identity.add_parser(name, allow_abbrev=False)
        pi.set_defaults(command="verify", identity=name, func=cmd_verify)
        for names, kwargs in (_VERIFY_FLAGS[dest] for dest in [*dests.split(), "format"]):
            pi.add_argument(*names, **kwargs)

    return parser, leaves


_PARSER, _LEAVES = build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv read by the parser of the command that its leading words name,
    which is what the levels above it would hand it, with the defaults they
    would set; anything else (help, an unknown command, a flag before the
    command) goes to the root parser.  A command is one or two words."""
    for depth in (2, 1):
        words = tuple(argv[:depth])
        if words in _LEAVES:
            return _LEAVES[words].parse_args(argv[len(words):])
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # 128 + SIGPIPE; with fd 1 on devnull the interpreter's flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except EngineMismatch as exc:
        print("engine mismatch:", file=sys.stderr)
        print(f"  tableaux: {exc.tableaux_value.serialize()}", file=sys.stderr)
        print(f"  lattice:  {exc.lattice_value.serialize()}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
