"""Command-line surface: compute, verify, stats.

Exit codes: 0 success, 1 verification failed, 2 bad parameters or parse error,
3 cross-engine mismatch, 141 stdout closed by its reader.  Commands raise; only ``main``
maps a ``ValueError``, ``OverflowError`` or ``MemoryError`` to 2, an ``EngineMismatch`` to 3
and a ``BrokenPipeError`` to 141.
Every case is fixed, and numeric YBE draws only from its --seed, so identical
invocations give byte-identical output.  The parser is built once, at import;
``verify all`` parses its suite through it and runs the cases in order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import identities, yangbaxter
from .algebra import LaurentPoly
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


def format_grouped(p: LaurentPoly) -> str:
    """Render with the t-degree outermost, monomials in canonical order."""
    if p.is_zero():
        return "0"
    ti = p.vars.t_index  # t is the last variable
    groups: dict[int, dict] = {}
    for e, c in p.terms.items():
        groups.setdefault(e[ti], {})[(*e[:ti], 0)] = c  # t^0 is not printed
    chunks = []
    for texp in sorted(groups):
        inner = LaurentPoly(p.vars, groups[texp]).to_text()
        prefix = "" if texp == 0 else "t*" if texp == 1 else f"t^{texp}*"
        chunks.append(f"{prefix}({inner})")
    return " + ".join(chunks)


def _parse_shape(args) -> SkewShapeTuple:
    beta = parse_shape_text(args.beta, "--beta")
    if args.gamma is not None:
        gamma = parse_shape_text(args.gamma, "--gamma")
        return _fit("--gamma", "--beta", SkewShapeTuple, beta, gamma)
    return SkewShapeTuple.straight(beta)


def cmd_compute(args) -> int:
    poly = llt(**_shape_kwargs(args), engine=args.engine)
    if args.format == "json":
        print(poly.serialize())
    else:
        print(format_grouped(poly))
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
    # 2^(6k) boundaries: k = 4, 5, 6 take about 0.2 s, 1.1 s and 22 s (34 MB)
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


def _emit_report(report, fmt: str):
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        return
    if hasattr(report, "checked"):
        line = f"{report.status} {report.name} k={report.k} mode={report.mode} checked={report.checked}"
        if report.failed:
            line += f" failed={report.failed}"
        print(line)
        if report.first_failure:
            print(f"  first failure: {json.dumps(report.first_failure, sort_keys=True)}")
    else:
        print(f"{report.status} {report.name} {json.dumps(report.params, sort_keys=True)}")
        if report.witness:
            print(f"  context: {report.witness['context']}")
            print(f"  lhs: {json.dumps(report.witness['lhs'], sort_keys=True)}")
            print(f"  rhs: {json.dumps(report.witness['rhs'], sort_keys=True)}")


def cmd_verify(args) -> int:
    runs = ([_PARSER.parse_args(["verify", *c.split()]) for c in _suite(args.quick)]
            if args.identity == "all" else [args])
    cases = [(run.identity, VERIFY[run.identity][2](run)) for run in runs]
    reports = [_verify_case(case) for case in cases]
    for report in reports:
        _emit_report(report, args.format)
    n_failed = sum(0 if r.passed else 1 for r in reports)
    print(f"summary: {len(reports) - n_failed}/{len(reports)} passed")
    return 1 if n_failed else 0


class _CommandParser(argparse.ArgumentParser):
    """Refuses, with its own usage, the arguments it does not declare itself."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lltlattice",
        description="Coinversion LLT polynomials and their verified identities",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    # no command takes abbreviations: --M on lstar is not --M-list
    pc = sub.add_parser("compute", help="compute one LLT polynomial", allow_abbrev=False)
    pc.add_argument("--beta", required=True, help='e.g. "3,3;3,1"')
    pc.add_argument("--gamma", default=None, help='e.g. "2,1;1,0" (default: zeros)')
    pc.add_argument("--n", type=int, required=True, help="number of x variables")
    pc.add_argument("--engine", choices=_ENGINES, default="both")
    pc.add_argument("--format", choices=("json", "text"), default="text")
    pc.set_defaults(func=cmd_compute)

    ps = sub.add_parser("stats", help="combinatorial statistics of a shape", allow_abbrev=False)
    ps.add_argument("--beta", required=True)
    ps.add_argument("--gamma", default=None)
    ps.add_argument("--M", type=int, default=None, help="box columns for dtilde")
    ps.set_defaults(func=cmd_stats)

    pv = sub.add_parser("verify", help="machine-verify an identity")
    pv.set_defaults(func=cmd_verify)
    identity = pv.add_subparsers(dest="identity", required=True)
    flags = {name: entry[3] for name, entry in VERIFY.items()} | {"all": "quick"}
    for name, dests in flags.items():
        pi = identity.add_parser(name, allow_abbrev=False)
        for names, kwargs in (_VERIFY_FLAGS[dest] for dest in [*dests.split(), "format"]):
            pi.add_argument(*names, **kwargs)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
