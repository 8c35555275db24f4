"""Spans around the calls into each lltlattice module, installed from outside.

``Tracer.install`` replaces the public entry points of every layer with
timing wrappers, in every module namespace that binds them, and the
arithmetic methods of ``LaurentPoly`` (aliases such as ``__rmul__``
included).  Per-tableau helpers such as ``coinv`` and ``entry`` are left
alone: their call counts reach the millions.

A span is ``[name, start, end, parent, op]``; spans stay in memory and are
written by the parent when the run ends.  Self time (busy time) is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

from time import perf_counter


def _coeff_sum(poly) -> int:
    """Coefficient sum at x = 1, t = 1: configurations or tableaux counted."""
    return sum(poly.terms.values())


def _terms(p) -> int:
    return len(p.terms) if hasattr(p, "terms") else 1


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, counter hook included: a wrapped
    no-op against the bare no-op, each the best of five loops.

    The traced and untraced rounds of one run differ by less than the
    host's drift between rounds, so the tracing overhead is this cost times
    the span count rather than a difference of two wall times.
    """
    def noop(*args):
        return None

    wrapped = Tracer().wrap("noop", noop, after=lambda args, result, dur: None)

    def best(fn) -> float:
        times = []
        for _ in range(5):
            start = perf_counter()
            for _ in range(calls):
                fn(1)
            times.append(perf_counter() - start)
        return min(times)

    return max(best(wrapped) - best(noop), 0.0) / calls


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.child_time: list[float] = []
        self.agg: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.cli_runs: list[dict] = []       # one entry per cli.main call
        self.op = -1
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.agg[name] = [0, 0.0, 0.0]
        return self.name_ids[name]

    def _open(self, nid: int) -> list:
        rec = [nid, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.child_time.append(0.0)
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> float:
        rec[2] = end = perf_counter()
        self.stack.pop()
        inner = self.child_time.pop()
        dur = end - rec[1]
        if self.child_time:
            self.child_time[-1] += dur
        entry = self.agg[self.names[rec[0]]]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - inner
        return dur

    def begin_op(self, op: int) -> list:
        self.op = op
        return self._open(self._name_id("op"))

    def end_op(self, rec: list):
        self._close(rec)
        self.op = -1

    def count(self, key: str, amount: int):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = close(rec)
            if after is not None:
                after(args, result, dur)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def install(self):
        import lltlattice
        from lltlattice import algebra, cli, identities, lattice, shapes, tableaux, yangbaxter

        modules = [lltlattice, algebra, shapes, tableaux, lattice, yangbaxter, identities, cli]
        count = self.count

        def lattice_after(args, result, dur):
            count("lattice.configs", _coeff_sum(result))
            count("lattice.result_terms", len(result.terms))

        def tableaux_after(args, result, dur):
            count("tableaux.tableaux", _coeff_sum(result))

        def ybe_after(args, result, dur):
            count("yangbaxter.boundaries", result.checked)

        def identity_after(args, result, dur):
            count("identities.equalities", result.details.get("equalities_checked", 0))

        def mul_before(args):
            count("algebra.mul_term_pairs", len(args[0].terms) * _terms(args[1]))

        def add_before(args):
            count("algebra.add_terms", len(args[0].terms) + _terms(args[1]))

        def main_before(args):
            self.cli_runs.append({"main_s": 0.0, "cases": []})

        def main_after(args, result, dur):
            self.cli_runs[-1]["main_s"] = dur

        def case_after(args, result, dur):
            self.cli_runs[-1]["cases"].append(dur)

        entry_points = [
            ("lattice.partition_function", lattice.partition_function, None, lattice_after),
            ("tableaux.llt_coinv", tableaux.llt_coinv, None, tableaux_after),
            ("tableaux.llt_inv", tableaux.llt_inv, None, tableaux_after),
            ("tableaux.hl_transformed", tableaux.hl_transformed, None, tableaux_after),
            ("yangbaxter.ybe_check", yangbaxter.ybe_check, None, ybe_after),
            ("yangbaxter.lstar_ybe_check", yangbaxter.lstar_ybe_check, None, ybe_after),
            ("identities.cauchy_kernel_truncated", identities.cauchy_kernel_truncated, None, None),
            ("cli.main", cli.main, main_before, main_after),
            ("cli.case", cli._verify_case, None, case_after),
        ]
        entry_points += [
            (f"identities.{attr}", fn, None, identity_after)
            for attr, fn in vars(identities).items()
            if attr.startswith("verify_") and callable(fn)
        ]
        for name, fn, before, after in entry_points:
            self._patch_everywhere(modules, fn, self.wrap(name, fn, before, after))
        # llt is the library's front door; only the identity drivers' calls
        # are a layer boundary (the ladders call it as the op itself).
        self._patch(identities, "llt", self.wrap("identities.llt", identities.llt))

        poly = algebra.LaurentPoly
        methods = {
            poly.__mul__: ("algebra.mul", mul_before),
            poly.__add__: ("algebra.add", add_before),
            poly.eval_rational: ("algebra.eval", None),
            poly.substitute: ("algebra.substitute", None),
            poly.truncate_x: ("algebra.truncate", None),
            poly.truncate_y: ("algebra.truncate", None),
        }
        for fn, (name, before) in methods.items():
            self._patch_everywhere([poly], fn, self.wrap(name, fn, before))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        return {
            "agg": self.agg,
            "counters": self.counters,
            "cli_runs": self.cli_runs,
            "names": self.names,
            "spans": self.spans,
            "span_count": len(self.spans),
            "span_cost_s": span_cost_s(),
        }
