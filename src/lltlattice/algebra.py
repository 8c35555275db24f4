"""Exact sparse Laurent polynomial arithmetic over arbitrary-precision integers.

Polynomials live in a fixed variable set: x_1..x_nx, then y_1..y_ny, then
t, always in that order: every variable set ends in t.  A polynomial is a
map from exponent vectors (one integer per variable, negatives allowed) to
nonzero integer coefficients; the zero polynomial has no terms.  All arithmetic is exact and
every operation returns a canonical value (no stored zero coefficients), so
two polynomials are equal iff their term maps are equal.

The canonical term order, used by serialization and text output, is
lexicographically decreasing on exponent vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence


@dataclass(frozen=True)
class VarSet:
    """A fixed, ordered alphabet of variables: x_1..x_nx, y_1..y_ny, t."""

    nx: int
    ny: int = 0

    def __post_init__(self):
        if self.nx < 0 or self.ny < 0:
            raise ValueError("variable counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.nx + self.ny + 1

    def x_index(self, i: int) -> int:
        """Slot of x_i (1-based i)."""
        if not 1 <= i <= self.nx:
            raise IndexError(f"x_{i} not in variable set")
        return i - 1

    @property
    def t_index(self) -> int:
        return self.nx + self.ny

    def names(self) -> list[str]:
        out = [f"x{i}" for i in range(1, self.nx + 1)]
        out += [f"y{j}" for j in range(1, self.ny + 1)]
        return out + ["t"]


class _Packing:
    """Exponent vectors packed into one int, for the hot loops.

    Field i is worth 2^(i * width), so the key of a monomial is the exact
    integer sum of e_i * 2^(i * width), and adding keys multiplies monomials.
    Every field but the last holds values in [low, low + 2^width), with
    low = 0, or -2^(width - 1) when ``signed``; a value outside would carry
    into the next field, so ``encode`` refuses it.  The last field takes
    whatever is left of the key and is unbounded.
    """

    __slots__ = ("shifts", "top", "mask", "low")

    def __init__(self, fields: int, width: int, signed: bool = False):
        self.top = width * (fields - 1)
        self.shifts = range(0, self.top, width)
        self.mask = (1 << width) - 1
        self.low = -(1 << width - 1) if signed else 0

    def encode(self, terms: Mapping[tuple, int], factors: int) -> dict[int, int]:
        """{key: coefficient} from {exponent tuple: coefficient}.  Every
        bounded exponent times ``factors`` must fit its field, else
        ValueError: then a product of ``factors`` such monomials cannot
        carry into the next field."""
        low, high, shifts, top = self.low, self.low + self.mask, self.shifts, self.top
        out = {}
        for exps, coeff in terms.items():
            *bounded, last = exps
            if len(bounded) != len(shifts):
                raise ValueError(f"expected {len(shifts) + 1} exponents, got {len(exps)}")
            for e in bounded:
                if not low <= e * factors <= high:
                    raise ValueError(
                        f"exponent {e} times {factors} does not fit a "
                        f"{self.mask.bit_length()}-bit field"
                    )
            out[sum(e << s for e, s in zip(bounded, shifts)) + (last << top)] = coeff
        return out

    def decode(self, counts: Mapping[int, int]) -> dict[tuple, int]:
        """{exponent tuple: coefficient} from {key: coefficient}."""
        shifts, mask, low, top = self.shifts, self.mask, self.low, self.top
        if not low:
            # plain digits; the biased form below costs tableaux-ladder and
            # cauchy-sweep about 6% (BENCH_ybe_contraction.json)
            return {
                (*[key >> s & mask for s in shifts], key >> top): coeff
                for key, coeff in counts.items()
            }
        # -low in every bounded field (a geometric sum); adding it to a key
        # turns each bounded field into a plain digit
        bias = -low * ((1 << top) - 1) // mask
        return {
            (*[(key >> s & mask) + low for s in shifts], key >> top): coeff
            for key, coeff in zip(map(bias.__add__, counts), counts.values())
        }


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    ``terms`` maps exponent tuples (length ``vars.total``) to nonzero ints.
    The constructor is the one place zero coefficients are dropped: every
    operation accumulates its terms and builds its result through it.  Only
    ``_trusted`` skips it, for terms that cannot be zero.  Instances are
    treated as immutable; do not mutate ``terms`` after construction.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: Mapping[tuple, int] | None = None):
        object.__setattr__(self, "vars", vars)
        clean = {}
        if terms:
            width = vars.total
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(exps) != width:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected {width}"
                    )
                clean[tuple(exps)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, vars: VarSet, terms: dict[tuple, int]) -> "LaurentPoly":
        """Take ownership of ``terms`` as is: every key an exponent tuple of
        length ``vars.total``, every value a nonzero coefficient."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "vars", vars)
        object.__setattr__(poly, "terms", terms)
        return poly

    @classmethod
    def zero(cls, vars: VarSet) -> "LaurentPoly":
        return cls(vars)

    @classmethod
    def const(cls, vars: VarSet, c: int) -> "LaurentPoly":
        return cls(vars, {(0,) * vars.total: c})

    @classmethod
    def one(cls, vars: VarSet) -> "LaurentPoly":
        return cls.const(vars, 1)

    @classmethod
    def monomial(cls, vars: VarSet, coeff: int, exps: Sequence[int]) -> "LaurentPoly":
        return cls(vars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, vars: VarSet, slot: int, power: int = 1) -> "LaurentPoly":
        exps = [0] * vars.total
        exps[slot] = power
        return cls(vars, {tuple(exps): 1})

    @classmethod
    def t(cls, vars: VarSet, power: int = 1) -> "LaurentPoly":
        return cls.variable(vars, vars.t_index, power)

    # -- basic protocol ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self.to_text()})"

    def _check_same_vars(self, other: "LaurentPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable-set mismatch: {self.vars} vs {other.vars}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return LaurentPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.vars)
            return LaurentPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_vars(other)
        small, big = sorted((self.terms, other.terms), key=len)
        if len(small) == 1:  # a monomial shift is injective: no like terms, nothing cancels
            ((e1, c1),) = small.items()
            return LaurentPoly(self.vars, {tuple(map(add, e1, e)): c1 * c for e, c in big.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.vars, out)

    __rmul__ = __mul__

    # -- structure queries -------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in canonical order (lexicographically decreasing exponents)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    # -- the operations the rest of the library leans on --------------------

    def substitute(self, assignment: Mapping[int, tuple[int, Sequence[int]]]) -> "LaurentPoly":
        """Substitute signed Laurent monomials for variables.

        ``assignment`` maps a variable slot to ``(sign, exps)`` with sign in
        {+1, -1} and ``exps`` the exponent vector of the replacement monomial.
        Unmapped variables are left alone.  Handles t -> 1/t, x_i -> 1/(x_i
        t^(k-1)), variable swaps, and the like.
        """
        width = self.vars.total
        subs = {}
        for slot, (sign, exps) in assignment.items():
            if sign not in (1, -1):
                raise ValueError("substitution coefficient must be +1 or -1")
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError("substitution monomial has wrong width")
            subs[slot] = (sign, exps)
        out: dict = {}
        for e, c in self.terms.items():
            new = list(e)
            for slot in subs:
                new[slot] = 0
            coeff = c
            for slot, (sign, sexps) in subs.items():
                power = e[slot]
                if power == 0:
                    continue
                if sign == -1 and power % 2:
                    coeff = -coeff
                for idx, se in enumerate(sexps):
                    if se:
                        new[idx] += se * power
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff
        return LaurentPoly(self.vars, out)

    def _map_exponents(self, move) -> "LaurentPoly":
        """The polynomial whose terms are ``move(e): c``; ``move`` must be one-to-one."""
        return LaurentPoly._trusted(self.vars, {move(e): c for e, c in self.terms.items()})

    def invert_t(self) -> "LaurentPoly":
        return self._map_exponents(lambda e: (*e[:-1], -e[-1]))  # t is the last variable

    def swap_vars(self, slot_a: int, slot_b: int) -> "LaurentPoly":
        slots = range(self.vars.total)  # indexing it checks and normalizes a slot
        swap = {slots[slot_a]: slot_b, slots[slot_b]: slot_a}
        return self._map_exponents(lambda e: tuple(e[swap.get(i, i)] for i in slots))

    def invert_x(self) -> "LaurentPoly":
        """Apply x_i -> 1/x_i for every x-variable."""
        nx = self.vars.nx
        return self._map_exponents(lambda e: (*(-v for v in e[:nx]), *e[nx:]))

    def eval_rational(self, values: Sequence) -> Fraction:
        """Exact value at a rational point, one value per variable.

        Negative exponents are fine as long as the corresponding value is
        nonzero; a zero value under a negative exponent raises
        ZeroDivisionError.
        """
        if len(values) != self.vars.total:
            raise ValueError("wrong number of values")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = Fraction(c)
            for v, p in zip(vals, e):
                if p:
                    term *= v ** p
            total += term
        return total

    def truncate_x(self, max_x_degree: int) -> "LaurentPoly":
        """Drop terms whose total x-degree exceeds the bound."""
        if max_x_degree < 0:
            raise ValueError("degree bound must be nonnegative")
        nx = self.vars.nx
        kept = {e: c for e, c in self.terms.items() if sum(e[:nx]) <= max_x_degree}
        return LaurentPoly(self.vars, kept)

    def truncate_y(self, max_y_degree: int) -> "LaurentPoly":
        nx, ny = self.vars.nx, self.vars.ny
        kept = {e: c for e, c in self.terms.items() if sum(e[nx:nx + ny]) <= max_y_degree}
        return LaurentPoly(self.vars, kept)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": {"nx": self.vars.nx, "ny": self.vars.ny, "t": True},
            "terms": [{"c": str(c), "e": list(e)} for e, c in self.sorted_terms()],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def to_text(self) -> str:
        """Human-readable form, terms in canonical order."""
        if not self.terms:
            return "0"
        names = self.vars.names()
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, p in zip(names, e):
                if p == 1:
                    factors.append(name)
                elif p:
                    factors.append(f"{name}^{p}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out
