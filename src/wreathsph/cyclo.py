"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as a vector of rationals over the power basis
1, z, ..., z^(phi(N)-1) of Q(zeta_N), i.e. reduced modulo the N-th
cyclotomic polynomial.  Conductors are always minimized (2 mod 4 is
never used, rationals live at conductor 1), so two equal values always
have identical (conductor, coefficient) data and ==/hash are cheap.

Ring operations run on integer vectors in Z[x]/(x^N - 1) over one
denominator (cyc_vector, convolve_into, sum_products); vector_cyc is the
one place a vector is reduced mod Phi_N and its conductor descended, and
canonicalize only converts an exponent -> rational map into such a vector.
Sums and products of two rationals, and a rational times any value, skip
the vectors.

Values are immutable after construction (three lazily filled caches
aside, the hash, the text form and cyc_vector's last form, whose races
only repeat work); everything here is safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import lcm


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials, low-to-high coefficients."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q[k] = c // lead
        for i, d in enumerate(den):
            num[k + i] -= q[k] * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


@cache
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low-to-high, monic."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_poly(d)))
            assert not rem
    return tuple(num)


@cache
def _phi_deg(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@cache
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_n for 0 <= k < n, as integer vectors of length deg."""
    d = _phi_deg(n)
    phi = cyclotomic_poly(n)
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[d - 1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(d):
                cur[i] -= top * phi[i]
        cur = cur[:d]
    return tuple(rows)


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@cache
def _subfield_basis(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Images of the Q(zeta_m) power basis inside Q(zeta_n), n = m*k."""
    step = n // m
    tab = _power_table(n)
    return tuple(tab[(step * j) % n] for j in range(_phi_deg(m)))


@cache
def _subfield_inverse(n: int, m: int) -> tuple[tuple, tuple, int]:
    """(rows, cols, scale), eliminated once per (n, m): rows[j] lists the
    nonzero (i, c) of row j of scale * L, for the least integer scale and
    a left inverse L of the basis B = _subfield_basis(n, m), L B = 1;
    cols[j] lists the nonzero (i, c) of column j of B."""
    basis = _subfield_basis(n, m)
    size, dim = len(basis[0]), len(basis)
    # Gauss-Jordan elimination of [B | 1] in Fractions: B has full column
    # rank, so its first dim rows end as [1 | L].
    aug = [
        [Fraction(col[i]) for col in basis] + [Fraction(int(i == k)) for k in range(size)]
        for i in range(size)
    ]
    for c in range(dim):
        piv = next(i for i in range(c, size) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(size):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    inverse = [row[dim:] for row in aug[:dim]]
    scale = lcm(1, *(x.denominator for row in inverse for x in row))
    rows = tuple(
        tuple((i, int(x * scale)) for i, x in enumerate(row) if x) for row in inverse
    )
    cols = tuple(tuple((i, c) for i, c in enumerate(col) if c) for col in basis)
    return rows, cols, scale


def _solve_subfield(n: int, m: int, vec: list[int]) -> tuple[list[int], int] | None:
    """Write the integer vec (over the Q(zeta_n) basis) over the Q(zeta_m)
    basis, if possible: (sol, scale) with vec = B sol / scale, B the basis.
    The left inverse gives the only candidate; the exact check B sol =
    scale * vec rejects a value outside the subfield."""
    rows, cols, scale = _subfield_inverse(n, m)
    sol = [sum(c * vec[i] for i, c in row) for row in rows]
    chk = [0] * len(vec)
    for s, col in zip(sol, cols):
        if s:
            for i, c in col:
                chk[i] += s * c
    return (sol, scale) if chk == [scale * v for v in vec] else None


class CycNum:
    """An element of some Q(zeta_N), in canonical minimal-conductor form."""

    __slots__ = ("conductor", "coeffs", "_hash", "_text", "_vector")

    def __init__(self, conductor: int, coeffs: dict[int, Fraction]):
        # canonical data only; canonicalize builds a CycNum from any other
        self.conductor = conductor
        self.coeffs = coeffs
        self._hash = None
        self._text = None
        self._vector = None  # cyc_vector's last form

    # -- construction -------------------------------------------------

    @staticmethod
    def rational(x) -> "CycNum":
        x = Fraction(x)
        return CycNum(1, {0: x} if x else {})

    # -- basic queries -------------------------------------------------

    def try_rational(self) -> Fraction | None:
        """The value as a rational, or None if it is irrational."""
        if self.conductor == 1:
            return self.coeffs.get(0, Fraction(0))
        return None

    def as_rational(self) -> Fraction:
        r = self.try_rational()
        if r is None:
            raise ValueError(f"not a rational value: {self}")
        return r

    def as_int(self) -> int:
        r = self.as_rational()
        if r.denominator != 1:
            raise ValueError(f"not an integer value: {self}")
        return r.numerator

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "CycNum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return CycNum.rational(self.coeffs.get(0, 0) + other.coeffs.get(0, 0))
        n = lcm(self.conductor, other.conductor)
        va, da = cyc_vector(self, n)
        vb, db = cyc_vector(other, n)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return vector_cyc([x * fa + y * fb for x, y in zip(va, vb)], den)

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum(self.conductor, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "CycNum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return CycNum.rational(self.coeffs.get(0, 0) * other.coeffs.get(0, 0))
        if self.conductor == 1:
            c = self.coeffs.get(0, Fraction(0))
            if not c:
                return ZERO
            return CycNum(other.conductor, {k: c * v for k, v in other.coeffs.items()})
        if other.conductor == 1:
            return other * self
        n = lcm(self.conductor, other.conductor)
        va, da = cyc_vector(self, n)
        vb, db = cyc_vector(other, n)
        acc = [0] * n
        convolve_into(acc, va, vb)
        return vector_cyc(acc, da * db)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycNum":
        if e < 0:
            return self.inverse() ** (-e)
        out, base = ONE, self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __truediv__(self, other) -> "CycNum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "CycNum":
        """Inverse of any value whose squared modulus is rational; this covers
        rationals and rational multiples of roots of unity.  General
        cyclotomic inversion is intentionally not provided.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self.conductor == 1:
            return CycNum.rational(1 / self.coeffs[0])
        conj = self.conjugate()
        norm = (self * conj).try_rational()
        if norm:
            return conj * (1 / norm)
        raise ValueError("inverse implemented only for values with rational modulus")

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta_N -> zeta_N^(N-1)."""
        n = self.conductor
        if n == 1:
            return self
        return canonicalize(n, {(n - k) % n: v for k, v in self.coeffs.items()})

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.conductor, tuple(sorted(self.coeffs.items()))))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        if self._text is None:
            self._text = self._format()
        return self._text

    def _format(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            v = self.coeffs[k]
            mag = abs(v)
            if k == 0:
                body = str(mag)
            else:
                zk = f"z({self.conductor})" if k == 1 else f"z({self.conductor})^{k}"
                body = zk if mag == 1 else f"{mag}*{zk}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"CycNum({self})"


def _coerce(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.rational(x)
    return NotImplemented


def canonicalize(conductor: int, raw: dict[int, int | Fraction]) -> CycNum:
    """Sum_k raw[k] * zeta_conductor^k in canonical form (see vector_cyc)."""
    if conductor < 1:
        raise ValueError(f"conductor must be >= 1, got {conductor}")
    raw = {k: Fraction(v) for k, v in raw.items()}
    den = lcm(1, *(v.denominator for v in raw.values()))
    vec = [0] * conductor
    for k, v in raw.items():
        vec[k % conductor] += v.numerator * (den // v.denominator)
    return vector_cyc(vec, den)


def zeta(n: int, k: int = 1) -> CycNum:
    return canonicalize(n, {k: 1})


ZERO = CycNum.rational(0)
ONE = CycNum.rational(1)


# -- integer vectors in Z[x]/(x^n - 1) ------------------------------------------
#
# A value of Q(zeta_n) written as sum_k vec[k] zeta_n^k / den, with integer
# vec of length n and one positive denominator, is not unique: x^n - 1 has
# more factors than Phi_n.  Products are cyclic convolutions, sums aligned
# integer adds; vector_cyc is where a vector is reduced mod Phi_n and its
# conductor descended, once, as it leaves as a CycNum.  CycNum's own + and *
# are one such add or convolution followed by vector_cyc.


def cyc_vector(x: CycNum, n: int) -> tuple[list[int], int]:
    """x as (vec, den) in Z[x]/(x^n - 1); n must be a multiple of its
    conductor.  The last form asked for is kept on x: do not modify vec."""
    memo = x._vector
    if memo is not None and memo[0] == n:
        return memo[1], memo[2]
    step, rem = divmod(n, x.conductor)
    if rem:
        raise ValueError(f"conductor {x.conductor} does not divide {n}")
    vec = [0] * n
    den = lcm(*(v.denominator for v in x.coeffs.values()))
    for k, v in x.coeffs.items():
        vec[k * step] = v.numerator * (den // v.denominator)
    x._vector = (n, vec, den)
    return vec, den


def convolve_into(acc: list[int], a: list[int], b: list[int]) -> None:
    """acc += a * b in Z[x]/(x^n - 1), n = len(acc) = len(a) = len(b)."""
    n = len(acc)
    if n == 1:
        acc[0] += a[0] * b[0]
        return
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    k = i + j
                    acc[k - n if k >= n else k] += x * y


def vector_cyc(vec: list[int], den: int) -> CycNum:
    """The canonical CycNum of sum_k vec[k] zeta_n^k / den, n = len(vec):
    the one place a value is reduced mod Phi_n and its conductor descended."""
    n = len(vec)
    d = _phi_deg(n)
    red = vec[:d]
    tab = _power_table(n)
    for k in range(d, n):
        v = vec[k]
        if v:
            for i, c in enumerate(tab[k]):
                if c:
                    red[i] += v * c
    while n > 1:
        if not any(red[1:]):
            n, red = 1, red[:1]
            break
        for p in _prime_factors(n):
            sol = _solve_subfield(n, n // p, red)
            if sol is not None:
                n, (red, scale) = n // p, sol
                den *= scale
                break
        else:
            break
    return CycNum(n, {i: Fraction(v, den) for i, v in enumerate(red) if v})


def sum_products(items) -> CycNum:
    """Sum of a * b * w over (a, b, w) triples: one integer accumulator in
    Z[x]/(x^N - 1) over one common denominator, reduced once."""
    items = list(items)
    big = 1
    for a, b, _ in items:
        big = lcm(big, a.conductor, b.conductor)
    acc, den = [0] * big, 1
    for a, b, w in items:
        if not (w and a.coeffs and b.coeffs):
            continue
        va, da = cyc_vector(a, big)
        vb, db = cyc_vector(b, big)
        d = da * db * w.denominator
        if den % d:
            grow = lcm(den, d) // den
            acc, den = [v * grow for v in acc], den * grow
        s = w.numerator * (den // d)
        if s != 1:
            va = [v * s for v in va]
        convolve_into(acc, va, vb)
    return vector_cyc(acc, den)


_TERM_RE = re.compile(  # a denominator has a nonzero digit
    r"^(?P<coef>\d+(?:/\d*[1-9]\d*)?)?\*?"
    r"(?:z\((?P<n>\d+)\)(?:\^(?P<k>\d+))?)?$"
)


def parse_cyc(text: str) -> CycNum:
    """Parse the text form produced by str(): e.g. '1/2 + 3*z(8)^3 - z(4)'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    s = s.replace("-", "+-")
    chunks = [c for c in s.split("+") if c]
    total = ZERO
    for chunk in chunks:
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("n") is None):
            raise ValueError(f"bad cyclotomic term {chunk!r} in {text!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("n") is None:
            term = CycNum.rational(sign * coef)
        else:
            term = canonicalize(int(m.group("n")), {int(m.group("k") or 1): sign * coef})
        total = total + term
    return total
