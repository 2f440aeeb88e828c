"""Symmetric functions in the power-sum basis, single- and multi-alphabet.

Single-alphabet elements are plain dicts Partition -> Fraction over the
p-basis; the classical families (Schur, Schur Q, Jack) are produced as
such expansions.  Multi-alphabet elements carry cyclotomic coefficients
and support the change-of-variables ring homomorphisms used to compare
Hecke-algebra images with products of classical symmetric functions.

All values are immutable by convention; the memoization caches on the
expansion functions are append-only and safe for concurrent readers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .cyclo import CycNum, ONE, ZERO
from .partitions import (
    MultiPartition,
    Partition,
    odd_partitions,
    partitions_of,
)

PExpr = dict[Partition, Fraction]


# -- single-alphabet helpers -----------------------------------------------


def p_scale(f: PExpr, c) -> PExpr:
    c = Fraction(c)
    return {k: v * c for k, v in f.items() if v * c}


def p_add(a: PExpr, b: PExpr) -> PExpr:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, Fraction(0)) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def p_mul(a: PExpr, b: PExpr) -> PExpr:
    out: PExpr = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka.union(kb)
            w = out.get(k, Fraction(0)) + va * vb
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return out


def psi_twist(f: PExpr, c) -> PExpr:
    """The ring map p_r -> c * p_r, i.e. p_rho -> c^len(rho) p_rho."""
    c = Fraction(c)
    return {k: v * c ** len(k) for k, v in f.items()}


def p_inner_alpha(a: PExpr, b: PExpr, alpha) -> Fraction:
    """<p_l, p_m> = delta * z_l * alpha^len(l)."""
    alpha = Fraction(alpha)
    tot = Fraction(0)
    for k, v in a.items():
        w = b.get(k)
        if w:
            tot += v * w * k.aut_order() * alpha ** len(k)
    return tot


# -- symmetric group characters ---------------------------------------------


def _partition_from_beta(beta: tuple[int, ...]) -> Partition:
    k = len(beta)
    return Partition(p for i, b in enumerate(beta) if (p := b - (k - 1 - i)) > 0)


@cache
def sym_character(lam: Partition, rho: Partition) -> int:
    """Irreducible symmetric-group character value, by border-strip recursion."""
    if lam.size != rho.size:
        raise ValueError(f"weight mismatch: |{lam}| != |{rho}|")
    if lam.size == 0:
        return 1
    r = rho.parts[0]
    rest = Partition(rho.parts[1:])
    k = len(lam)
    beta = tuple(lam.parts[i] + (k - 1 - i) for i in range(k))
    bset = set(beta)
    total = 0
    for b in beta:
        if b >= r and (b - r) not in bset:
            height = sum(1 for a in beta if b - r < a < b)
            newbeta = tuple(sorted(set(beta) - {b} | {b - r}, reverse=True))
            total += (-1) ** height * sym_character(_partition_from_beta(newbeta), rest)
    return total


@cache
def schur_p(lam: Partition) -> tuple[tuple[Partition, Fraction], ...]:
    """Schur function: sum over rho of chi^lam_rho / z_rho * p_rho."""
    out = []
    for rho in partitions_of(lam.size):
        c = sym_character(lam, rho)
        if c:
            out.append((rho, Fraction(c, rho.aut_order())))
    return tuple(out)


def schur_p_expr(lam: Partition) -> PExpr:
    return dict(schur_p(lam))


# -- monomial basis plumbing -------------------------------------------------


def _mono_mul_p(f: dict[Partition, Fraction], r: int) -> dict[Partition, Fraction]:
    """Multiply an m-basis expansion by p_r."""
    out: dict[Partition, Fraction] = {}
    for mu, c in f.items():
        values = set(mu.parts) | {0}
        for v in values:
            parts = list(mu.parts)
            if v:
                parts.remove(v)
            parts.append(v + r)
            nu = Partition(sorted(parts, reverse=True))
            mult = nu.mult(v + r)
            w = out.get(nu, Fraction(0)) + c * mult
            if w:
                out[nu] = w
            else:
                out.pop(nu, None)
    return out


@cache
def _p_to_m(rho: Partition) -> tuple[tuple[Partition, Fraction], ...]:
    f = {Partition(): Fraction(1)}
    for r in rho.parts:
        f = _mono_mul_p(f, r)
    return tuple(sorted(f.items(), key=lambda kv: kv[0].parts))


@cache
def _m_to_p_table(n: int) -> dict[Partition, PExpr]:
    """Each m_mu of weight n as a p-expansion, by inverting the p->m matrix."""
    basis = list(partitions_of(n))
    index = {p: i for i, p in enumerate(basis)}
    size = len(basis)
    # rows: p_rho in m-basis
    mat = [[Fraction(0)] * size for _ in range(size)]
    for i, rho in enumerate(basis):
        for mu, c in _p_to_m(rho):
            mat[i][index[mu]] = c
    # invert
    aug = [row[:] + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(mat)]
    for c in range(size):
        piv = next(i for i in range(c, size) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(size):
            if i != c and aug[i][c]:
                fct = aug[i][c]
                aug[i] = [x - fct * y for x, y in zip(aug[i], aug[c])]
    # mat[i][j] = coeff of m_j in p_i   =>   m_j = sum_i (mat^-1)[j][i] p_i
    invmat = [row[size:] for row in aug]
    out: dict[Partition, PExpr] = {}
    for j, mu in enumerate(basis):
        expr: PExpr = {}
        for i, rho in enumerate(basis):
            if invmat[j][i]:
                expr[rho] = invmat[j][i]
        out[mu] = expr
    return out


def monomial_p(mu: Partition) -> PExpr:
    return dict(_m_to_p_table(mu.size)[mu])


def p_to_m(f: PExpr) -> dict[Partition, Fraction]:
    out: dict[Partition, Fraction] = {}
    for rho, c in f.items():
        for mu, d in _p_to_m(rho):
            w = out.get(mu, Fraction(0)) + c * d
            if w:
                out[mu] = w
            else:
                out.pop(mu, None)
    return out


# -- Jack symmetric functions -------------------------------------------------


def _dominance_key(lam: Partition, n: int) -> tuple[int, ...]:
    sums = []
    acc = 0
    for i in range(n):
        acc += lam.parts[i] if i < len(lam.parts) else 0
        sums.append(acc)
    return tuple(sums)


@cache
def jack_p(lam: Partition, alpha: Fraction) -> tuple[tuple[Partition, Fraction], ...]:
    """Jack polynomial at parameter alpha, normalized so the coefficient of
    the squarefree monomial m_(1^n) equals n!, as a p-expansion."""
    alpha = Fraction(alpha)
    n = lam.size
    if n == 0:
        return ((Partition(), Fraction(1)),)
    order = sorted(partitions_of(n), key=lambda p: _dominance_key(p, n))
    built: list[tuple[Partition, PExpr, Fraction]] = []
    target: PExpr | None = None
    for mu in order:
        f = monomial_p(mu)
        for _, g, gnorm in built:
            c = p_inner_alpha(f, g, alpha)
            if c:
                f = p_add(f, p_scale(g, -c / gnorm))
        built.append((mu, f, p_inner_alpha(f, f, alpha)))
        if mu == lam:
            target = f
            break
    assert target is not None
    ones = Partition([1] * n)
    lead = p_to_m(target).get(ones)
    if not lead:
        raise ArithmeticError("vanishing squarefree coefficient in Jack element")
    import math

    target = p_scale(target, Fraction(math.factorial(n)) / lead)
    return tuple(sorted(target.items(), key=lambda kv: kv[0].parts))


def jack_p_expr(lam: Partition, alpha) -> PExpr:
    return dict(jack_p(lam, Fraction(alpha)))


# -- Schur Q-functions ---------------------------------------------------------


@cache
def qfunc_p(r: int) -> tuple[tuple[Partition, Fraction], ...]:
    """The one-row Q generator: coefficient of t^r in exp(2 sum_odd p_k t^k / k)."""
    if r == 0:
        return ((Partition(), Fraction(1)),)
    out: PExpr = {}
    for kappa in odd_partitions(r):
        out[kappa] = Fraction(2 ** len(kappa), kappa.aut_order())
    return tuple(sorted(out.items(), key=lambda kv: kv[0].parts))


def _q_two(a: int, b: int) -> PExpr:
    """Two-row Q for a > b >= 0."""
    if b == 0:
        return dict(qfunc_p(a))
    out = p_mul(dict(qfunc_p(a)), dict(qfunc_p(b)))
    for i in range(1, b + 1):
        term = p_mul(dict(qfunc_p(a + i)), dict(qfunc_p(b - i)))
        out = p_add(out, p_scale(term, Fraction(2 * (-1) ** i)))
    return out


@cache
def schurq_p(lam: Partition) -> tuple[tuple[Partition, Fraction], ...]:
    """Schur Q-function of a strict partition, by the recursive expansion of
    its two-row building blocks along the first row."""
    if not lam.is_strict():
        raise ValueError(f"Q requires a strict partition, got {lam}")
    out = _schurq_rows(lam.parts)
    return tuple(sorted(out.items(), key=lambda kv: kv[0].parts))


def _schurq_rows(rows: tuple[int, ...]) -> PExpr:
    rows = tuple(r for r in rows if r > 0)
    if len(rows) == 0:
        return {Partition(): Fraction(1)}
    if len(rows) == 1:
        return dict(qfunc_p(rows[0]))
    if len(rows) == 2:
        return _q_two(rows[0], rows[1])
    padded = rows if len(rows) % 2 == 0 else rows + (0,)
    out: PExpr = {}
    for j in range(1, len(padded)):
        rest = padded[1:j] + padded[j + 1 :]
        term = p_mul(_q_two(padded[0], padded[j]), _schurq_rows(rest))
        out = p_add(out, p_scale(term, Fraction((-1) ** (j + 1))))
    return out


def schurq_p_expr(lam: Partition) -> PExpr:
    return dict(schurq_p(lam))


# -- multi-alphabet elements -----------------------------------------------------


class SymFuncElem:
    """A finite p-basis combination over a fixed ordered label alphabet,
    with cyclotomic coefficients.  Immutable by convention."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms: dict[MultiPartition, CycNum] | None = None):
        self.alphabet = tuple(alphabet)
        clean = {}
        for k, v in (terms or {}).items():
            if len(k) != len(self.alphabet):
                raise ValueError("key does not match alphabet size")
            if not isinstance(v, CycNum):
                v = CycNum.rational(v)
            if v:
                clean[k] = v
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(alphabet) -> "SymFuncElem":
        alphabet = tuple(alphabet)
        key = MultiPartition([Partition()] * len(alphabet))
        return SymFuncElem(alphabet, {key: ONE})

    @staticmethod
    def power(alphabet, slot: int, rho: Partition) -> "SymFuncElem":
        """p_rho in the given slot."""
        alphabet = tuple(alphabet)
        parts = [Partition()] * len(alphabet)
        parts[slot] = rho
        return SymFuncElem(alphabet, {MultiPartition(parts): ONE})

    @staticmethod
    def from_p_expr(alphabet, slot: int, f: PExpr) -> "SymFuncElem":
        alphabet = tuple(alphabet)
        terms = {}
        for rho, c in f.items():
            parts = [Partition()] * len(alphabet)
            parts[slot] = rho
            terms[MultiPartition(parts)] = CycNum.rational(c)
        return SymFuncElem(alphabet, terms)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "SymFuncElem"):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")

    def __add__(self, other: "SymFuncElem") -> "SymFuncElem":
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, ZERO) + v
        return SymFuncElem(self.alphabet, terms)

    def __sub__(self, other: "SymFuncElem") -> "SymFuncElem":
        return self + other.scale(-1)

    def scale(self, c) -> "SymFuncElem":
        if not isinstance(c, CycNum):
            c = CycNum.rational(c)
        return SymFuncElem(self.alphabet, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "SymFuncElem") -> "SymFuncElem":
        self._check(other)
        terms: dict[MultiPartition, CycNum] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1.union(k2)
                terms[k] = terms.get(k, ZERO) + v1 * v2
        return SymFuncElem(self.alphabet, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymFuncElem)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, key: MultiPartition) -> CycNum:
        return self.terms.get(key, ZERO)

    def degrees(self) -> set[int]:
        return {k.weight for k in self.terms}

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        body = " + ".join(f"({v})*p[{k.to_json(self.alphabet)}]" for k, v in items)
        return f"SymFuncElem({body or '0'})"

    # -- change of variables ----------------------------------------------------

    def change_alphabet(self, coeff, target) -> "SymFuncElem":
        """Apply the ring homomorphism p_r(a) -> sum_b coeff(a, b, r) p_r(b).

        coeff takes (source label, target label, degree r) and returns a CycNum.
        """
        target = tuple(target)
        empty = MultiPartition([Partition()] * len(target))
        out: dict[MultiPartition, CycNum] = {}
        for key, c in self.terms.items():
            acc: dict[MultiPartition, CycNum] = {empty: c}
            for slot, lam in enumerate(key):
                a = self.alphabet[slot]
                for r in lam:
                    images = []
                    for bi, b in enumerate(target):
                        w = coeff(a, b, r)
                        if not isinstance(w, CycNum):
                            w = CycNum.rational(w)
                        if w:
                            images.append((bi, w))
                    nxt: dict[MultiPartition, CycNum] = {}
                    for mp, v in acc.items():
                        for bi, w in images:
                            parts = list(mp.parts)
                            parts[bi] = parts[bi].union(Partition((r,)))
                            nk = MultiPartition(parts)
                            nxt[nk] = nxt.get(nk, ZERO) + v * w
                    acc = nxt
            for mp, v in acc.items():
                out[mp] = out.get(mp, ZERO) + v
        return SymFuncElem(target, out)

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        return {
            "alphabet": [str(a) for a in self.alphabet],
            "terms": [
                {"key": k.to_json(self.alphabet), "coeff": str(v)} for k, v in items
            ],
        }

    @staticmethod
    def from_json(obj: dict, alphabet=None) -> "SymFuncElem":
        from .cyclo import parse_cyc

        labels = tuple(obj["alphabet"]) if alphabet is None else tuple(alphabet)
        terms = {}
        for t in obj["terms"]:
            key = MultiPartition.from_json(t["key"], labels)
            terms[key] = parse_cyc(t["coeff"])
        return SymFuncElem(labels, terms)
