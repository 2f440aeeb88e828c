"""Symmetric functions in the power-sum basis, single- and multi-alphabet.

Single-alphabet elements are plain dicts Partition -> Fraction over the
p-basis; the classical families (Schur, Schur Q, Jack) are produced as
such expansions, Jack and Schur Q by one Gram-Schmidt helper.

Multi-alphabet elements (SymFuncElem) carry cyclotomic coefficients and
support the change-of-variables ring homomorphisms used to compare
Hecke-algebra images with products of classical symmetric functions.
They are stored as one exact integer kernel:
  - each monomial prod p_r(slot)^m is one packed int, m in the 8-bit field
    (r - 1) * S + slot (S the alphabet size), so multiplying two monomials
    is one integer addition; a product whose factors' weights sum past
    255 is refused, since a field could overflow into its neighbour;
  - each coefficient is an integer vector in Z[x]/(x^N - 1), N the lcm of
    the conductors in play, over one denominator per element; products
    are cyclic convolutions (cyclo.convolve_into);
  - a vector is reduced mod Phi_N, with its conductor descended, only
    where it leaves as a CycNum (cyclo.vector_cyc): in coefficient, in
    the decoded and cached terms, and in ==, bool and to_json.
See NOTES.md, "Packed symmetric-function kernel".

All values are immutable by convention; the memoization caches on the
expansion functions are append-only and safe for concurrent readers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .cyclo import CycNum, ZERO, convolve_into, cyc_vector, vector_cyc
from .partitions import (
    EMPTY,
    MultiPartition,
    Partition,
    odd_partitions,
    partitions_of,
    strict_partitions,
)

PExpr = dict[Partition, Fraction]
PTerms = tuple[tuple[Partition, Fraction], ...]  # a cached p-expansion's pairs


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
def schur_p(lam: Partition) -> PTerms:
    """Schur function: sum over rho of chi^lam_rho / z_rho * p_rho."""
    out = []
    for rho in partitions_of(lam.size):
        c = sym_character(lam, rho)
        if c:
            out.append((rho, Fraction(c, rho.aut_order())))
    return tuple(out)


# -- Gram-Schmidt -----------------------------------------------------------------


def _orthogonalize(pairs, alpha) -> dict[Partition, PExpr]:
    """One Gram-Schmidt pass under p_inner_alpha, in the order given, over
    (label, p-expansion) pairs: each label keeps its expansion less its
    projections on the vectors built before it."""
    built: dict[Partition, tuple[PExpr, Fraction]] = {}
    for label, f in pairs:
        for g, gnorm in built.values():
            c = p_inner_alpha(f, g, alpha)
            if c:
                f = p_add(f, p_scale(g, -c / gnorm))
        built[label] = (f, p_inner_alpha(f, f, alpha))
    return {label: f for label, (f, _) in built.items()}


# -- Jack symmetric functions -------------------------------------------------


@cache
def _jack_basis(n: int, alpha: Fraction) -> dict[Partition, PExpr]:
    """Every Jack element of weight n at parameter alpha, up to scalars: one
    Gram-Schmidt pass over the Schur functions in increasing lexicographic
    order, a linear extension of dominance.  s_lambda is m_lambda plus
    m_mu of mu below lambda, so the Schur functions up to lambda span the
    monomials up to lambda, and the pass keeps the monic P_lambda."""
    return _orthogonalize(
        ((lam, dict(schur_p(lam))) for lam in reversed(partitions_of(n))), alpha
    )


@cache
def jack_p(lam: Partition, alpha: Fraction) -> PTerms:
    """Jack polynomial at parameter alpha, normalized so the coefficient of
    the squarefree monomial m_(1^n) equals n!, as a p-expansion.  Only
    p_(1^n) contains m_(1^n), with coefficient n!, so that is a coefficient
    of 1 at p_(1^n)."""
    n = lam.size
    if n == 0:
        return ((Partition(), Fraction(1)),)
    f = _jack_basis(n, Fraction(alpha))[lam]
    lead = f.get(Partition([1] * n))
    if not lead:
        raise ArithmeticError("vanishing squarefree coefficient in Jack element")
    return tuple(sorted(p_scale(f, 1 / lead).items(), key=lambda kv: kv[0].parts))


# -- Schur Q-functions ---------------------------------------------------------


@cache
def qfunc_p(r: int) -> PTerms:
    """The one-row Q generator: coefficient of t^r in exp(2 sum_odd p_k t^k / k)."""
    if r == 0:
        return ((Partition(), Fraction(1)),)
    out: PExpr = {}
    for kappa in odd_partitions(r):
        out[kappa] = Fraction(2 ** len(kappa), kappa.aut_order())
    return tuple(sorted(out.items(), key=lambda kv: kv[0].parts))


def _q_product(mu: Partition) -> PExpr:
    """q_mu, the product of the one-row generators q_r over the parts of mu."""
    f: PExpr = {EMPTY: Fraction(1)}
    for r in mu.parts:
        f = p_mul(f, dict(qfunc_p(r)))
    return f


@cache
def _schurq_basis(n: int) -> dict[Partition, PExpr]:
    """Every Schur Q-function of weight n: one Gram-Schmidt pass at
    alpha = 1/2 over the products q_mu of strict mu, most dominant first.
    q_mu is Q_mu plus Q_nu of nu above mu in dominance (Macdonald III.8),
    and Q_mu is orthogonal to those, so the pass returns Q_mu exactly."""
    return _orthogonalize(
        ((mu, _q_product(mu)) for mu in strict_partitions(n)), Fraction(1, 2)
    )


@cache
def schurq_p(lam: Partition) -> PTerms:
    """Schur Q-function of a strict partition, read from its weight's basis."""
    if not lam.is_strict():
        raise ValueError(f"Q requires a strict partition, got {lam}")
    out = _schurq_basis(lam.size)[lam]
    return tuple(sorted(out.items(), key=lambda kv: kv[0].parts))


# -- multi-alphabet elements -----------------------------------------------------

# Packed keys: over an alphabet of S labels, the multiplicity of p_r(slot)
# sits in the W-bit field (r - 1) * S + slot of one int, so a monomial
# product is one integer addition.  W = 8, so the fields are the int's bytes.
_W = 8
_FIELD_MAX = (1 << _W) - 1


def _pack_partition(lam: Partition, slot: int, size: int) -> int:
    key = 0
    for r, m in lam.multiplicities().items():
        if m > _FIELD_MAX:
            raise OverflowError(
                f"multiplicity {m} of part {r} exceeds the packed field limit {_FIELD_MAX}"
            )
        key += m << (_W * ((r - 1) * size + slot))
    return key


def pack_key(key: MultiPartition) -> int:
    """The packed monomial of a multipartition key over len(key) labels."""
    size = len(key)
    return sum(_pack_partition(lam, slot, size) for slot, lam in enumerate(key))


def _fields(key: int) -> bytes:
    return key.to_bytes((key.bit_length() + 7) // 8, "little")


def unpack_key(key: int, size: int) -> MultiPartition:
    """The multipartition over size labels of a packed monomial."""
    parts: list[list[int]] = [[] for _ in range(size)]
    for index, m in enumerate(_fields(key)):
        if m:
            r, slot = divmod(index, size)
            parts[slot] += [r + 1] * m
    return MultiPartition(Partition(p[::-1]) if p else EMPTY for p in parts)


def _lift(vecs: dict[int, list[int]], m: int, n: int) -> dict[int, list[int]]:
    """Vectors of Z[x]/(x^m - 1) inside Z[x]/(x^n - 1), m | n: x -> x^(n/m)."""
    if m == n:
        return vecs
    step = n // m
    out = {}
    for k, v in vecs.items():
        w = [0] * n
        w[::step] = v
        out[k] = w
    return out


def _product(a: dict[int, list[int]], b: dict[int, list[int]], n: int):
    """The product of two packed expansions over Z[x]/(x^n - 1)."""
    out: dict[int, list[int]] = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            acc = out.get(k)
            if acc is None:
                acc = out[k] = [0] * n
            convolve_into(acc, v1, v2)
    return out


def _cyc_vectors(cycs: dict[int, CycNum]) -> tuple[int, dict[int, list[int]], int]:
    """Packed key -> CycNum as (N, packed key -> vector, denominator), over
    the lcm N of the conductors and one common denominator."""
    n = lcm(1, *(v.conductor for v in cycs.values()))
    pairs = {k: cyc_vector(v, n) for k, v in cycs.items()}
    den = lcm(1, *(d for _, d in pairs.values()))
    return n, {k: [x * (den // d) for x in v] for k, (v, d) in pairs.items()}, den


class SymFuncElem:
    """A finite p-basis combination over a fixed ordered label alphabet,
    with cyclotomic coefficients.  Immutable by convention.

    Stored as packed monomial keys -> integer vectors in Z[x]/(x^N - 1)
    over one common denominator, N the lcm of the conductors in play.
    Vectors are reduced mod Phi_N only where a coefficient leaves as a
    CycNum (coefficient, terms, ==, bool, to_json)."""

    __slots__ = ("alphabet", "_n", "_vecs", "_den", "_weight", "_reduced", "_terms")

    def __new__(cls, alphabet, terms: dict[MultiPartition, CycNum] | None = None):
        alphabet = tuple(alphabet)
        cycs: dict[int, CycNum] = {}
        weight = 0
        for k, v in (terms or {}).items():
            if len(k) != len(alphabet):
                raise ValueError("key does not match alphabet size")
            if not isinstance(v, CycNum):
                v = CycNum.rational(v)
            if v:
                cycs[pack_key(k)] = v
                weight = max(weight, k.weight)
        return cls._from_vectors(alphabet, *_cyc_vectors(cycs), weight)

    @classmethod
    def _from_vectors(cls, alphabet, n: int, vecs: dict[int, list[int]], den: int, weight):
        """An element from integer vectors; zero vectors are dropped and the
        common factor of the numerators and den is cancelled."""
        vecs = {k: v for k, v in vecs.items() if any(v)}
        g = gcd(den, *(x for v in vecs.values() for x in v))
        if g > 1:
            vecs = {k: [x // g for x in v] for k, v in vecs.items()}
            den //= g
        out = object.__new__(cls)
        out.alphabet, out._n, out._vecs, out._den = alphabet, n, vecs, den
        out._weight, out._reduced, out._terms = weight, None, None
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(alphabet) -> "SymFuncElem":
        return SymFuncElem._from_vectors(tuple(alphabet), 1, {0: [1]}, 1, 0)

    @staticmethod
    def from_p_expr(f: PTerms) -> "SymFuncElem":
        """f, as (partition, coefficient) pairs, in the power sums of the
        one-letter alphabet ("x",), which change_alphabet pushes into the
        class alphabets."""
        cycs = {_pack_partition(rho, 0, 1): CycNum.rational(c) for rho, c in f if c}
        weight = max((rho.size for rho, _ in f), default=0)
        return SymFuncElem._from_vectors(("x",), *_cyc_vectors(cycs), weight)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "SymFuncElem"):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")

    def __add__(self, other: "SymFuncElem") -> "SymFuncElem":
        self._check(other)
        n, den = lcm(self._n, other._n), lcm(self._den, other._den)
        out: dict[int, list[int]] = {}
        for elem in (self, other):
            f = den // elem._den
            for k, v in _lift(elem._vecs, elem._n, n).items():
                acc = out.get(k)
                if acc is None:
                    acc = out[k] = [0] * n
                for i, x in enumerate(v):
                    acc[i] += x * f
        weight = max(self._weight, other._weight)
        return SymFuncElem._from_vectors(self.alphabet, n, out, den, weight)

    def scale(self, q: Fraction | int) -> "SymFuncElem":
        """self times the rational q (a Fraction or an int): the numerators
        times q's numerator, the denominator times its denominator."""
        vecs = {k: [x * q.numerator for x in v] for k, v in self._vecs.items()}
        den = self._den * q.denominator
        return SymFuncElem._from_vectors(self.alphabet, self._n, vecs, den, self._weight)

    def __mul__(self, other: "SymFuncElem") -> "SymFuncElem":
        self._check(other)
        weight = self._weight + other._weight
        if weight > _FIELD_MAX:
            raise OverflowError(
                f"product of weights {self._weight} and {other._weight} exceeds "
                f"{_FIELD_MAX}, the limit of a packed multiplicity field"
            )
        n = lcm(self._n, other._n)
        vecs = _product(_lift(self._vecs, self._n, n), _lift(other._vecs, other._n, n), n)
        den = self._den * other._den
        return SymFuncElem._from_vectors(self.alphabet, n, vecs, den, weight)

    def sign_twist(self) -> "SymFuncElem":
        """The ring map p_r(a) -> -p_r(a): each monomial times (-1)^(its
        number of parts), the sum of its packed fields."""
        vecs = {
            k: [-x for x in v] if sum(_fields(k)) & 1 else v for k, v in self._vecs.items()
        }
        n, den = self._n, self._den
        return SymFuncElem._from_vectors(self.alphabet, n, vecs, den, self._weight)

    # -- reduction to CycNum ---------------------------------------------------

    def _cycs(self) -> dict[int, CycNum]:
        """Packed key -> coefficient, for the coefficients nonzero mod Phi_N."""
        if self._reduced is None:
            reduced = {}
            for k, v in self._vecs.items():
                c = vector_cyc(v, self._den)
                if c:
                    reduced[k] = c
            self._reduced = reduced
        return self._reduced

    @property
    def terms(self) -> dict[MultiPartition, CycNum]:
        """Multipartition key -> nonzero coefficient, decoded once."""
        if self._terms is None:
            size = len(self.alphabet)
            self._terms = {unpack_key(k, size): v for k, v in self._cycs().items()}
        return self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymFuncElem)
            and self.alphabet == other.alphabet
            and self._cycs() == other._cycs()
        )

    def __bool__(self) -> bool:
        return bool(self._cycs())

    def coefficient(self, key: int, scale: Fraction | int = 1) -> CycNum:
        """The coefficient of a packed key, times a rational scale."""
        vec = self._vecs.get(key)
        if vec is None:
            return ZERO
        num = scale.numerator
        if num != 1:
            vec = [x * num for x in vec]
        return vector_cyc(vec, self._den * scale.denominator)

    def coefficients(
        self, cols: list[tuple[int, Fraction | int]], seen: dict
    ) -> list[CycNum]:
        """The coefficients of (packed key, rational scale) columns, in order.
        Each read-out is memoized in seen by (vector, denominator, scale):
        those fix the reduced value, so equal keys share one CycNum, and
        a seen kept across rows reduces each distinct read-out once."""
        vecs, den = self._vecs, self._den
        out = []
        for key, scale in cols:
            vec = vecs.get(key)
            if vec is None:
                out.append(ZERO)
                continue
            memo = (tuple(vec), den, scale.numerator, scale.denominator)
            c = seen.get(memo)
            if c is None:
                c = seen[memo] = self.coefficient(key, scale)
            out.append(c)
        return out

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        body = " + ".join(f"({v})*p[{k.to_json(self.alphabet)}]" for k, v in items)
        return f"SymFuncElem({body or '0'})"

    # -- change of variables ----------------------------------------------------

    def change_alphabet(self, coeff, target, images: dict | None = None) -> "SymFuncElem":
        """Apply the ring homomorphism p_r(a) -> sum_b coeff(a, b, r) p_r(b).

        coeff takes (source label, target label, degree r) and returns a
        CycNum.  images memoizes the image of each source monomial, as
        (N, packed key -> vector, denominator), by its packed key: the
        image of a monomial is that of the monomial less its lowest field
        times that of the field.  Elements pushed by one map (the same
        coeff, source and target alphabets) may share one images dict, so
        each monomial, and each (a, b, r), is pushed once across them; a
        memo is valid for that one map only.
        """
        target = tuple(target)
        size, tsize = len(self.alphabet), len(target)
        if self._weight > _FIELD_MAX:
            raise OverflowError(
                f"weight {self._weight} exceeds {_FIELD_MAX}, the limit of a "
                "packed multiplicity field"
            )
        if images is None:
            images = {}

        def field_image(unit: int):
            """The image of p_r(a), unit the packed monomial of that field."""
            r, slot = divmod((unit.bit_length() - 1) // _W, size)
            cycs = {}
            for bi, b in enumerate(target):
                w = coeff(self.alphabet[slot], b, r + 1)
                if not isinstance(w, CycNum):
                    w = CycNum.rational(w)
                if w:
                    cycs[1 << (_W * (r * tsize + bi))] = w
            return _cyc_vectors(cycs)

        def image(key: int):
            """The image of a monomial, memoized in images; one recursion
            per field unit, so at most the weight (<= 255) deep."""
            if not key:
                return (1, {0: [1]}, 1)
            got = images.get(key)
            if got is None:
                unit = 1 << (_W * (((key & -key).bit_length() - 1) // _W))
                if unit == key:
                    got = field_image(unit)
                else:
                    rest, u = image(key - unit), image(unit)
                    m = lcm(rest[0], u[0])
                    vecs = _product(_lift(rest[1], rest[0], m), _lift(u[1], u[0], m), m)
                    got = (m, vecs, rest[2] * u[2])
                images[key] = got
            return got

        pushed = {key: image(key) for key in self._vecs}
        n = lcm(self._n, *(m for m, _, _ in pushed.values()))
        d = lcm(1, *(den for _, _, den in pushed.values()))
        out: dict[int, list[int]] = {}
        for key, vec in _lift(self._vecs, self._n, n).items():
            m, vecs, den = pushed[key]
            # the term's coefficient, brought to the denominator d
            f = d // den
            c = [x * f for x in vec]
            for k, v in _lift(vecs, m, n).items():
                acc = out.get(k)
                if acc is None:
                    acc = out[k] = [0] * n
                convolve_into(acc, c, v)
        return SymFuncElem._from_vectors(target, n, out, self._den * d, self._weight)

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        return {
            "alphabet": [str(a) for a in self.alphabet],
            "terms": [
                {"key": k.to_json(self.alphabet), "coeff": str(v)} for k, v in items
            ],
        }
