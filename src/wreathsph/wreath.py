"""Wreath products G wr S_n: elements, class types, irreducible characters,
the doubled-base subgroup of G wr S_2n with its linear characters and the
one each character block sees (block_pi), the shapes of a self-paired block
and the mu each one stands for (self_row_shapes), double coset
representatives, and the induced-character decomposition machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations, product as iproduct
from math import factorial

from .cyclo import CycNum, ONE, sum_products
from .groups import (
    Caps,
    CapExceeded,
    CharacterTable,
    FiniteGroup,
    GroupError,
    fuse_classes,
)
from .partitions import (
    EMPTY,
    MultiPartition,
    Partition,
    doubling,
    multipartitions,
    multipartitions_constrained,
    odd_partitions,
    ordered_choices,
    partitions_of,
    strict_partitions,
)
from .symfunc import SymFuncElem, pack_key, schur_p, sym_character

Perm = tuple[int, ...]

PI_NAMES = ("triv", "delta", "iota", "delta-iota")
# The bits of pi's index in PI_NAMES: which of delta and iota pi contains.
DELTA, IOTA = 1, 2


def pi_bits(pi: str) -> int:
    """pi's index in PI_NAMES, whose bits DELTA and IOTA say which of delta
    and iota pi contains."""
    try:
        return PI_NAMES.index(pi)
    except ValueError:
        raise ValueError(f"unknown pi name {pi!r}; expected one of {PI_NAMES}") from None


def epsilon_sign(pi: str) -> int:
    """+1 for the unsigned pair of linear characters, -1 for the signed pair."""
    return -1 if pi_bits(pi) & IOTA else 1


def delta_twin(pi: str) -> str:
    """pi times delta: triv <-> delta and iota <-> delta-iota."""
    return PI_NAMES[pi_bits(pi) ^ DELTA]


def block_pi(pi: str, nu: int) -> str:
    """The linear character a character block sees: pi times delta on a
    self-paired row whose twisted indicator nu is -1 (Jack duality,
    Macdonald VI (10.24)), pi itself otherwise (nu = 1, or 0 on a split
    pair).  Where it contains delta, the block is read at the transposed
    shape and sign-twisted (sgn restricted to H_n is delta)."""
    return delta_twin(pi) if nu == -1 else pi


@cache
def self_row_shapes(bits: int, m: int) -> dict[Partition, Partition]:
    """Shape -> mu for a self-paired block of weight 2m whose block_pi has
    these pi_bits: the shape of mu's classical spherical function
    (Macdonald VII.2 and III.8) is 2mu for mu |- m without iota (J^(2)_mu),
    the double of a strict mu |- m with iota (Q_mu), transposed with
    delta.  Its keys are the block's shapes."""
    if bits & IOTA:
        shapes = {doubling(mu): mu for mu in strict_partitions(m)}
    else:
        shapes = {Partition(tuple(2 * p for p in mu)): mu for mu in partitions_of(m)}
    if bits & DELTA:
        return {shape.transpose(): mu for shape, mu in shapes.items()}
    return shapes


# -- permutations -------------------------------------------------------------


def p_identity(n: int) -> Perm:
    return tuple(range(n))


def p_compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def p_inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def p_cycles(perm: Perm) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(tuple(cyc))
    return cycles


def p_sign(perm: Perm) -> int:
    return (-1) ** sum(len(c) - 1 for c in p_cycles(perm))


def perm_of_partition(rho: Partition) -> Perm:
    """The block permutation with one full cycle per part, in part order."""
    out = []
    start = 0
    for p in rho:
        out.extend(list(range(start + 1, start + p)) + [start])
        start += p
    return tuple(out)


# -- wreath elements -----------------------------------------------------------


@dataclass(frozen=True)
class WreathElement:
    """(g_1, ..., g_n : sigma) with g_i group-element indices, sigma one-line."""

    base: tuple[int, ...]
    perm: Perm


def w_identity(n: int) -> WreathElement:
    return WreathElement((0,) * n, p_identity(n))


def w_mul(group: FiniteGroup, x: WreathElement, y: WreathElement) -> WreathElement:
    sinv = p_inverse(x.perm)
    base = tuple(group.mul[x.base[i]][y.base[sinv[i]]] for i in range(len(x.base)))
    return WreathElement(base, p_compose(x.perm, y.perm))


def w_inv(group: FiniteGroup, x: WreathElement) -> WreathElement:
    base = tuple(group.inv[x.base[x.perm[j]]] for j in range(len(x.base)))
    return WreathElement(base, p_inverse(x.perm))


def class_type(group: FiniteGroup, x: WreathElement) -> MultiPartition:
    """The conjugacy invariant: per group class, the cycle lengths of the
    permutation part whose cycle products land in that class."""
    per_class: list[list[int]] = [[] for _ in group.classes]
    sinv = p_inverse(x.perm)
    for cyc in p_cycles(x.perm):
        j = cyc[0]
        prod = 0
        cur = j
        for _ in cyc:
            prod = group.mul[prod][x.base[cur]]
            cur = sinv[cur]
        per_class[group.class_of[prod]].append(len(cyc))
    return MultiPartition(
        Partition(sorted(parts, reverse=True)) for parts in per_class
    )


def wreath_order(group: FiniteGroup, n: int) -> int:
    return group.order**n * factorial(n)


def k_order(group: FiniteGroup, n: int) -> int:
    """|K| = |G|^n 2^n n!, the order of the doubled-base subgroup of G wr S_2n."""
    return group.order**n * 2**n * factorial(n)


def type_centralizer_order(group: FiniteGroup, tau: MultiPartition) -> int:
    out = 1
    for zc, part in zip(group.centralizer_orders, tau):
        out *= part.aut_order() * zc ** len(part)
    return out


# -- irreducible characters ------------------------------------------------------


def wreath_dim(table: CharacterTable, lam: MultiPartition) -> int:
    """Dimension of the irreducible indexed by a multipartition over rows."""
    n = lam.weight
    out = Fraction(factorial(n))
    for chi, part in enumerate(lam):
        out *= Fraction(table.degrees[chi] ** part.size, factorial(part.size))
        out *= part.dim_sym()
    assert out.denominator == 1
    return int(out)


def _pushed_schur(table: CharacterTable, chi: int, part: Partition) -> SymFuncElem:
    """s_part pushed into the class alphabet by p_r(chi) -> sum_c chi(c)/zeta_c
    p_r(c), memoized on the table.  Each power-sum monomial is pushed once
    per (table, chi), so each weight chi(c)/zeta_c is formed once per
    (table, chi, c, r)."""
    key = (chi, part)
    image = table._schur_images.get(key)
    if image is None:
        row, zc = table.rows[chi], table.group.centralizer_orders
        images = table._monomial_images.setdefault(chi, {})
        image = SymFuncElem.from_p_expr(schur_p(part)).change_alphabet(
            lambda _a, c, _r: row[c] * Fraction(1, zc[c]), range(len(row)), images
        )
        table._schur_images[key] = image
    return image


def _character_image(table: CharacterTable, lam: MultiPartition) -> SymFuncElem:
    """prod_chi s_lam(chi), pushed into the class alphabet."""
    image = SymFuncElem.one(range(len(table.group.classes)))
    for chi, part in enumerate(lam):
        if part.size:
            image = image * _pushed_schur(table, chi, part)
    return image


def wreath_columns(
    table: CharacterTable, n: int
) -> tuple[tuple[MultiPartition, ...], list[tuple[int, int]]]:
    """The class types of degree n, in multipartitions order, and per type
    its (packed key, Z_tau): the columns of the full table, formed once per
    (table, n)."""
    cols = table._wreath_columns.get(n)
    if cols is None:
        group = table.group
        taus = multipartitions(len(group.classes), n)
        cols = table._wreath_columns[n] = (
            taus, [(pack_key(tau), type_centralizer_order(group, tau)) for tau in taus]
        )
    return cols


def wreath_character_values(table: CharacterTable, lam: MultiPartition) -> list[CycNum]:
    """The irreducible S(lam) at every class type of its degree, aligned with
    wreath_columns(table, lam.weight), by the characteristic map:
    chi^lam(tau) = Z_tau [P_tau] prod_chi s_lam(chi).  Each distinct
    read-out of (vector, denominator, Z_tau) is reduced once per table."""
    _taus, cols = wreath_columns(table, lam.weight)
    return _character_image(table, lam).coefficients(cols, table._row_reads)


def wreath_character(
    table: CharacterTable, lam: MultiPartition, tau: MultiPartition
) -> CycNum:
    """Character of the irreducible S(lam) at the class of type tau, read
    from the row wreath_character_values gives, memoized on the table."""
    if lam.weight != tau.weight:
        raise ValueError("weight mismatch between label and class type")
    row = table._wreath_cache.get(lam)
    if row is None:
        taus, _cols = wreath_columns(table, lam.weight)
        row = table._wreath_cache[lam] = dict(zip(taus, wreath_character_values(table, lam)))
    return row[tau]


def wreath_table_json(table: CharacterTable, n: int) -> dict:
    """Deterministic full character table of the degree-n wreath product,
    suitable for golden-file regression dumps."""
    group = table.group
    lams = multipartitions(len(table.rows), n)
    taus, cols = wreath_columns(table, n)
    order = wreath_order(group, n)
    class_names = [f"C{i+1}" for i in range(len(group.classes))]
    return {
        "format": 1,
        "group": group.name,
        "n": n,
        "order": order,
        "rows": [lam.to_json(table.names) for lam in lams],
        "classes": [tau.to_json(class_names) for tau in taus],
        "class_sizes": [order // z for _k, z in cols],
        "values": [[str(v) for v in wreath_character_values(table, lam)] for lam in lams],
    }


# -- the centralizer-type subgroup of S_2n and its characters ----------------------


@cache
def hyperoct_perms(n: int) -> tuple[Perm, ...]:
    """The centralizer H_n of (01)(23)...(2n-2,2n-1) in S_2n: per tau in S_n
    and eps in {0,1}^n, the sigma with (sigma(2j), sigma(2j+1)) =
    (2 tau(j) + eps_tau(j), 2 tau(j) + 1 - eps_tau(j))."""
    out = []
    for tau in permutations(range(n)):
        for eps in iproduct((0, 1), repeat=n):
            sigma: list[int] = []
            for t in tau:
                sigma += (2 * t + eps[t], 2 * t + 1 - eps[t])
            out.append(tuple(sigma))
    return tuple(out)


def _pi_at(bits: int, sigma: Perm) -> int:
    """pi (given by pi_bits) at sigma in H_n, read off sigma: delta is -1 to
    the number of flipped pairs (odd sigma(2j), so the parity of their
    sum), iota the sign of the permutation j -> sigma(2j) // 2 of the pairs."""
    value = -1 if bits & DELTA and sum(sigma[::2]) & 1 else 1
    if bits & IOTA:
        value *= p_sign(tuple(v >> 1 for v in sigma[::2]))
    return value


@cache
def hyperoct_pi(pi: str, n: int) -> tuple[int, ...]:
    """pi at each element of hyperoct_perms(n), in the same order."""
    bits = pi_bits(pi)
    return tuple(_pi_at(bits, sigma) for sigma in hyperoct_perms(n))


def _in_k(x: WreathElement) -> bool:
    """x is in the doubled-base subgroup: its base is doubled and its
    permutation maps each pair {2i, 2i+1} onto a pair (H_n).  On an odd
    number of points the even and odd positions differ in number."""
    base, perm = x.base, x.perm
    return base[::2] == base[1::2] and [v >> 1 for v in perm[::2]] == [
        v >> 1 for v in perm[1::2]
    ]


def _doubled_bases(group: FiniteGroup, n: int, caps: Caps) -> list[tuple[int, ...]]:
    """Every doubled base (g_1, g_1, ..., g_n, g_n), in the order of G^n;
    refuses a doubled-base subgroup of more than caps.max_elements elements."""
    size = k_order(group, n)
    if size > caps.max_elements:
        raise CapExceeded("cap-elements", caps.max_elements, size)
    return [tuple(gs[i // 2] for i in range(2 * n))
            for gs in iproduct(range(group.order), repeat=n)]


def _doubled_base_product(group: FiniteGroup, base: tuple[int, ...]) -> int:
    """g_1...g_n for the doubled base (g_1, g_1, ..., g_n, g_n)."""
    prod = 0
    for g in base[::2]:
        prod = group.mul[prod][g]
    return prod


@dataclass(frozen=True)
class PairedChar:
    """A linear character of the doubled-base subgroup, indexed by a linear
    character of G and one of the four sign characters of the block centralizer."""

    table: CharacterTable
    xi: int
    pi: str
    n: int

    def __post_init__(self):
        if self.table.degrees[self.xi] != 1:
            raise GroupError("xi must be a linear character")
        pi_bits(self.pi)  # refuses an unknown name

    def value(self, x: WreathElement) -> CycNum:
        """theta(x) = xi(g_1...g_n) pi(sigma); raises GroupError when x is not
        in the subgroup, of degree 2n."""
        if len(x.perm) != 2 * self.n or not _in_k(x):
            raise GroupError(
                f"element is not in the doubled-base subgroup of degree {2 * self.n}"
            )
        value = self.table.value(self.xi, _doubled_base_product(self.table.group, x.base))
        return -value if _pi_at(pi_bits(self.pi), x.perm) < 0 else value


# -- double coset representatives ---------------------------------------------------


def coset_rep(group: FiniteGroup, rho: MultiPartition) -> WreathElement:
    """The chosen representative: per part p at merged class R, a block of
    length 2p with base (1, ..., 1, g_R) and the full cycle on the block,
    the blocks side by side in the order of the classes and parts."""
    base: list[int] = []
    perm: list[int] = []
    for m, part in zip(group.merged, rho):
        for p in part:
            start = len(base)
            base += (0,) * (2 * p - 1) + (m.rep_element,)
            perm += (*range(start + 1, start + 2 * p), start)
    return WreathElement(tuple(base), tuple(perm))


def coset_label_set(
    table: CharacterTable, xi: int, sign: int, n: int
) -> tuple[MultiPartition, ...]:
    """Multipartitions over merged classes indexing nonvanishing double
    cosets; each slot's family is fixed by xi's sign there (eta_signs)."""

    def family(eta_sign):
        if sign > 0:
            return _empty_family if eta_sign < 0 else partitions_of
        if not eta_sign:
            return partitions_of
        return _even_parts_family if eta_sign < 0 else odd_partitions

    return multipartitions_constrained(
        [family(s) for s in fuse_classes(table, xi).eta_signs], n
    )


def _empty_family(w: int) -> tuple[Partition, ...]:
    return (EMPTY,) if w == 0 else ()


@cache
def _even_parts_family(w: int) -> tuple[Partition, ...]:
    return tuple(p for p in partitions_of(w) if p.is_even())


def _self_row_family(nu: int, pi: str):
    """A self-paired row's choices at weight w: the keys of its
    self_row_shapes at w/2, none at odd w."""
    bits = pi_bits(block_pi(pi, nu))
    return lambda w: () if w % 2 else self_row_shapes(bits, w // 2)


def _pair_family(w: int) -> tuple[Partition, ...]:
    """A split pair's choices at weight w: its representative row's shape."""
    return () if w % 2 else partitions_of(w // 2)


def irrep_label_set(
    table: CharacterTable, xi: int, pi: str, n: int
) -> tuple[MultiPartition, ...]:
    """Multipartitions over character rows indexing the components of the
    induced character of the paired subgroup.  There is one slot per
    representative row; a split pair gives its partner the same shape, or
    its transpose for the signed pi.  The pairing and indicators are read
    from the table's fusion at xi."""
    fusion = fuse_classes(table, xi)
    reps, partner = fusion.eta_reps, fusion.row_partner
    families = [
        _self_row_family(fusion.nu[chi], pi) if partner[chi] == chi else _pair_family
        for chi in reps
    ]
    signed = epsilon_sign(pi) == -1
    transposed: dict[tuple[int, ...], Partition] = {}  # each partner shape once
    labels = []
    # eta_reps are the rows chi <= partner[chi], ascending, so a partner's
    # entry is a function of an earlier row's: two labels first differ at
    # a representative row, and expanding the choices, which come in sort
    # order, keeps them in sort order.
    for choice in ordered_choices(families, 2 * n):
        parts = [EMPTY] * len(table.rows)
        for chi, lam in zip(reps, choice):
            parts[chi] = lam
            if partner[chi] != chi:
                if signed:
                    if lam.parts not in transposed:
                        transposed[lam.parts] = lam.transpose()
                    lam = transposed[lam.parts]
                parts[partner[chi]] = lam
        labels.append(MultiPartition._of(tuple(parts)))
    return tuple(labels)


# -- one pass over the doubled-base subgroup ---------------------------------------


def conj_theta_table(
    theta: PairedChar, caps: Caps = Caps()
) -> list[tuple[tuple[int, ...], CycNum]]:
    """K is its doubled bases times H_n, and theta(h) = xi(g_1...g_n) pi(sigma)
    for h = (doubled base of g_1, ..., g_n ; sigma).  So this lists every
    doubled base with conj(xi(g_1...g_n)), in the order of the bases: |G|^n
    entries, which times pi(sigma) give conj(theta) at (base ; sigma).  Each
    value is formed once per base product, and equal values share one
    object.  Refuses K over the element cap."""
    table, group = theta.table, theta.table.group
    per_prod: dict[int, CycNum] = {}
    distinct: dict[CycNum, CycNum] = {}
    out = []
    for base in _doubled_bases(group, theta.n, caps):
        prod = _doubled_base_product(group, base)
        v = per_prod.get(prod)
        if v is None:
            v = table.value(theta.xi, prod).conjugate()
            v = per_prod[prod] = distinct.setdefault(v, v)
        out.append((base, v))
    return out


def _cycle_walk(perm: Perm, xinv: WreathElement) -> list[tuple[int, tuple]]:
    """For every h with permutation perm, the cycles of h x^-1 in the order
    class_type walks them: per cycle, its length and the (position, base
    of x^-1 that position picks up) steps it visits."""
    hinv = p_inverse(perm)
    yperm = p_compose(perm, xinv.perm)
    yinv = p_inverse(yperm)
    walk = []
    for cyc in p_cycles(yperm):
        steps = []
        cur = cyc[0]
        for _ in cyc:
            steps.append((cur, xinv.base[hinv[cur]]))
            cur = yinv[cur]
        walk.append((len(cyc), tuple(steps)))
    return walk


def k_type_weights(
    theta: PairedChar,
    factors: list[tuple[tuple[int, ...], CycNum]],
    x: WreathElement,
) -> dict[MultiPartition, CycNum]:
    """One pass over the subgroup: per class type of h x^-1, the sum of
    conj(theta(h)) over the h of K with that type, factors being
    conj_theta_table(theta).  Zero sums are dropped.

    K is walked as H_n times the doubled bases: the cycles of h x^-1 depend
    only on h's permutation sigma, so they are walked once per sigma, and
    each base only multiplies itself along them.  A bucket counts its
    distinct weights, each h adding pi(sigma) = +-1 to its base's weight,
    and is summed once; each nonzero bucket is labelled by class_type at
    its first element."""
    group = theta.table.group
    xinv = w_inv(group, x)
    mul, class_of = group.mul, group.class_of
    buckets: dict[tuple, tuple[WreathElement, dict[CycNum, int]]] = {}
    for sigma, sign in zip(hyperoct_perms(theta.n), hyperoct_pi(theta.pi, theta.n)):
        walk = _cycle_walk(sigma, xinv)
        for base, w in factors:
            key = []
            for length, steps in walk:
                prod = 0
                for pos, g in steps:
                    prod = mul[prod][mul[base[pos]][g]]
                key.append((class_of[prod], length))
            key.sort()
            key = tuple(key)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = (WreathElement(base, sigma), {})
            counts = bucket[1]
            counts[w] = counts.get(w, 0) + sign
    out: dict[MultiPartition, CycNum] = {}
    for h0, counts in buckets.values():
        total = sum_products((w, ONE, c) for w, c in counts.items())
        if total:
            out[class_type(group, w_mul(group, h0, xinv))] = total
    return out


# -- induced-character decomposition ---------------------------------------------


def theta_type_weights(
    theta: PairedChar, caps: Caps = Caps()
) -> dict[MultiPartition, CycNum]:
    """Per class type of the big wreath product, the sum of conj(theta) over
    the subgroup elements of that type: the pass over K at the identity."""
    return k_type_weights(theta, conj_theta_table(theta, caps), w_identity(2 * theta.n))


def decompose_induced(
    table: CharacterTable,
    theta: PairedChar,
    caps: Caps = Caps(),
) -> dict[MultiPartition, int]:
    """Multiplicities of every irreducible in the induced paired character,
    by the reciprocity sum over the subgroup.  Zero entries are omitted.

    The type weights sum_tau W(tau) P_tau are pushed into the character
    alphabets by the inverse map p_r(c) -> sum_chi chi(c) p_r(chi); then
    m_lam = (1/|K|) sum_rho a_rho prod_chi chi^lam(chi)(rho(chi)).  theta
    must be built on this table."""
    if theta.table is not table:
        raise GroupError(
            f"theta is built on the {theta.table.group.name} table, "
            f"not the {table.group.name} table it is decomposed over"
        )
    group = table.group
    hg_size = k_order(group, theta.n)
    weights = theta_type_weights(theta, caps)
    lams = multipartitions(len(table.rows), 2 * theta.n)
    work = len(lams) * max(1, len(weights))
    if work > caps.max_classwork:
        raise CapExceeded("cap-classwork", caps.max_classwork, work)
    pushed = SymFuncElem(range(len(group.classes)), weights).change_alphabet(
        lambda c, chi, _r: table.rows[chi][c], range(len(table.rows))
    )
    by_sizes: dict[tuple[int, ...], list] = {}
    for rho, a in pushed.terms.items():
        by_sizes.setdefault(tuple(p.size for p in rho), []).append((rho, a))
    out: dict[MultiPartition, int] = {}
    for lam in lams:
        terms = []
        for rho, a in by_sizes.get(tuple(p.size for p in lam), ()):
            coef = 1
            for part, r in zip(lam, rho):
                coef *= sym_character(part, r)
            terms.append((a, ONE, coef))
        tot = sum_products(terms)
        val = (tot * Fraction(1, hg_size)).try_rational()
        if val is None or val.denominator != 1 or val < 0:
            raise GroupError(f"non-integral multiplicity {tot} at {lam}")
        if val:
            out[lam] = int(val)
    return out


# -- Hecke algebra basics ------------------------------------------------------------


def coset_stabilizer(
    group: FiniteGroup, x: WreathElement, caps: Caps = Caps()
) -> list[tuple[WreathElement, WreathElement]]:
    """The pairs (h, k) of K x K with h x k = x, i.e. k = x^-1 h^-1 x, over
    the h of K n xKx^-1, with K of degree 2n the degree of x and walked as
    its doubled bases times H_n; refuses x of odd degree, and K over the
    element cap.  By orbit-stabilizer |KxK| = |K|^2 / len(pairs)."""
    n, odd = divmod(len(x.perm), 2)
    if odd:
        raise GroupError(f"element of odd degree {len(x.perm)} is not in G wr S_2n")
    xinv = w_inv(group, x)
    perms = hyperoct_perms(n)
    pairs = []
    for base in _doubled_bases(group, n, caps):
        for sigma in perms:
            h = WreathElement(base, sigma)
            k = w_mul(group, w_mul(group, xinv, w_inv(group, h)), x)
            if _in_k(k):
                pairs.append((h, k))
    return pairs
