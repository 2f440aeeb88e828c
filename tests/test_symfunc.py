from datetime import timedelta
from fractions import Fraction
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from wreathsph import symfunc
from wreathsph.cyclo import CycNum, ONE, ZERO, cyc, parse_cyc
from wreathsph.partitions import MultiPartition, Partition, partitions_of, strict_partitions
from wreathsph.symfunc import (
    SymFuncElem,
    jack_p_expr,
    p_add,
    p_inner_alpha,
    p_mul,
    p_scale,
    pack_key,
    qfunc_p,
    schur_p_expr,
    schurq_p_expr,
    sym_character,
)

P = Partition


def q_inner(a, b) -> Fraction:
    """The inner product with <p_l, p_l> = z_l / 2^len(l) (odd subring)."""
    tot = Fraction(0)
    for k, v in a.items():
        w = b.get(k)
        if w:
            tot += v * w * Fraction(k.aut_order(), 2 ** len(k))
    return tot


# -- references: the monomial basis and the Pfaffian Q recursion ---------------


def mono_mul_p(f: dict, r: int) -> dict:
    """Multiply an m-basis expansion by p_r."""
    out = {}
    for mu, c in f.items():
        for v in set(mu.parts) | {0}:
            parts = list(mu.parts)
            if v:
                parts.remove(v)
            parts.append(v + r)
            nu = P(sorted(parts, reverse=True))
            out[nu] = out.get(nu, Fraction(0)) + c * nu.parts.count(v + r)
    return {k: v for k, v in out.items() if v}


@cache
def power_in_monomials(rho: Partition) -> dict:
    """p_rho in the monomial basis."""
    f = {P(): Fraction(1)}
    for r in rho.parts:
        f = mono_mul_p(f, r)
    return f


def p_to_m(f) -> dict:
    """A p-expansion in the monomial basis."""
    out = {}
    for rho, c in f.items():
        for mu, d in power_in_monomials(rho).items():
            out[mu] = out.get(mu, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


@cache
def m_to_p_table(n: int) -> dict:
    """Each m_mu of weight n as a p-expansion.  p_rho is a nonzero multiple
    of m_rho plus m_mu of partitions mu coarser than rho, and those come
    first in partitions_of(n), so one pass in that order solves for all."""
    out = {}
    for rho in partitions_of(n):
        expr = {rho: Fraction(1)}
        for mu, c in power_in_monomials(rho).items():
            if mu == rho:
                lead = c
            else:
                expr = p_add(expr, p_scale(out[mu], -c))
        out[rho] = p_scale(expr, 1 / lead)
    return out


def monomial_p(mu: Partition) -> dict:
    return dict(m_to_p_table(mu.size)[mu])


def dominated(mu: Partition, lam: Partition) -> bool:
    """mu <= lam in dominance: every partial sum of mu at most lam's."""
    a = b = 0
    for i in range(len(mu)):
        a += mu[i]
        b += lam[i] if i < len(lam) else 0
        if a > b:
            return False
    return True


def q_two(a: int, b: int) -> dict:
    """Two-row Q for a > b >= 0."""
    if b == 0:
        return dict(qfunc_p(a))
    out = p_mul(dict(qfunc_p(a)), dict(qfunc_p(b)))
    for i in range(1, b + 1):
        term = p_mul(dict(qfunc_p(a + i)), dict(qfunc_p(b - i)))
        out = p_add(out, p_scale(term, Fraction(2 * (-1) ** i)))
    return out


def pfaffian_q(rows: tuple[int, ...]) -> dict:
    """Q of a strict partition by the Pfaffian expansion of its two-row
    building blocks along the first row."""
    rows = tuple(r for r in rows if r > 0)
    if len(rows) == 0:
        return {P(): Fraction(1)}
    if len(rows) == 1:
        return dict(qfunc_p(rows[0]))
    if len(rows) == 2:
        return q_two(rows[0], rows[1])
    padded = rows if len(rows) % 2 == 0 else rows + (0,)
    out = {}
    for j in range(1, len(padded)):
        rest = padded[1:j] + padded[j + 1 :]
        term = p_mul(q_two(padded[0], padded[j]), pfaffian_q(rest))
        out = p_add(out, p_scale(term, Fraction((-1) ** (j + 1))))
    return out


def test_sym_character_basics():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert sym_character(P((n,)), rho) == 1
            assert sym_character(P((1,) * n), rho) == (-1) ** (n - len(rho))
    assert sym_character(P((1, 1)), P((2,))) == -1
    assert sym_character(P((2, 1)), P((1, 1, 1))) == 2
    with pytest.raises(ValueError):
        sym_character(P((2,)), P((1,)))


def test_sym_character_orthogonality():
    for n in range(1, 8):
        for a in partitions_of(n):
            for b in partitions_of(n):
                tot = sum(
                    Fraction(sym_character(a, r) * sym_character(b, r), r.aut_order())
                    for r in partitions_of(n)
                )
                assert tot == (1 if a == b else 0)


def test_schur_expansions():
    assert schur_p_expr(P((1,))) == {P((1,)): Fraction(1)}
    assert schur_p_expr(P((2,))) == {P((1, 1)): Fraction(1, 2), P((2,)): Fraction(1, 2)}
    assert schur_p_expr(P((1, 1))) == {P((1, 1)): Fraction(1, 2), P((2,)): Fraction(-1, 2)}


def test_monomial_p_roundtrip():
    for n in range(1, 7):
        for mu in partitions_of(n):
            back = {}
            for rho, c in monomial_p(mu).items():
                for nu, d in p_to_m({rho: Fraction(1)}).items():
                    back[nu] = back.get(nu, Fraction(0)) + c * d
            back = {k: v for k, v in back.items() if v}
            assert back == {mu: Fraction(1)}


def test_q_generators_match_series_oracle():
    # oracle: truncated exponential of the odd power-sum series, multiplied
    # out degree by degree
    N = 6
    series = {0: {P(): Fraction(1)}}  # degree -> PExpr of exp so far
    term = {0: {P(): Fraction(1)}}
    arg = {}
    for r in range(1, N + 1):
        if r % 2 == 1:
            arg[r] = {P((r,)): Fraction(2, r)}
    # exp(A) = sum A^k / k!
    total = {0: {P(): Fraction(1)}}
    power = {0: {P(): Fraction(1)}}
    for k in range(1, N + 1):
        new_power = {}
        for da, fa in power.items():
            for db, fb in arg.items():
                if da + db <= N:
                    new_power[da + db] = p_add(new_power.get(da + db, {}), p_mul(fa, fb))
        power = new_power
        for d, f in power.items():
            total[d] = p_add(total.get(d, {}), p_scale(f, Fraction(1, factorial(k))))
    for r in range(N + 1):
        assert dict(qfunc_p(r)) == total.get(r, {}), r
    assert dict(qfunc_p(2)) == {P((1, 1)): Fraction(2)}


def test_schurq_anchors_and_support():
    assert schurq_p_expr(P((1,))) == {P((1,)): Fraction(2)}
    for n in range(1, 7):
        for mu in strict_partitions(n):
            f = schurq_p_expr(mu)
            assert all(k.is_odd() for k in f)
            # coefficients of Q / 2^len have denominators with odd part only
            for v in f.values():
                d = (v / 2 ** len(mu)).denominator
                while d % 2 == 0:
                    d //= 2
                assert v.denominator % 2 == 1 or d >= 1


def test_schurq_orthogonality():
    for n in range(1, 7):
        mus = strict_partitions(n)
        for i, a in enumerate(mus):
            for b in mus[i + 1 :]:
                assert q_inner(schurq_p_expr(a), schurq_p_expr(b)) == 0


def test_jack_anchors():
    for alpha in (Fraction(2), Fraction(1, 2), Fraction(1)):
        assert jack_p_expr(P((1,)), alpha) == {P((1,)): Fraction(1)}
    assert jack_p_expr(P((2,)), 2) == {P((1, 1)): Fraction(1), P((2,)): Fraction(2)}
    assert jack_p_expr(P((1, 1)), 2) == {P((1, 1)): Fraction(1), P((2,)): Fraction(-1)}


def test_jack_normalization_squarefree_coefficient():
    for n in range(1, 6):
        for lam in partitions_of(n):
            m_exp = p_to_m(jack_p_expr(lam, 2))
            assert m_exp[P((1,) * n)] == factorial(n)


def test_jack_alpha_one_is_scaled_schur():
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert jack_p_expr(lam, 1) == p_scale(
                schur_p_expr(lam), lam.hook_product()
            )


def test_jack_orthogonality():
    for alpha in (Fraction(2), Fraction(1, 2)):
        for n in range(1, 6):
            ps = partitions_of(n)
            for i, a in enumerate(ps):
                for b in ps[i + 1 :]:
                    assert (
                        p_inner_alpha(jack_p_expr(a, alpha), jack_p_expr(b, alpha), alpha)
                        == 0
                    )


def test_jack_duality_at_two_and_one_half():
    # Macdonald VI (10.24) at alpha = 2: (p_r -> p_r/2) J^(1/2)_mu' equals
    # 2^-m eps J^(2)_mu, where eps p_rho = (-1)^(m - len(rho)) p_rho
    for m in range(1, 9):
        for mu in partitions_of(m):
            lhs = {
                rho: c * Fraction(1, 2 ** len(rho))
                for rho, c in jack_p_expr(mu.transpose(), Fraction(1, 2)).items()
            }
            rhs = {
                rho: c * Fraction((-1) ** (m - len(rho)), 2**m)
                for rho, c in jack_p_expr(mu, 2).items()
            }
            assert lhs == rhs, mu


def test_jack_monomial_support_is_dominated():
    # J_lambda is orthogonal and has m-support only at mu <= lambda in
    # dominance, with m_lambda present: that defines it up to a scalar
    for alpha in (Fraction(2), Fraction(1, 2), Fraction(3)):
        for n in range(1, 8):
            for lam in partitions_of(n):
                support = p_to_m(jack_p_expr(lam, alpha))
                assert lam in support, (alpha, lam)
                assert all(dominated(mu, lam) for mu in support), (alpha, lam)


def test_schurq_matches_pfaffian_reference():
    for n in range(13):
        for mu in strict_partitions(n):
            assert schurq_p_expr(mu) == pfaffian_q(mu.parts), mu


def counted(monkeypatch, name) -> list:
    """The arguments of each call of symfunc.name, from here on."""
    calls = []
    original = getattr(symfunc, name)

    def counting(mu):
        calls.append(mu)
        return original(mu)

    monkeypatch.setattr(symfunc, name, counting)
    return calls


def test_jack_one_gram_schmidt_pass_per_weight(monkeypatch):
    # every Jack function of a weight comes from one pass over its Schur
    # functions
    calls = counted(monkeypatch, "schur_p_expr")
    symfunc.jack_p.cache_clear()
    symfunc._jack_basis.cache_clear()
    for lam in partitions_of(6):
        jack_p_expr(lam, 2)
    assert sorted(calls) == sorted(partitions_of(6))


def test_schurq_one_gram_schmidt_pass_per_weight(monkeypatch):
    # every Q function of a weight comes from one pass over its products q_mu
    calls = counted(monkeypatch, "_q_product")
    symfunc.schurq_p.cache_clear()
    symfunc._schurq_basis.cache_clear()
    for mu in strict_partitions(8):
        schurq_p_expr(mu)
    assert calls == list(strict_partitions(8))


# -- multi-alphabet elements ----------------------------------------------------


def power(alphabet, slot: int, rho: Partition) -> SymFuncElem:
    """p_rho in the given slot."""
    key = MultiPartition(rho if i == slot else P() for i in range(len(alphabet)))
    return SymFuncElem(alphabet, {key: ONE})


def degrees(x: SymFuncElem) -> set[int]:
    return {k.weight for k in x.terms}


def union(a: MultiPartition, b: MultiPartition) -> MultiPartition:
    return MultiPartition(x.union(y) for x, y in zip(a, b))


def from_json(obj: dict) -> SymFuncElem:
    """The element of SymFuncElem.to_json's output."""
    labels = tuple(obj["alphabet"])
    terms = {}
    for t in obj["terms"]:
        parts = [t["key"].get(lab, ()) for lab in labels]
        terms[MultiPartition(parts)] = parse_cyc(t["coeff"])
    return SymFuncElem(labels, terms)


def _p(alphabet, slot, *parts):
    return power(alphabet, slot, P(parts))


def test_multiply_examples():
    ab = ("a", "b")
    pa = _p(ab, 0, 1)
    assert pa * pa == _p(ab, 0, 1, 1)
    p2a, p1b = _p(ab, 0, 2), _p(ab, 1, 1)
    prod = p2a * p1b
    key = MultiPartition([P((2,)), P((1,))])
    assert prod.terms == {key: ONE}
    lhs = (_p(ab, 0, 1) + _p(ab, 0, 2)) * _p(ab, 0, 1)
    assert lhs == _p(ab, 0, 1, 1) + _p(ab, 0, 2, 1)


def test_multiply_commutes_and_grades():
    ab = ("a", "b")
    x = _p(ab, 0, 2) + _p(ab, 1, 1).scale(Fraction(1, 2))
    y = _p(ab, 0, 1) + _p(ab, 1, 3)
    z = _p(ab, 1, 1)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert degrees(x * y) <= {d1 + d2 for d1 in degrees(x) for d2 in degrees(y)}


def test_alphabet_mismatch():
    with pytest.raises(ValueError):
        _p(("a",), 0, 1) * _p(("a", "b"), 0, 1)


def test_change_alphabet_identity_and_split():
    ab = ("a", "b")
    x = _p(ab, 0, 2, 1) + _p(ab, 1, 1).scale(3)
    ident = x.change_alphabet(
        lambda s, t, r: ONE if s == t else CycNum.rational(0), ab
    )
    assert ident == x
    split = _p(("a",), 0, 1).change_alphabet(lambda s, t, r: ONE, ("b1", "b2"))
    assert split == _p(("b1", "b2"), 0, 1) + _p(("b1", "b2"), 1, 1)


def test_change_alphabet_class_substitution():
    # the substitution sending the order-2 group's trivial-character power sum
    # to the merged-class alphabet: coefficient (eps(g) + 1)/4 per class
    from wreathsph.groups import bundled

    group, table = bundled("c2")
    src = _p(("chi1",), 0, 1)

    def coeff(_a, b, r):
        g = 0 if b == "R1" else 1
        return (table.value(1, g) + ONE) * Fraction(1, 4)

    out = src.change_alphabet(coeff, ("R1", "R2"))
    expect = _p(("R1", "R2"), 0, 1).scale(Fraction(1, 2))
    assert out == expect


def test_symfunc_json_roundtrip():
    ab = ("a", "b")
    x = _p(ab, 0, 2, 1).scale(Fraction(3, 2)) + _p(ab, 1, 1).scale(-1)
    again = from_json(x.to_json())
    assert again == x


# -- the packed kernel against the dict-of-CycNum reference ----------------------
#
# The reference is the earlier storage: MultiPartition keys, CycNum values,
# products by Partition union and CycNum arithmetic.


def ref_mul(a: dict, b: dict) -> dict:
    terms = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = union(k1, k2)
            terms[k] = terms[k] + v1 * v2 if k in terms else v1 * v2
    return {k: v for k, v in terms.items() if v}


def ref_add(a: dict, b: dict) -> dict:
    terms = dict(a)
    for k, v in b.items():
        terms[k] = terms.get(k, ZERO) + v
    return {k: v for k, v in terms.items() if v}


def ref_change_alphabet(terms: dict, alphabet, coeff, target, memo=None) -> dict:
    """Each key's image is the ref_mul product of the images of its parts,
    sum over b of coeff(alphabet[slot], b, r) p_r(b), each formed once; memo
    keeps both, by (slot, r) and by key, across calls with one coeff and
    target."""
    memo = {} if memo is None else memo
    empty = MultiPartition([P()] * len(target))

    def part_image(slot, r):
        image = memo.get((slot, r))
        if image is None:
            image = memo[slot, r] = {
                MultiPartition([P((r,)) if i == bi else P() for i in range(len(target))]):
                coeff(alphabet[slot], b, r)
                for bi, b in enumerate(target)
            }
        return image

    out = {}
    for key, c in terms.items():
        image = memo.get(key)
        if image is None:
            image = {empty: ONE}
            for slot, lam in enumerate(key):
                for r in lam:
                    image = ref_mul(image, part_image(slot, r))
            memo[key] = image
        for mp, v in image.items():
            out[mp] = out[mp] + v * c if mp in out else v * c
    return {k: v for k, v in out.items() if v}


AB = ("a", "b")


def constant(c: CycNum) -> SymFuncElem:
    """c as an element over AB: the coefficient of the empty monomial."""
    return SymFuncElem(AB, {MultiPartition([P(), P()]): c})


mixed_cycnums = st.builds(
    lambda n, raw: cyc(n, {k % n: Fraction(p, q) for k, p, q in raw}),
    st.sampled_from((1, 3, 4, 5, 8)),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(-3, 3), st.integers(1, 3)),
        min_size=1,
        max_size=2,
    ),
)
small_parts = st.lists(st.integers(1, 3), max_size=3).map(
    lambda ps: P(sorted(ps, reverse=True))
)
keys = st.builds(lambda a, b: MultiPartition([a, b]), small_parts, small_parts)
term_dicts = st.dictionaries(keys, mixed_cycnums, max_size=3)
KERNEL = settings(max_examples=40, deadline=timedelta(seconds=5))


@given(term_dicts, term_dicts, mixed_cycnums)
@KERNEL
def test_kernel_ring_operations_match_reference(a, b, c):
    x, y = SymFuncElem(AB, a), SymFuncElem(AB, b)
    ref_a = {k: v for k, v in a.items() if v}
    assert x.terms == ref_a
    assert (x * y).terms == ref_mul(a, b)
    assert (x + y).terms == ref_add(a, b)
    assert (x * constant(c)).terms == {k: v * c for k, v in ref_a.items() if v * c}
    assert x * y == SymFuncElem(AB, ref_mul(a, b))
    assert bool(x * y) == bool(ref_mul(a, b))
    for k in set(a) | set(b):
        assert (x * y).coefficient(pack_key(k)) == ref_mul(a, b).get(k, ZERO)
        assert x.coefficient(pack_key(k), Fraction(3, 2)) == ref_a.get(k, ZERO) * Fraction(3, 2)


@given(term_dicts, st.lists(mixed_cycnums, min_size=12, max_size=12))
@KERNEL
def test_kernel_change_alphabet_matches_reference(a, table):
    target = ("u", "v", "w")

    def coeff(s, t, r):
        return table[(AB.index(s) * 3 + target.index(t)) * 2 % 12 + r % 2]

    got = SymFuncElem(AB, a).change_alphabet(coeff, target)
    assert got.terms == ref_change_alphabet(a, AB, coeff, target)


# up to two parts per slot: the reference costs 3^(parts) per key, and
# small keys share more monomials and prefixes across elements
memo_parts = st.lists(st.integers(1, 3), max_size=2).map(lambda ps: P(sorted(ps, reverse=True)))
memo_terms = st.dictionaries(
    st.builds(lambda a, b: MultiPartition([a, b]), memo_parts, memo_parts),
    mixed_cycnums,
    max_size=3,
)


@given(
    st.lists(memo_terms, min_size=1, max_size=4),
    st.lists(mixed_cycnums, min_size=12, max_size=12),
)
@KERNEL
def test_kernel_change_alphabet_shares_one_memo(elems, table):
    # elements pushed through one images dict get the images that fresh
    # dicts and the reference give; coeff runs once per (a, b, r) across
    # them, and not at all for a second push of the same element
    target = ("u", "v", "w")
    calls = []

    def coeff(s, t, r):
        calls.append((s, t, r))
        return table[(AB.index(s) * 3 + target.index(t)) * 2 % 12 + r % 2]

    xs = [SymFuncElem(AB, a) for a in elems]
    images: dict = {}
    shared = [x.change_alphabet(coeff, target, images) for x in xs]
    assert len(calls) == len(set(calls))
    calls.clear()
    assert [x.change_alphabet(coeff, target, images) for x in xs] == shared
    assert calls == []
    memo: dict = {}
    for a, x, got in zip(elems, xs, shared):
        assert got == x.change_alphabet(coeff, target, {})
        assert got.terms == ref_change_alphabet(a, AB, coeff, target, memo)


@given(
    term_dicts,
    st.one_of(
        st.sampled_from((0, -1, Fraction(-3, 7))),
        st.fractions(max_denominator=12).filter(lambda q: abs(q.numerator) < 100),
    ),
)
@KERNEL
def test_kernel_rational_scale_matches_cycnum_product(a, q):
    # a rational scale, 0 and negative ones included, is the CycNum
    # product coefficient by coefficient
    x, c = SymFuncElem(AB, a), CycNum.rational(q)
    expect = {k: v * c for k, v in a.items() if v * c}
    assert x.scale(q).terms == expect
    assert x.scale(q) == x * constant(c) == SymFuncElem(AB, expect)
    assert bool(x.scale(q)) == bool(expect)


def test_coefficient_vanishing_mod_phi_leaves_terms():
    z3 = cyc(3, {1: 1})
    k, other = MultiPartition([P((2,)), P()]), MultiPartition([P(), P((1,))])
    # 1 + z3 + z3^2 = 0, held as the vector (1, 1, 1) of Z[x]/(x^3 - 1)
    one, z = SymFuncElem(AB, {k: ONE}), SymFuncElem(AB, {k: z3})
    vanishing = one + z + z * constant(z3)
    assert not vanishing
    assert vanishing.terms == {}
    assert vanishing == SymFuncElem(AB)
    assert vanishing.coefficient(pack_key(k)) == ZERO
    assert vanishing.to_json()["terms"] == []
    rest = vanishing + SymFuncElem(AB, {other: z3})
    assert rest.terms == {other: z3}
    assert (rest * vanishing).terms == {}


def test_full_multiplicity_field_does_not_bleed():
    full = MultiPartition([P((1,) * 255), P()])
    x = power(AB, 0, P((1,) * 255))
    assert x.terms == {full: ONE}
    half = power(AB, 0, P((1,) * 128)) * power(AB, 0, P((1,) * 127))
    assert half == x
    split = power(AB, 0, P((1,) * 200)) * power(AB, 1, P((1,) * 55))
    assert split.terms == {MultiPartition([P((1,) * 200), P((1,) * 55)]): ONE}
    assert (x * SymFuncElem.one(AB)).terms == {full: ONE}
    with pytest.raises(OverflowError):
        power(AB, 0, P((1,) * 256))


def test_weights_past_the_field_limit_raise():
    x = power(AB, 0, P((1,) * 200))
    for y in (power(AB, 0, P((1,) * 56)), power(AB, 1, P((2,) * 28))):
        with pytest.raises(OverflowError, match="255"):
            x * y
