import random
from collections import Counter
from datetime import timedelta
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from wreathsph.cyclo import (
    CycNum,
    ONE,
    ZERO,
    _phi_deg,
    _power_table,
    _prime_factors,
    _subfield_basis,
    _subfield_inverse,
    canonicalize,
    parse_cyc,
    zeta,
)

ROOT2_I = canonicalize(8, {1: 1, 3: 1})  # the value whose square is -2


def test_canonicalize_cancellation():
    assert canonicalize(4, {1: 1, 3: 1}) == ZERO
    assert not canonicalize(4, {1: 1, 3: 1})


def test_canonicalize_examples():
    assert ROOT2_I.conductor == 8
    assert ROOT2_I * ROOT2_I == CycNum.rational(-2)
    x = canonicalize(1, {0: Fraction(5, 3)})
    assert x.conductor == 1 and x.try_rational() == Fraction(5, 3)


def test_conductor_requires_positive():
    with pytest.raises(ValueError):
        canonicalize(0, {0: Fraction(1)})


def test_arith_examples():
    assert ROOT2_I + ROOT2_I.conjugate() == ZERO
    assert ROOT2_I * ONE == ROOT2_I
    assert zeta(4) * zeta(4) == CycNum.rational(-1)


def test_conjugate_examples():
    assert CycNum.rational(Fraction(7, 2)).conjugate() == CycNum.rational(Fraction(7, 2))
    assert ROOT2_I.conjugate() == canonicalize(8, {5: 1, 7: 1})
    assert ROOT2_I.conjugate() == -ROOT2_I


def test_try_rational():
    assert CycNum.rational(-2).try_rational() == -2
    assert ROOT2_I.try_rational() is None
    assert canonicalize(3, {1: 1, 2: 1}).try_rational() == -1


def test_embedding_roundtrip():
    # the same value written at twice the conductor canonicalizes back
    assert canonicalize(16, {2: 1, 6: 1}) == ROOT2_I
    assert canonicalize(8, {2: 1}) == zeta(4)
    assert canonicalize(12, {2: 1}) == zeta(6)


def test_rationals_live_at_conductor_one():
    x = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert x.conductor == 1 and x.try_rational() == -1


def test_inverse_examples():
    x = CycNum.rational(Fraction(3, 7)) * zeta(12, 5)
    assert x * x.inverse() == ONE
    assert CycNum.rational(Fraction(-5, 2)).inverse() == CycNum.rational(Fraction(-2, 5))
    assert ROOT2_I * ROOT2_I.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_parse_roundtrip_examples():
    for text in ("0", "-2", "5/3", "z(8) + z(8)^3", "1/2 - 3/2*z(5)^4 + z(5)"):
        v = parse_cyc(text)
        assert parse_cyc(str(v)) == v
    with pytest.raises(ValueError):
        parse_cyc("z(8)^^2")
    with pytest.raises(ValueError):
        parse_cyc("")


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def cycnums(draw):
    n = draw(st.sampled_from((1, 3, 4, 5, 8, 12)))
    size = draw(st.integers(0, 3))
    coeffs = {
        draw(st.integers(0, n - 1)): draw(small_rationals) for _ in range(size)
    }
    return canonicalize(n, coeffs)


@given(cycnums(), cycnums(), cycnums())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO


@given(cycnums(), cycnums())
@settings(max_examples=60, deadline=None)
def test_conjugation_is_ring_hom_and_involution(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(cycnums())
@settings(max_examples=60, deadline=None)
def test_double_conductor_roundtrip(a):
    lifted = canonicalize(2 * a.conductor, {2 * k: v for k, v in a.coeffs.items()})
    assert lifted == a


@given(cycnums())
@settings(max_examples=60, deadline=None)
def test_text_form_roundtrip(a):
    assert parse_cyc(str(a)) == a


def reference_text(x: CycNum) -> str:
    """The text form, formatted afresh on every call."""
    if not x.coeffs:
        return "0"
    parts = []
    for k in sorted(x.coeffs):
        v = x.coeffs[k]
        mag = abs(v)
        if k == 0:
            body = str(mag)
        else:
            zk = f"z({x.conductor})" if k == 1 else f"z({x.conductor})^{k}"
            body = zk if mag == 1 else f"{mag}*{zk}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts)


@given(cycnums(), cycnums())
@settings(max_examples=80, deadline=timedelta(seconds=5))
def test_cached_text_matches_reference(a, b):
    for x in (a, b):
        want = reference_text(x)
        assert str(x) == want
        assert str(x) == want
        assert parse_cyc(str(x)) == x
    # values built from values whose text is cached get their own text
    for y in (a + b, a * b, a.conjugate(), a - b, -a):
        assert str(y) == reference_text(y)
        assert parse_cyc(str(y)) == y


@given(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12)), st.integers(0, 11), small_rationals)
@settings(max_examples=60, deadline=None)
def test_unit_inverses(n, k, c):
    if c == 0:
        return
    x = CycNum.rational(c) * zeta(n, k % n)
    assert x * x.inverse() == ONE


@given(st.lists(st.tuples(cycnums(), cycnums(), st.integers(-3, 3)), max_size=5))
@settings(max_examples=40, deadline=None)
def test_sum_products_matches_naive(items):
    from wreathsph.cyclo import sum_products

    naive = ZERO
    for a, b, w in items:
        naive = naive + a * b * Fraction(w)
    assert sum_products(items) == naive


# -- the integer kernel against the dict-of-Fraction reference ---------------------
#
# The reference is the earlier arithmetic: exponent -> Fraction maps, lifted to
# a common conductor by re-keying, multiplied by dict convolution, reduced mod
# Phi_N through the power table in Fractions and descended prime by prime.
# Values are compared as their (conductor, coeffs) data.


def ref_solve_subfield(n: int, m: int, vec: list[Fraction]) -> list[Fraction] | None:
    """vec over the Q(zeta_m) basis inside Q(zeta_n), if it lies there: a
    Gaussian elimination of [B | vec] in Fractions, then the check B sol = vec."""
    cols = _subfield_basis(n, m)
    rows, ncols = _phi_deg(n), len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(ncols)] + [vec[i]] for i in range(rows)]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    sol = [aug[c][ncols] for c in range(ncols)]
    chk = [sum(sol[c] * cols[c][i] for c in range(ncols)) for i in range(rows)]
    return sol if chk == vec else None


def ref_canonicalize(n: int, raw: dict) -> tuple[int, dict]:
    merged: dict[int, Fraction] = {}
    for k, v in raw.items():
        if v:
            merged[k % n] = merged.get(k % n, Fraction(0)) + Fraction(v)
    vec = [Fraction(0)] * _phi_deg(n)
    tab = _power_table(n)
    for k, v in merged.items():
        for i, c in enumerate(tab[k]):
            vec[i] += v * c
    while n > 1:
        if not any(vec[1:]):
            n, vec = 1, [vec[0]]
            break
        for p in _prime_factors(n):
            sol = ref_solve_subfield(n, n // p, vec)
            if sol is not None:
                n, vec = n // p, sol
                break
        else:
            break
    return n, {i: v for i, v in enumerate(vec) if v}


def ref_lift(x: CycNum, big: int) -> dict:
    step = big // x.conductor
    return {(k * step) % big: v for k, v in x.coeffs.items()}


def ref_add(a: CycNum, b: CycNum) -> tuple[int, dict]:
    big = lcm(a.conductor, b.conductor)
    out = ref_lift(a, big)
    for k, v in ref_lift(b, big).items():
        out[k] = out.get(k, Fraction(0)) + v
    return ref_canonicalize(big, out)


def ref_mul(a: CycNum, b: CycNum) -> tuple[int, dict]:
    big = lcm(a.conductor, b.conductor)
    out: dict[int, Fraction] = {}
    for ka, va in ref_lift(a, big).items():
        for kb, vb in ref_lift(b, big).items():
            k = (ka + kb) % big
            out[k] = out.get(k, Fraction(0)) + va * vb
    return ref_canonicalize(big, out)


def ref_conjugate(a: CycNum) -> tuple[int, dict]:
    n = a.conductor
    return ref_canonicalize(n, {(n - k) % n: v for k, v in a.coeffs.items()})


def form(x: CycNum) -> tuple[int, dict]:
    return x.conductor, x.coeffs


@st.composite
def raw_values(draw):
    """(conductor, exponent -> rational) over the kernel's test conductors."""
    n = draw(st.sampled_from((1, 3, 4, 5, 8, 12, 15)))
    size = draw(st.integers(0, 4))
    return n, {draw(st.integers(0, n - 1)): draw(small_rationals) for _ in range(size)}


@given(raw_values(), st.sampled_from((1, 2, 3)))
@settings(max_examples=120, deadline=timedelta(seconds=5))
def test_canonicalize_matches_reference(value, m):
    # written at N, 2N or 3N, the value descends to the same canonical form
    n, raw = value
    x = canonicalize(n, raw)
    assert form(x) == ref_canonicalize(n, raw)
    written = {k * m: v for k, v in raw.items()}
    assert form(canonicalize(m * n, written)) == form(x)
    assert ref_canonicalize(m * n, written) == form(x)


@given(raw_values(), raw_values())
@settings(max_examples=120, deadline=timedelta(seconds=5))
def test_ring_operations_match_reference(u, v):
    a, b = canonicalize(*u), canonicalize(*v)
    assert form(a + b) == ref_add(a, b)
    assert form(a * b) == ref_mul(a, b)
    assert form(a - b) == ref_add(a, -b)
    assert form(a.conjugate()) == ref_conjugate(a)


@pytest.mark.parametrize(
    "n, raw, expect",
    [
        (5, {1: 1, 2: 1, 3: 1, 4: 1}, (1, {0: Fraction(-1)})),
        (15, {3: 1, 6: 1, 9: 1, 12: 1}, (1, {0: Fraction(-1)})),
        (24, {6: 1}, (4, {1: Fraction(1)})),
        (36, {12: 2}, (3, {1: Fraction(2)})),
        (24, {4: 1}, (3, {0: Fraction(1), 1: Fraction(1)})),
        (16, {2: 1, 6: 1}, (8, {1: Fraction(1), 3: Fraction(1)})),
        (30, {6: Fraction(1, 2), 10: 3}, ref_canonicalize(15, {3: Fraction(1, 2), 5: 3})),
    ],
)
def test_values_written_high_descend(n, raw, expect):
    assert form(canonicalize(n, raw)) == expect == ref_canonicalize(n, raw)


def test_descent_sweep_matches_reference_and_eliminates_once(monkeypatch):
    # values of a random conductor d written at a multiple n of it, n up to
    # 120, descend to the reference's form; each (n, m) subfield basis is
    # eliminated once (its one reader is the elimination), however many
    # values descend through it
    import wreathsph.cyclo as cyclo

    eliminated = Counter()
    subfield_basis = cyclo._subfield_basis

    def counting(n, m):
        eliminated[n, m] += 1
        return subfield_basis(n, m)

    monkeypatch.setattr(cyclo, "_subfield_basis", counting)
    _subfield_inverse.cache_clear()
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(3, 120)
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        raw = {
            rng.randrange(d) * (n // d): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        }
        assert form(canonicalize(n, raw)) == ref_canonicalize(n, raw), (n, raw)
    assert set(eliminated.values()) == {1}
    assert len(eliminated) == _subfield_inverse.cache_info().currsize > 50


def test_arithmetic_matches_sympy_cyclotomic_remainders():
    # each value written at a common conductor N as a polynomial in x = zeta_N:
    # +, *, conjugate and == agree exactly with remainders modulo Phi_N
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(2401)

    def poly(value: CycNum, n: int):
        step = n // value.conductor
        terms = {(k * step,): sympy.Rational(str(c)) for k, c in value.coeffs.items()}
        return sympy.Poly.from_dict(terms or {(0,): 0}, x, domain="QQ")

    def raw_poly(raw: dict, n: int):
        terms = {}
        for k, c in raw.items():
            terms[(k % n,)] = terms.get((k % n,), 0) + sympy.Rational(str(c))
        return sympy.Poly.from_dict(terms or {(0,): 0}, x, domain="QQ")

    def random_raw(n: int) -> dict:
        return {
            rng.randrange(n): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        }

    for _ in range(60):
        n = rng.randint(1, 48)
        phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
        raw_a, raw_b = random_raw(n), random_raw(n)
        a, b = canonicalize(n, raw_a), canonicalize(n, raw_b)
        pa, pb = raw_poly(raw_a, n), raw_poly(raw_b, n)
        assert poly(a, n).rem(phi) == pa.rem(phi)
        assert poly(a + b, n).rem(phi) == (pa + pb).rem(phi)
        assert poly(a * b, n).rem(phi) == (pa * pb).rem(phi)
        conj = {(-k) % n: c for k, c in raw_a.items()}
        assert poly(a.conjugate(), n).rem(phi) == raw_poly(conj, n).rem(phi)
        assert (a == b) == ((pa - pb).rem(phi) == 0)
        # the same value written another way: raw_a plus a multiple of Phi_N
        shift = sympy.Poly(x ** rng.randrange(n), x, domain="QQ") * phi * rng.randint(1, 3)
        other = (pa + shift).rem(sympy.Poly(x**n - 1, x, domain="QQ"))
        raw_c = {e: Fraction(str(c)) for (e,), c in other.as_dict().items()}
        assert canonicalize(n, raw_c) == a
        assert (canonicalize(n, raw_c) == a + ONE) is False
