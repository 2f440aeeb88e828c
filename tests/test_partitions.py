from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from wreathsph.partitions import (
    MultiPartition,
    Partition,
    doubling,
    from_frobenius,
    multipartitions,
    multipartitions_constrained,
    odd_partitions,
    partitions_of,
    shifted_tableau_count,
    strict_partitions,
)


def frobenius_coords(lam: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Arm and leg lengths along the main diagonal: the oracle for doubling."""
    cols = lam.transpose().parts
    d = sum(1 for i, p in enumerate(lam.parts) if p > i)
    arms = tuple(lam.parts[i] - i - 1 for i in range(d))
    legs = tuple(cols[i] - i - 1 for i in range(d))
    return arms, legs


def shifted_hook_product(mu: Partition) -> Fraction:
    """n! / (number of standard shifted tableaux)."""
    return Fraction(factorial(mu.size), shifted_tableau_count(mu))


def glaisher(mu: Partition) -> Partition:
    """The classical bijection from strict to odd partitions:
    a part m = 2^a * b with b odd becomes 2^a copies of b."""
    assert mu.is_strict()
    parts: list[int] = []
    for m in mu.parts:
        a = 0
        while m % 2 == 0:
            m //= 2
            a += 1
        parts.extend([m] * (1 << a))
    return Partition(sorted(parts, reverse=True))


def even_odd_split(lam: Partition) -> tuple[Partition, Partition]:
    """Split a partition into its even parts and its odd parts."""
    return (
        Partition(p for p in lam.parts if p % 2 == 0),
        Partition(p for p in lam.parts if p % 2 == 1),
    )


def parse_partition(text: str) -> Partition:
    """The inverse of str(Partition): parts joined by '+', empty for ()."""
    text = text.strip()
    if not text:
        return Partition()
    return Partition(int(p) for p in text.split("+"))


def test_enumerate_counts():
    assert len(partitions_of(4)) == 5
    assert partitions_of(0) == (Partition(),)
    # reverse-lexicographic: largest first
    assert [p.parts for p in partitions_of(5)][:3] == [(5,), (4, 1), (3, 2)]
    assert partitions_of(5)[-1].parts == (1,) * 5


def test_enumerate_multi_against_brute_oracle():
    # oracle: exhaustive cross product of single-slot enumerations
    for slots in (1, 2, 3):
        for n in range(5):
            brute = set()
            def rec(i, rest, acc):
                if i == slots:
                    if rest == 0:
                        brute.add(tuple(acc))
                    return
                for w in range(rest + 1):
                    for p in partitions_of(w):
                        rec(i + 1, rest - w, acc + [p])
            rec(0, n, [])
            got = multipartitions(slots, n)
            assert len(got) == len(brute)
            assert {tuple(mp.parts) for mp in got} == brute
    assert len(multipartitions(2, 2)) == 5


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_doubling_anchor():
    assert doubling(Partition((4, 2, 1))) == Partition((5, 4, 4, 1))


def test_doubling_small_by_frobenius_oracle():
    # oracle: the diagonal hooks of the double are (mu_i | mu_i - 1)
    for n in range(0, 9):
        for mu in strict_partitions(n):
            d = doubling(mu)
            assert d.size == 2 * mu.size
            arms, legs = frobenius_coords(d)
            assert arms == mu.parts
            assert legs == tuple(p - 1 for p in mu.parts)
            assert from_frobenius(arms, legs) == d
    assert doubling(Partition((1,))) == Partition((2,))
    assert doubling(Partition((2, 1))) == Partition((3, 3))


def test_doubling_rejects_non_strict():
    with pytest.raises(ValueError):
        doubling(Partition((2, 2)))


def test_stats_examples():
    lam = Partition((2, 1))
    assert lam.hook_product() == 3
    assert lam.aut_order() == 2
    assert lam.transpose() == lam
    for n in range(1, 7):
        assert Partition((n,)).hook_product() == factorial(n)
    assert shifted_tableau_count(Partition((2, 1))) == 1
    assert shifted_hook_product(Partition((2, 1))) == 6


def test_shifted_tableaux_against_brute_enumeration():
    # oracle: fill the shifted diagram cell by cell with 1..n increasing
    # along rows and columns
    def brute(mu):
        cells = [(i, i + j) for i, p in enumerate(mu.parts) for j in range(p)]
        count = 0
        for order in permutations(range(len(cells))):
            fill = {cell: order[k] for k, cell in enumerate(cells)}
            ok = True
            for (i, j), v in fill.items():
                if (i, j + 1) in fill and fill[(i, j + 1)] < v:
                    ok = False
                if (i + 1, j) in fill and fill[(i + 1, j)] < v:
                    ok = False
            count += ok
        return count

    for n in range(1, 7):
        for mu in strict_partitions(n):
            assert shifted_tableau_count(mu) == brute(mu)


def test_transpose_involution_and_lengths():
    for n in range(8):
        for lam in partitions_of(n):
            t = lam.transpose()
            assert t.transpose() == lam
            assert t.size == lam.size
            if lam.parts:
                assert len(t) == lam.parts[0]


def test_aut_order_counts_permutations():
    # z_rho times the number of permutations of that cycle type is n!
    for n in range(1, 7):
        counts = {rho: 0 for rho in partitions_of(n)}
        for perm in permutations(range(n)):
            seen = [False] * n
            lengths = []
            for s in range(n):
                if seen[s]:
                    continue
                ln, j = 0, s
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    ln += 1
                lengths.append(ln)
            counts[Partition(sorted(lengths, reverse=True))] += 1
        for rho, cnt in counts.items():
            assert rho.aut_order() * cnt == factorial(n)


def test_strict_odd_bijection():
    for n in range(13):
        sp, op = strict_partitions(n), odd_partitions(n)
        assert len(sp) == len(op)
        image = {glaisher(mu) for mu in sp}
        assert image == set(op)


def test_even_odd_split_bijection():
    for n in range(9):
        image = {even_odd_split(lam) for lam in partitions_of(n)}
        assert len(image) == len(partitions_of(n))
        for ev, od in image:
            assert ev.is_even() and od.is_odd()
            assert ev.size + od.size == n


def test_multipartition_ops():
    a = MultiPartition([Partition((2,)), Partition((1,))])
    assert a.weight == 3
    assert a.hat() == Partition((2, 1))
    assert a.transpose() == MultiPartition([Partition((1, 1)), Partition((1,))])


def test_partition_text_roundtrip():
    for n in range(7):
        for lam in partitions_of(n):
            assert parse_partition(str(lam)) == lam


def test_multipartition_json_roundtrip():
    labels = ("a", "b")
    for mp in multipartitions(2, 3):
        obj = mp.to_json(labels)
        assert MultiPartition(obj.get(lab, ()) for lab in labels) == mp


@given(st.lists(st.integers(1, 6), min_size=0, max_size=6))
@settings(max_examples=80, deadline=None)
def test_partition_factory_sorts(parts):
    lam = Partition(sorted(parts, reverse=True))
    assert lam.size == sum(parts)
    assert lam.multiplicities().get(3, 0) == parts.count(3)


def sorted_choice_tuples(families, n):
    """The reference for multipartitions_constrained: every tuple of
    choices, slot i from families[i](w_i) with the w_i adding up to n,
    sorted by sort key."""

    def gen(slot, rest):
        if slot == len(families):
            if rest == 0:
                yield ()
            return
        for w in range(rest + 1):
            for p in families[slot](w):
                for tail in gen(slot + 1, rest - w):
                    yield (p,) + tail

    return tuple(sorted((MultiPartition(t) for t in gen(0, n)), key=MultiPartition.sort_key))


def test_constrained_enumeration_matches_sorted_reference():
    # zero to three slots, n = 0 included, over all partitions, the empty
    # partition alone (wreath._empty_family), no choice at all, and the
    # even-part and odd-part families
    from wreathsph.wreath import _empty_family, _even_parts_family, _odd_parts_family

    families = (partitions_of, _empty_family, lambda w: (), _even_parts_family, _odd_parts_family)
    for slots in range(4):
        for combo in product(families, repeat=slots):
            for n in range(6):
                got = multipartitions_constrained(combo, n)
                assert got == sorted_choice_tuples(combo, n), (combo, n)
    assert multipartitions_constrained((), 0) == (MultiPartition(()),)
    assert multipartitions_constrained((), 3) == ()


def test_public_multipartition_validates_its_parts():
    assert MultiPartition([(2, 1), ()]).parts == (Partition((2, 1)), Partition())
    with pytest.raises(ValueError):
        MultiPartition([(1, 2)])
