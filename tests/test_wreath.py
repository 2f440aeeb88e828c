import json
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import factorial
from pathlib import Path

import pytest

from wreathsph.cyclo import CycNum, ONE, ZERO, sum_products
from wreathsph.groups import (
    CapExceeded,
    Caps,
    GroupError,
    bundled,
    bundled_group_path,
    bundled_names,
    bundled_table_path,
    fuse_classes,
    linear_characters,
    load_group,
    load_table,
    twisted_indicator,
)
from wreathsph.partitions import (
    MultiPartition,
    Partition,
    doubling,
    multipartitions,
    partitions_of,
    strict_partitions,
)
from wreathsph.spherical import SphericalContext
from wreathsph.wreath import (
    DELTA,
    IOTA,
    PI_NAMES,
    PairedChar,
    WreathElement,
    block_pi,
    class_type,
    conj_theta_table,
    coset_label_set,
    coset_rep,
    coset_stabilizer,
    decompose_induced,
    epsilon_sign,
    hyperoct_perms,
    hyperoct_pi,
    irrep_label_set,
    k_type_weights,
    p_compose,
    p_cycles,
    p_identity,
    p_inverse,
    p_sign,
    perm_of_partition,
    self_row_shapes,
    theta_type_weights,
    type_centralizer_order,
    w_identity,
    w_inv,
    w_mul,
    wreath_character,
    wreath_dim,
    wreath_order,
    wreath_table_json,
)
from test_partitions import frobenius_coords

P = Partition
RNG = random.Random(7)


def random_element(group, n, rng=RNG):
    base = tuple(rng.randrange(group.order) for _ in range(n))
    perm = list(range(n))
    rng.shuffle(perm)
    return WreathElement(base, tuple(perm))


def p_from_transpositions(n, pairs):
    """The permutation of n points made by swapping each pair in turn."""
    out = list(range(n))
    for a, b in pairs:
        out[a], out[b] = out[b], out[a]
    return tuple(out)


def phi_embed(tau):
    """The block-diagonal embedding sending i to the pair block tau(i)."""
    out = []
    for t in tau:
        out += (2 * t, 2 * t + 1)
    return tuple(out)


def cycle_type(perm):
    return P(sorted((len(c) for c in p_cycles(perm)), reverse=True))


def hg_elements(group, n):
    """The doubled-base subgroup K listed explicitly, in the order the
    library walks it: each doubled base, in the order of G^n, with each
    element of hyperoct_perms(n)."""
    return [
        WreathElement(tuple(g for g in gs for _ in (0, 1)), sigma)
        for gs in iproduct(range(group.order), repeat=n)
        for sigma in hyperoct_perms(n)
    ]


def reference_in_hyperoct(sigma):
    """H_n by its definition: sigma maps each pair {2i, 2i+1} onto a pair."""
    return len(sigma) % 2 == 0 and all(
        sigma[2 * i] // 2 == sigma[2 * i + 1] // 2 for i in range(len(sigma) // 2)
    )


def reference_pi(pi, sigma):
    """pi on H_n from delta(sigma), the sign of sigma on the 2n points, and
    iota(sigma), the sign of sigma's action on the n pairs."""
    delta = p_sign(sigma)
    iota = p_sign(tuple(sigma[2 * i] // 2 for i in range(len(sigma) // 2)))
    return {"triv": 1, "delta": delta, "iota": iota, "delta-iota": delta * iota}[pi]


def reference_in_k(x):
    """The doubled-base subgroup by its definition: a doubled base and a
    permutation in H_n."""
    base = x.base
    doubled = all(base[2 * i] == base[2 * i + 1] for i in range(len(base) // 2))
    return doubled and reference_in_hyperoct(x.perm)


def reversal_element(m):
    """The involution reversing the first 2m-2 points and swapping the last two."""
    pairs = [(k - 1, 2 * m - k - 2) for k in range(1, m)] + [(2 * m - 2, 2 * m - 1)]
    return p_from_transpositions(2 * m, pairs)


def double_step_element(m):
    """The inverse square of the full 2m-cycle."""
    full = perm_of_partition(P((2 * m,)))
    return p_inverse(p_compose(full, full))


def interleaved_cycle(m):
    """(1,3,...,2m-1)(0,2,...,2m-2) in 0-indexed one-line form."""
    out = [0] * (2 * m)
    for i in range(m):
        out[2 * i] = (2 * i + 2) % (2 * m)
        out[2 * i + 1] = (2 * i + 3) % (2 * m) if i < m - 1 else 1
    return tuple(out)


def hecke_basis_value(group, theta, x, hg):
    """Value at x of the two-sided average e x e; zero iff the whole element
    vanishes, since the average is supported on the double coset of x."""
    xinv = w_inv(group, x)
    tot = ZERO
    for h in hg:
        k = w_mul(group, w_mul(group, xinv, w_inv(group, h)), x)
        if reference_in_k(k):
            tot = tot + theta.value(h).conjugate() * theta.value(k).conjugate()
    return tot * Fraction(1, len(hg) ** 2)


def test_group_laws():
    group, _ = bundled("q8")
    n = 3
    e = w_identity(n)
    for _ in range(40):
        x, y, z = (random_element(group, n) for _ in range(3))
        assert w_mul(group, w_mul(group, x, y), z) == w_mul(group, x, w_mul(group, y, z))
        assert w_mul(group, x, e) == x == w_mul(group, e, x)
        assert w_mul(group, x, w_inv(group, x)) == e


def test_class_type_examples():
    group, _ = bundled("q8")
    n = 3
    ident = class_type(group, w_identity(n))
    assert ident[0] == P((1, 1, 1)) and ident.weight == 3
    # a single full cycle carrying one nontrivial entry at the end
    g = 2  # a generator
    x = WreathElement((0,) * (2 * n - 1) + (g,), perm_of_partition(P((2 * n,))))
    t = class_type(group, x)
    assert t[group.class_of[g]] == P((2 * n,))


def test_class_type_conjugation_invariant():
    group, _ = bundled("c4")
    n = 4
    for _ in range(60):
        x = random_element(group, n)
        y = random_element(group, n)
        conj = w_mul(group, w_mul(group, y, x), w_inv(group, y))
        assert class_type(group, conj) == class_type(group, x)


def test_class_sizes_sum():
    for name, n in (("c2", 3), ("c3", 2), ("q8", 2)):
        group, _ = bundled(name)
        total = sum(
            wreath_order(group, n) // type_centralizer_order(group, tau)
            for tau in multipartitions(len(group.classes), n)
        )
        assert total == wreath_order(group, n)


def test_wreath_character_degenerate_cases():
    group, table = bundled("c4")
    # degree 1: the wreath product is the group itself
    for chi in range(4):
        lam = MultiPartition(
            [P((1,)) if i == chi else P() for i in range(4)]
        )
        for c in range(4):
            tau = MultiPartition([P((1,)) if i == c else P() for i in range(4)])
            assert wreath_character(table, lam, tau) == table.rows[chi][c]
    # the trivial label: value 1 at every class
    n = 2
    triv = MultiPartition([P((n,)), P(), P(), P()])
    for tau in multipartitions(4, n):
        assert wreath_character(table, triv, tau) == ONE


def test_wreath_dims():
    for name, n in (("c2", 3), ("q8", 2)):
        group, table = bundled(name)
        lams = multipartitions(len(table.rows), n)
        assert sum(wreath_dim(table, l) ** 2 for l in lams) == wreath_order(group, n)
        ident = class_type(group, w_identity(n))
        for l in lams:
            assert wreath_character(table, l, ident).as_int() == wreath_dim(table, l)


def test_hyperoct_order_and_membership():
    # H_n in the order of its construction prod_i (2i,2i+1)^eps_i . phi(tau),
    # over tau, then eps
    for n in (1, 2, 3, 4):
        perms = hyperoct_perms(n)
        assert len(perms) == 2**n * factorial(n)
        assert len(set(perms)) == len(perms)
        flips = [(2 * i, 2 * i + 1) for i in range(n)]
        assert list(perms) == [
            p_compose(p_from_transpositions(2 * n, [f for f, e in zip(flips, eps) if e]),
                      phi_embed(tau))
            for tau in permutations(range(n))
            for eps in iproduct((0, 1), repeat=n)
        ]
        # centralizer property: each commutes with the fixed involution
        t = p_from_transpositions(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])
        for sigma in perms[:: max(1, len(perms) // 24)]:
            assert p_compose(sigma, t) == p_compose(t, sigma)


def pi_through_theta(table, pi, sigma):
    """pi at sigma as theta = pi of the trivial group c1 reads it."""
    x = WreathElement((0,) * len(sigma), sigma)
    return PairedChar(table, 0, pi, len(sigma) // 2).value(x).as_int()


def pi_through_hyperoct(pi, sigma):
    """pi at sigma as hyperoct_pi lists it."""
    n = len(sigma) // 2
    return hyperoct_pi(pi, n)[hyperoct_perms(n).index(sigma)]


def test_pi_value_examples():
    _group, table = bundled("c1")
    swap = p_from_transpositions(2, [(0, 1)])
    cross = p_from_transpositions(4, [(0, 2), (1, 3)])
    for pi_at in (partial(pi_through_theta, table), pi_through_hyperoct):
        assert pi_at("delta", swap) == -1 and pi_at("iota", swap) == 1
        assert pi_at("delta", cross) == 1 and pi_at("iota", cross) == -1
    for outside in ((1, 2, 0, 3), (1, 0, 2)):
        with pytest.raises(GroupError):
            pi_through_theta(table, "triv", outside)


def test_pi_multiplicative():
    _group, table = bundled("c1")
    perms = hyperoct_perms(3)
    for _ in range(50):
        a, b = RNG.choice(perms), RNG.choice(perms)
        ab = p_compose(a, b)
        for pi in PI_NAMES:
            for pi_at in (partial(pi_through_theta, table), pi_through_hyperoct):
                assert pi_at(pi, ab) == pi_at(pi, a) * pi_at(pi, b)


def test_theta_examples_and_multiplicativity():
    group, table = bundled("c2")
    theta = PairedChar(table, 1, "iota", 1)
    assert theta.value(w_identity(2)) == ONE
    x = WreathElement((1, 1), p_from_transpositions(2, [(0, 1)]))
    assert theta.value(x) == CycNum.rational(-1)  # xi(g) * 1
    theta_d = PairedChar(table, 1, "delta", 1)
    assert theta_d.value(x) == ONE  # -xi(g)
    x2 = WreathElement((1, 1), p_identity(2))
    assert theta_d.value(x2) == CycNum.rational(-1)
    group, table = bundled("q8")
    for pi in ("triv", "delta", "iota", "delta-iota"):
        theta = PairedChar(table, 1, pi, 2)
        hg = hg_elements(group, 2)
        for _ in range(40):
            a, b = RNG.choice(hg), RNG.choice(hg)
            assert theta.value(w_mul(group, a, b)) == theta.value(a) * theta.value(b)


def test_theta_rejects_outside_subgroup():
    group, table = bundled("c2")
    theta = PairedChar(table, 1, "triv", 1)
    with pytest.raises(GroupError):
        theta.value(WreathElement((0, 1), p_identity(2)))
    # a doubled base whose permutation moves a point across the pair blocks;
    # a second call must not turn into a value either
    theta = PairedChar(table, 1, "iota", 2)
    outside = WreathElement((1, 1, 0, 0), (1, 2, 0, 3))
    for _ in range(2):
        with pytest.raises(GroupError, match="not in the doubled-base subgroup"):
            theta.value(outside)


def test_theta_rejects_elements_of_another_degree():
    # elements of K at degree 4 and 0 are not in the subgroup of degree 2
    _group, table = bundled("c2")
    theta = PairedChar(table, 1, "iota", 1)
    for x in (WreathElement((1, 1, 0, 0), (2, 3, 0, 1)), w_identity(4), w_identity(0)):
        with pytest.raises(GroupError, match="not in the doubled-base subgroup of degree 2"):
            theta.value(x)


def test_theta_read_off_the_element_at_n6():
    # theta at degree 6 on c2 agrees with the definitions at seeded
    # elements inside K (built from a random pair permutation and random
    # flips) and outside it (a base that is not doubled, a permutation
    # outside H_6, a random element), without building H_6
    group, table = bundled("c2")
    n = 6
    rng = random.Random("theta-n6")
    misses = hyperoct_perms.cache_info().misses
    inside, outside = [], []
    for _ in range(40):
        tau = rng.sample(range(n), n)
        flips = [rng.randrange(2) for _ in range(n)]
        sigma = tuple(v for t in tau for v in (2 * t + flips[t], 2 * t + 1 - flips[t]))
        gs = [rng.randrange(group.order) for _ in range(n)]
        base = tuple(g for g in gs for _ in (0, 1))
        inside.append(WreathElement(base, sigma))
        undoubled = list(base)
        undoubled[2 * rng.randrange(n)] ^= 1
        outside.append(WreathElement(tuple(undoubled), sigma))
        moved = list(sigma)
        i, j = rng.sample(range(2 * n), 2)
        moved[i], moved[j] = moved[j], moved[i]
        outside += [WreathElement(base, tuple(moved)), random_element(group, 2 * n, rng)]
    outside = [x for x in outside if not reference_in_k(x)]
    assert all(map(reference_in_k, inside)) and len(outside) >= 80
    for xi in linear_characters(table):
        for pi in PI_NAMES:
            theta = PairedChar(table, xi, pi, n)
            for x in inside:
                prod = 0
                for g in x.base[::2]:
                    prod = group.mul[prod][g]
                want = table.value(xi, prod) * reference_pi(pi, x.perm)
                assert theta.value(x) == want, (xi, pi, x)
            for x in outside:
                with pytest.raises(GroupError, match="not in the doubled-base subgroup"):
                    theta.value(x)
    assert hyperoct_perms.cache_info().misses == misses


def test_conj_theta_table_matches_per_element_theta():
    # theta read off the construction of K equals theta element by element:
    # every bundled group at n <= 2 (a seeded sample of K where it has more
    # than 4096 elements), every linear xi and every pi; one entry per
    # doubled base, in the order hg_elements lists them; equal values share
    # one object; and the element cap is checked
    for name in bundled_names():
        group, table = bundled(name)
        rng = random.Random(f"theta-{name}")
        for n in (1, 2):
            hg = hg_elements(group, n)
            bases = list(dict.fromkeys(h.base for h in hg))
            position = {b: i for i, b in enumerate(bases)}
            if len(hg) > 4096:
                hg = rng.sample(hg, 512)
            for xi in linear_characters(table):
                for pi in PI_NAMES:
                    theta = PairedChar(table, xi, pi, n)
                    factors = conj_theta_table(theta)
                    assert sorted(factors) == [-1, 1]
                    for entries in factors.values():
                        assert [b for b, _ in entries] == bases
                    for h in hg:
                        base, got = factors[reference_pi(pi, h.perm)][position[h.base]]
                        assert base == h.base
                        assert got == theta.value(h).conjugate(), (name, n, xi, pi, h)
                    values = [w for entries in factors.values() for _, w in entries]
                    assert len({id(v) for v in values}) == len(set(values))
            size = len(bases) * len(hyperoct_perms(n))
            with pytest.raises(CapExceeded, match="cap-elements"):
                conj_theta_table(theta, Caps(max_elements=size - 1))


def test_hyperoct_pi_read_from_construction():
    # H_n and pi over it, through hyperoct_pi and through theta = pi on c1,
    # agree with the definitions: every permutation of 2n points for
    # n <= 3, and H_4 with a seeded sample of S_8; a permutation outside
    # H_n raises through PairedChar.value
    _group, table = bundled("c1")
    rng = random.Random("hyperoct")
    for n in range(1, 5):
        perms = hyperoct_perms(n)
        assert all(reference_in_hyperoct(h) for h in perms)
        for pi in PI_NAMES:
            want = tuple(reference_pi(pi, h) for h in perms)
            assert hyperoct_pi(pi, n) == want, (n, pi)
            got = tuple(pi_through_theta(table, pi, h) for h in perms)
            assert got == want, (n, pi)
        if n <= 3:
            points = list(permutations(range(2 * n)))
            assert sum(map(reference_in_hyperoct, points)) == len(perms)
        else:
            points = [tuple(rng.sample(range(2 * n), 2 * n)) for _ in range(2000)]
        outside = [s for s in points if not reference_in_hyperoct(s)]
        for pi in PI_NAMES:
            theta = PairedChar(table, 0, pi, n)
            for sigma in outside[:: max(1, len(outside) // 200)]:
                with pytest.raises(GroupError, match="not in the doubled-base"):
                    theta.value(WreathElement((0,) * (2 * n), sigma))


def test_block_permutation_anchor():
    p = perm_of_partition(P((4, 2, 2)))
    assert tuple(v + 1 for v in p) == (2, 3, 4, 1, 6, 5, 8, 7)


def test_coset_rep_anchor_order4_group():
    group, _ = bundled("c4")
    rho = MultiPartition([P(), P((1,)), P((2, 1))])
    x = coset_rep(group, rho)
    assert x.base == (0, 1, 0, 0, 0, 2, 0, 2)
    assert tuple(v + 1 for v in x.perm) == (2, 1, 4, 5, 6, 3, 8, 7)


def reference_coset_rep(group, rho):
    """The representative as side-by-side blocks: per part p at merged class
    R, the element of degree 2p with base (1, ..., 1, g_R) and the full
    cycle, its indices shifted past the blocks before it."""
    base, perm = [], []
    for m, part in zip(group.merged, rho):
        for p in part:
            block = WreathElement(
                (0,) * (2 * p - 1) + (m.rep_element,), perm_of_partition(P((2 * p,)))
            )
            perm += [v + len(base) for v in block.perm]
            base += block.base
    return WreathElement(tuple(base), tuple(perm))


def test_coset_rep_matches_block_concatenation():
    for name in bundled_names():
        group, _ = bundled(name)
        for n in range(4):
            for rho in multipartitions(len(group.merged), n):
                assert coset_rep(group, rho) == reference_coset_rep(group, rho), (name, rho)


def test_coset_stabilizer_refuses_odd_degree():
    group, _ = bundled("c2")
    for degree in (1, 3):
        with pytest.raises(GroupError, match="odd degree"):
            coset_stabilizer(group, w_identity(degree))


def test_coset_rep_identity_pattern():
    group, _ = bundled("c2")
    rho = MultiPartition([P((1, 1, 1)), P()])
    x = coset_rep(group, rho)
    assert x.base == (0,) * 6
    assert tuple(v + 1 for v in x.perm) == (2, 1, 4, 3, 6, 5)


def test_coset_stabilizer_of_inverse_has_same_size():
    # the pairs are those of K x K with h x k = x, in the order of K; K x^-1 K
    # is the inverse of KxK, so both have the same size
    for name, n in (("c2", 2), ("q8", 1)):
        group, _ = bundled(name)
        hg = hg_elements(group, n)
        points = [random_element(group, 2 * n) for _ in range(6)] + [
            coset_rep(group, rho) for rho in multipartitions(len(group.merged), n)
        ]
        for x in points:
            pairs = coset_stabilizer(group, x)
            xinv = w_inv(group, x)
            want = [(h, w_mul(group, w_mul(group, xinv, w_inv(group, h)), x)) for h in hg]
            assert pairs == [(h, k) for h, k in want if reference_in_k(k)]
            assert all(w_mul(group, w_mul(group, h, x), k) == x for h, k in pairs)
            assert len(pairs) == len(coset_stabilizer(group, w_inv(group, x)))


def test_explicit_involution_identities():
    for m in (1, 2, 3, 4):
        x = reversal_element(m)
        y = double_step_element(m)
        tau = interleaved_cycle(m)
        sigma = perm_of_partition(P((2 * m,)))
        assert p_compose(p_compose(x, sigma), p_compose(y, x)) == sigma
        assert p_compose(p_compose(x, y), x) == tau
        # tau = phi(body), with no pair flipped
        body = tuple(tau[2 * i] // 2 for i in range(m))
        assert tau == phi_embed(body)
        if m > 1:
            assert cycle_type(body) == P((m,))


def test_explicit_wreath_identities():
    group, _ = bundled("q8")
    g, z = 2, 4  # z g z^-1 = g^-1
    assert group.mul[group.mul[z][g]][group.inv[z]] == group.inv[g]
    for m in (2, 3, 4):
        gi_z = group.mul[group.inv[g]][z]
        zi_g = group.mul[group.inv[z]][g]
        a = WreathElement(tuple([gi_z] * (2 * m - 2) + [z, z]), reversal_element(m))
        b = WreathElement(tuple([0] * (2 * m - 1) + [g]), perm_of_partition(P((2 * m,))))
        c = WreathElement(
            tuple([zi_g] * (2 * m)),
            p_compose(double_step_element(m), reversal_element(m)),
        )
        assert w_mul(group, w_mul(group, a, b), c) == b
        prod = w_mul(group, a, c)
        assert prod == WreathElement(
            tuple([0] * (2 * m - 2) + [g, g]), interleaved_cycle(m)
        )
        assert reference_in_k(prod)


def test_index_sets_q8_shape():
    _, table = bundled("q8")
    for pi in ("triv", "iota"):
        for n in (1, 2):
            for lam in irrep_label_set(table, 1, pi, n):
                # shape (a, a, b, b, doubled-ish) up to the pairing convention
                assert lam[0] == lam[1] or lam[0] == lam[1].transpose()
                assert lam[2] == lam[3] or lam[2] == lam[3].transpose()
                if epsilon_sign(pi) == 1:
                    assert lam[0] == lam[1] and lam[2] == lam[3]


def test_index_sets_trivial_group():
    _, table = bundled("c1")
    labels = irrep_label_set(table, 0, "triv", 2)
    assert {l[0] for l in labels} == {P((4,)), P((2, 2))}


def reference_multipartitions(num_slots, n):
    """The slot-by-slot generator that multipartitions used to run."""

    def gen(slot, rest):
        if slot == num_slots - 1:
            for p in partitions_of(rest):
                yield (p,)
            return
        for w in range(rest + 1):
            for p in partitions_of(w):
                for tail in gen(slot + 1, rest - w):
                    yield (p,) + tail

    if num_slots == 0:
        return (MultiPartition(()),) if n == 0 else ()
    return tuple(sorted((MultiPartition(t) for t in gen(0, n)), key=MultiPartition.sort_key))


def reference_self_row_shapes(pi, nu, w):
    """A self-paired row's shapes at weight w: 2mu for mu |- w/2 under the
    unsigned pi, the double of a strict mu |- w/2 under the signed, each
    transposed when block_pi(pi, nu) contains delta."""
    if w % 2:
        return []
    if epsilon_sign(pi) == 1:
        shapes = [Partition(tuple(2 * p for p in mu)) for mu in partitions_of(w // 2)]
    else:
        shapes = [doubling(mu) for mu in strict_partitions(w // 2)]
    if "delta" in block_pi(pi, nu):
        return [shape.transpose() for shape in shapes]
    return shapes


def reference_irrep_label_set(table, xi, pi, n):
    """The recursion irrep_label_set used to run: a split pair takes a shape
    of weight w for the representative row and its copy (or, for the signed
    pi, its transpose) for the partner, using 2w of the total weight."""
    fus = fuse_classes(table, xi)
    slots = []
    for chi in fus.eta_reps:
        partner = fus.row_partner[chi]
        if partner == chi:
            fam = partial(reference_self_row_shapes, pi, twisted_indicator(table, xi, chi))
            slots.append(("self", chi, fam))
        else:
            slots.append(("pair", chi, partner))
    results = []

    def rec(idx, rest, assign):
        if idx == len(slots):
            if rest == 0:
                parts = [assign.get(chi, Partition()) for chi in range(len(table.rows))]
                results.append(MultiPartition(parts))
            return
        kind, chi, data = slots[idx]
        if kind == "self":
            for w in range(0, rest + 1):
                for lam in data(w):
                    assign[chi] = lam
                    rec(idx + 1, rest - w, assign)
                assign.pop(chi, None)
        else:
            for w in range(0, rest // 2 + 1):
                for lam in partitions_of(w):
                    assign[chi] = lam
                    assign[data] = lam if epsilon_sign(pi) == 1 else lam.transpose()
                    rec(idx + 1, rest - 2 * w, assign)
                assign.pop(chi, None)
                assign.pop(data, None)

    rec(0, 2 * n, {})
    results.sort(key=MultiPartition.sort_key)
    return tuple(results)


def test_multipartitions_match_reference_generator():
    for q in range(6):
        for n in range(5):
            assert multipartitions(q, n) == reference_multipartitions(q, n), (q, n)


def test_irrep_label_sets_match_reference_recursion():
    # n = 5 on c2, c4 and q8 covers the signed-pi transposes of split pairs
    # at a weight where a shape and its transpose can both be chosen
    for name in bundled_names():
        _, table = bundled(name)
        top = 5 if name in ("c2", "c4", "q8") else 4
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                for n in range(1, top + 1):
                    want = reference_irrep_label_set(table, xi, pi, n)
                    assert irrep_label_set(table, xi, pi, n) == want, (
                        name, xi, pi, n
                    )


def test_self_row_shapes_send_each_shape_to_its_mu():
    # a transpose swaps the arms and legs of the Frobenius coordinates
    for bits in range(4):
        for m in range(7):
            shapes = self_row_shapes(bits, m)
            # two mu on one shape would leave one value out: the keys differ
            assert tuple(shapes.values()) == (
                strict_partitions(m) if bits & IOTA else partitions_of(m)
            )
            for shape, mu in shapes.items():
                assert shape.size == 2 * m
                if bits & IOTA:  # doubling's diagonal hooks (mu_i | mu_i - 1)
                    coords = (mu.parts, tuple(p - 1 for p in mu.parts))
                else:
                    coords = frobenius_coords(Partition(tuple(2 * p for p in mu)))
                arms, legs = frobenius_coords(shape)
                assert ((legs, arms) if bits & DELTA else (arms, legs)) == coords, (bits, shape)


def assert_well_formed_labels(labels):
    """Labels built by the trusted constructor: every part a Partition, each
    label equal to the checked MultiPartition of its sort key and hashing
    the same, and sort keys strictly increasing, so no duplicates."""
    keys = [lab.sort_key() for lab in labels]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for lab in labels:
        assert type(lab.parts) is tuple
        assert all(type(p) is Partition for p in lab.parts)
        checked = MultiPartition(lab.sort_key())
        assert checked == lab and hash(checked) == hash(lab)


def test_trusted_labels_are_well_formed():
    for q in range(6):
        for n in range(6):
            assert_well_formed_labels(multipartitions(q, n))
    for name in bundled_names():
        _, table = bundled(name)
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                for n in range(1, 5):
                    assert_well_formed_labels(irrep_label_set(table, xi, pi, n))
                    assert_well_formed_labels(
                        coset_label_set(table, xi, epsilon_sign(pi), n)
                    )


def reference_coset_label_set(table, xi, sign, n):
    """The per-call slot families coset_label_set used to build, enumerated
    slot by slot and sorted once."""
    minus_one = CycNum.rational(-1)
    merged = table.group.merged

    def family(i):
        m = merged[i]
        xi_neg = m.real and table.value(xi, m.rep_element) == minus_one
        if sign > 0:
            if xi_neg:
                return lambda w: (Partition(),) if w == 0 else ()
            return partitions_of
        if not m.real:
            return partitions_of
        if xi_neg:
            return lambda w: tuple(p for p in partitions_of(w) if p.is_even())
        return lambda w: tuple(p for p in partitions_of(w) if p.is_odd())

    families = [family(i) for i in range(len(merged))]

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


def test_coset_label_sets_match_reference_families():
    for name in bundled_names():
        _, table = bundled(name)
        for xi in linear_characters(table):
            for sign in (1, -1):
                for n in range(1, 5):
                    want = reference_coset_label_set(table, xi, sign, n)
                    assert coset_label_set(table, xi, sign, n) == want, (
                        name, xi, sign, n
                    )


def test_coset_label_set_reads_no_character_value(monkeypatch):
    # the slot families come from the fusion's eta_signs alone
    from wreathsph.groups import CharacterTable

    tables = [bundled(name)[1] for name in bundled_names()]
    for table in tables:
        for xi in linear_characters(table):
            fuse_classes(table, xi)

    def no_value(*_args):
        raise AssertionError("coset_label_set read a character value")

    monkeypatch.setattr(CharacterTable, "value", no_value)
    for table in tables:
        for xi in linear_characters(table):
            for sign in (1, -1):
                for n in range(1, 4):
                    coset_label_set(table, xi, sign, n)


def test_label_sets_evaluate_each_indicator_once(monkeypatch):
    # a fresh (table, xi): building both label sets for every pi and n, and
    # reading nu on their contexts, evaluates each self-paired row's
    # indicator once and a split row's (0 by the dichotomy) never
    import wreathsph.groups as groups
    import wreathsph.spherical as spherical
    import wreathsph.wreath as wreath

    calls = Counter()
    indicator = groups.twisted_indicator

    def counting(table, xi, chi):
        calls[chi] += 1
        return indicator(table, xi, chi)

    for module in (groups, wreath, spherical):
        if hasattr(module, "twisted_indicator"):
            monkeypatch.setattr(module, "twisted_indicator", counting)
    group = load_group(bundled_group_path("gl2f3"))
    table = load_table(bundled_table_path("gl2f3"), group)
    xi = table.row_by_name("chi2")
    for pi in PI_NAMES:
        for n in range(1, 5):
            irrep_label_set(table, xi, pi, n)
            coset_label_set(table, xi, epsilon_sign(pi), n)
            ctx = SphericalContext(group, table, xi, pi, n)
            assert [ctx.fusion.nu[chi] for chi in range(8)] == [0, 0, -1, 0, 0, -1, -1, -1]
    partner = fuse_classes(table, xi).row_partner
    assert calls == Counter(chi for chi in range(8) if partner[chi] == chi)


def test_bundled_pairs_load_once(monkeypatch):
    import wreathsph.groups as groups

    loads = []
    load_table_ = groups.load_table

    def counting(*args, **kwargs):
        loads.append(args)
        return load_table_(*args, **kwargs)

    monkeypatch.setattr(groups, "load_table", counting)
    first = bundled("c4")
    before = len(loads)
    second = bundled("c4")
    assert second[0] is first[0] and second[1] is first[1]
    assert len(loads) == before


def test_decompose_degree_one_families():
    # degree-2 case: three families per the indicator values
    for name in ("c4", "q8"):
        group, table = bundled(name)
        for xi in linear_characters(table):
            dec = decompose_induced(table, PairedChar(table, xi, "triv", 1))
            assert set(dec.values()) == {1}
            for lam in dec:
                sup = tuple(i for i, p in enumerate(lam) if p.size)
                if len(sup) == 2:
                    assert twisted_indicator(table, xi, sup[0]) == 0
                else:
                    (chi,) = sup
                    nu = twisted_indicator(table, xi, chi)
                    assert nu == 1 and lam[chi] == P((2,)) or (
                        nu == -1 and lam[chi] == P((1, 1))
                    )


def test_decompose_dimension_bookkeeping():
    group, table = bundled("c3")
    for xi in (0, 1):
        for pi in ("triv", "iota"):
            n = 2
            dec = decompose_induced(table, PairedChar(table, xi, pi, n))
            index = wreath_order(group, 2 * n) // (group.order**n * 2**n * factorial(n))
            assert sum(wreath_dim(table, lam) for lam in dec) == index


def test_decompose_refuses_theta_on_another_table():
    # c5 and q8 both have 5 classes, so the class alphabets alone agree
    _, c5 = bundled("c5")
    _, q8 = bundled("q8")
    with pytest.raises(GroupError, match="built on the q8 table, not the c5 table"):
        decompose_induced(c5, PairedChar(q8, 1, "triv", 1))


@pytest.mark.parametrize("name", ["c4", "q8"])
def test_decompose_inverse_map_matches_forward_rows(name):
    # decompose_induced pushes the type weights through the inverse
    # characteristic map; the reciprocity sum over forward rows must agree
    n = 2
    group, table = bundled(name)
    hg_size = group.order**n * 2**n * factorial(n)
    lams = multipartitions(len(table.rows), 2 * n)
    for xi in linear_characters(table):
        for pi in ("triv", "delta", "iota", "delta-iota"):
            theta = PairedChar(table, xi, pi, n)
            weights = theta_type_weights(theta)
            direct = {}
            for lam in lams:
                tot = sum_products(
                    (wreath_character(table, lam, tau), w, Fraction(1, hg_size))
                    for tau, w in weights.items()
                )
                if tot:
                    direct[lam] = tot.as_int()
            assert decompose_induced(table, theta) == direct, (xi, pi)


@pytest.mark.parametrize("name, n", [("c4", 4), ("q8", 3)])
def test_wreath_rows_read_out_once_per_table(monkeypatch, name, n):
    # every distinct read-out (image vector, its denominator, Z_tau) is
    # reduced once per table, rows sharing one object per read-out, and a
    # repeated read reduces nothing; the values are Z_tau times the image's
    # terms
    import json

    import wreathsph.symfunc as symfunc
    import wreathsph.wreath as wreath

    group = load_group(bundled_group_path(name))
    table = load_table(json.loads(bundled_table_path(name).read_text()), group)
    lams = multipartitions(len(table.rows), n)
    taus = multipartitions(len(group.classes), n)
    reductions = [0]
    vector_cyc = symfunc.vector_cyc

    def reducing(vec, den):
        reductions[0] += 1
        return vector_cyc(vec, den)

    def read_rows():
        return [{tau: wreath_character(table, lam, tau) for tau in taus} for lam in lams]

    monkeypatch.setattr(symfunc, "vector_cyc", reducing)
    rows = read_rows()
    count = reductions[0]
    assert read_rows() == rows
    assert reductions[0] == count
    monkeypatch.undo()

    keys, read_outs = set(), {}  # every read-out; the nonzero ones' values
    for lam, row in zip(lams, rows):
        image = symfunc.SymFuncElem.one(range(len(group.classes)))
        for chi, part in enumerate(lam):
            if part.size:
                image = image * wreath._pushed_schur(table, chi, part)
        assert row == {
            tau: image.terms.get(tau, ZERO) * type_centralizer_order(group, tau)
            for tau in taus
        }
        for key, vec in image._vecs.items():
            tau = symfunc.unpack_key(key, len(group.classes))
            read_out = (tuple(vec), image._den, type_centralizer_order(group, tau))
            keys.add(read_out)
            if row[tau]:
                read_outs.setdefault(read_out, []).append(row[tau])
    # the rows share read-outs, so a reduction per entry would be seen
    assert len(read_outs) < sum(map(len, read_outs.values()))
    assert 0 < reductions[0] <= len(keys)
    assert all(len({id(v) for v in same}) == 1 for same in read_outs.values())


def per_element_k_type_weights(types, weights):
    """The reference pass over K: the sum of the weights per class type,
    where types[i] is class_type(h_i x^-1), counting each element."""
    out = {}
    for (t, w), count in Counter(zip(types, weights)).items():
        out[t] = out.get(t, ZERO) + w * count
    return {t: v for t, v in out.items() if v}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["c2", "c3", "c4", "q8", "gl2f3"])
def test_k_type_weights_matches_per_element_reference(name, n):
    # the pass over K read off its construction equals the sum over every
    # element of K of conj(theta(h)), per class type of h x^-1: at the
    # identity, at every coset representative and at seeded elements of
    # G wr S_2n outside K; K of gl2f3 at n = 2 has 18,432 elements, so there
    # a seeded subset of those evaluation points stands in
    group, table = bundled(name)
    rng = random.Random(f"{name}-{n}")
    hg = hg_elements(group, n)
    outside = []
    while len(outside) < 3:
        x = random_element(group, 2 * n, rng)
        if not reference_in_k(x):
            outside.append(x)
    types_at = {}
    for xi in linear_characters(table):
        points = [w_identity(2 * n), *outside] + [
            coset_rep(group, rho) for rho in multipartitions(len(group.merged), n)
        ]
        if len(hg) > 4096:
            points = rng.sample(points, 2)
        for pi in PI_NAMES:
            theta = PairedChar(table, xi, pi, n)
            factors = conj_theta_table(theta)
            # equal values and types as one object each, so that counting
            # compares them by identity
            distinct = {}
            weights = [distinct.setdefault(v, v) for v in (theta.value(h).conjugate() for h in hg)]
            for x in points:
                if x not in types_at:
                    xinv = w_inv(group, x)
                    types = (class_type(group, w_mul(group, h, xinv)) for h in hg)
                    distinct = {}
                    types_at[x] = [distinct.setdefault(t, t) for t in types]
                got = k_type_weights(theta, factors, x)
                assert got == per_element_k_type_weights(types_at[x], weights), (xi, pi, x)


def test_hecke_vanishing_small():
    group, table = bundled("c4")
    hg = hg_elements(group, 1)
    for xi in (0, 2):
        for pi in ("triv", "iota"):
            theta = PairedChar(table, xi, pi, 1)
            legal = set(coset_label_set(table, xi, epsilon_sign(pi), 1))
            for rho in multipartitions(len(group.merged), 1):
                v = hecke_basis_value(group, theta, coset_rep(group, rho), hg)
                assert bool(v) == (rho in legal)


def test_trivial_twist_stabilizer_sums_never_vanish():
    # at n = 1 the sum is |K n xKx^-1| = |K|^2 / |KxK|: 2 zeta_c at a real
    # merged class c, zeta_c at a complex one
    group, table = bundled("q8")
    theta = PairedChar(table, 0, "triv", 1)
    for i, m in enumerate(group.merged):
        rho = MultiPartition([P((1,)) if j == i else P() for j in range(len(group.merged))])
        pairs = coset_stabilizer(group, coset_rep(group, rho))
        tot = sum_products(
            (theta.value(h).conjugate(), theta.value(k).conjugate(), 1) for h, k in pairs
        )
        zc = group.centralizer_orders[m.classes[0]]
        assert tot == CycNum.rational(2 * zc if m.real else zc)


def test_wreath_table_golden_files():
    golden_dir = Path(__file__).parent / "golden"
    for name, n in (("c2", 2), ("c3", 2), ("q8", 2), ("gl2f3", 2), ("c4", 3)):
        group, table = bundled(name)
        payload = json.dumps(wreath_table_json(table, n), indent=2, sort_keys=True) + "\n"
        assert payload == (golden_dir / f"{name}_wr_s{n}_table.json").read_text()


DUMP_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "dump_wreath_table.py"


def run_dump_script(*args):
    return subprocess.run(
        [sys.executable, str(DUMP_SCRIPT), *args], capture_output=True, timeout=120
    )


def test_dump_script_reproduces_golden_tables():
    golden_dir = Path(__file__).parent / "golden"
    for name, n in (("c2", 2), ("c4", 3)):
        proc = run_dump_script(name, str(n))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (golden_dir / f"{name}_wr_s{n}_table.json").read_bytes()


@pytest.mark.parametrize("args", [("c2", "x"), ("c2", "1.5"), ("c2", "-1"), ("zz", "2"), ("c2",)])
def test_dump_script_bad_arguments_are_usage_errors(args):
    proc = run_dump_script(*args)
    assert proc.returncode == 2
    assert b"Usage:" in proc.stderr and b"Traceback" not in proc.stderr
    assert proc.stdout == b""


def fresh_pair(name):
    """A bundled group and table loaded anew, with empty memos."""
    group = load_group(bundled_group_path(name))
    return group, load_table(bundled_table_path(name), group)


@pytest.mark.parametrize("name", bundled_names())
def test_wreath_table_json_matches_dict_rows(name):
    # the column-aligned full table equals the one read cell by cell from
    # dict rows of a separately loaded table, Z_tau times the terms of the
    # characteristic image, and class sizes come from Z_tau
    import wreathsph.wreath as wreath

    group, table = fresh_pair(name)
    _, ref_table = fresh_pair(name)
    for n in range(1, 3 if name == "gl2f3" else 4):
        taus = multipartitions(len(group.classes), n)
        order = wreath_order(group, n)
        got = wreath_table_json(table, n)
        assert got["class_sizes"] == [
            order // type_centralizer_order(group, tau) for tau in taus
        ]
        rows = [
            {
                tau: v * type_centralizer_order(group, tau)
                for tau, v in wreath._character_image(ref_table, lam).terms.items()
            }
            for lam in multipartitions(len(table.rows), n)
        ]
        assert got["values"] == [
            [str(row.get(tau, ZERO)) for tau in taus] for row in rows
        ], n


def test_full_tables_form_columns_and_weights_once(monkeypatch):
    # across repeated full tables of degrees 1 to 3, each column's packed
    # key and Z_tau are formed once per (table, degree), and each chi(c) is
    # read once per field p_r(c) of the row's monomial memo, r = 1, 2, 3, so
    # each weight chi(c)/zeta_c is formed once per (table, chi, c, r)
    import wreathsph.wreath as wreath
    from wreathsph.symfunc import pack_key

    group, table = fresh_pair("q8")
    packed, centralized = Counter(), Counter()
    z_order = wreath.type_centralizer_order

    def packing(tau):
        packed[tau] += 1
        return pack_key(tau)

    def centralizing(group, tau):
        centralized[tau] += 1
        return z_order(group, tau)

    reads = Counter()

    class CountedRow:
        def __init__(self, chi, values):
            self.chi, self.values = chi, values

        def __len__(self):
            return len(self.values)

        def __getitem__(self, c):
            reads[self.chi, c] += 1
            return self.values[c]

        def __iter__(self):
            return (self[c] for c in range(len(self)))

    want = [wreath_table_json(fresh_pair("q8")[1], n) for n in (1, 2, 3)]
    monkeypatch.setattr(wreath, "pack_key", packing, raising=False)
    monkeypatch.setattr(wreath, "type_centralizer_order", centralizing)
    monkeypatch.setattr(
        table, "rows", tuple(CountedRow(chi, row) for chi, row in enumerate(table.rows))
    )
    for _ in range(2):
        assert [wreath_table_json(table, n) for n in (1, 2, 3)] == want
    columns = Counter(tau for n in (1, 2, 3) for tau in multipartitions(len(group.classes), n))
    assert packed == columns
    assert centralized == columns
    assert reads == Counter(
        {(chi, c): 3 for chi in range(len(table.rows)) for c in range(len(group.classes))}
    )


def test_paired_characters_are_distinct_at_degree_two():
    # 4 * (number of linear characters of G) pairwise-distinct functions
    for name in ("c2", "c3"):
        group, table = bundled(name)
        hg = hg_elements(group, 2)
        seen = set()
        for xi in linear_characters(table):
            for pi in ("triv", "delta", "iota", "delta-iota"):
                theta = PairedChar(table, xi, pi, 2)
                seen.add(tuple(theta.value(h) for h in hg))
        assert len(seen) == 4 * len(linear_characters(table))


def test_decompose_matrix_group_degree_two():
    # the 48-element matrix group at degree 2: all indicator values are -1
    # for the self-paired rows, so those components carry columns (1,1)
    group, table = bundled("gl2f3")
    xi = table.row_by_name("chi2")
    for pi in ("triv", "iota"):
        dec = decompose_induced(table, PairedChar(table, xi, pi, 1))
        assert set(dec.values()) == {1}
        assert set(dec) == set(irrep_label_set(table, xi, pi, 1))
        for lam in dec:
            sup = tuple(i for i, p in enumerate(lam) if p.size)
            if len(sup) == 1:
                (chi,) = sup
                assert twisted_indicator(table, xi, chi) == -1
                assert lam[chi] == (
                    P((1, 1)) if pi == "triv" else P((2,)).transpose()
                )
