import hashlib
import json
import random
import tracemalloc
from collections import Counter
from collections.abc import Mapping
from datetime import timedelta
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from wreathsph.cyclo import CycNum, ONE, ZERO
from wreathsph.groups import (
    CapExceeded,
    Caps,
    GroupError,
    bundled,
    bundled_names,
    linear_characters,
)
from wreathsph.partitions import (
    MultiPartition,
    Partition,
    multipartitions,
    partitions_of,
    shifted_tableau_count,
)
from wreathsph.spherical import (
    SphericalContext,
    build_table,
    cache_key,
    cache_load,
    cache_store,
    canonical_json,
    ch_image_product,
    ch_map,
    classical_spherical,
    coset_order,
    coset_order_brute,
    reconcile,
    spherical_closed,
    spherical_from_symfunc,
    _block_factor,
    _numerator,
    _radical_factor,
)
from wreathsph.symfunc import SymFuncElem, jack_p, schur_p, schurq_p, sym_character
from test_wreath import cycle_type, hg_elements, reference_pi
from wreathsph.wreath import (
    DELTA,
    IOTA,
    PI_NAMES,
    WreathElement,
    block_pi,
    coset_rep,
    decompose_induced,
    delta_twin,
    hyperoct_perms,
    p_compose,
    p_inverse,
    perm_of_partition,
    pi_bits,
    self_row_shapes,
    w_identity,
    w_mul,
    wreath_order,
)

P = Partition
RNG = random.Random(11)


def ctx_of(name, xi, pi, n):
    group, table = bundled(name)
    return SphericalContext(group, table, xi, pi, n)


def delta_pair_spherical(table, eta, chi, x, y):
    """Spherical function of (G x G, diagonal, lifted eta) at (x, y)."""
    group = table.group
    if table.degrees[eta] != 1:
        raise GroupError("eta must be linear")
    val = table.value(eta, group.inv[y]) * table.value(chi, group.mul[group.inv[x]][y])
    return val * Fraction(1, table.degrees[chi])


def basis_ch_image(ctx, rho):
    """Image of the averaged basis element at rho: the scaled power sum."""
    return SymFuncElem(
        ctx.merged_names, {rho: CycNum.rational(_radical_factor(ctx, rho))}
    )


def test_normalization_at_identity():
    for name, xi, pi, n in (
        ("c2", 1, "triv", 2),
        ("c2", 0, "delta", 2),
        ("q8", 1, "iota", 1),
        ("c4", 1, "triv", 1),
        ("c1", 0, "delta-iota", 2),
    ):
        ctx = ctx_of(name, xi, pi, n)
        for lam in ctx.rows:
            assert ctx.brute_at_element(lam, w_identity(2 * n)) == ONE


def test_representative_invariance():
    ctx = ctx_of("q8", 1, "iota", 1)
    hg = hg_elements(ctx.group, ctx.n)
    for lam in ctx.rows:
        for rho in ctx.cols:
            x = coset_rep(ctx.group, rho)
            base = ctx.brute(lam, rho)
            for _ in range(5):
                h, k = RNG.choice(hg), RNG.choice(hg)
                moved = w_mul(ctx.group, w_mul(ctx.group, h, x), k)
                expect = (
                    ctx.theta.value(h).conjugate()
                    * ctx.theta.value(k).conjugate()
                    * base
                )
                assert ctx.brute_at_element(lam, moved) == expect


def test_closed_matches_brute_everywhere_applicable():
    for name, xi, pi, n in (
        ("q8", 1, "triv", 1),
        ("q8", 1, "iota", 1),
        ("q8", 0, "triv", 1),
        ("c2", 1, "iota", 2),
        ("c4", 1, "delta", 1),
        ("c4", 2, "delta-iota", 1),
    ):
        ctx = ctx_of(name, xi, pi, n)
        for lam in ctx.rows:
            for rho in ctx.cols:
                c = spherical_closed(ctx, lam, rho)
                if c is not None:
                    assert c == ctx.brute(lam, rho), (name, xi, pi, n, lam, rho)


def test_closed_none_on_mixed_rows():
    ctx = ctx_of("c2", 0, "triv", 2)
    mixed = MultiPartition([P((2,)), P((2,))])
    assert mixed in ctx.rows
    assert spherical_closed(ctx, mixed, ctx.cols[0]) is None


def test_classical_spherical_values():
    # zonal pair at weight 4: the nontrivial value at the 4-cycle coset
    assert classical_spherical(P((4,)), "triv", P((2,))) == 1
    assert classical_spherical(P((2, 2)), "triv", P((2,))) == Fraction(-1, 2)
    assert classical_spherical(P((2, 2)), "triv", P((1, 1))) == 1


def test_delta_pair_spherical():
    # normalization and the displayed value on a 3-element cyclic group
    group, table = bundled("c3")
    for chi in range(3):
        assert delta_pair_spherical(table, 0, chi, 0, 0) == ONE
        for x in range(3):
            for y in range(3):
                got = delta_pair_spherical(table, 0, chi, x, y)
                assert got == table.value(chi, group.mul[group.inv[x]][y])
    # brute averaging over the diagonal subgroup agrees with the closed form:
    # omega(x,y) = (1/|G|) sum_g conj(eta(g)) chi(g x^-1) (eta tensor conj chi)(g y^-1)
    group, table = bundled("q8")
    for eta in range(4):
        for chi in range(5):
            # the component appears with multiplicity one
            mult = ZERO
            for g in range(8):
                mult = mult + (
                    table.value(chi, g)
                    * table.value(eta, g)
                    * table.value(chi, g).conjugate()
                    * table.value(eta, g).conjugate()
                )
            assert mult * Fraction(1, 8) == ONE
            for x in range(8):
                for y in range(8):
                    brute = ZERO
                    for g in range(8):
                        gx = group.mul[g][group.inv[x]]
                        gy = group.mul[g][group.inv[y]]
                        brute = brute + (
                            table.value(eta, g).conjugate()
                            * table.value(chi, gx)
                            * table.value(eta, gy)
                            * table.value(chi, gy).conjugate()
                        )
                    brute = brute * Fraction(1, 8)
                    assert brute == delta_pair_spherical(table, eta, chi, x, y)


def reference_double_coset(group, hg, x):
    """KxK enumerated as a set of |K|^2 products."""
    left = {w_mul(group, h, x) for h in hg}
    return frozenset(w_mul(group, y, h) for y in left for h in hg)


def test_coset_orders():
    for name, n in (("c2", 1), ("c4", 1), ("q8", 1), ("c2", 2)):
        ctx = ctx_of(name, 0, "triv", n)
        total = 0
        for rho in multipartitions(len(ctx.group.merged), n):
            f = coset_order(ctx, rho)
            assert f == coset_order_brute(ctx, rho)
            total += f
        assert total == wreath_order(ctx.group, 2 * n)
        # identity label: the coset is the subgroup itself
        ident = MultiPartition(
            [P((1,) * n) if i == 0 else P() for i in range(len(ctx.group.merged))]
        )
        assert coset_order(ctx, ident) == ctx.hg_size
    # orbit-stabilizer against the orbit itself
    for name, n in (("c2", 1), ("c2", 2), ("q8", 1), ("gl2f3", 1)):
        ctx = ctx_of(name, 0, "triv", n)
        hg = hg_elements(ctx.group, n)
        for rho in multipartitions(len(ctx.group.merged), n):
            orbit = reference_double_coset(ctx.group, hg, coset_rep(ctx.group, rho))
            assert coset_order_brute(ctx, rho) == len(orbit), (name, n, rho)


def test_coset_order_brute_refuses_k_over_the_element_cap():
    group, table = bundled("c2")
    ctx = SphericalContext(group, table, 0, "triv", 2, Caps(max_elements=31))
    rho = multipartitions(len(ctx.group.merged), 2)[0]
    with pytest.raises(CapExceeded) as exc:
        coset_order_brute(ctx, rho)
    assert exc.value.cap_name == "cap-elements" and exc.value.actual == 32
    ctx = SphericalContext(group, table, 0, "triv", 2, Caps(max_elements=32))
    assert coset_order_brute(ctx, rho) == coset_order(ctx, rho)


def test_ch_map_unit_and_radical():
    ctx = ctx_of("c2", 1, "iota", 2)
    ident = MultiPartition([P((1, 1)), P()])
    img = ch_map(ctx, {ident: ONE})
    assert img.terms == {ident: CycNum.rational(coset_order(ctx, ident) * 4)}
    assert basis_ch_image(ctx, ident).terms == {ident: CycNum.rational(4)}
    ctx1 = ctx_of("c2", 1, "triv", 2)
    ident1 = MultiPartition([P((1, 1)), P()])
    assert basis_ch_image(ctx1, ident1).terms == {ident1: ONE}


def test_ch_map_rejects_illegal_support():
    ctx = ctx_of("c2", 1, "triv", 1)
    bad = MultiPartition([P(), P((1,))])
    with pytest.raises(GroupError):
        ch_map(ctx, {bad: ONE})


def test_ch_map_is_multiplicative_on_basis():
    # degree 1+1 -> 2 over the order-2 group: multiply averaged basis
    # elements inside the big group algebra and compare images
    group, table = bundled("c2")
    ctx1 = ctx_of("c2", 1, "triv", 1)
    ctx2 = ctx_of("c2", 1, "triv", 2)
    hg1 = hg_elements(group, 1)
    hg2 = hg_elements(group, 2)

    def convolve(f, g):
        out = {}
        for xa, va in f.items():
            for xb, vb in g.items():
                key = w_mul(group, xa, xb)
                out[key] = out.get(key, ZERO) + va * vb
        return {k: v for k, v in out.items() if v}

    def average(f, hg, theta):
        e = {
            h: theta.value(h).conjugate() * Fraction(1, len(hg)) for h in hg
        }
        return convolve(convolve(e, f), e)

    def embed(f, g, n1, n2):
        out = {}
        for xa, va in f.items():
            for xb, vb in g.items():
                key = WreathElement(
                    xa.base + xb.base,
                    xa.perm + tuple(v + 2 * n1 for v in xb.perm),
                )
                out[key] = out.get(key, ZERO) + va * vb
        return out

    rho_a = ctx1.cols[0]
    rho_b = ctx1.cols[0]
    fa = average({coset_rep(group, rho_a): ONE}, hg1, ctx1.theta)
    fb = average({coset_rep(group, rho_b): ONE}, hg1, ctx1.theta)
    prod = average(embed(fa, fb, 1, 1), hg2, ctx2.theta)
    values = {rho: prod.get(coset_rep(group, rho), ZERO) for rho in ctx2.cols}
    lhs = ch_map(ctx2, values)
    rhs_a = ch_map(ctx1, {rho: fa.get(coset_rep(group, rho), ZERO) for rho in ctx1.cols})
    rhs_b = ch_map(ctx1, {rho: fb.get(coset_rep(group, rho), ZERO) for rho in ctx1.cols})
    lifted = SymFuncElem(ctx2.merged_names, rhs_a.terms) * SymFuncElem(
        ctx2.merged_names, rhs_b.terms
    )
    assert lhs == lifted


def test_ch_image_product_grading_and_zonal_case():
    ctx = ctx_of("c1", 0, "triv", 2)
    for lam in ctx.rows:
        rhs = ch_image_product(ctx, lam)
        assert {k.weight for k in rhs.terms} == {2}
    # zonal route: the trivial-group image is the Jack expansion itself
    lam = MultiPartition([P((4,))])
    rhs = ch_image_product(ctx, lam)
    # from_p_expr builds over ("x",); c1 has one class, so its terms carry over
    jack = SymFuncElem.from_p_expr(jack_p(P((2,)), 2))
    assert rhs == SymFuncElem(ctx.merged_names, jack.terms)


def test_symfunc_engine_matches_brute():
    # the last three go through the unsigned partner and have rows of
    # several blocks; in the last, rows share pushed block factors
    for name, xi, pi, n in (
        ("c2", 1, "triv", 2),
        ("q8", 1, "iota", 1),
        ("c4", 1, "delta", 2),
        ("c3", 1, "delta-iota", 2),
        ("c4", 0, "delta-iota", 2),
    ):
        ctx = ctx_of(name, xi, pi, n)
        for lam in ctx.rows:
            vals = spherical_from_symfunc(ctx, lam)
            assert len(vals) == len(ctx.cols)
            for rho, v in zip(ctx.cols, vals):
                assert v == ctx.brute(lam, rho)


def reference_block_factor(ctx, rep, shape):
    """NOTES' factor table read literally: push the block's classical
    function with the plain weight _numerator / (k zeta_R), scale by
    (nu |G| / d)^m norm (|G| / d on a split pair), and where block_pi
    contains delta negate every term with an odd number of parts."""
    gsize, d = ctx.group.order, ctx.table.degrees[rep]
    nu = ctx.fusion.nu[rep]
    bits = pi_bits(block_pi(ctx.pi, nu))
    self_paired = ctx.fusion.row_partner[rep] == rep
    if self_paired:
        m = shape.size // 2
        mu = self_row_shapes(bits, m)[shape]
        if bits & IOTA:
            f, norm = schurq_p(mu), Fraction(factorial(m), shifted_tableau_count(mu))
        else:
            f, norm = jack_p(mu, 2), 1
        scalar = Fraction(nu * gsize, d) ** m * norm
    else:
        own = shape.transpose() if bits & DELTA else shape
        f, scalar = schur_p(own), Fraction(gsize, d) ** shape.size * own.hook_product()

    def coeff(_a, b, r):
        cls = ctx.group.merged[ctx.merged_names.index(b)]
        k = 2 if (cls.real if ctx.sign == 1 else self_paired) else 1
        zc = ctx.group.centralizer_orders[cls.classes[0]]
        return _numerator(ctx, rep, cls.rep_element, r) * Fraction(1, k * zc)

    pushed = SymFuncElem.from_p_expr(f).change_alphabet(coeff, ctx.merged_names)
    pushed = pushed.scale(scalar)
    if not bits & DELTA:
        return pushed
    return SymFuncElem(ctx.merged_names, {
        key: -v if sum(len(part) for part in key) & 1 else v for key, v in pushed.terms.items()
    })


@pytest.mark.parametrize("name", bundled_names())
def test_block_factor_matches_the_factor_table(name):
    # the one push with t^r and the delta sign in its weight equals the
    # push, scale and sign twist of NOTES' factor table, for every
    # representative row and shape the rows use: every linear xi and pi at
    # n <= 3, n <= 2 on gl2f3
    _, table = bundled(name)
    for n in (1, 2) if name == "gl2f3" else (1, 2, 3):
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                ctx = ctx_of(name, xi, pi, n)
                keys = {(rep, lam[rep]) for lam in ctx.rows for rep in ctx.row_blocks(lam)}
                for rep, shape in keys:
                    want = reference_block_factor(ctx, rep, shape)
                    assert _block_factor(ctx, rep, shape) == want, (name, xi, pi, n, rep, shape)


def bundled_configurations():
    """Every bundled (group, xi, pi, n) with xi linear and n <= 2, gl2f3 at
    n = 1 only."""
    out = []
    for name in bundled_names():
        _, table = bundled(name)
        for n in (1,) if name == "gl2f3" else (1, 2):
            out += [(name, xi, pi, n) for xi in linear_characters(table) for pi in PI_NAMES]
    return out


@given(st.sampled_from(bundled_configurations()))
@settings(max_examples=80, derandomize=True, deadline=timedelta(seconds=5))
def test_brute_equals_symfunc_on_bundled_configurations(config):
    # the ground truth, read through wreath_character, against the
    # characteristic-map engine, cell by cell, and omega(1) = 1
    ctx = ctx_of(*config)
    brute, sym = build_table(ctx, "brute"), build_table(ctx, "symfunc")
    for cell, value in brute.values.items():
        assert sym.values[cell] == value, (config, cell)
    for lam in ctx.rows:
        assert ctx.brute_at_element(lam, w_identity(2 * ctx.n)) == ONE


# SHA-256 of every brute table's JSON, each followed by the sorted
# multiplicities of its induced decomposition: every bundled group, linear
# xi and pi, at n <= 2 on c1-c4 and q8 and n = 1 on c5, c6 and gl2f3.  A
# change that alters output on purpose updates it and says why in
# CHANGES.md, as for a golden file.
BRUTE_DIGEST = "d899c0d4fd0099236a592432b31be04a8fba07ecc745c547a1050d19d17a8b1c"


def test_brute_tables_and_decompositions_give_the_pinned_digest():
    h = hashlib.sha256()
    for name in bundled_names():
        _, table = bundled(name)
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                for n in (1, 2) if name in ("c1", "c2", "c3", "c4", "q8") else (1,):
                    ctx = ctx_of(name, xi, pi, n)
                    h.update(build_table(ctx, "brute").to_json().encode())
                    decomposition = decompose_induced(table, ctx.theta)
                    pairs = sorted((lam.sort_key(), m) for lam, m in decomposition.items())
                    h.update(repr(pairs).encode())
    assert h.hexdigest() == BRUTE_DIGEST


@pytest.mark.parametrize("name", bundled_names())
def test_closed_equals_symfunc_wherever_closed_answers(name):
    # every linear xi and pi at n <= 2, and n <= 6 on c1 and c2, cell by cell
    # at every cell the closed engine answers; q8 at the trivial twist and
    # gl2f3 at chi2 have rows with nu = -1, where it takes the delta twin
    _, table = bundled(name)
    for n in range(1, 7 if name in ("c1", "c2") else 3):
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                ctx = ctx_of(name, xi, pi, n)
                sym = build_table(ctx, "symfunc")
                answered = 0
                for i, lam in enumerate(ctx.rows):
                    for j, rho in enumerate(ctx.cols):
                        closed = spherical_closed(ctx, lam, rho)
                        if closed is not None:
                            assert closed == sym.grid[i][j], (name, xi, pi, n, lam, rho)
                            answered += 1
                assert answered, (name, xi, pi, n)


def test_reconcile_extra_configurations():
    # beyond the acceptance list: complex classes, both indicator signs,
    # mixed rows on a nonabelian group, degree 3, and the 48-element group
    for name, xi, pi, n in (
        ("c4", 1, "triv", 1),
        ("c4", 1, "iota", 1),
        ("c4", 3, "delta", 1),
        ("c3", 1, "delta-iota", 1),
        ("q8", 0, "iota", 1),
        ("q8", 0, "delta", 1),
        ("c6", 1, "triv", 1),
        ("q8", 1, "triv", 2),
        ("q8", 1, "iota", 2),
        ("c2", 1, "delta", 3),
        ("c2", 1, "delta-iota", 3),
        ("gl2f3", 1, "triv", 1),
        ("gl2f3", 1, "iota", 1),
        ("gl2f3", 0, "triv", 1),
    ):
        ctx = ctx_of(name, xi, pi, n)
        report = reconcile(ctx)
        assert report.ok(), (name, xi, pi, n, report.mismatches[:2])


@pytest.mark.parametrize(
    "config", [("q8", 1, "triv", 2), ("c4", 2, "delta", 2), ("c4", 0, "delta-iota", 2)]
)
def test_symfunc_work_once_per_context(monkeypatch, config):
    # one push per distinct (block rep, lam[rep]) over the rows, one
    # coset_order per column, one context (delta-type pi included), one
    # image per (row, power-sum monomial) and one weight per (row, merged
    # class, r); nothing for a second table on the same context
    import wreathsph.spherical as spherical

    counts = {"push": 0, "coset_order": 0, "context": 0}
    change_alphabet = SymFuncElem.change_alphabet
    coset_order_, fuse_classes_ = spherical.coset_order, spherical.fuse_classes
    numerator_once, weights, formed = spherical._numerator_once, [], []

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    def weighing(ctx, chi, g, r):
        weights.append((id(ctx), chi, g, r))
        return numerator_once(ctx, chi, g, r)

    class Memo(dict):
        def __setitem__(self, key, image):
            formed.append((id(self), key))
            super().__setitem__(key, image)

    monkeypatch.setattr(
        SymFuncElem, "change_alphabet", counting("push", change_alphabet)
    )
    monkeypatch.setattr(spherical, "coset_order", counting("coset_order", coset_order_))
    monkeypatch.setattr(spherical, "fuse_classes", counting("context", fuse_classes_))
    monkeypatch.setattr(spherical, "_numerator_once", weighing)
    ctx = ctx_of(*config)
    ctx._images = {chi: Memo() for chi in range(len(ctx.table.rows))}
    tab = build_table(ctx, "symfunc")
    assert formed and len(formed) == len(set(formed))
    assert weights and len(weights) == len(set(weights))
    seen = (len(formed), len(weights))
    pushed = {(rep, lam[rep]) for lam in ctx.rows for rep in ctx.row_blocks(lam)}
    # the rows share factors, so a push per row block would be seen
    assert len(pushed) < sum(len(ctx.row_blocks(lam)) for lam in ctx.rows)
    expect = {"push": len(pushed), "coset_order": len(ctx.cols), "context": 1}
    assert counts == expect
    # a second table, and every closed cell, reuse the same work and context
    assert build_table(ctx, "symfunc").values == tab.values
    assert (len(formed), len(weights)) == seen
    for lam in ctx.rows:
        for rho in ctx.cols:
            spherical_closed(ctx, lam, rho)
    assert counts == expect


@pytest.mark.parametrize("config", [("q8", 1, "triv", 2), ("c4", 2, "delta", 2)])
def test_symfunc_read_out_once_per_context(monkeypatch, config):
    # one reduction per distinct read-out key (row vector, its denominator,
    # the column's scale), one shared CycNum per key, and one pushed weight
    # per (row, merged class, parity of r); nothing for a second table
    import wreathsph.spherical as spherical
    import wreathsph.symfunc as symfunc

    reductions, numerators = [0], []
    vector_cyc, numerator = symfunc.vector_cyc, spherical._numerator

    def reducing(vec, den):
        reductions[0] += 1
        return vector_cyc(vec, den)

    def weighing(ctx, chi, g, r):
        # g is the merged class's representative element
        numerators.append((id(ctx), chi, g, r % 2))
        return numerator(ctx, chi, g, r)

    monkeypatch.setattr(symfunc, "vector_cyc", reducing)
    monkeypatch.setattr(spherical, "_numerator", weighing)
    ctx = ctx_of(*config)
    tab = build_table(ctx, "symfunc")
    cells: dict[tuple, list[CycNum]] = {}
    for i, lam in enumerate(ctx.rows):
        image = ch_image_product(ctx, lam)
        for j, (key, scale) in enumerate(ctx.col_keys):
            vec = image._vecs.get(key)
            if vec is not None:
                read_out = (tuple(vec), image._den, scale.numerator, scale.denominator)
                cells.setdefault(read_out, []).append(tab.grid[i][j])
    # the rows share read-outs, so a reduction per cell would be seen
    assert len(cells) < sum(map(len, cells.values()))
    assert 0 < reductions[0] <= len(cells)
    assert all(len({id(v) for v in same}) == 1 for same in cells.values())
    assert numerators and len(numerators) == len(set(numerators))
    seen = (reductions[0], len(numerators))
    assert build_table(ctx, "symfunc").values == tab.values
    assert (reductions[0], len(numerators)) == seen


@pytest.mark.parametrize(
    "config", [("c2", 1, "triv", 3), ("c2", 1, "delta", 2), ("c4", 1, "delta", 1)]
)
def test_numerators_once_per_context(monkeypatch, config):
    # a closed table, then a reconcile on the same context, compute each
    # numerator once per (context, row, class element, parity of r)
    import wreathsph.spherical as spherical

    numerators, numerator = [], spherical._numerator

    def weighing(ctx, chi, g, r):
        numerators.append((id(ctx), chi, g, r % 2))
        return numerator(ctx, chi, g, r)

    monkeypatch.setattr(spherical, "_numerator", weighing)
    ctx = ctx_of(*config)
    tab = build_table(ctx, "closed")
    assert numerators and len(numerators) == len(set(numerators))
    assert reconcile(ctx).ok()
    assert build_table(ctx, "closed").values == tab.values
    assert len(numerators) == len(set(numerators))


@pytest.mark.parametrize(
    "name, xi, n",
    [("c2", 1, 3), ("c2", 0, 2), ("q8", 1, 1), ("c3", 1, 2), ("c4", 1, 2), ("c4", 0, 2)],
)
def test_sign_twist_relation(name, xi, n):
    # omega_{delta pi, lam}(rho) = (-1)^len(rho_hat) omega_{pi, lam'}(rho),
    # brute table against brute table, mixed rows included
    for pi in ("delta", "delta-iota"):
        ctx = ctx_of(name, xi, pi, n)
        partner = ctx_of(name, xi, delta_twin(pi), n)
        signed, unsigned = build_table(ctx, "brute"), build_table(partner, "brute")
        assert sorted(lam.transpose() for lam in ctx.rows) == sorted(partner.rows)
        assert ctx.cols == partner.cols
        for i, lam in enumerate(ctx.rows):
            k = partner.rows.index(lam.transpose())
            for j, rho in enumerate(ctx.cols):
                sign = (-1) ** len(rho.hat())
                assert signed.grid[i][j] == unsigned.grid[k][j] * sign, (pi, lam, rho)


def test_spherical_orthogonality():
    for name, xi, pi, n in (("c2", 1, "triv", 2), ("q8", 1, "triv", 1)):
        ctx = ctx_of(name, xi, pi, n)
        tab = build_table(ctx, "brute")
        for i in range(len(ctx.rows)):
            for j in range(len(ctx.rows)):
                tot = ZERO
                for k, rho in enumerate(ctx.cols):
                    tot = tot + (
                        tab.grid[i][k]
                        * tab.grid[j][k].conjugate()
                        * Fraction(coset_order(ctx, rho))
                    )
                if i != j:
                    assert tot == ZERO
                else:
                    # observed normalization: |big group| / dimension
                    from wreathsph.wreath import wreath_dim

                    expect = Fraction(
                        wreath_order(ctx.group, 2 * n),
                        wreath_dim(ctx.table, ctx.rows[i]),
                    )
                    assert tot == CycNum.rational(expect)


def test_engines_agree_in_build_table():
    ctx = ctx_of("c2", 1, "iota", 2)
    brute = build_table(ctx, "brute")
    closed = build_table(ctx, "closed")
    sym = build_table(ctx, "symfunc")
    assert brute.values == closed.values == sym.values
    assert brute.engine == "brute"


@pytest.mark.parametrize("engine", ["brute", "closed", "symfunc"])
def test_values_is_a_row_major_mapping_over_the_grid(engine):
    # one entry per cell, keyed (i, j) in row-major order, read from the
    # row grid; perfbench counts cells as len(tab.values)
    ctx = ctx_of("c2", 1, "iota", 3)
    tab = build_table(ctx, engine)
    values, rows, cols = tab.values, len(ctx.rows), len(ctx.cols)
    assert isinstance(values, Mapping) and not isinstance(values, dict)
    assert len(values) == rows * cols == 9
    assert list(values) == [(i, j) for i in range(rows) for j in range(cols)]
    for (i, j), v in values.items():
        assert v is values[(i, j)] is tab.grid[i][j]
    for outside in [(rows, 0), (0, cols), (-1, 0), (0, -1)]:
        assert outside not in values and values.get(outside) is None
    with pytest.raises(TypeError):
        values[(0, 0)] = ZERO
    brute = build_table(ctx, "brute")
    assert values == brute.values and values == dict(brute.values.items())
    brute.grid[rows - 1][cols - 1] += ONE
    assert values != brute.values and values != dict(brute.values.items())


def test_table_serialization_deterministic(tmp_path):
    ctx = ctx_of("c2", 1, "triv", 2)
    tab = build_table(ctx, "brute")
    payload = tab.to_json()
    assert payload == build_table(ctx, "brute").to_json()
    key = cache_key(b"group", b"table", "chi2", "triv", 2, "brute")
    assert cache_load(tmp_path, key) is None
    cache_store(tmp_path, key, payload)
    assert cache_load(tmp_path, key) == payload
    csv = tab.to_csv()
    assert csv.splitlines()[0].startswith("label,")


def test_cache_load_accepts_a_payload_of_the_stdlib_encoder(tmp_path):
    # entries written when canonical_json was json.dumps stay cache hits
    tab = build_table(ctx_of("q8", 1, "iota", 1), "symfunc")
    stdlib = json.dumps(tab.to_json_obj(), indent=2, sort_keys=True) + "\n"
    assert stdlib == tab.to_json()
    cache_store(tmp_path, "entry", stdlib)
    assert cache_load(tmp_path, "entry") == stdlib


_TRICKY_CHARS = list('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\u20ac\ud800\U0001f600')
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from(_TRICKY_CHARS), st.characters(exclude_categories=())),
    max_size=12,
)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers().map(lambda k: k * 10**30),
    _JSON_TEXT,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(_JSON_TEXT),
        st.dictionaries(_JSON_TEXT, inner),
    ),
    max_leaves=12,
)


@given(_JSON_VALUES)
@settings(max_examples=100, deadline=timedelta(seconds=5))
def test_canonical_json_is_the_stdlib_text(obj):
    assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_canonical_json_of_empty_and_nested_containers():
    obj = {"b": [], "a": {}, "c": ([], {}, [[]], ["x", 1], ("y",)), "": [None, True, -2]}
    assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert canonical_json([]) == "[]\n" and canonical_json({}) == "{}\n"
    with pytest.raises(TypeError):
        canonical_json({1: "non-str key"})
    with pytest.raises(TypeError):
        canonical_json([Fraction(1, 2)])


def test_canonical_json_of_repeated_items():
    # a run of one repeated object is written once; equal but distinct
    # objects, and an object that comes back later, are written each time
    row = ["symfunc"] * 3
    a, b = {"k": [1, None]}, {"k": [2]}
    nested = {"x": {"y": [a, a]}}
    for obj in (
        [None, None],
        [None],
        [[]] * 3,
        [row] * 4,
        [row, list(row), row],
        [a, b, a],
        [nested, nested, {"z": nested}],
        {"engines": [row] * 2, "values": [[None, None]] * 2},
    ):
        assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_to_json_peak_memory_stays_under_four_times_its_text():
    # the table's text is written by joins over its rows, not by json's
    # pure-Python encoder (about 7x the text at this size)
    tab = build_table(ctx_of("gl2f3", 1, "triv", 2), "symfunc")
    tracemalloc.start()
    try:
        text = tab.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 20_000
    assert peak < 4 * len(text)


@pytest.mark.parametrize(
    "config", [("c2", 1, "triv", 2), ("c4", 1, "delta", 1), ("q8", 1, "iota", 1)]
)
def test_brute_passes_over_k(monkeypatch, config):
    # one pass over K per column plus one at the identity, for a whole table
    # and for a whole reconcile; theta read off the construction of K, from
    # a factor table built once per context, with no PairedChar.value call;
    # pi read at most once per element of H_m per (pi, m) over the whole
    # test, so never per element of K; class_type at most once per bucket a
    # pass returns
    import wreathsph.spherical as spherical
    import wreathsph.wreath as wreath

    counts = {"passes": 0, "buckets": 0, "class_type": 0, "theta": 0, "tables": 0}
    pi_reads = Counter()
    k_type_weights, conj_theta_table = spherical.k_type_weights, spherical.conj_theta_table
    class_type, theta_value = wreath.class_type, wreath.PairedChar.value
    pi_at = wreath._pi_at

    def counting_k_type_weights(*args):
        counts["passes"] += 1
        weights = k_type_weights(*args)
        counts["buckets"] += len(weights)
        return weights

    def counting_class_type(group, x):
        counts["class_type"] += 1
        return class_type(group, x)

    def counting_theta_value(self, x):
        counts["theta"] += 1
        return theta_value(self, x)

    def counting_pi_at(bits, sigma):
        pi_reads[bits, len(sigma) // 2] += 1
        return pi_at(bits, sigma)

    def counting_conj_theta_table(*args):
        counts["tables"] += 1
        return conj_theta_table(*args)

    monkeypatch.setattr(spherical, "k_type_weights", counting_k_type_weights)
    monkeypatch.setattr(spherical, "conj_theta_table", counting_conj_theta_table)
    monkeypatch.setattr(wreath, "class_type", counting_class_type)
    monkeypatch.setattr(wreath.PairedChar, "value", counting_theta_value)
    monkeypatch.setattr(wreath, "_pi_at", counting_pi_at)
    for run in (lambda ctx: build_table(ctx, "brute"), reconcile):
        ctx = ctx_of(*config)
        counts.update(passes=0, buckets=0, class_type=0, theta=0, tables=0)
        run(ctx)
        assert counts["passes"] == len(ctx.cols) + 1
        assert counts["theta"] == 0
        assert all(c <= len(hyperoct_perms(m)) for (_bits, m), c in pi_reads.items())
        assert counts["tables"] == 1
        assert 0 < counts["class_type"] <= counts["buckets"]
        # the weights are kept: the same table again makes no pass
        after = dict(counts)
        build_table(ctx, "brute")
        assert counts == after


def direct_classical_spherical(shape, pi, rho_hat):
    """The (S_2n, H_n) spherical value as the plain average over H_n."""
    target = perm_of_partition(P(tuple(2 * p for p in rho_hat)))
    tinv = p_inverse(target)
    perms = hyperoct_perms(rho_hat.size)
    total = Fraction(0)
    for h in perms:
        total += reference_pi(pi, h) * sym_character(shape, cycle_type(p_compose(h, tinv)))
    return total / len(perms)


def test_classical_spherical_matches_direct_average():
    for n in range(1, 5):
        for shape in partitions_of(2 * n):
            for pi in ("triv", "delta", "iota", "delta-iota"):
                for rho_hat in partitions_of(n):
                    got = classical_spherical(shape, pi, rho_hat)
                    assert type(got) is Fraction
                    assert got == direct_classical_spherical(shape, pi, rho_hat), (
                        shape, pi, rho_hat
                    )
