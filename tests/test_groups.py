import json
from fractions import Fraction

import pytest

from wreathsph.cyclo import CycNum
from wreathsph.groups import (
    CapExceeded,
    FiniteGroup,
    GroupError,
    bundled,
    bundled_group_path,
    bundled_names,
    bundled_table_path,
    fuse_classes,
    group_from_perm_gens,
    linear_characters,
    load_group,
    load_table,
    twisted_indicator,
    validate_table,
)
from wreathsph.spherical import SphericalContext


def element_order(group, x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = group.mul[y][x]
        k += 1
    return k


def test_load_cyclic_from_perm_gens():
    g = group_from_perm_gens("c6", [[2, 3, 4, 5, 6, 1]])
    assert g.order == 6
    assert len(g.classes) == 6


def test_bundled_groups_load_and_validate():
    for name in bundled_names():
        group, table = bundled(name)
        assert validate_table(table) == []
    g, _ = bundled("q8")
    assert g.order == 8 and len(g.classes) == 5
    g, _ = bundled("gl2f3")
    assert g.order == 48 and len(g.classes) == 8


def test_non_group_table_rejected():
    bad = [[0, 1], [1, 1]]  # second row is not a bijection / no inverse
    with pytest.raises(GroupError):
        FiniteGroup("bad", bad)
    nonassoc = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(GroupError):
        FiniteGroup("bad", nonassoc)


def test_empty_group_data():
    # an empty multiplication table names 'mul'; a degree-0 generator is the
    # trivial group, the same as the bundled c1
    with pytest.raises(GroupError, match="'mul'"):
        load_group({"mul": []})
    trivial = load_group({"perm_gens": [[]]})
    assert trivial.order == 1 and trivial.mul == bundled("c1")[0].mul


def test_closure_cap():
    # S_8, 40,320 elements, is past the 10,000-element closure limit
    with pytest.raises(CapExceeded, match="closure-elements"):
        load_group({"perm_gens": [[2, 1, 3, 4, 5, 6, 7, 8], [2, 3, 4, 5, 6, 7, 8, 1]]})


def test_a_group_file_cannot_raise_or_lower_its_closure_cap():
    # a file's "cap" key is not read: perm_gens close under the default limit
    group = load_group({"name": "c8", "perm_gens": [[2, 3, 4, 5, 6, 7, 8, 1]], "cap": 4})
    assert group.order == 8


def test_corrupted_table_reports_violation():
    group = load_group(bundled_group_path("q8"))
    obj = json.loads(bundled_table_path("q8").read_text())
    obj["chars"][4][1] = "2"  # break one degree-2 entry
    with pytest.raises(GroupError):
        load_table(obj, group)
    table = load_table(obj, group, validate=False)
    assert validate_table(table) == [
        "row orthogonality fails at rows (0,4): 4",
        "row orthogonality fails at rows (1,4): 4",
        "row orthogonality fails at rows (2,4): 4",
        "row orthogonality fails at rows (3,4): 4",
        "column orthogonality fails at classes (0,1): 8",
    ]


def test_linear_character_counts():
    _, tq = bundled("q8")
    assert len(linear_characters(tq)) == 4
    _, tg = bundled("gl2f3")
    assert len(linear_characters(tg)) == 2
    _, t6 = bundled("c6")
    assert len(linear_characters(t6)) == 6


def complex_class_count(group) -> int:
    return sum(len(m.classes) for m in group.merged if not m.real)


def split_row_count(fusion) -> int:
    return sum(1 for chi, p in enumerate(fusion.row_partner) if p != chi)


def test_fusion_examples():
    g6, t6 = bundled("c6")
    f = fuse_classes(t6, 1)
    assert len(g6.merged) == 4
    assert len(f.eta_reps) == 3
    # odd-order abelian groups: every non-identity class is complex
    for name in ("c3", "c5"):
        g, t = bundled(name)
        assert complex_class_count(g) == g.order - 1
        assert fuse_classes(t, 0).eta_signs == (1,) + (0,) * ((g.order - 1) // 2)


def test_eta_signs_are_xi_on_the_real_merged_classes():
    for name in bundled_names():
        group, table = bundled(name)
        for xi in linear_characters(table):
            signs = fuse_classes(table, xi).eta_signs
            assert len(signs) == len(group.merged)
            for m, sign in zip(group.merged, signs):
                if m.real:
                    assert sign in (1, -1)
                    assert CycNum.rational(sign) == table.value(xi, m.rep_element)
                else:
                    assert sign == 0


def test_fusion_is_memoized_on_the_table_and_needs_its_group():
    # the fusion reads the table's own group, so a context refuses any other
    # group object, even one loaded from the same file
    _, t = bundled("c6")
    assert fuse_classes(t, 1) is fuse_classes(t, 1)
    with pytest.raises(GroupError, match="table's own group"):
        SphericalContext(load_group(bundled_group_path("c6")), t, 1, "triv", 1)


def test_merged_classes_pair_each_class_with_its_inverse():
    for name in bundled_names():
        group, _ = bundled(name)
        merged = group.merged
        # a partition of the classes into {c, c^-1}, real exactly when c = c^-1
        assert sorted(c for m in merged for c in m.classes) == list(range(len(group.classes)))
        for m in merged:
            c = m.classes[0]
            assert m.classes == tuple(sorted({c, group.class_inverse[c]}))
            assert m.real == (group.class_inverse[c] == c)
            assert m.rep_element == min(group.classes[d][0] for d in m.classes)
        reps = [m.rep_element for m in merged]
        assert reps == sorted(reps)


def test_linear_characters_checked_once_per_table(monkeypatch):
    group = load_group(bundled_group_path("q8"))
    obj = json.loads(bundled_table_path("q8").read_text())
    table = load_table(obj, group)
    products = [0]
    mul = CycNum.__mul__

    def counting(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(CycNum, "__mul__", counting)
    first = linear_characters(table)
    assert first == [0, 1, 2, 3] and products[0] > 0
    # the second call re-checks nothing
    checked = products[0]
    assert linear_characters(table) == first
    assert products[0] == checked
    # a degree-1 row that is not multiplicative still raises, on every call
    obj["chars"][1][1] = "-1"
    corrupted = load_table(obj, group, validate=False)
    for _ in range(2):
        with pytest.raises(GroupError, match="not multiplicative"):
            linear_characters(corrupted)


def test_tensor_rows_found_once_per_pair(monkeypatch):
    group = load_group(bundled_group_path("gl2f3"))
    table = load_table(bundled_table_path("gl2f3"), group)
    xi = table.row_by_name("chi2")
    conjugations = [0]
    conjugate = CycNum.conjugate

    def counting(x):
        conjugations[0] += 1
        return conjugate(x)

    monkeypatch.setattr(CycNum, "conjugate", counting)
    fusion = fuse_classes(table, xi)
    self_rows = [chi for chi, p in enumerate(fusion.row_partner) if p == chi]
    # one conj(chi) per class for each row's partner, then one conj(xi(x))
    # per element for each self-paired row's indicator sum; the indicator's
    # dichotomy check finds no partner again
    expect = len(table.rows) * len(group.classes) + len(self_rows) * group.order
    assert conjugations[0] == expect
    assert [table.conj_tensor_row(xi, chi) for chi in range(8)] == list(fusion.row_partner)
    assert conjugations[0] == expect
    # the dichotomy check still reads the pairing
    table._tensor_rows[xi, self_rows[0]] = fusion.row_partner[0]
    with pytest.raises(GroupError, match="dichotomy"):
        twisted_indicator(table, xi, self_rows[0])


def test_gl2f3_fusion_stats():
    g, t = bundled("gl2f3")
    f = fuse_classes(t, t.row_by_name("chi2"))
    assert f.eta_signs.count(-1) == 1
    assert complex_class_count(g) == 2
    assert split_row_count(f) == 4
    # the two order-8 classes are mutually inverse and merge; all other
    # classes are self-inverse (recomputed from the group, not assumed)
    complex_merged = [m for m in g.merged if not m.real]
    assert len(complex_merged) == 1 and len(complex_merged[0].classes) == 2
    reps = {element_order(g, g.classes[c][0]) for c in complex_merged[0].classes}
    assert reps == {8}


def test_twisted_indicator_columns():
    g, t = bundled("gl2f3")
    xi = t.row_by_name("chi2")
    assert [twisted_indicator(t, 0, chi) for chi in range(8)] == [1, 1, 1, 1, 1, 0, 0, 1]
    assert [twisted_indicator(t, xi, chi) for chi in range(8)] == [0, 0, -1, 0, 0, -1, -1, -1]
    gq, tq = bundled("q8")
    assert twisted_indicator(tq, 0, 4) == -1
    assert twisted_indicator(tq, 1, 4) == 1
    g1, t1 = bundled("c1")
    assert twisted_indicator(t1, 0, 0) == 1


def test_indicator_dichotomy_everywhere():
    for name in bundled_names():
        group, table = bundled(name)
        for xi in linear_characters(table):
            for chi in range(len(table.rows)):
                nu = twisted_indicator(table, xi, chi)
                paired = table.conj_tensor_row(xi, chi) == chi
                assert (nu == 0) == (not paired)


def test_counting_identities_everywhere():
    for name in bundled_names():
        group, table = bundled(name)
        for xi in linear_characters(table):
            f = fuse_classes(table, xi)
            n_c, n_xi = complex_class_count(group), f.eta_signs.count(-1)
            n_r = sum(1 for m in group.merged if m.real)
            n_split = split_row_count(f)
            n_self = len(table.rows) - n_split
            assert Fraction(n_c, 2) + n_xi == Fraction(n_split, 2)
            assert n_r - 2 * n_xi == n_self
            assert n_self + Fraction(n_split, 2) == len(group.merged) - n_xi


def test_table_rejects_wrong_class_reps():
    group = load_group(bundled_group_path("q8"))
    obj = json.loads(bundled_table_path("q8").read_text())
    obj["classes"] = [0, 1, 2, 3, 4]
    with pytest.raises(GroupError):
        load_table(obj, group)


def test_class_structure_q8():
    g, _ = bundled("q8")
    assert [len(c) for c in g.classes] == [1, 1, 2, 2, 2]
    assert g.centralizer_orders == (8, 8, 4, 4, 4)
    # class of the inverse: quaternion units are conjugate to their inverses
    assert g.class_inverse == (0, 1, 2, 3, 4)
