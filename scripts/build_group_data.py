"""Regenerate the bundled group and character-table JSON files.

Cyclic groups ship as multiplication tables, the quaternion group as an
explicit table, and the 48-element matrix group GL(2,3) as permutation
generators acting on the nonzero vectors of F_3^2.  Character values are
written in the exact cyclotomic text form and validated before writing.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wreathsph.cyclo import CycNum, canonicalize, zeta
from wreathsph.groups import group_from_perm_gens, validate_table
from wreathsph.spherical import canonical_json

DATA = Path(__file__).resolve().parents[1] / "src" / "wreathsph" / "data"


def dump(name: str, obj: dict):
    DATA.mkdir(parents=True, exist_ok=True)
    path = DATA / name
    path.write_text(canonical_json(obj))
    print("wrote", path)


def cyclic(k: int):
    name = f"c{k}"
    mul = [[(i + j) % k for j in range(k)] for i in range(k)]
    chars = [[str(zeta(k, (m * j) % k) if k > 1 else CycNum.rational(1)) for j in range(k)] for m in range(k)]
    dump(f"{name}.json", {"format": 1, "name": name, "order": k, "mul": mul})
    dump(
        f"{name}_table.json",
        {
            "format": 1,
            "group": name,
            "comment": f"characters of the cyclic group of order {k}",
            "classes": list(range(k)),
            "names": [f"chi{m+1}" for m in range(k)],
            "chars": chars,
        },
    )


def quaternion():
    # elements: 0:1, 1:-1, 2:i, 3:-i, 4:j, 5:-j, 6:k, 7:-k
    unit_mul = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
        ("i", "e"): (1, "i"), ("j", "e"): (1, "j"), ("k", "e"): (1, "k"),
        ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    units = ["e", "i", "j", "k"]

    def decode(idx):
        return (-1 if idx % 2 else 1, units[idx // 2])

    def encode(sign, unit):
        return units.index(unit) * 2 + (0 if sign == 1 else 1)

    mul = []
    for a in range(8):
        sa, ua = decode(a)
        row = []
        for b in range(8):
            sb, ub = decode(b)
            s, u = unit_mul[(ua, ub)]
            row.append(encode(sa * sb * s, u))
        mul.append(row)
    dump("q8.json", {"format": 1, "name": "q8", "order": 8, "mul": mul})
    # classes by minimal element: {1}, {-1}, {i,-i}, {j,-j}, {k,-k}
    chars = [
        ["1", "1", "1", "1", "1"],
        ["1", "1", "1", "-1", "-1"],
        ["1", "1", "-1", "1", "-1"],
        ["1", "1", "-1", "-1", "1"],
        ["2", "-2", "0", "0", "0"],
    ]
    dump(
        "q8_table.json",
        {
            "format": 1,
            "group": "q8",
            "comment": "characters of the quaternion group of order 8",
            "classes": [0, 1, 2, 4, 6],
            "names": [f"chi{m+1}" for m in range(5)],
            "chars": chars,
        },
    )


def gl2f3():
    def mmul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % 3,
            (a[0] * b[1] + a[1] * b[3]) % 3,
            (a[2] * b[0] + a[3] * b[2]) % 3,
            (a[2] * b[1] + a[3] * b[3]) % 3,
        )

    gens = [(0, 2, 1, 0), (1, 1, 0, 1), (1, 0, 0, 2)]
    elems = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                q = mmul(m, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    assert len(elems) == 48, len(elems)

    vectors = sorted(
        (x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)
    )
    vindex = {v: i for i, v in enumerate(vectors)}

    def mat_to_perm(m):
        return tuple(
            vindex[((m[0] * x + m[1] * y) % 3, (m[2] * x + m[3] * y) % 3)]
            for (x, y) in vectors
        )

    perm_to_mat = {mat_to_perm(m): m for m in elems}
    assert len(perm_to_mat) == 48  # the action is faithful

    gen_perms = [[v + 1 for v in mat_to_perm(g)] for g in gens]
    dump(
        "gl2f3.json",
        {"format": 1, "name": "gl2f3", "order": 48, "perm_gens": gen_perms},
    )

    group = group_from_perm_gens("gl2f3", gen_perms)
    assert group.order == 48

    def mat_order(m):
        k, x = 1, m
        while x != (1, 0, 0, 1):
            x = mmul(x, m)
            k += 1
        return k

    # column vectors of the table, keyed by class invariants
    s = str(canonicalize(8, {1: 1, 3: 1}))  # the value with square -2
    ns = str(canonicalize(8, {1: -1, 3: -1}))
    columns = {
        "1a": ["1", "1", "2", "3", "3", "2", "2", "4"],
        "2a": ["1", "1", "2", "3", "3", "-2", "-2", "-4"],
        "4a": ["1", "1", "2", "-1", "-1", "0", "0", "0"],
        "3a": ["1", "1", "-1", "0", "0", "-1", "-1", "1"],
        "6a": ["1", "1", "-1", "0", "0", "1", "1", "-1"],
        "2b": ["1", "-1", "0", "1", "-1", "0", "0", "0"],
        "8a": ["1", "-1", "0", "-1", "1", s, ns, "0"],
        "8b": ["1", "-1", "0", "-1", "1", ns, s, "0"],
    }

    labels = []
    for ci, cls in enumerate(group.classes):
        rep_perm = group.permutations[cls[0]]
        m = perm_to_mat[rep_perm]
        o = mat_order(m)
        size = len(cls)
        trace = (m[0] + m[3]) % 3
        if o == 1:
            lab = "1a"
        elif o == 2:
            lab = "2a" if size == 1 else "2b"
        elif o == 3:
            lab = "3a"
        elif o == 4:
            lab = "4a"
        elif o == 6:
            lab = "6a"
        elif o == 8:
            lab = "8a" if trace == 2 else "8b"
        else:
            raise AssertionError(f"unexpected element order {o}")
        labels.append(lab)
    assert sorted(labels) == sorted(columns.keys()), labels

    chars = [[columns[lab][row] for lab in labels] for row in range(8)]
    dump(
        "gl2f3_table.json",
        {
            "format": 1,
            "group": "gl2f3",
            "comment": "characters of the 48-element group of invertible 2x2 "
            "matrices over the field with three elements",
            "classes": list(group.class_reps),
            "names": [f"chi{m+1}" for m in range(8)],
            "chars": chars,
        },
    )


def check_all():
    from wreathsph.groups import bundled, bundled_names

    for name in bundled_names():
        group, table = bundled(name)
        problems = validate_table(table)
        assert not problems, (name, problems)
        print(f"validated {name}: order {group.order}, {len(group.classes)} classes")


def main():
    cyclic(1)
    for k in range(2, 7):
        cyclic(k)
    quaternion()
    gl2f3()
    check_all()


if __name__ == "__main__":
    main()
