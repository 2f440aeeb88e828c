"""Finite groups with conjugacy structure and validated character tables.

Groups are loaded from explicit multiplication tables or permutation
generators; character tables are input data, validated exactly against
both orthogonality relations on load.  Everything is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

from .cyclo import CycNum, ZERO, parse_cyc, sum_products


class GroupError(Exception):
    """A mathematical violation in group or character-table data."""


class CapExceeded(Exception):
    """A configured enumeration cap was exceeded."""

    def __init__(self, cap_name: str, limit, actual):
        self.cap_name = cap_name
        self.limit = limit
        self.actual = actual
        super().__init__(f"cap {cap_name} exceeded: needed {actual}, limit {limit}")


@dataclass(frozen=True)
class Caps:
    """Enumeration limits; exceeding one raises CapExceeded."""

    max_elements: int = 10**6
    max_classwork: int = 10**7


@dataclass(frozen=True)
class MergedClass:
    """A conjugacy class merged with its inverse class."""

    classes: tuple[int, ...]  # one index if self-inverse, else two
    real: bool
    rep_element: int  # minimal element index in the union


class FiniteGroup:
    """A finite group given by its multiplication table on 0..order-1, 0 = identity."""

    def __init__(self, name: str, mul: list[list[int]], check: bool = True):
        self.name = name
        self.order = len(mul)
        self.mul = tuple(tuple(row) for row in mul)
        if check:
            self._check_axioms()
        inv = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.mul[a][b] == 0:
                    inv[a] = b
                    break
            if inv[a] is None or self.mul[inv[a]][a] != 0:
                raise GroupError(f"{name}: element {a} has no two-sided inverse")
        self.inv = tuple(inv)
        self._compute_classes()

    def _check_axioms(self):
        n = self.order
        if any(len(row) != n for row in self.mul):
            raise GroupError(f"{self.name}: multiplication table is not square")
        if any(not (0 <= v < n) for row in self.mul for v in row):
            raise GroupError(f"{self.name}: table entry out of range")
        if any(self.mul[0][j] != j or self.mul[j][0] != j for j in range(n)):
            raise GroupError(f"{self.name}: element 0 is not an identity")
        # full associativity scan; bundled groups all have order <= 64
        for a in range(n):
            for b in range(n):
                ab = self.mul[a][b]
                rowb = self.mul[b]
                rowab = self.mul[ab]
                for c in range(n):
                    if rowab[c] != self.mul[a][rowb[c]]:
                        raise GroupError(
                            f"{self.name}: associativity fails at ({a},{b},{c})"
                        )

    def _compute_classes(self):
        n = self.order
        class_of = [-1] * n
        classes = []
        for x in range(n):
            if class_of[x] >= 0:
                continue
            orbit = sorted({self.mul[self.mul[g][x]][self.inv[g]] for g in range(n)})
            idx = len(classes)
            classes.append(tuple(orbit))
            for y in orbit:
                class_of[y] = idx
        order_pairs = sorted(range(len(classes)), key=lambda i: classes[i][0])
        self.classes = tuple(classes[i] for i in order_pairs)
        remap = {old: new for new, old in enumerate(order_pairs)}
        self.class_of = tuple(remap[c] for c in class_of)
        self.class_reps = tuple(c[0] for c in self.classes)
        self.centralizer_orders = tuple(self.order // len(c) for c in self.classes)
        self.class_inverse = tuple(
            self.class_of[self.inv[rep]] for rep in self.class_reps
        )
        # each class merged with its inverse class, in order of their
        # minimal elements: the slots of every double-coset label
        merged = []
        for c, cinv in enumerate(self.class_inverse):
            if cinv == c:
                merged.append(MergedClass((c,), True, self.class_reps[c]))
            elif c < cinv:
                merged.append(MergedClass((c, cinv), False, self.class_reps[c]))
        self.merged = tuple(merged)

    # -- element helpers ----------------------------------------------------

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _close_permutations(gens: list[tuple[int, ...]], cap: int) -> list[tuple[int, ...]]:
    deg = len(gens[0])
    if any(len(g) != deg or sorted(g) != list(range(deg)) for g in gens):
        raise GroupError("generators must be permutations of equal degree")
    ident = tuple(range(deg))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(deg))
                if q not in seen:
                    seen.add(q)
                    if len(seen) > cap:
                        raise CapExceeded("closure-elements", cap, f"> {cap}")
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def group_from_perm_gens(name: str, gens, cap: int = 10000) -> FiniteGroup:
    """Close 1-indexed one-line permutation generators and build the group."""
    gens0 = [tuple(v - 1 for v in g) for g in gens]
    elements = _close_permutations(gens0, cap)
    index = {p: i for i, p in enumerate(elements)}
    deg = len(elements[0])
    mul = [
        [index[tuple(p[q[i]] for i in range(deg))] for q in elements] for p in elements
    ]
    g = FiniteGroup(name, mul, check=False)
    g.permutations = tuple(elements)
    return g


def _json_object(source, kind: str) -> dict:
    """The JSON object of a file path, or an already-parsed one."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            source = json.load(fh)
    if not isinstance(source, dict):
        raise GroupError(f"{kind} file: expected a JSON object, got {type(source).__name__}")
    return source


def _typed(value, kind: type) -> bool:
    """Whether a JSON value is of the given kind; true and false are not
    integers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _list_of(value, kind: type) -> bool:
    """Whether value is a JSON list of values of the given kind."""
    return isinstance(value, list) and all(_typed(v, kind) for v in value)


def _require(ok: bool, name: str, key: str, what: str) -> None:
    if not ok:
        raise GroupError(f"{name}: {key!r} must be {what}")


def load_group(source) -> FiniteGroup:
    """Load a group from a JSON file path or an already-parsed dict."""
    obj = _json_object(source, "group")
    name = obj.get("name", "group")
    if "mul" in obj:
        _require(_list_of(obj["mul"], list) and all(_list_of(r, int) for r in obj["mul"]),
                 name, "mul", "a list of rows of integers")
        if not obj["mul"]:
            raise GroupError(f"{name}: 'mul' has no rows")
        group = FiniteGroup(name, obj["mul"])
    elif "perm_gens" in obj:
        gens, cap = obj["perm_gens"], obj.get("cap", 10000)
        _require(_list_of(gens, list) and all(_list_of(g, int) for g in gens),
                 name, "perm_gens", "a list of permutations of integers")
        _require(_typed(cap, int), name, "cap", "an integer")
        if not gens:
            raise GroupError(f"{name}: 'perm_gens' lists no generators")
        group = group_from_perm_gens(name, gens, cap=cap)
    else:
        raise GroupError(f"{name}: group file needs a 'mul' table or 'perm_gens'")
    order = obj.get("order", group.order)
    _require(_typed(order, int), name, "order", "an integer")
    if order != group.order:
        raise GroupError(f"{name}: declared order {order} but found {group.order} elements")
    return group


class CharacterTable:
    """Rows of irreducible character values, one CycNum per conjugacy class."""

    def __init__(self, group: FiniteGroup, rows, names=None):
        self.group = group
        self.rows = tuple(tuple(v for v in row) for row in rows)
        self.names = tuple(names) if names else tuple(
            f"chi{i+1}" for i in range(len(self.rows))
        )
        self.degrees = tuple(row[self.group.class_of[0]].as_int() for row in self.rows)
        self._wreath_cache = {}  # wreath-product character rows by label
        self._schur_images = {}  # pushed Schur factors by (row, partition)
        self._monomial_images = {}  # _pushed_schur's change_alphabet memos, by row
        self._wreath_columns = {}  # wreath_columns results by degree
        self._row_reads = {}  # wreath rows' read-outs (SymFuncElem.coefficients' memo)
        self._fusions = {}  # fuse_classes results by twist
        self._tensor_rows = {}  # conj_tensor_row results by (xi, chi)
        self._linear = None  # linear_characters, once checked

    def value(self, row: int, element: int) -> CycNum:
        return self.rows[row][self.group.class_of[element]]

    def row_by_name(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no character named {name!r}; have {self.names}") from None

    def conj_tensor_row(self, xi: int, chi: int) -> int:
        """The row equal to conj(chi) tensor xi, found once per (xi, chi)."""
        row = self._tensor_rows.get((xi, chi))
        if row is None:
            row = self._tensor_rows[xi, chi] = self._find_tensor_row(xi, chi)
        return row

    def _find_tensor_row(self, xi: int, chi: int) -> int:
        want = tuple(
            self.rows[chi][c].conjugate() * self.rows[xi][c]
            for c in range(len(self.group.classes))
        )
        for i, row in enumerate(self.rows):
            if row == want:
                return i
        raise GroupError(
            f"{self.group.name}: conj({self.names[chi]})*{self.names[xi]} is not a row"
        )

    def __repr__(self):
        return f"CharacterTable({self.group.name}, {len(self.rows)} rows)"


def orthogonality_failures(rows, sizes, order: int):
    """Each failing relation of a character table, rows[i][c] at a class of
    size sizes[c]: ("row", i, j, sum_c sizes[c] rows[i][c] conj(rows[j][c]))
    when that is not order * delta_ij, then ("column", c, d, sum_i rows[i][c]
    conj(rows[i][d])) when that is not order / sizes[c] * delta_cd."""
    conj = [[v.conjugate() for v in row] for row in rows]
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            tot = sum_products(zip(rows[i], conj[j], sizes))
            if tot != CycNum.rational(order if i == j else 0):
                yield "row", i, j, tot
    for c in range(len(sizes)):
        for d in range(c, len(sizes)):
            tot = sum_products((row[c], crow[d], 1) for row, crow in zip(rows, conj))
            if tot != CycNum.rational(order // sizes[c] if c == d else 0):
                yield "column", c, d, tot


def validate_table(table: CharacterTable) -> list[str]:
    """Exact orthogonality and degree checks against the table's group;
    returns a list of violations."""
    group = table.group
    problems = []
    k = len(group.classes)
    if len(table.rows) != k:
        problems.append(f"row count {len(table.rows)} != class count {k}")
        return problems
    sizes = [len(c) for c in group.classes]
    for kind, i, j, tot in orthogonality_failures(table.rows, sizes, group.order):
        if kind == "row":
            problems.append(f"row orthogonality fails at rows ({i},{j}): {tot}")
        else:
            problems.append(f"column orthogonality fails at classes ({i},{j}): {tot}")
    degsum = sum(
        (table.rows[i][group.class_of[0]] ** 2 for i in range(k)), start=ZERO
    )
    if degsum != CycNum.rational(group.order):
        problems.append(f"sum of squared degrees is {degsum}, not {group.order}")
    return problems


_ZETA_RE = re.compile(r"z\((\d+)\)")


def _check_conductors(literal: str, group: FiniteGroup) -> None:
    """Refuse a table entry with a term z(N), N not dividing 2|G|, before
    any arithmetic at conductor N, whose cost grows with N: character
    values lie in Q(zeta_|G|), and 2|G| still allows the z(2m) forms."""
    for text in _ZETA_RE.findall(literal.replace(" ", "")):  # as parse_cyc reads it
        if int(text) == 0 or 2 * group.order % int(text):
            raise GroupError(
                f"{group.name}: table entry {literal!r}: the order of z({text}) "
                f"does not divide 2|G| = {2 * group.order}"
            )


def load_table(source, group: FiniteGroup, validate: bool = True) -> CharacterTable:
    """Load a character table JSON file; validates against the group by default."""
    obj = _json_object(source, "table")
    missing = [k for k in ("classes", "chars") if k not in obj]
    if missing:
        raise GroupError(f"{group.name}: table file has no {' or '.join(map(repr, missing))}")
    classes, chars = obj["classes"], obj["chars"]
    _require(_list_of(classes, int), group.name, "classes", "a list of integers")
    _require(
        _list_of(chars, list)
        and all(_list_of(row, str) and len(row) == len(classes) for row in chars),
        group.name, "chars", "a list of rows of strings, one per class",
    )
    if "names" in obj:
        names = obj["names"]
        _require(_list_of(names, str) and len(set(names)) == len(names) == len(chars),
                 group.name, "names", "a list of distinct strings, one per row")
    reps = tuple(classes)
    if reps != group.class_reps:
        raise GroupError(
            f"{group.name}: table class representatives {reps} do not match "
            f"the computed ones {group.class_reps}"
        )
    for row in chars:
        for v in row:
            _check_conductors(v, group)
    rows = [[parse_cyc(v) for v in row] for row in chars]
    table = CharacterTable(group, rows, names=obj.get("names"))
    if validate:
        problems = validate_table(table)
        if problems:
            raise GroupError(f"{group.name}: invalid character table: " + "; ".join(problems))
    return table


def linear_characters(table: CharacterTable) -> list[int]:
    """Row indices of degree-1 characters, checked to be multiplicative on
    the first call and memoized on the table."""
    if table._linear is None:
        table._linear = tuple(_linear_characters(table))
    return list(table._linear)


def _linear_characters(table: CharacterTable) -> list[int]:
    group = table.group
    out = []
    for i, d in enumerate(table.degrees):
        if d != 1:
            continue
        for a in group.class_reps:
            for b in group.class_reps:
                lhs = table.value(i, group.mul[a][b])
                if lhs != table.value(i, a) * table.value(i, b):
                    raise GroupError(
                        f"{group.name}: degree-1 row {i} is not multiplicative"
                    )
        out.append(i)
    return out


def twisted_indicator(table: CharacterTable, xi: int, chi: int) -> int:
    """The twisted second indicator (1/|G|) sum_x conj(xi(x)) chi(x^2).

    Always in {-1, 0, 1}; zero exactly when chi differs from conj(chi)*xi.
    """
    group = table.group
    if table.degrees[xi] != 1:
        raise GroupError("twist character must be linear")
    tot = sum_products(
        (table.value(xi, x).conjugate(), table.value(chi, group.mul[x][x]), 1)
        for x in range(group.order)
    )
    val = (tot * Fraction(1, group.order)).try_rational()
    if val is None or val.denominator != 1 or val not in (-1, 0, 1):
        raise GroupError(f"indicator out of range for row {chi}: {tot}")
    nu = int(val)
    paired = table.conj_tensor_row(xi, chi) == chi
    if (nu == 0) == paired:
        raise GroupError(
            f"indicator dichotomy violated at row {chi}: nu={nu}, self-paired={paired}"
        )
    return nu


@dataclass(frozen=True)
class ClassFusion:
    """Character pairing data for one linear twist, and the twist's sign on
    the group's merged classes (FiniteGroup.merged)."""

    row_partner: tuple[int, ...]  # row index of conj(chi) * eta per row
    # twisted indicator of each row at eta: summed for self-paired rows,
    # 0 for split rows by the dichotomy, not summed
    nu: tuple[int, ...]
    eta_reps: tuple[int, ...]  # chosen representative rows, one per pair
    # per merged class: -1 where it is real and eta(g_R) = -1, 1 at the
    # other real classes, 0 at the complex ones
    eta_signs: tuple[int, ...]


def fuse_classes(table: CharacterTable, eta: int) -> ClassFusion:
    """Pair rows chi ~ conj(chi)*eta.

    Memoized on the table per eta, so each self-paired row's twisted
    indicator is computed once per (table, eta); the result is shared and
    must not be mutated."""
    fusion = table._fusions.get(eta)
    if fusion is None:
        fusion = table._fusions[eta] = _fuse_classes(table, eta)
    return fusion


def _fuse_classes(table: CharacterTable, eta: int) -> ClassFusion:
    if table.degrees[eta] != 1:
        raise GroupError("fusion twist must be a linear character")
    row_partner = tuple(
        table.conj_tensor_row(eta, chi) for chi in range(len(table.rows))
    )
    # a split row's indicator is 0: the dichotomy twisted_indicator checks
    nu = tuple(
        twisted_indicator(table, eta, chi) if row_partner[chi] == chi else 0
        for chi in range(len(table.rows))
    )
    eta_reps = tuple(
        chi for chi in range(len(table.rows)) if chi <= row_partner[chi]
    )
    eta_signs = tuple(
        (-1 if table.value(eta, m.rep_element) == -1 else 1) if m.real else 0
        for m in table.group.merged
    )
    return ClassFusion(row_partner, nu, eta_reps, eta_signs)


# -- bundled data --------------------------------------------------------------

_BUNDLED = ("c1", "c2", "c3", "c4", "c5", "c6", "q8", "gl2f3")


def data_path(name: str) -> Path:
    base = resources.files("wreathsph").joinpath("data")
    return Path(str(base.joinpath(name)))


def bundled_group_path(name: str) -> Path:
    return data_path(f"{name}.json")


def bundled_table_path(name: str) -> Path:
    return data_path(f"{name}_table.json")


@cache
def bundled(name: str) -> tuple[FiniteGroup, CharacterTable]:
    """Load one of the bundled (group, validated table) pairs by name, once
    per process: every caller shares the pair and must not mutate it."""
    if name not in _BUNDLED:
        raise KeyError(f"no bundled group {name!r}; have {_BUNDLED}")
    group = load_group(bundled_group_path(name))
    table = load_table(bundled_table_path(name), group)
    return group, table


def bundled_names() -> tuple[str, ...]:
    return _BUNDLED
