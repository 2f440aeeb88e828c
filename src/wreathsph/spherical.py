"""Spherical functions of the doubled-base Gelfand triples, by three
independent engines, plus double-coset orders, the characteristic map onto
multi-alphabet symmetric functions, and exact cross-engine reconciliation.

Engines:
  brute   -- group-algebra averaging of the big-group character over the
             subgroup (ground truth);
  closed  -- product formulas available when an irreducible label is
             concentrated on a single character block;
  symfunc -- coefficient extraction from products of classical symmetric
             functions (Jack at 2, Schur Q, Schur) pushed through
             the change of variables onto merged-class power sums.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from math import factorial
from pathlib import Path

from .cyclo import CycNum, ONE, ZERO, sum_products
from .groups import (
    Caps,
    CapExceeded,
    CharacterTable,
    FiniteGroup,
    GroupError,
    fuse_classes,
)
from .partitions import (
    MultiPartition,
    Partition,
    frobenius_coords,
    shifted_tableau_count,
)
from .symfunc import (
    PExpr,
    SymFuncElem,
    jack_p_expr,
    pack_key,
    schur_p_expr,
    schurq_p_expr,
    sym_character,
)
from .wreath import (
    DELTA,
    PairedChar,
    WreathElement,
    class_type,  # not used here; perfbench/test_tracing.py counts calls through it
    conj_theta_table,
    coset_label_set,
    coset_rep,
    coset_stabilizer,
    cycle_type,
    delta_twin,
    epsilon_sign,
    hyperoct_perms,
    hyperoct_pi,
    irrep_label_set,
    k_order,
    k_type_weights,
    p_compose,
    p_cycles,
    p_inverse,
    perm_of_partition,
    pi_bits,
    w_identity,
    wreath_character,
)


# The "format" tag of table JSON, also a part of every cache key.
TABLE_FORMAT = 1


class SphericalContext:
    """Everything fixed by one choice of (group, table, xi, pi, n)."""

    def __init__(
        self,
        group: FiniteGroup,
        table: CharacterTable,
        xi: int,
        pi: str,
        n: int,
        caps: Caps = Caps(),
    ):
        self.group = group
        self.table = table
        self.xi = xi
        self.pi = pi
        self.n = n
        self.caps = caps
        self.fusion = fuse_classes(group, table, xi)
        self.theta = PairedChar(table, xi, pi, n)
        self.sign = epsilon_sign(pi)
        self.rows = irrep_label_set(table, self.fusion, xi, pi, n)
        self.cols = coset_label_set(table, self.fusion, xi, self.sign, n)
        if len(self.rows) != len(self.cols):
            raise GroupError(
                f"label sets disagree: {len(self.rows)} rows vs {len(self.cols)} cosets"
            )
        work = len(self.rows) * len(self.cols)
        if work > caps.max_classwork:
            raise CapExceeded("cap-classwork", caps.max_classwork, work)
        self.merged_names = tuple(f"R{i+1}" for i in range(len(self.fusion.merged)))
        self._weights: dict[WreathElement, dict[MultiPartition, CycNum]] = {}
        self._factors: dict[tuple[int, Partition], SymFuncElem] = {}
        # _numerator's values, by (row, class element, r mod 2)
        self._numerators: dict[tuple[int, int, int], CycNum] = {}
        # _push_single's change_alphabet memos, by row
        self._images: dict[int, dict] = {}
        self._cells: dict[tuple, CycNum] = {}  # SymFuncElem.coefficients' memo

    # -- shared precomputations -------------------------------------------------

    @cached_property
    def theta_factors(self) -> dict[int, list[tuple[tuple[int, ...], CycNum]]]:
        """conj(theta) per doubled base and value of pi, read off the
        construction of K once per context (conj_theta_table)."""
        return conj_theta_table(self.theta, self.caps)

    @cached_property
    def hg_size(self) -> int:
        return k_order(self.group, self.n)

    def nu(self, chi: int) -> int:
        return self.fusion.nu[chi]

    def rep(self, rho: MultiPartition) -> WreathElement:
        return coset_rep(self.group, self.fusion, rho)

    @cached_property
    def col_weights(self) -> dict[MultiPartition, int]:
        """Per column, the double-coset order times the radical factor: the
        scale between a value at rho and its coefficient of P_rho under CH."""
        return {
            rho: coset_order(self, rho) * _radical_factor(self, rho) for rho in self.cols
        }

    @cached_property
    def col_keys(self) -> list[tuple[int, Fraction]]:
        """Per column, its packed key and the scale |K| / col_weights from
        its coefficient in the symmetric-function image to its value."""
        return [
            (pack_key(rho), Fraction(self.hg_size, self.col_weights[rho]))
            for rho in self.cols
        ]

    @cached_property
    def unsigned_partner(self) -> "SphericalContext":
        """The context for the unsigned companion character (same Hecke algebra)."""
        pi0 = delta_twin(self.pi)
        return SphericalContext(self.group, self.table, self.xi, pi0, self.n, self.caps)

    # -- brute engine --------------------------------------------------------------

    def check_brute_work(self) -> None:
        """Refuse a brute table before its first pass over K: it makes one
        pass per column and one at the identity."""
        work = (len(self.cols) + 1) * self.hg_size
        if work > self.caps.max_classwork:
            raise CapExceeded("cap-classwork", self.caps.max_classwork, work)

    def check_closed_work(self) -> None:
        """Refuse a closed table before it walks H_n, of 2^n n! elements,
        for its classical values."""
        size = 2**self.n * factorial(self.n)
        if size > self.caps.max_elements:
            raise CapExceeded("cap-elements", self.caps.max_elements, size)

    def _weights_at(self, x: WreathElement) -> dict[MultiPartition, CycNum]:
        """Class-type-bucketed sums conj(theta(h)) over h, evaluated at h*x^-1;
        one pass over K per evaluation element, memoized."""
        weights = self._weights.get(x)
        if weights is None:
            weights = k_type_weights(self.theta, self.theta_factors, x)
            self._weights[x] = weights
        return weights

    def brute_at_element(self, lam: MultiPartition, x: WreathElement) -> CycNum:
        scale = Fraction(1, self.hg_size)
        return sum_products(
            (wreath_character(self.table, lam, t), w, scale)
            for t, w in self._weights_at(x).items()
        )

    @cached_property
    def _row_set(self) -> frozenset:
        return frozenset(self.rows)

    def brute(self, lam: MultiPartition, rho: MultiPartition) -> CycNum:
        if lam not in self._row_set:
            raise GroupError(
                f"{lam} is not a component of the induced character; "
                "the averaged product vanishes identically"
            )
        return self.brute_at_element(lam, self.rep(rho))

    # -- block structure of a row label -----------------------------------------------

    def row_blocks(self, lam: MultiPartition) -> list[tuple[int, int, int]]:
        """(representative row, partner row, block weight) per paired block."""
        out = []
        for rep in self.fusion.eta_reps:
            partner = self.fusion.row_partner[rep]
            w = lam[rep].size + (lam[partner].size if partner != rep else 0)
            if w:
                out.append((rep, partner, w))
        return out


# -- classical two-group spherical values ---------------------------------------------


@cache
def _classical_buckets(pi: str, rho_hat: Partition) -> dict[Partition, int]:
    """Per cycle type of h t^-1, the sum of pi(h) over the centralizer
    subgroup H_n, where t is the doubled-cycle permutation of rho_hat;
    pi(h) is read from the construction of H_n.  Zero sums are dropped.
    Buckets are keyed by the sorted cycle lengths; each nonzero one is
    labelled by cycle_type at its first element."""
    tinv = p_inverse(perm_of_partition(Partition(tuple(2 * p for p in rho_hat))))
    buckets: dict[tuple[int, ...], list] = {}
    n = rho_hat.size
    for h, sign in zip(hyperoct_perms(n), hyperoct_pi(pi, n)):
        ht = p_compose(h, tinv)
        key = tuple(sorted(len(c) for c in p_cycles(ht)))
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = [ht, 0]
        bucket[1] += sign
    return {cycle_type(ht): w for ht, w in buckets.values() if w}


def classical_spherical(shape: Partition, pi: str, rho_hat: Partition) -> Fraction:
    """Spherical value of the symmetric-group pair (S_2n, centralizer of a
    fixed-point-free involution) for the linear character pi, at the coset of
    the doubled-cycle permutation of rho_hat, by direct averaging over H_n,
    bucketed by cycle type once per (pi, rho_hat)."""
    assert shape.size == 2 * rho_hat.size
    total = sum(
        w * sym_character(shape, t) for t, w in _classical_buckets(pi, rho_hat).items()
    )
    return Fraction(total, 2**rho_hat.size * factorial(rho_hat.size))


# -- closed-form engine ------------------------------------------------------------------


def _halve(lam: Partition) -> Partition:
    if not lam.is_even():
        raise ValueError(f"{lam} has an odd part")
    return Partition(tuple(p // 2 for p in lam))


def _undouble(lam: Partition) -> Partition:
    """Inverse of the strict-partition doubling."""
    arms, legs = frobenius_coords(lam)
    mu = Partition(arms)
    if not mu.is_strict() or legs != tuple(a - 1 for a in arms):
        raise ValueError(f"{lam} is not a doubled shape")
    return mu


def spherical_closed(
    ctx: SphericalContext, lam: MultiPartition, rho: MultiPartition
) -> CycNum | None:
    """Closed-form value, or None when no closed form applies (mixed rows)."""
    blocks = ctx.row_blocks(lam)
    if len(blocks) != 1:
        return None
    if pi_bits(ctx.pi) & DELTA:
        # sign-twisted companion: value is the sign of the representative's
        # permutation part times the unsigned value at the transposed label
        sgn = (-1) ** len(rho.hat())
        val = spherical_closed(ctx.unsigned_partner, lam.transpose(), rho)
        return None if val is None else val * sgn
    rep, partner, _ = blocks[0]
    table, fusion = ctx.table, ctx.fusion
    n = ctx.n
    rho_hat = rho.hat()
    if partner == rep:
        nu = ctx.nu(rep)
        shape = lam[rep]
        pi_eff = ctx.pi if nu == 1 else delta_twin(ctx.pi)
        omega = classical_spherical(shape, pi_eff, rho_hat)
        if not omega:
            return ZERO
        val = CycNum.rational(Fraction(nu**n) * omega)
        # the averaging engine fixes the orientation: the character is taken
        # at the inverse of the chosen class representative
        for i, m in enumerate(fusion.merged):
            ell = len(rho[i])
            if ell:
                val = val * table.value(rep, m.rep_element).conjugate() ** ell
        return val * Fraction(1, table.degrees[rep] ** n)
    # split pair: character-scaled product over parts
    lam_rep = lam[rep]
    chi_val = sym_character(lam_rep, rho_hat)
    dim = table.degrees[rep] ** n * lam_rep.dim_sym()
    val = CycNum.rational(Fraction(chi_val, 2**n * dim))
    for i, m in enumerate(fusion.merged):
        for part, mult in rho[i].multiplicities().items():
            val = val * _numerator_once(ctx, rep, m.rep_element, part) ** mult
    return val


# -- double-coset orders --------------------------------------------------------------


def coset_order(ctx: SphericalContext, rho: MultiPartition) -> int:
    """Order of the double coset with the given label, by the product formula."""
    total = Fraction(ctx.hg_size**2)
    for i, m in enumerate(ctx.fusion.merged):
        part = rho[i]
        zc = ctx.group.centralizer_orders[m.classes[0]]
        if m.real:
            doubled = Partition(tuple(2 * p for p in part))
            total /= doubled.aut_order() * zc ** len(part)
        else:
            total /= part.aut_order() * zc ** len(part)
    assert total.denominator == 1
    return int(total)


def coset_order_brute(ctx: SphericalContext, rho: MultiPartition) -> int:
    """|K x K| by orbit-stabilizer, walking K once; refuses K over the
    element cap."""
    pairs = coset_stabilizer(ctx.group, ctx.n, ctx.rep(rho), ctx.caps)
    return ctx.hg_size**2 // len(pairs)


# -- characteristic map ------------------------------------------------------------------


def _radical_factor(ctx: SphericalContext, rho: MultiPartition) -> int:
    if ctx.sign == 1:
        return 1
    out = 1
    for i, m in enumerate(ctx.fusion.merged):
        if m.real:
            out *= 2 ** len(rho[i])
    return out


def ch_map(
    ctx: SphericalContext, values: dict[MultiPartition, CycNum]
) -> SymFuncElem:
    """Image of a Hecke-algebra element given by its values at the chosen
    double-coset representatives."""
    terms: dict[MultiPartition, CycNum] = {}
    for rho, v in values.items():
        if not v:
            continue
        if rho not in ctx.col_weights:
            raise GroupError(f"value supported on an illegal coset label {rho}")
        terms[rho] = v * Fraction(ctx.col_weights[rho])
    return SymFuncElem(ctx.merged_names, terms)


# -- coefficient-extraction engine ---------------------------------------------------------


def _numerator(ctx: SphericalContext, chi: int, g: int, r: int) -> CycNum:
    """conj(xi(g)) chi(g) + sign^(r-1) conj(chi(g)): the weight of p_r at the
    merged class of g in the image of p_r(chi), before its denominator."""
    xi_g, chi_g = ctx.table.value(ctx.xi, g), ctx.table.value(chi, g)
    return xi_g.conjugate() * chi_g + chi_g.conjugate() * (ctx.sign ** (r - 1))


def _numerator_once(ctx: SphericalContext, chi: int, g: int, r: int) -> CycNum:
    """_numerator through the context's memo; r enters only through
    sign^(r-1), so the key is (chi, g, r mod 2)."""
    key = (chi, g, r % 2)
    w = ctx._numerators.get(key)
    if w is None:
        w = ctx._numerators[key] = _numerator(ctx, chi, g, r)
    return w


def _push_single(ctx: SphericalContext, chi: int, f: PExpr) -> SymFuncElem:
    """Push a single-alphabet p-expression through the change of variables
    p_r(chi) -> sum over merged classes R of _numerator / (k zeta_R) p_r(R).

    The scale k was pinned by the averaging engine: for the unsigned
    characters k = 2 on real classes and 1 on complex ones; for the signed
    characters k = 2 on every class when chi's block is self-paired and 1
    when it is a split pair.  Every push for chi shares the memo
    ctx._images[chi], so each power-sum monomial is pushed once per
    (context, chi).
    """
    fusion = ctx.fusion
    self_paired = fusion.row_partner[chi] == chi

    def coeff(_a, b, r):
        m = fusion.merged[ctx.merged_names.index(b)]
        k = 2 if (m.real if ctx.sign == 1 else self_paired) else 1
        zc = ctx.group.centralizer_orders[m.classes[0]]
        return _numerator_once(ctx, chi, m.rep_element, r) * Fraction(1, k * zc)

    images = ctx._images.setdefault(chi, {})
    single = SymFuncElem.from_p_expr(("x",), 0, f)
    return single.change_alphabet(coeff, ctx.merged_names, images)


def _block_factor(
    ctx: SphericalContext, rep: int, partner: int, shape: Partition
) -> SymFuncElem:
    """The pushed classical factor of one character block, with its scalar
    (pi = triv or iota; the sign twists go through the unsigned partner)."""
    gsize, d = ctx.group.order, ctx.table.degrees[rep]
    if partner == rep:
        m = shape.size // 2
        nu = ctx.nu(rep)
        own = shape if nu == 1 else shape.transpose()
        if ctx.pi == "triv":
            # nu = -1 by Jack duality (Macdonald VI (10.24)): (-|G|/d)^m times
            # the sign twist of Jack_mu at 2, mu half the transposed shape
            pushed = _push_single(ctx, rep, jack_p_expr(_halve(own), 2))
            pushed = pushed.scale(Fraction(nu * gsize, d) ** m)
            return pushed if nu == 1 else pushed.sign_twist()
        mu = _undouble(own)  # iota
        f = schurq_p_expr(mu)
        hbar = Fraction(factorial(m), shifted_tableau_count(mu))
        scalar = Fraction(gsize, d) ** m * hbar
    else:
        m = shape.size
        f = schur_p_expr(shape)
        scalar = Fraction(gsize, d) ** m * shape.hook_product()
    return _push_single(ctx, rep, f).scale(scalar)


def ch_image_product(ctx: SphericalContext, lam: MultiPartition) -> SymFuncElem:
    """The predicted image (1/|subgroup|) CH(spherical function) as a product
    of classical symmetric functions, one factor per character block.  Each
    factor is pushed once per context and block, keyed by (rep, lam[rep])."""
    if pi_bits(ctx.pi) & DELTA:
        return ch_image_product(ctx.unsigned_partner, lam.transpose()).sign_twist()
    result = None
    for rep, partner, _w in ctx.row_blocks(lam):
        key = (rep, lam[rep])
        factor = ctx._factors.get(key)
        if factor is None:
            factor = ctx._factors[key] = _block_factor(ctx, rep, partner, lam[rep])
        result = factor if result is None else result * factor
    # only the empty row (n = 0) has no blocks
    return SymFuncElem.one(ctx.merged_names) if result is None else result


def spherical_from_symfunc(ctx: SphericalContext, lam: MultiPartition) -> list[CycNum]:
    """Spherical values recovered from the symmetric-function image, one per
    column of ctx.cols, in that order; each distinct read-out is reduced
    once per context."""
    return ch_image_product(ctx, lam).coefficients(ctx.col_keys, ctx._cells)


# -- table + reconciliation -----------------------------------------------------------------


def canonical_json(obj) -> str:
    """The one JSON text form of every table, report and CLI object: sorted
    keys, two-space indent, a final newline.  The bytes are those of the
    json module with indent 2 and sort_keys, plus the newline; with an
    indent set, json runs its pure-Python encoder, so this writer does not
    call it for containers.  Dict keys must be str."""
    return _json_text(obj, "\n") + "\n"


_NO_ITEM = object()  # _item_texts' "no previous item"


def _item_texts(items, newline: str):
    """The JSON texts of a list's items, each run of one repeated object
    (the rows of an "engines" grid) written once."""
    prev, text = _NO_ITEM, ""
    for v in items:
        if v is not prev:
            prev, text = v, _json_text(v, newline)
        yield text


def _json_text(obj, newline: str) -> str:
    """obj's indented JSON text, its nested lines starting at newline + two
    spaces; a list of strings is quoted and joined by json's C quoter."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
            for k, v in sorted(obj.items())
        )
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, str) for v in obj):
            items = map(encode_basestring_ascii, obj)
        else:
            items = _item_texts(obj, inner)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(obj)


class TableCells(Mapping):
    """A table's values keyed by (row, column), in row-major order: a
    read-only view over its row grid that holds no entry per cell."""

    def __init__(self, grid: list[list[CycNum]], ncols: int):
        self.grid, self.ncols = grid, ncols

    def __getitem__(self, cell: tuple[int, int]) -> CycNum:
        i, j = cell
        if 0 <= i < len(self.grid) and 0 <= j < self.ncols:
            return self.grid[i][j]
        raise KeyError(cell)

    def __len__(self) -> int:
        return len(self.grid) * self.ncols

    def __iter__(self):
        return ((i, j) for i in range(len(self.grid)) for j in range(self.ncols))


@dataclass
class SphericalTable:
    group_name: str
    xi_name: str
    pi: str
    n: int
    char_names: tuple[str, ...]
    merged_names: tuple[str, ...]
    rows: tuple[MultiPartition, ...]
    cols: tuple[MultiPartition, ...]
    grid: list[list[CycNum]]  # one list of values per row, aligned with cols
    engine: str

    @property
    def values(self) -> TableCells:
        return TableCells(self.grid, len(self.cols))

    def value(self, i: int, j: int) -> CycNum:
        return self.grid[i][j]

    def row_label_json(self, i: int) -> dict:
        return self.rows[i].to_json(self.char_names)

    def col_label_json(self, j: int) -> dict:
        return self.cols[j].to_json(self.merged_names)

    def to_json_obj(self) -> dict:
        return {
            "format": TABLE_FORMAT,
            "group": self.group_name,
            "xi": self.xi_name,
            "pi": self.pi,
            "n": self.n,
            "rows": [self.row_label_json(i) for i in range(len(self.rows))],
            "cols": [self.col_label_json(j) for j in range(len(self.cols))],
            "values": [[str(v) for v in row] for row in self.grid],
            "engines": [[self.engine] * len(self.cols)] * len(self.rows),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    def to_csv(self) -> str:
        return table_csv(self.to_json_obj())


def csv_label(label: dict) -> str:
    """A row or column label, given as its JSON object, as one CSV field:
    name:parts, parts joined by '+', names by ';'; "1" when empty."""
    return ";".join(f"{k}:{'+'.join(map(str, v))}" for k, v in label.items()) or "1"


def table_csv(obj: dict) -> str:
    """The CSV form of a table's JSON object: a header of column labels,
    then one line per row."""
    lines = [",".join(["label"] + [csv_label(c) for c in obj["cols"]])]
    for row_label, row in zip(obj["rows"], obj["values"]):
        lines.append(",".join([csv_label(row_label)] + row))
    return "\n".join(lines) + "\n"


def build_table(ctx: SphericalContext, engine: str = "brute") -> SphericalTable:
    """Compute the full table of spherical values with the requested engine."""
    if engine not in ("brute", "closed", "symfunc"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "brute":
        ctx.check_brute_work()
    elif engine == "closed":
        ctx.check_closed_work()
    grid = []
    for lam in ctx.rows:
        if engine == "brute":
            one = ctx.brute_at_element(lam, w_identity(2 * ctx.n))
            if one != ONE:
                raise GroupError(f"normalization failed at {lam}: value {one} at 1")
            row = [ctx.brute(lam, rho) for rho in ctx.cols]
        elif engine == "closed":
            row = [spherical_closed(ctx, lam, rho) for rho in ctx.cols]
            if any(v is None for v in row):
                raise GroupError(f"no closed form for the mixed label {lam}; use brute")
        else:
            row = spherical_from_symfunc(ctx, lam)
        grid.append(row)
    return SphericalTable(
        ctx.group.name,
        ctx.table.names[ctx.xi],
        ctx.pi,
        ctx.n,
        ctx.table.names,
        ctx.merged_names,
        ctx.rows,
        ctx.cols,
        grid,
        engine,
    )


@dataclass
class ReconcileReport:
    group_name: str
    xi_name: str
    pi: str
    n: int
    cells: list[dict]
    row_images: list[dict]
    mismatches: list[dict]

    def ok(self) -> bool:
        return not self.mismatches

    def to_json_obj(self) -> dict:
        return {
            "format": 1,
            "group": self.group_name,
            "xi": self.xi_name,
            "pi": self.pi,
            "n": self.n,
            "cells": self.cells,
            "row_images": self.row_images,
            "mismatches": self.mismatches,
            "ok": self.ok(),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


def reconcile(ctx: SphericalContext) -> ReconcileReport:
    """Compare every engine on every admissible cell, and the characteristic
    image of every brute row against the symmetric-function product."""
    ctx.check_brute_work()
    cells = []
    row_images = []
    mismatches = []
    for i, lam in enumerate(ctx.rows):
        one = ctx.brute_at_element(lam, w_identity(2 * ctx.n))
        if one != ONE:
            mismatches.append(
                {"kind": "normalization", "row": str(lam), "value": str(one)}
            )
        brute_vals: dict[MultiPartition, CycNum] = {}
        for rho in ctx.cols:
            b = ctx.brute(lam, rho)
            brute_vals[rho] = b
            c = spherical_closed(ctx, lam, rho)
            cell = {
                "row": ctx.rows[i].to_json(ctx.table.names),
                "col": rho.to_json(ctx.merged_names),
                "brute": str(b),
                "closed": None if c is None else str(c),
            }
            cells.append(cell)
            if c is not None and c != b:
                mismatches.append({"kind": "closed-vs-brute", **cell})
        lhs = ch_map(ctx, brute_vals).scale(Fraction(1, ctx.hg_size))
        rhs = ch_image_product(ctx, lam)
        entry = {
            "row": lam.to_json(ctx.table.names),
            "lhs": lhs.to_json(),
            "rhs": rhs.to_json(),
        }
        row_images.append(entry)
        if lhs != rhs:
            mismatches.append({"kind": "symfunc-vs-brute", **entry})
    return ReconcileReport(
        ctx.group.name,
        ctx.table.names[ctx.xi],
        ctx.pi,
        ctx.n,
        cells,
        row_images,
        mismatches,
    )


# -- content-addressed table cache ------------------------------------------------------------


def cache_key(*parts: bytes | str | int) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, bytes):
            h.update(p)
        else:
            h.update(str(p).encode())
        h.update(b"\x00")
    return h.hexdigest()


def cache_load(cache_dir: str | Path | None, key: str) -> str | None:
    """The cached table payload, or None on a miss.  An entry that is not a
    whole format-1 table, exactly as written, counts as a miss."""
    if cache_dir is None:
        return None
    try:
        payload = (Path(cache_dir) / f"{key}.json").read_text()
        obj = json.loads(payload)
    except (OSError, ValueError):
        return None
    if not (
        isinstance(obj, dict)
        and obj.get("format") == TABLE_FORMAT
        and all(isinstance(obj.get(k), list) for k in ("rows", "cols", "values"))
        and canonical_json(obj) == payload
    ):
        return None
    return payload


def cache_store(cache_dir: str | Path | None, key: str, payload: str) -> None:
    """Write the entry to a temporary file beside it, then rename it into
    place, so a reader never sees a partial entry."""
    if cache_dir is None:
        return
    path = Path(cache_dir)
    path.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile("w", dir=path, suffix=".tmp", delete=False) as fh:
        fh.write(payload)
    os.replace(fh.name, path / f"{key}.json")
