"""Spherical functions of the doubled-base Gelfand triples, by three
independent engines, plus double-coset orders, the characteristic map onto
multi-alphabet symmetric functions, and exact cross-engine reconciliation.

Engines:
  brute   -- group-algebra averaging of the big-group character over the
             subgroup (ground truth);
  closed  -- product formulas available when an irreducible label is
             concentrated on a single character block, with the classical
             (S_2n, H_n) factor read off a Jack or Schur Q power-sum
             coefficient;
  symfunc -- coefficient extraction from products of classical symmetric
             functions (Jack at 2, Schur Q, Schur) pushed through
             the change of variables onto merged-class power sums.
A delta-type pi needs no second context: each character block sees
wreath.block_pi(pi, nu), and where that contains delta the block is read
at the transposed shape and sign-twisted.  Both formula engines read a
self-paired block's mu off one map, wreath.self_row_shapes, which also
gives the label sets their shapes.
"""

from __future__ import annotations

import hashlib
import json
import os
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
    shifted_tableau_count,
)
from .symfunc import (
    PTerms,
    SymFuncElem,
    jack_p,
    pack_key,
    schur_p,
    schurq_p,
    sym_character,
)
from .wreath import (
    DELTA,
    IOTA,
    PairedChar,
    WreathElement,
    block_pi,
    class_type,  # not used here; perfbench/test_tracing.py counts calls through it
    conj_theta_table,
    coset_label_set,
    coset_rep,
    coset_stabilizer,
    epsilon_sign,
    irrep_label_set,
    k_order,
    k_type_weights,
    pi_bits,
    self_row_shapes,
    w_identity,
    wreath_character,
)


# The "format" tag of table JSON, also a part of every cache key.
TABLE_FORMAT = 1

# The table engines, in the order the CLI offers them; brute is the default.
ENGINES = ("brute", "closed", "symfunc")


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
        if group is not table.group:
            raise GroupError(
                f"the context needs the table's own group, not another {group.name}"
            )
        self.group = group
        self.table = table
        self.xi = xi
        self.pi = pi
        self.n = n
        self.caps = caps
        self.fusion = fuse_classes(table, xi)
        self.theta = PairedChar(table, xi, pi, n)
        self.sign = epsilon_sign(pi)
        self.rows = irrep_label_set(table, xi, pi, n)
        self.cols = coset_label_set(table, xi, self.sign, n)
        if len(self.rows) != len(self.cols):
            raise GroupError(
                f"label sets disagree: {len(self.rows)} rows vs {len(self.cols)} cosets"
            )
        work = len(self.rows) * len(self.cols)
        if work > caps.max_classwork:
            raise CapExceeded("cap-classwork", caps.max_classwork, work)
        self.merged_names = tuple(f"R{i+1}" for i in range(len(group.merged)))
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

    # -- brute engine --------------------------------------------------------------

    def check_brute_work(self) -> None:
        """Refuse a brute table before its first pass over K: it makes one
        pass per column and one at the identity."""
        work = (len(self.cols) + 1) * self.hg_size
        if work > self.caps.max_classwork:
            raise CapExceeded("cap-classwork", self.caps.max_classwork, work)

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
        return self.brute_at_element(lam, coset_rep(self.group, rho))

    # -- block structure of a row label -----------------------------------------------

    def row_blocks(self, lam: MultiPartition) -> list[int]:
        """The representative rows of lam's nonempty blocks."""
        partner = self.fusion.row_partner
        return [r for r in self.fusion.eta_reps if lam[r].parts or lam[partner[r]].parts]


# -- classical two-group spherical values ---------------------------------------------


def classical_spherical(shape: Partition, pi: str, rho_hat: Partition) -> Fraction:
    """Spherical value of the symmetric-group pair (S_2n, H_n), H_n the
    centralizer of a fixed-point-free involution, for the linear character
    pi, at the coset of the doubled-cycle permutation of rho_hat: a
    power-sum coefficient of a Jack or Schur Q function (_classical_row)."""
    assert shape.size == 2 * rho_hat.size
    return _classical_row(shape, pi).get(rho_hat, Fraction(0))


@cache
def _classical_row(shape: Partition, pi: str) -> dict[Partition, Fraction]:
    """classical_spherical at every rho_hat where it is nonzero, read off one
    expansion per (shape, pi) (Macdonald VII.2 and III.8) at the mu that
    self_row_shapes gives the shape, and empty at every other shape;
    z = aut_order() and n = |rho|:
      triv: 2^l(rho) z [p_rho] J^(2)_mu / (2^n n!);
      iota: z [p_rho] Q_mu / (2^n g^mu), g^mu the number of standard
            shifted tableaux of mu;
    then, under delta, times (-1)^l(rho_hat): sgn restricted to H_n is
    delta, and the doubled-cycle permutation of rho_hat has that sign."""
    bits, n = pi_bits(pi), shape.size // 2
    mu = self_row_shapes(bits, n).get(shape)
    if mu is None:
        return {}
    if bits & IOTA:
        scale = Fraction(1, 2**n * shifted_tableau_count(mu))
        row = {rho: rho.aut_order() * c * scale for rho, c in schurq_p(mu)}
    else:
        scale = Fraction(1, 2**n * factorial(n))
        row = {rho: 2 ** len(rho) * rho.aut_order() * c * scale for rho, c in jack_p(mu, 2)}
    if bits & DELTA:
        return {rho: -v if len(rho) & 1 else v for rho, v in row.items()}
    return row


# -- closed-form engine ------------------------------------------------------------------


def spherical_closed(
    ctx: SphericalContext, lam: MultiPartition, rho: MultiPartition
) -> CycNum | None:
    """Closed-form value, or None when no closed form applies (mixed rows)."""
    blocks = ctx.row_blocks(lam)
    if len(blocks) != 1:
        return None
    rep = blocks[0]
    table, merged = ctx.table, ctx.group.merged
    n = ctx.n
    rho_hat = rho.hat()
    if ctx.fusion.row_partner[rep] == rep:
        nu = ctx.fusion.nu[rep]
        # the classical factor applies block_pi's sign twist itself
        omega = classical_spherical(lam[rep], block_pi(ctx.pi, nu), rho_hat)
        if not omega:
            return ZERO
        val = CycNum.rational(Fraction(nu**n) * omega)
        # the averaging engine fixes the orientation: the character is taken
        # at the inverse of the chosen class representative
        for i, m in enumerate(merged):
            ell = len(rho[i])
            if ell:
                val = val * table.value(rep, m.rep_element).conjugate() ** ell
        return val * Fraction(1, table.degrees[rep] ** n)
    # split pair: character-scaled product over parts; under delta, the
    # sign twist of the transposed shape's character
    lam_rep = lam[rep]
    if pi_bits(ctx.pi) & DELTA:
        chi_val = sym_character(lam_rep.transpose(), rho_hat) * (-1) ** len(rho_hat)
    else:
        chi_val = sym_character(lam_rep, rho_hat)
    dim = table.degrees[rep] ** n * lam_rep.dim_sym()
    val = CycNum.rational(Fraction(chi_val, 2**n * dim))
    for i, m in enumerate(merged):
        for part, mult in rho[i].multiplicities().items():
            val = val * _numerator_once(ctx, rep, m.rep_element, part) ** mult
    return val


# -- double-coset orders --------------------------------------------------------------


def coset_order(ctx: SphericalContext, rho: MultiPartition) -> int:
    """Order of the double coset with the given label, by the product formula."""
    total = Fraction(ctx.hg_size**2)
    for m, part in zip(ctx.group.merged, rho):
        zc = ctx.group.centralizer_orders[m.classes[0]]
        # a real class counts the doubled partition: aut(2 mu) = 2^len(mu) aut(mu)
        total /= part.aut_order() * ((2 if m.real else 1) * zc) ** len(part)
    assert total.denominator == 1
    return int(total)


def coset_order_brute(ctx: SphericalContext, rho: MultiPartition) -> int:
    """|K x K| by orbit-stabilizer, walking K once; refuses K over the
    element cap."""
    pairs = coset_stabilizer(ctx.group, coset_rep(ctx.group, rho), ctx.caps)
    return ctx.hg_size**2 // len(pairs)


# -- characteristic map ------------------------------------------------------------------


def _radical_factor(ctx: SphericalContext, rho: MultiPartition) -> int:
    if ctx.sign == 1:
        return 1
    out = 1
    for i, m in enumerate(ctx.group.merged):
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


def _push_single(ctx: SphericalContext, chi: int, f: PTerms) -> SymFuncElem:
    """Push a single-alphabet p-expression through the change of variables
    p_r(chi) -> sum over merged classes R of _numerator / (k zeta_R) p_r(R).

    The scale k was pinned by the averaging engine: for the unsigned
    characters k = 2 on real classes and 1 on complex ones; for the signed
    characters k = 2 on every class when chi's block is self-paired and 1
    when it is a split pair.  Every push for chi shares the memo
    ctx._images[chi], so each power-sum monomial is pushed once per
    (context, chi).
    """
    self_paired = ctx.fusion.row_partner[chi] == chi

    def coeff(_a, b, r):
        m = ctx.group.merged[ctx.merged_names.index(b)]
        k = 2 if (m.real if ctx.sign == 1 else self_paired) else 1
        zc = ctx.group.centralizer_orders[m.classes[0]]
        return _numerator_once(ctx, chi, m.rep_element, r) * Fraction(1, k * zc)

    images = ctx._images.setdefault(chi, {})
    return SymFuncElem.from_p_expr(f).change_alphabet(coeff, ctx.merged_names, images)


def _block_factor(ctx: SphericalContext, rep: int, shape: Partition) -> SymFuncElem:
    """The pushed classical factor of one character block, with its scalar.
    The block sees block_pi(pi, nu), and its factor is sign-twisted where
    that contains delta.  A self-paired block reads its mu off
    self_row_shapes (J^(2)_mu, or Q_mu), and its scalar carries nu^m: Q
    lies in the odd power sums, where the sign twist is (-1)^m.  A split
    pair reads s at its shape, transposed under delta."""
    gsize, d = ctx.group.order, ctx.table.degrees[rep]
    nu = ctx.fusion.nu[rep]  # 0 on a split pair
    bits = pi_bits(block_pi(ctx.pi, nu))
    if ctx.fusion.row_partner[rep] == rep:
        m = shape.size // 2
        mu = self_row_shapes(bits, m)[shape]
        scalar = Fraction(nu * gsize, d) ** m
        if bits & IOTA:
            f = schurq_p(mu)
            scalar *= Fraction(factorial(m), shifted_tableau_count(mu))
        else:
            f = jack_p(mu, 2)
    else:
        m = shape.size
        own = shape.transpose() if bits & DELTA else shape
        f = schur_p(own)
        scalar = Fraction(gsize, d) ** m * own.hook_product()
    pushed = _push_single(ctx, rep, f).scale(scalar)
    return pushed.sign_twist() if bits & DELTA else pushed


def ch_image_product(ctx: SphericalContext, lam: MultiPartition) -> SymFuncElem:
    """The predicted image (1/|subgroup|) CH(spherical function) as a product
    of classical symmetric functions, one factor per character block.  Each
    factor is pushed once per context and block, keyed by (rep, lam[rep])."""
    result = None
    for rep in ctx.row_blocks(lam):
        key = (rep, lam[rep])
        factor = ctx._factors.get(key)
        if factor is None:
            factor = ctx._factors[key] = _block_factor(ctx, rep, lam[rep])
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

    def to_json_obj(self) -> dict:
        return {
            "format": TABLE_FORMAT,
            "group": self.group_name,
            "xi": self.xi_name,
            "pi": self.pi,
            "n": self.n,
            "rows": [lam.to_json(self.char_names) for lam in self.rows],
            "cols": [rho.to_json(self.merged_names) for rho in self.cols],
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
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "brute":
        ctx.check_brute_work()
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


def cache_load(cache_dir: str | Path, key: str) -> str | None:
    """The cached table payload, or None on a miss.  An entry that is not a
    whole format-1 table, exactly as written, counts as a miss."""
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


def cache_store(cache_dir: str | Path, key: str, payload: str) -> None:
    """Write the entry through atomic_write: a reader never sees a part."""
    path = Path(cache_dir)
    path.mkdir(parents=True, exist_ok=True)
    atomic_write(path / f"{key}.json", payload)


def atomic_write(path: str | Path, text: str) -> None:
    """Write text to path through a temporary file beside it, renamed into
    place, so that path keeps its old contents (or stays absent) unless all
    of text was written; the temporary file is removed when the write
    fails.  A new file gets mode 0666 less the umask, as open() gives it."""
    path = Path(path)
    if path.exists() and not path.is_file():  # a device or a pipe: nothing to replace
        path.write_text(text)
        return
    path = path.resolve()  # a link is written through
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if path.exists():  # keep the mode of the file it replaces
            os.chmod(fd, path.stat().st_mode & 0o7777)
        with open(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
