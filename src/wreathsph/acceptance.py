"""The bundled acceptance suite: ten numbered criteria, each returning an
exact pass/fail verdict with timing.  Used by the command-line selftest and
by the test suite."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .cyclo import CycNum, ONE, cyc, sum_products, zeta
from .groups import (
    bundled,
    bundled_names,
    fuse_classes,
    linear_characters,
    orthogonality_failures,
    twisted_indicator,
)
from .partitions import (
    MultiPartition,
    Partition,
    doubling,
    multipartitions,
    partitions_of,
    strict_partitions,
)
from .symfunc import (
    jack_p_expr,
    p_inner_alpha,
    schurq_p_expr,
    sym_character,
)
from .spherical import (
    SphericalContext,
    build_table,
    coset_order,
    coset_order_brute,
    reconcile,
)
from .wreath import (
    PI_NAMES,
    PairedChar,
    WreathElement,
    coset_label_set,
    coset_rep,
    coset_stabilizer,
    decompose_induced,
    epsilon_sign,
    irrep_label_set,
    k_order,
    perm_of_partition,
    w_identity,
    w_mul,
    wreath_character,  # not used here; perfbench/test_tracing.py counts calls through it
    wreath_character_values,
    wreath_columns,
    wreath_dim,
    wreath_order,
)

@dataclass
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"criterion {self.number:2d} [{mark}] {self.title} ({self.seconds:.1f}s){': ' + self.detail if self.detail else ''}"


def _result(number, title, t0, failures):
    detail = "; ".join(failures[:6]) + (
        f"; and {len(failures)-6} more" if len(failures) > 6 else ""
    )
    return CriterionResult(number, title, not failures, detail, time.time() - t0)


def criterion_1() -> CriterionResult:
    """Twisted indicator columns of the 48-element matrix group."""
    t0 = time.time()
    failures = []
    group, table = bundled("gl2f3")
    xi = table.row_by_name("chi2")
    got_plain = [twisted_indicator(table, 0, chi) for chi in range(8)]
    got_twist = [twisted_indicator(table, xi, chi) for chi in range(8)]
    if got_plain != [1, 1, 1, 1, 1, 0, 0, 1]:
        failures.append(f"plain indicator column {got_plain}")
    if got_twist != [0, 0, -1, 0, 0, -1, -1, -1]:
        failures.append(f"twisted indicator column {got_twist}")
    return _result(1, "twisted indicators, gl2f3", t0, failures)


def criterion_2() -> CriterionResult:
    """Counting identities for every bundled group and linear twist."""
    t0 = time.time()
    failures = []
    for name in bundled_names():
        _group, table = bundled(name)
        for xi in linear_characters(table):
            s = fuse_classes(table, xi).stats
            if Fraction(s["n_C"], 2) + s["n_xi"] != Fraction(s["n_C_xi_rows"], 2):
                failures.append(f"{name}/{table.names[xi]}: class-count identity")
            if s["n_R"] - 2 * s["n_xi"] != s["n_R_xi_rows"]:
                failures.append(f"{name}/{table.names[xi]}: real-count identity")
            if s["n_R_xi_rows"] + Fraction(s["n_C_xi_rows"], 2) != s[
                "n_starstar"
            ] - s["n_xi"]:
                failures.append(f"{name}/{table.names[xi]}: merged-count identity")
    _group, table = bundled("gl2f3")
    s = fuse_classes(table, table.row_by_name("chi2")).stats
    if (s["n_xi"], s["n_C"], s["n_C_xi_rows"]) != (1, 2, 4):
        failures.append(f"gl2f3 stats {s}")
    return _result(2, "counting identities, all bundled twists", t0, failures)


def criterion_3() -> CriterionResult:
    """The four classical decompositions over the trivial base group."""
    t0 = time.time()
    failures = []
    group, table = bundled("c1")
    expected = {
        "triv": lambda n: {
            MultiPartition([Partition(tuple(2 * p for p in lam))])
            for lam in partitions_of(n)
        },
        "delta": lambda n: {
            MultiPartition([Partition(tuple(2 * p for p in lam)).transpose()])
            for lam in partitions_of(n)
        },
        "iota": lambda n: {
            MultiPartition([doubling(mu)]) for mu in strict_partitions(n)
        },
        "delta-iota": lambda n: {
            MultiPartition([doubling(mu).transpose()]) for mu in strict_partitions(n)
        },
    }
    for pi in PI_NAMES:
        for n in (1, 2, 3):
            dec = decompose_induced(table, PairedChar(table, 0, pi, n))
            if set(dec.values()) != {1}:
                failures.append(f"{pi} n={n}: multiplicities {sorted(set(dec.values()))}")
            if set(dec) != expected[pi](n):
                failures.append(f"{pi} n={n}: support mismatch")
    return _result(3, "classical decompositions, trivial base group", t0, failures)


def _gelfand_configs():
    for name, ns in (("c2", (1, 2, 3)), ("c3", (1, 2)), ("c4", (1, 2)), ("q8", (1, 2))):
        group, table = bundled(name)
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                for n in ns:
                    yield name, group, table, xi, pi, n


def criterion_4() -> CriterionResult:
    """Multiplicity-free decompositions with the predicted support."""
    t0 = time.time()
    failures = []
    for name, group, table, xi, pi, n in _gelfand_configs():
        dec = decompose_induced(table, PairedChar(table, xi, pi, n))
        expected = set(irrep_label_set(table, xi, pi, n))
        if set(dec.values()) - {1}:
            failures.append(f"{name}/{table.names[xi]}/{pi}/n={n}: multiplicity > 1")
        if set(dec) != expected:
            failures.append(f"{name}/{table.names[xi]}/{pi}/n={n}: support mismatch")
        index = wreath_order(group, 2 * n) // k_order(group, n)
        if sum(wreath_dim(table, lam) for lam in dec) != index:
            failures.append(f"{name}/{table.names[xi]}/{pi}/n={n}: dimension sum")
    return _result(4, "induced-character decompositions, n up to 2 (3 for c2)", t0, failures)


def criterion_5() -> CriterionResult:
    """Averaged basis elements vanish exactly off the predicted label set.

    At x = coset_rep(rho), h -> theta(h) theta(x^-1 h^-1 x) is a linear
    character of K n xKx^-1, so its sum over the stabilizer pairs is their
    number where it is trivial (rho legal) and 0 elsewhere."""
    t0 = time.time()
    failures = []
    for name, ns in (("c2", (1, 2)), ("c3", (1, 2)), ("c4", (1, 2)), ("q8", (1, 2)),
                     ("gl2f3", (1,))):
        group, table = bundled(name)
        for n in ns:
            # the stabilizer members are numbered once per n and the pairs
            # kept as index pairs, so conj theta is one list per (xi, pi)
            index: dict = {}
            stabilizers = {
                rho: [
                    (index.setdefault(h, len(index)), index.setdefault(k, len(index)))
                    for h, k in coset_stabilizer(group, coset_rep(group, rho))
                ]
                for rho in multipartitions(len(group.merged), n)
            }
            for xi in linear_characters(table):
                for pi in PI_NAMES:
                    theta = PairedChar(table, xi, pi, n)
                    conj_theta = [theta.value(g).conjugate() for g in index]
                    legal = set(coset_label_set(table, xi, epsilon_sign(pi), n))
                    for rho, pairs in stabilizers.items():
                        tot = sum_products(
                            (conj_theta[h], conj_theta[k], 1) for h, k in pairs
                        )
                        if tot != (len(pairs) if rho in legal else 0):
                            failures.append(
                                f"{name}/{table.names[xi]}/{pi}/n={n}: {rho}"
                            )
    return _result(5, "double-coset basis support, n up to 2", t0, failures)


def criterion_6() -> CriterionResult:
    """Row and column label sets have equal size for every bundled twist."""
    t0 = time.time()
    failures = []
    for name in bundled_names():
        _group, table = bundled(name)
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                for n in (1, 2, 3, 4):
                    a = len(irrep_label_set(table, xi, pi, n))
                    b = len(coset_label_set(table, xi, epsilon_sign(pi), n))
                    if a != b:
                        failures.append(
                            f"{name}/{table.names[xi]}/{pi}/n={n}: {a} vs {b}"
                        )
    return _result(6, "label-set cardinalities, n up to 4, all bundled", t0, failures)


def _reconcile_configs():
    out = []
    for xi in (0, 1):
        for pi in PI_NAMES:
            for n in (1, 2):
                out.append(("c2", xi, pi, n))
    for pi in ("triv", "iota"):
        out.append(("q8", 1, pi, 1))
    for pi in PI_NAMES:
        for n in (1, 2, 3):
            out.append(("c1", 0, pi, n))
    return out


def criterion_7() -> CriterionResult:
    """Cross-engine reconciliation produces no mismatches."""
    t0 = time.time()
    failures = []
    for name, xi, pi, n in _reconcile_configs():
        group, table = bundled(name)
        ctx = SphericalContext(group, table, xi, pi, n)
        rep = reconcile(ctx)
        if not rep.ok():
            failures.append(
                f"{name}/{table.names[xi]}/{pi}/n={n}: {len(rep.mismatches)} mismatches"
            )
    return _result(7, "cross-engine reconciliation", t0, failures)


def _differ(where: str, pairs) -> list[str]:
    """One failure counting the (got, want) cells that differ, noting when every
    differing cell equals the negated expectation."""
    bad = [(got, want) for got, want in pairs if got != want]
    if not bad:
        return []
    negated = all(got == want * Fraction(-1) for got, want in bad)
    note = " (every cell equals the negated prediction)" if negated else ""
    return [f"{where}: {len(bad)} cells differ{note}"]


def criterion_8() -> CriterionResult:
    """Order-2 base group: the table equals the stated diagonal scaling of the
    symmetric-group character table, with the transposed variant for the
    signed permutation characters.

    The scaling h(lambda) 2^l(rho-hat) / (2^n n!) chi(rho-hat) is 1 at the
    identity label, so it is the spherical function at representatives that
    send that label to the identity element: y(rho) = x(rho) t0, where x(rho)
    is `coset_rep` and t0 = (0 1)(2 3)...(2n-2 2n-1), the product of the n
    pair flips.  t0 is x of the identity label and lies in K, so y(rho) is in
    the double coset of x(rho) and y(identity label) = 1.  Per column the
    criterion checks, exactly:

    * the brute definition at y(rho) equals the scaling, every row;
    * each brute table cell, read at x(rho), equals theta(t0) times it.
      This is K-bi-equivariance: t0 is an involution, so theta(t0) = +-1,
      which is (-1)^n for the delta-type characters and 1 otherwise;
    * y(identity label) is the identity element.

    See NOTES.md ("Diagonal factorization at the shifted representatives")."""
    t0 = time.time()
    failures = []
    group, table = bundled("c2")
    xi = 1  # the sign character
    for pi in PI_NAMES:
        transposed = epsilon_sign(pi) == -1
        for n in (2, 3, 4):
            ctx = SphericalContext(group, table, xi, pi, n)
            tab = build_table(ctx, "brute")
            # t0 of the docstring (the name t0 holds the start time here)
            flips = WreathElement((0,) * (2 * n), perm_of_partition(Partition((2,) * n)))
            theta_flips = ctx.theta.value(flips)
            identity_label = MultiPartition(
                (1,) * n if m.rep_element == 0 else () for m in group.merged
            )
            if w_mul(group, coset_rep(group, identity_label), flips) != w_identity(2 * n):
                failures.append(f"{pi}/n={n}: y(identity label) is not the identity")
            at_y = []
            in_table = []
            for j, rho in enumerate(ctx.cols):
                y = w_mul(group, coset_rep(group, rho), flips)
                column = [ctx.brute_at_element(lam, y) for lam in ctx.rows]
                rhat = rho.hat()
                for i, lam in enumerate(ctx.rows):
                    lam1 = lam[0]
                    h = lam1.hook_product()
                    chi = sym_character(
                        lam1.transpose() if transposed else lam1, rhat
                    )
                    pred = CycNum.rational(
                        Fraction(h * 2 ** len(rhat), 2**n * factorial(n)) * chi
                    )
                    at_y.append((column[i], pred))
                    in_table.append((tab.grid[i][j], theta_flips * column[i]))
            failures += _differ(f"{pi}/n={n}: prediction at y(rho)", at_y)
            failures += _differ(f"{pi}/n={n}: table vs theta(t0) times y(rho)", in_table)
    return _result(8, "diagonal factorization of the order-2 base-group tables", t0, failures)


def criterion_9() -> CriterionResult:
    """Double-coset order formula versus direct orbit enumeration."""
    t0 = time.time()
    failures = []
    for name, n in (("c2", 1), ("c4", 1), ("q8", 1), ("gl2f3", 1), ("c2", 2)):
        group, table = bundled(name)
        ctx = SphericalContext(group, table, 0, "triv", n)
        total = 0
        for rho in multipartitions(len(group.merged), n):
            f = coset_order(ctx, rho)
            b = coset_order_brute(ctx, rho)
            total += f
            if f != b:
                failures.append(f"{name}/n={n}/{rho}: {f} != {b}")
        if total != wreath_order(group, 2 * n):
            failures.append(f"{name}/n={n}: orders sum to {total}")
    return _result(9, "double-coset orders vs orbits", t0, failures)


def criterion_10() -> CriterionResult:
    """Exact property suites: cyclotomic arithmetic, table orthogonality,
    normalization at the identity, character orthogonality, Jack and Q checks."""
    t0 = time.time()
    failures = []

    # cyclotomic field axioms on a deterministic sample
    rng = random.Random(20240811)
    def rand_cyc():
        n = rng.choice((1, 3, 4, 5, 8, 12))
        return cyc(
            n, {rng.randrange(n): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))}
        )
    for _ in range(120):
        a, b, c = rand_cyc(), rand_cyc(), rand_cyc()
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            failures.append("associativity")
        if a * (b + c) != a * b + a * c:
            failures.append("distributivity")
        if (a * b).conjugate() != a.conjugate() * b.conjugate():
            failures.append("conjugation hom")
        if a.conjugate().conjugate() != a:
            failures.append("conjugation involution")
    for n in (3, 4, 5, 8, 12):
        for k in range(n):
            z = zeta(n, k) * Fraction(3, 7)
            if z * z.inverse() != ONE:
                failures.append(f"inverse of 3/7 zeta_{n}^{k}")

    # orthogonality of every wreath character table constructed here:
    # degree up to 3 over the groups of order at most 8, degree 2 beyond
    for name, nmax in (
        ("c2", 3), ("c3", 3), ("c4", 3), ("c5", 3), ("c6", 3), ("q8", 3),
        ("gl2f3", 2),
    ):
        group, table = bundled(name)
        for n in range(1, nmax + 1):
            lams = multipartitions(len(table.rows), n)
            rows = [wreath_character_values(table, lam) for lam in lams]
            order = wreath_order(group, n)
            sizes = [order // z for _k, z in wreath_columns(table, n)[1]]
            if sum(sizes) != order:
                failures.append(f"{name}/n={n}: class sizes")
            for kind, i, j, _ in orthogonality_failures(rows, sizes, order):
                if kind == "row":
                    failures.append(f"{name}/n={n}: row orthogonality {lams[i]} {lams[j]}")
                else:
                    failures.append(f"{name}/n={n}: column orthogonality")

    # normalization at the identity element for every engine-admissible row
    for name, xi, pi, n in (("c2", 1, "triv", 2), ("c2", 1, "iota", 2),
                            ("q8", 1, "triv", 1), ("q8", 0, "iota", 1),
                            ("c4", 1, "delta", 1), ("c1", 0, "delta-iota", 2)):
        group, table = bundled(name)
        ctx = SphericalContext(group, table, xi, pi, n)
        for lam in ctx.rows:
            if ctx.brute_at_element(lam, w_identity(2 * n)) != ONE:
                failures.append(f"{name}/{pi}: normalization at {lam}")

    # symmetric-group character orthogonality up to weight 7
    for n in range(1, 8):
        for a in partitions_of(n):
            for b in partitions_of(n):
                tot = sum(
                    Fraction(
                        sym_character(a, r) * sym_character(b, r), r.aut_order()
                    )
                    for r in partitions_of(n)
                )
                if tot != (1 if a == b else 0):
                    failures.append(f"character orthogonality {a} {b}")

    # Jack orthogonality at parameters 2 and 1/2, weight up to 5
    for alpha in (Fraction(2), Fraction(1, 2)):
        for n in range(1, 6):
            ps = partitions_of(n)
            for i, a in enumerate(ps):
                for b in ps[i + 1 :]:
                    if p_inner_alpha(jack_p_expr(a, alpha), jack_p_expr(b, alpha), alpha):
                        failures.append(f"jack orthogonality {a} {b} at {alpha}")

    # odd support of the Q family up to weight 6
    for n in range(1, 7):
        for mu in strict_partitions(n):
            if not all(k.is_odd() for k in schurq_p_expr(mu)):
                failures.append(f"Q support {mu}")

    return _result(10, "exact property suites", t0, failures)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_criteria(numbers=None) -> list[CriterionResult]:
    chosen = numbers or range(1, len(ALL_CRITERIA) + 1)
    if not all(1 <= i <= len(ALL_CRITERIA) for i in chosen):
        raise ValueError(f"criteria are numbered 1 to {len(ALL_CRITERIA)}, got {list(chosen)}")
    return [ALL_CRITERIA[i - 1]() for i in chosen]
