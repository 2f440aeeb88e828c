"""Integer partitions, multipartitions, and their combinatorial statistics."""

from __future__ import annotations

from functools import cache
from math import factorial


class Partition:
    """A weakly decreasing tuple of positive integers.

    Instances are immutable, hashable, and ordered by the tuple of parts.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    # -- basics ---------------------------------------------------------

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __le__(self, other):
        return self.parts <= other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts})"

    def __str__(self):
        return "+".join(str(p) for p in self.parts)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    # -- shape operations -------------------------------------------------

    def transpose(self) -> "Partition":
        if not self.parts:
            return self
        return Partition(sum(1 for p in self.parts if p > i) for i in range(self.parts[0]))

    def union(self, other: "Partition") -> "Partition":
        return Partition(sorted(self.parts + other.parts, reverse=True))

    # -- predicates -------------------------------------------------------

    def is_strict(self) -> bool:
        return all(self.parts[i] > self.parts[i + 1] for i in range(len(self.parts) - 1))

    def is_even(self) -> bool:
        return all(p % 2 == 0 for p in self.parts)

    def is_odd(self) -> bool:
        return all(p % 2 == 1 for p in self.parts)

    # -- statistics ---------------------------------------------------------

    def hook_product(self) -> int:
        """Product of the hook lengths of the diagram."""
        out = 1
        cols = self.transpose().parts
        for i, row in enumerate(self.parts):
            for j in range(row):
                out *= row - j + cols[j] - i - 1
        return out

    def aut_order(self) -> int:
        """Centralizer order z = prod r^m_r * m_r! of this cycle type."""
        out = 1
        for r, m in self.multiplicities().items():
            out *= r**m * factorial(m)
        return out

    def dim_sym(self) -> int:
        """Number of standard tableaux, |lambda|! / hook product."""
        return factorial(self.size) // self.hook_product()


EMPTY = Partition()  # shared by every label that leaves a slot empty


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order ((n) first)."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(rest: int, biggest: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, biggest), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(Partition(p) for p in gen(n, n))


def strict_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(p for p in partitions_of(n) if p.is_strict())


@cache
def odd_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(p for p in partitions_of(n) if p.is_odd())


def from_frobenius(arms: tuple[int, ...], legs: tuple[int, ...]) -> Partition:
    d = len(arms)
    rows = list(arms[i] + i + 1 for i in range(d))
    col1 = legs[0] + 1 if d else 0
    cols = [legs[j] + j + 1 for j in range(d)]
    for i in range(d, col1):
        rows.append(sum(1 for c in cols if c >= i + 1))
    return Partition(rows)


def doubling(mu: Partition) -> Partition:
    """The double of a strict partition: its shifted diagram glued to the
    reflected copy, i.e. the shape with diagonal hooks (mu_i | mu_i - 1)."""
    if not mu.is_strict():
        raise ValueError(f"doubling requires a strict partition, got {mu}")
    if not mu.parts:
        return mu
    return from_frobenius(mu.parts, tuple(p - 1 for p in mu.parts))


@cache
def shifted_tableau_count(mu: Partition) -> int:
    """Number of standard fillings of the shifted diagram of a strict mu."""
    if not mu.is_strict():
        raise ValueError(f"shifted tableaux require a strict partition, got {mu}")
    if mu.size <= 1:
        return 1
    total = 0
    parts = mu.parts
    for i, p in enumerate(parts):
        # remove the last cell of row i; the result must stay strict
        below = parts[i + 1] if i + 1 < len(parts) else 0
        if p - 1 > below or (p == 1 and i == len(parts) - 1):
            smaller = parts[:i] + ((p - 1,) if p > 1 else ()) + parts[i + 1 :]
            total += shifted_tableau_count(Partition(smaller))
    return total


class MultiPartition:
    """A tuple of partitions over an implicit ordered label alphabet."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(p if isinstance(p, Partition) else Partition(p) for p in parts)
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _of(cls, parts: tuple[Partition, ...]) -> "MultiPartition":
        """The trusted constructor: parts must already be a tuple of
        Partitions, as the enumerations here build them; nothing is checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

    def __setattr__(self, *a):
        raise AttributeError("MultiPartition is immutable")

    @property
    def weight(self) -> int:
        return sum(p.size for p in self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i) -> Partition:
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, MultiPartition) and self.parts == other.parts

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"MultiPartition({[p.parts for p in self.parts]})"

    def sort_key(self):
        return tuple(p.parts for p in self.parts)

    def hat(self) -> Partition:
        """The single partition collecting every part of every component."""
        allparts: list[int] = []
        for p in self.parts:
            allparts.extend(p.parts)
        return Partition(sorted(allparts, reverse=True))

    def transpose(self) -> "MultiPartition":
        return MultiPartition(p.transpose() for p in self.parts)

    def to_json(self, labels) -> dict:
        return {str(labels[i]): list(p.parts) for i, p in enumerate(self.parts) if p.parts}


@cache
def multipartitions(num_slots: int, n: int) -> tuple[MultiPartition, ...]:
    """All multipartitions of weight n over num_slots slots, ordered by sort key."""
    return multipartitions_constrained((partitions_of,) * num_slots, n)


def multipartitions_constrained(families, n: int) -> tuple[MultiPartition, ...]:
    """Multipartitions of weight n where slot i draws from families[i],
    ordered by sort key.

    families[i](w) lists the Partitions slot i may take at weight w: the
    slot weights add up to n.
    """
    return tuple(MultiPartition._of(t) for t in ordered_choices(families, n))


def ordered_choices(families, n: int) -> list[tuple]:
    """Every tuple of choices, slot i from families[i](w_i) with the w_i
    adding up to n, in sort-key order: lexicographic in the slots' parts.
    Each family is called once per weight.

    The tuples are built from the last slot back.  Each slot's options are
    ordered by parts once, and each option goes in front of the later
    slots' tuples of the remaining weight, which are in order already; so
    the tuples come out in order with no sort."""
    later = [[()]] + [[] for _ in range(n)]  # later[r]: the later slots' tuples of weight r
    if not families:
        return later[n]
    for family in reversed(families[1:]):
        opts = _ordered_options(family, n)
        later = [_prepend(opts, later, r) for r in range(n + 1)]
    return _prepend(_ordered_options(families[0], n), later, n)


def _ordered_options(family, n: int) -> list[tuple[int, Partition]]:
    """(weight, choice) for every choice of weight 0..n, ordered by parts."""
    return sorted(((w, p) for w in range(n + 1) for p in family(w)), key=lambda o: o[1].parts)


def _prepend(opts, later, r: int) -> list[tuple]:
    """Each option of weight w <= r before each later tuple of weight r - w."""
    return [(p,) + t for w, p in opts if w <= r for t in later[r - w]]
