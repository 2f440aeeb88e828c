"""The acceptance gate: one test per numbered criterion.

Each criterion prints its own pass/fail line.  Criterion 8 asserts the
positive diagonal factorization for all four sign characters literally and
exactly, at the representatives y(rho) = x(rho) t0 it holds at: x(rho) is
the tabulated representative and t0, the product of the n pair flips, is
x of the identity label and lies in K, so y(identity label) = 1.  It also
asserts table = theta(t0) * formula cell by cell, which pins the sign
(-1)^n of the delta-type tables at odd n.  NOTES.md ("Diagonal
factorization at the shifted representatives") carries the analysis.
"""

import pytest

from wreathsph import acceptance
from wreathsph.acceptance import ALL_CRITERIA
from wreathsph.partitions import multipartitions


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number):
    result = ALL_CRITERIA[number - 1]()
    print()
    print(result.line())
    assert result.ok, result.line()


def test_criterion_5_names_a_dropped_or_added_label(monkeypatch):
    """Criterion 5 fails, naming the label, when the predicted label set of
    one configuration loses a legal label or gains an illegal one."""
    real = acceptance.coset_label_set
    for drop in (True, False):
        edited = []

        def coset_label_set(table, xi, sign, n):
            labels = list(real(table, xi, sign, n))
            illegal = [
                r for r in multipartitions(len(table.group.merged), n) if r not in labels
            ]
            if edited:
                return tuple(labels)
            if drop and labels:
                edited.append(labels.pop(0))
            elif not drop and illegal:
                edited.append(illegal[0])
                labels.append(illegal[0])
            return tuple(labels)

        monkeypatch.setattr(acceptance, "coset_label_set", coset_label_set)
        result = acceptance.criterion_5()
        assert len(edited) == 1 and not result.ok
        assert f": {edited[0]}" in result.detail
