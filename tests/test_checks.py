import random

import pytest

from cutforge.checks import corner_choices, sieve_artifacts
from cutforge.cuts import full_mask


@pytest.fixture(scope="module")
def artifacts():
    """The seeded sieve runs of `check --suite all`, seeds 0-5."""
    return [art for seed in range(6) for art in sieve_artifacts(seed)]


def test_corner_choice_on_the_prefix_is_the_full_length_choice(artifacts):
    """The corner dichotomy compares corner measures on degrees 0..min(L, |V|);
    for every irreducible pair of every seeded sieve run that picks the same
    complement choice as the length-L series."""
    pairs = 0
    for i, g, _algebra, report in artifacts:
        irr = [el.bits for el in report.irreducible]
        todo = [(a, b) for x, a in enumerate(irr) for b in irr[x + 1:]]
        prefix = corner_choices(g, report.L, todo)
        assert prefix == corner_choices(g, report.L, todo, report.L), i
        pairs += len(prefix)
    assert pairs > 1000


def test_corner_prefix_decides_random_element_pairs(artifacts):
    """Irreducible pairs are nested, so an empty corner wins at degree 1.
    Random element pairs of the same algebras mostly cross, and some of
    their corner measures agree on several leading terms; the prefix must
    still pick the length-L choice."""
    rng = random.Random(0)
    for i, g, _algebra, report in artifacts:
        full = full_mask(g)
        els = [el.bits for el in report.elements if el.bits not in (0, full)]
        todo = [(rng.choice(els), rng.choice(els)) for _ in range(8)]
        prefix = corner_choices(g, report.L, todo)
        assert prefix == corner_choices(g, report.L, todo, report.L), i
