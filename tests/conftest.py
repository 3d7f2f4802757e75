import random
from fractions import Fraction

import pytest

from moment_strata import (line_product_model, projective_space_model,
                           weighted_model)


def sl2_weights(n):
    """The weight string n, n-2, ..., -n of the degree-n representation."""
    return list(range(n, -n - 1, -2))


def pn_model(n):
    return projective_space_model(sl2_weights(n))


def profile_beta(model, profile):
    """The beta of any support profile, by the scan's verified search."""
    from moment_strata import geometry, models

    models._check_profile(model, profile)
    return models._beta(geometry._search(model, profile)[1])


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty model memo for one test; the shared one is restored after."""
    from moment_strata import models

    monkeypatch.setattr(models, "_MEMO", {})


@pytest.fixture
def rng():
    return random.Random(20260822)


def random_rational(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_weight_system(rng, rank):
    """A small random model: 1-3 factors, 2-4 weights each, rational entries."""
    nfac = rng.randint(1, 3)
    factors = []
    for _ in range(nfac):
        size = rng.randint(2, 4)
        seen = set()
        rows = []
        while len(rows) < size:
            w = tuple(random_rational(rng, 3, 3) for _ in range(rank))
            if w in seen:
                continue
            seen.add(w)
            rows.append(w)
        factors.append(tuple(rows))
    return weighted_model(rank, factors)
