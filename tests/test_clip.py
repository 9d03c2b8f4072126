"""Property test of the head clip: ``build_system``'s table ``ahead`` read by
``_clip_to_heads`` against a brute-force "keep the fastest pairs first" rule."""

from types import SimpleNamespace

import numpy as np
import pytest

from fluidq import build_system, validate_model
from fluidq.simulator import _clip_to_heads

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _keep_fastest_first(core, rates, h):
    """Walk the row fastest pair first, equal rates the higher station first, and
    keep each pair's ``core`` count while heads are left."""
    kept = [0] * len(core)
    for j in sorted(range(len(core)), key=lambda j: (rates[j], j), reverse=True):
        kept[j] = min(core[j], h)
        h -= kept[j]
    return kept


@st.composite
def _rows(draw):
    I, J = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    core = draw(st.lists(st.lists(st.integers(0, 6), min_size=J, max_size=J),
                         min_size=I, max_size=I))
    # few distinct rates, so ties come up often
    rates = draw(st.lists(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=J, max_size=J),
                          min_size=I, max_size=I))
    heads = [draw(st.integers(0, sum(row) + 2)) for row in core]
    return core, rates, heads


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(_rows())
def _clip_keeps_the_fastest_pairs_first(case):
    core, rates, heads = case
    I, J = len(core), len(core[0])
    # at n = 1 with integer masses and a server per customer and one more, ``core``
    # is the drawn split itself, unshaved
    model = validate_model({"classes": I, "stations": J, "lambda": [1.0] * I,
                            "nu": [sum(col) + 1 for col in zip(*core)], "mu": rates})
    masses = np.array(core, dtype=float)
    sys = build_system(model, SimpleNamespace(masses=masses, class_masses=masses.sum(1)), 1)
    assert sys.core.tolist() == core
    psi = _clip_to_heads(sys.core.tolist(), sys.ahead.tolist(), heads)
    for row, kept, mu, h in zip(core, psi, rates, heads):
        assert kept == _keep_fastest_first(row, mu, h)
        assert sum(kept) == min(h, sum(row))
        assert all(0 <= k <= c for k, c in zip(kept, row))
        # cuts fall slowest pair first, equal rates the lower station first: a pair
        # keeps anything only if every pair cut after it keeps all of its count
        for j in range(J):
            for k in range(J):
                if (mu[j], j) < (mu[k], k) and kept[j] > 0:
                    assert kept[k] == row[k], (row, mu, h, kept)


def test_clip_keeps_the_fastest_pairs_first():
    # a plain test around the property: on a failure, hypothesis's pytest plugin
    # imports libcst to write a patch, and under warnings-as-errors that import's
    # DeprecationWarning is an internal error that ends the whole session
    _clip_keeps_the_fastest_pairs_first()
