import numpy as np
import pytest

from sparsewht.analysis import de_table, density_evolution, min_eta

# the published four-place minimum-redundancy table, which min_eta
# reproduces when rounded to four places
MIN_REDUNDANCY = {2: 1.0000, 3: 0.4073, 4: 0.3237, 5: 0.2850, 6: 0.2616, 8: 0.2336}
TABLE_ETA = {2: 1.0000, 3: 0.4073, 4: 0.3237, 5: 0.2850, 6: 0.2616}
TABLE_C_ETA = [2.0000, 1.2219, 1.2948, 1.4250, 1.5696]


def test_converges_just_above_threshold():
    trace = density_evolution(3, 0.41, max_iters=10_000)
    assert trace.converged and trace.probs[-1] < 1e-12


def test_stalls_below_threshold():
    trace = density_evolution(3, 0.40, max_iters=10_000)
    assert not trace.converged
    assert trace.probs[-1] > 0.1  # stuck at a positive fixed point


def test_large_eta_one_step():
    trace = density_evolution(3, 1e6)
    assert trace.probs[1] < 1e-10


def test_probs_monotone_nonincreasing():
    trace = density_evolution(4, 0.5, max_iters=2000)
    diffs = np.diff(np.array(trace.probs))
    assert np.all(diffs <= 1e-15)


def test_convergence_monotone_in_eta():
    lengths = []
    for eta in (0.45, 0.6, 0.9):
        trace = density_evolution(3, eta, max_iters=10_000)
        assert trace.converged
        lengths.append(len(trace.probs))
    assert lengths[0] >= lengths[1] >= lengths[2]


@pytest.mark.parametrize("c,eta", sorted(TABLE_ETA.items()))
def test_min_eta_matches_table(c, eta):
    assert min_eta(c) == pytest.approx(eta, abs=1e-3)


@pytest.mark.parametrize("c", sorted(MIN_REDUNDANCY))
def test_min_eta_rounds_to_redundancy_constants(c):
    assert round(min_eta(c), 4) == MIN_REDUNDANCY[c]


@pytest.mark.parametrize("c", [3, 4, 5, 6])
def test_threshold_separates_convergence_from_stall(c):
    eta = min_eta(c)
    assert density_evolution(c, 1.01 * eta).converged
    assert not density_evolution(c, 0.99 * eta).converged


def test_c_eta_row():
    rows = de_table()
    got = [row[2] for row in rows]
    assert np.allclose(got, TABLE_C_ETA, atol=1e-3)


def test_input_validation():
    with pytest.raises(ValueError):
        density_evolution(1, 0.5)
    with pytest.raises(ValueError):
        density_evolution(3, 0.0)
    with pytest.raises(ValueError):
        min_eta(1)
