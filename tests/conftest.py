import numpy as np
import pytest

from metastab import build_chain
from metastab.sampling import double_well_chain, random_reversible_chain
from metastab import rfcw


@pytest.fixture(scope="session")
def two_state():
    return build_chain(["a", "b"], [("a", "b", 0.3), ("b", "a", 0.1)])


@pytest.fixture(scope="session")
def path3():
    edges = [
        ("0", "1", 0.5),
        ("1", "0", 0.25),
        ("1", "2", 0.25),
        ("2", "1", 0.5),
    ]
    return build_chain(["0", "1", "2"], edges)


@pytest.fixture(scope="session")
def ring4():
    """Uniform 4-cycle: its mirror images have bit-equal capacities."""
    edges = []
    for i in range(4):
        j = (i + 1) % 4
        edges += [(f"r{i}", f"r{j}", 0.25), (f"r{j}", f"r{i}", 0.25)]
    return build_chain([f"r{i}" for i in range(4)], edges)


@pytest.fixture(scope="session")
def double_well():
    return {beta: double_well_chain(beta) for beta in (1.0, 2.0, 3.0)}


@pytest.fixture(scope="session")
def exit_time_series():
    """E_{x_0}[tau_{x_{n-1}}] (or the reverse) of a birth-death chain, 60 digits.

    sum_k mu[0..k] / w(k, k + 1) over the chain's own float mu and
    conductances, as an mpmath number.
    """
    mp = pytest.importorskip("mpmath").mp

    def series(chain, forward=True):
        with mp.workdps(60):
            n = chain.n_states
            mu = [mp.mpf(float(x)) for x in chain.stationary]
            w = chain.conductance.toarray()
            cond = [mp.mpf(float(w[k, k + 1])) for k in range(n - 1)]
            if not forward:
                mu, cond = mu[::-1], cond[::-1]
            return sum(mp.fsum(mu[: k + 1]) / cond[k] for k in range(n - 1))

    return series


@pytest.fixture(scope="session")
def chain_corpus():
    """Shared random corpus: 100 chains up to 64 states with (A, B) picks."""
    rng = np.random.default_rng(20240811)
    corpus = []
    for _ in range(100):
        n = int(rng.integers(3, 65))
        chain = random_reversible_chain(rng, n)
        k_a = int(rng.integers(1, max(2, n // 4)))
        k_b = int(rng.integers(1, max(2, n // 4)))
        perm = rng.permutation(n)
        a = np.zeros(n, dtype=bool)
        b = np.zeros(n, dtype=bool)
        a[perm[:k_a]] = True
        b[perm[k_a : k_a + k_b]] = True
        corpus.append((chain, a, b))
    return corpus


@pytest.fixture(scope="session")
def rfcw_two_valued():
    """N = 6 with a two-valued field that n = 2 resolves exactly."""
    model = rfcw.build_model(6, 1.5, "values:0.2,0.2,0.2,-0.2,-0.2,-0.2")
    land = rfcw.coarse_grain(model, 2)
    return model, land


@pytest.fixture(scope="session")
def rfcw_spread():
    """N = 6 with a spread field, so the block fluctuations are nonzero."""
    model = rfcw.build_model(6, 1.5, "values:0.23,0.18,0.2,-0.21,-0.2,-0.17")
    land = rfcw.coarse_grain(model, 2)
    return model, land
