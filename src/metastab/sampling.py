"""Seeded generators for test corpora and CLI experiments."""

from __future__ import annotations

import numpy as np

from .chains import build_chain


def random_reversible_chain(rng, n_states, extra_edges=None, laziness=0.2):
    """Random reversible chain on a connected weighted graph.

    A random spanning tree plus extra edges, log-normal conductances and a
    log-normal vertex measure; the kernel p(x, y) = w(x, y) / (c mu(x)) is
    reversible by construction, with at least ``laziness`` holding mass on
    every diagonal entry.
    """
    if n_states == 1:
        return build_chain(["s0"], [("s0", "s0", 1.0)], stationary=[1.0])
    edges = {}
    for i in range(1, n_states):
        j = int(rng.integers(0, i))
        edges[(j, i)] = float(np.exp(rng.normal(0.0, 1.0)))
    if extra_edges is None:
        extra_edges = n_states // 2
    for _ in range(extra_edges):
        i, j = rng.integers(0, n_states, size=2)
        if i == j:
            continue
        key = (min(int(i), int(j)), max(int(i), int(j)))
        if key not in edges:
            edges[key] = float(np.exp(rng.normal(0.0, 1.0)))
    mu = np.exp(rng.normal(0.0, 1.0, size=n_states))
    mu = mu / mu.sum()
    load = np.zeros(n_states)
    for (i, j), w in edges.items():
        load[i] += w / mu[i]
        load[j] += w / mu[j]
    c = load.max() / (1.0 - laziness)
    triples = []
    for (i, j), w in edges.items():
        triples.append((f"s{i}", f"s{j}", w / (c * mu[i])))
        triples.append((f"s{j}", f"s{i}", w / (c * mu[j])))
    return build_chain([f"s{i}" for i in range(n_states)], triples, stationary=mu)


def double_well_chain(beta, n_states=11):
    """Metropolis birth-death chain for the quartic double-well profile.

    V(x) = ((x - c)^2 - c^2)^2 / 100 on {0, ..., n-1} with wells at the
    endpoints and the barrier in the middle; mu is the Gibbs measure and the
    moves are lazy Metropolis steps.
    """
    c = (n_states - 1) / 2.0
    xs = np.arange(n_states, dtype=float)
    v = ((xs - c) ** 2 - c**2) ** 2 / 100.0
    mu = np.exp(-beta * (v - v.min()))
    mu = mu / mu.sum()
    triples = []
    for x in range(n_states - 1):
        up = 0.5 * min(1.0, np.exp(-beta * (v[x + 1] - v[x])))
        dn = 0.5 * min(1.0, np.exp(-beta * (v[x] - v[x + 1])))
        triples.append((f"x{x}", f"x{x + 1}", up))
        triples.append((f"x{x + 1}", f"x{x}", dn))
    return build_chain([f"x{x}" for x in range(n_states)], triples, stationary=mu)


def random_state_function(rng, chain):
    return rng.normal(0.0, 1.0, size=chain.n_states)


def random_probability(rng, n):
    p = rng.uniform(0.05, 1.0, size=n)
    return p / p.sum()
