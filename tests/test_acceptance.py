"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated later.
"""

import json
import math
import time

import numpy as np
import pytest

from metastab import (
    InequalityViolation,
    build_chain,
    build_structure,
    capacitary_integral,
    dirichlet_form,
    equilibrium_potential,
    orlicz_norm,
    indicator_orlicz_norm,
    measure_capacity_constant,
    pi_lsi_estimates,
)
from metastab.cli import main as cli_main
from metastab.coupling import (
    coupling_experiment,
    eta_from_coupling,
    hitting_lower_bound_check,
    marginal_chi_square,
)
from metastab.oracle import (
    brute_force_orlicz,
    cheeger_constant,
    estimate_clsi,
    exact_cpi,
)
from metastab.orlicz import builtin_pairs, entropy_pair, l1_pair
from metastab.rfcw import (
    barred_chain,
    build_model,
    coarse_grain,
    find_minima_and_order,
    free_energy_continuous,
    lumpability_certificate,
    mesoscopic_dominance,
    mesoscopic_rates_and_chain,
)
from metastab.sampling import (
    random_probability,
    random_reversible_chain,
    random_state_function,
)
from references import hardy_exact_constant, muckenhoupt_constant

E2 = float(np.exp(2.0))


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _mean_hitting_times(chain, target):
    """E_x[tau_target] for every x from a dense solve of (I - P) w = 1 (or
    -L w = 1 in continuous time) off the target, built from the kernel."""
    gen = -chain.kernel.toarray()
    if chain.discrete_time:
        gen += np.eye(chain.n_states)
    free = ~target
    w = np.zeros(chain.n_states)
    w[free] = np.linalg.solve(gen[np.ix_(free, free)], np.ones(free.sum()))
    return w


def test_criterion_01_02_capacity_and_hitting_identities(chain_corpus):
    t0 = time.time()
    worst_pair = worst_energy = worst_hit = 0.0
    for chain, a, b in chain_corpus:
        sol = equilibrium_potential(chain, a, b)
        rev = equilibrium_potential(chain, b, a)
        worst_energy = max(
            worst_energy,
            abs(sol.capacity - sol.capacity_from_energy) / sol.capacity,
        )
        worst_pair = max(worst_pair, abs(sol.capacity - rev.capacity) / sol.capacity)
        lhs = float(np.dot(sol.last_exit, _mean_hitting_times(chain, b)))
        rhs = float(np.dot(chain.stationary, sol.potential)) / sol.capacity
        worst_hit = max(worst_hit, abs(lhs - rhs) / rhs)
    elapsed = time.time() - t0
    report(
        1,
        worst_energy <= 1e-8 and worst_pair <= 1e-8 and elapsed < 30.0,
        f"capacity identities on 100 chains: energy gap {worst_energy:.2e}, "
        f"symmetry gap {worst_pair:.2e}, {elapsed:.1f}s",
    )
    report(
        2,
        worst_hit <= 1e-8,
        f"hitting-time identity worst relative gap {worst_hit:.2e}",
    )


def test_criterion_03_capacitary_inequality():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(3, 65))
        chain = random_reversible_chain(rng, n)
        b = np.zeros(n, dtype=bool)
        b[rng.choice(n, size=int(rng.integers(1, 3)), replace=False)] = True
        f = random_state_function(rng, chain)
        f[b] = 0.0
        try:
            capacitary_integral(chain, f, b)  # raises where lhs > rhs + 1e-10
        except InequalityViolation:
            violations += 1
    report(3, violations == 0, f"capacitary inequality: {violations} violations in 1000")


def test_criterion_04_orlicz_machinery():
    rng = np.random.default_rng(404)
    pairs = list(builtin_pairs().values())

    worst_ind = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        nu = random_probability(rng, n)
        mask = np.zeros(n)
        mask[rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)] = 1.0
        pair = pairs[int(rng.integers(len(pairs)))]
        k_val = float(rng.uniform(0.4, 8.0))
        direct = orlicz_norm(mask, nu, pair, k_val)
        closed = indicator_orlicz_norm(float(nu[mask > 0].sum()), pair, k_val)
        worst_ind = max(worst_ind, abs(direct - closed) / max(closed, 1e-300))

    worst_bf = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 7))
        nu = random_probability(rng, n)
        f = np.abs(rng.normal(size=n))
        pair = pairs[int(rng.integers(len(pairs)))]
        k_val = float(rng.uniform(0.5, 4.0))
        dual = orlicz_norm(f, nu, pair, k_val)
        brute = brute_force_orlicz(f, nu, pair, k_val)
        worst_bf = max(worst_bf, abs(dual - brute) / max(dual, 1e-12))

    sandwich_ok = True
    for trial in range(50):
        n = int(rng.integers(4, 9))
        chain = random_reversible_chain(rng, n)
        b = np.zeros(n, dtype=bool)
        b[int(rng.integers(n))] = True
        pair = entropy_pair() if trial % 2 else l1_pair()
        k_val = E2 if trial % 2 else 1.0
        nu = chain.stationary
        scan = measure_capacity_constant(chain, nu, b, pair, k_val)
        c_psi = scan["c_psi"].value
        best = 0.0
        seeds = [equilibrium_potential(chain, scan["argmax"], b).potential]
        for _ in range(30):
            f = rng.normal(size=n)
            f[b] = 0.0
            seeds.append(f)
        for f in seeds:
            e = dirichlet_form(chain, f)
            if e < 1e-14:
                continue
            best = max(best, orlicz_norm(f * f, nu, pair, k_val) / e)
        if not (c_psi * (1 - 1e-6) <= best <= 4.0 * c_psi * (1 + 1e-6)):
            sandwich_ok = False
    report(
        4,
        worst_ind <= 1e-8 and worst_bf <= 1e-4 and sandwich_ok,
        f"orlicz: indicator gap {worst_ind:.2e}, brute-force gap {worst_bf:.2e}, "
        f"sandwich ok {sandwich_ok}",
    )


def test_criterion_05_two_state_exactness(two_state):
    spec = exact_cpi(two_state)
    cap = equilibrium_potential(two_state, ["a"], ["b"]).capacity
    ok = (
        abs(spec.c_pi.value - 2.5) <= 1e-12
        and abs(1.0 / (0.3 + 0.1) - 2.5) <= 1e-12
        and abs(0.25 * 0.75 / cap - 2.5) <= 1e-12
    )
    sym = build_chain(["a", "b"], [("a", "b", 0.2), ("b", "a", 0.2)])
    lb = estimate_clsi(sym, seed=5).c_lsi.value
    target = 2.0 * exact_cpi(sym).c_pi.value
    ok_lsi = abs(lb - target) <= 1e-4
    report(
        5,
        ok and ok_lsi,
        f"two-state exactness: C_PI routes agree, LSI gap {abs(lb - target):.2e}",
    )


def test_criterion_06_trend(double_well):
    t0 = time.time()
    pi_errs, lsi_ok = [], True
    for beta in (1.0, 2.0, 3.0):
        chain = double_well[beta]
        st = build_structure(chain, [["x0"], ["x10"]], mode="exact", seed=0)
        est = pi_lsi_estimates(chain, st)
        c_pi = exact_cpi(chain).c_pi.value
        pi_errs.append(
            abs(c_pi * st.caps[0, 1] / (st.mu_parts[0] * st.mu_parts[1]) - 1.0)
        )
        lb = estimate_clsi(chain, seed=0).c_lsi.value
        if est["lsi_lower"] < lb * (1.0 - 1e-9):
            lsi_ok = False
    elapsed = time.time() - t0
    ok = (
        pi_errs[0] > pi_errs[1] > pi_errs[2]
        and pi_errs[2] < 0.05
        and lsi_ok
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"trend over beta: PI errors {pi_errs[0]:.2e} > {pi_errs[1]:.2e} > "
        f"{pi_errs[2]:.2e}, LSI one-sided ok {lsi_ok}, {elapsed:.1f}s",
    )


def test_criterion_07_cheeger_sandwich(two_state, path3, double_well):
    rng = np.random.default_rng(707)
    instances = [two_state, path3, double_well[1.0], double_well[2.0]]
    instances += [random_reversible_chain(rng, 8) for _ in range(10)]
    violations = 0
    for chain in instances:
        ch, _ = cheeger_constant(chain)
        cpi = exact_cpi(chain).c_pi.value
        if not (ch <= cpi * (1 + 1e-10) and cpi <= 8.0 * ch * ch * (1 + 1e-10)):
            violations += 1
    report(7, violations == 0, f"Cheeger sandwich: {violations} violations")


def test_criterion_08_muckenhoupt():
    rng = np.random.default_rng(808)
    violations = 0
    for _ in range(20):
        n = int(rng.integers(2, 12))
        mu = random_probability(rng, n + 1)
        nu = random_probability(rng, n + 1)
        c2 = muckenhoupt_constant(mu, nu)
        c1 = hardy_exact_constant(mu[:-1], nu)
        if not (c2 <= c1 * (1 + 1e-9) and c1 <= 4.0 * c2 * (1 + 1e-9)):
            violations += 1
    report(8, violations == 0, f"Muckenhoupt sandwich: {violations} violations in 20")


def test_criterion_09_exact_lumpability(rfcw_two_valued):
    model, land = rfcw_two_valued
    bar = barred_chain(model, land)
    order = find_minima_and_order(model, land)
    cert = lumpability_certificate(
        model, land, bar, [order.minima[0]], [order.minima[1]]
    )
    ok = (
        cert["max_fiber_spread"] <= 1e-10
        and bar["max_log_mu_ratio"] <= bar["mu_ratio_bound"] + 1e-9
        and bar["max_log_p_ratio"] <= bar["p_ratio_bound"] + 1e-9
    )
    report(
        9,
        ok,
        f"lumpability: fiber spread {cert['max_fiber_spread']:.2e}, ratio bands hold",
    )


def test_criterion_10_mesoscopic_dominance(rfcw_two_valued, rfcw_spread):
    instances = [rfcw_two_valued, rfcw_spread]
    m8 = build_model(8, 1.3, "uniform:0.2", seed=7)
    instances.append((m8, coarse_grain(m8, 2)))
    m10 = build_model(10, 1.5, "zero")
    instances.append((m10, coarse_grain(m10, 1)))
    violations = 0
    checked = 0
    for model, land in instances:
        meso = mesoscopic_rates_and_chain(model, land)
        order = find_minima_and_order(model, land)
        pairs = [(order.minima[0], order.minima[1])] if len(order.minima) > 1 else []
        pairs.append((0, land.n_points - 1))
        for a_pt, b_pt in pairs:
            if a_pt == b_pt:
                continue
            rep = mesoscopic_dominance(model, land, meso, [a_pt], [b_pt])
            checked += 1
            if rep["micro"] > rep["meso"] * (1 + 1e-9) + 1e-12:
                violations += 1
    report(
        10,
        violations == 0,
        f"mesoscopic dominance: {violations} violations in {checked} fiber pairs (N <= 10)",
    )


def test_criterion_11_free_energy(rfcw_two_valued, rfcw_spread):
    m10 = build_model(10, 1.5, "zero")
    instances = [rfcw_two_valued, rfcw_spread, (m10, coarse_grain(m10, 1))]
    worst_res = worst_gap = 0.0
    for model, land in instances:
        order = find_minima_and_order(model, land)
        for ref in order.refined:
            worst_res = max(worst_res, ref["residual"])
            worst_gap = max(worst_gap, abs(ref["f_value"] - ref["f_closed_form"]))
    report(
        11,
        worst_res < 1e-8 and worst_gap < 1e-8,
        f"free energy: residual {worst_res:.2e}, closed-form gap {worst_gap:.2e}",
    )


def test_criterion_12_coupling_n8():
    t0 = time.time()
    model = build_model(8, 1.0, "uniform:0.2", seed=99)
    land = coarse_grain(model, 2)
    rep = coupling_experiment(
        model, land, runs=100_000, seed=12, M=8, T=400, dynamics_runs=10_000
    )
    chi = marginal_chi_square(model, land, runs=400, steps=100, seed=12)
    order = find_minima_and_order(model, land)
    if len(order.minima) > 1:
        hit = hitting_lower_bound_check(
            model, land, [order.minima[0]], [order.minima[1]]
        )
        hit_ok = hit["worst_margin"] >= -1e-12
    else:
        hit_ok = True
    elapsed = time.time() - t0
    ok = (
        rep["p_A_within_3sigma"]
        and all(r["pass"] for r in chi)
        and rep["containment_violations"] == 0
        and rep["sync_violations"] == 0
        and hit_ok
        and elapsed < 300.0
    )
    report(
        12,
        ok,
        f"coupling N=8: P[A] {rep['p_A_empirical']:.5f} vs {rep['p_A_theory']:.5f} "
        f"(3s {3 * rep['p_A_sigma']:.5f}), chi-square pass, containment checked "
        f"{rep['containment_checked']}, {elapsed:.0f}s",
    )


def test_criterion_13_eta_regularity(double_well, rfcw_two_valued, rfcw_spread):
    st = build_structure(double_well[2.0], [["x0"], ["x10"]], seed=0)
    ok_singleton = st.eta_pairs[0, 1] == 0.0
    model, land = rfcw_two_valued
    order = find_minima_and_order(model, land)
    resolved = eta_from_coupling(model, land, order.minima[0], order.minima[1])
    ok_resolved = resolved["eta_exact"] <= 1e-12
    model_s, land_s = rfcw_spread
    order_s = find_minima_and_order(model_s, land_s)
    src = next(k for k in order_s.minima if land_s.fiber_mask([k]).sum() > 1)
    dst = next(k for k in order_s.minima if k != src)
    spread = eta_from_coupling(model_s, land_s, src, dst)
    ok_spread = spread["eta_exact"] > 0.0 and spread["slack"] >= 0.0
    report(
        13,
        ok_singleton and ok_resolved and ok_spread,
        f"eta regularity: singleton 0, resolved {resolved['eta_exact']:.2e}, "
        f"positive case {spread['eta_exact']:.2e} <= bound",
    )


def test_criterion_14_determinism(capsys, tmp_path):
    outputs = []
    commands = [
        ["capineq", "--samples", "15", "--seed", "7"],
        [
            "rfcw",
            "--N",
            "6",
            "--beta",
            "1.5",
            "--field",
            "uniform:0.2",
            "--n",
            "2",
            "--materialize",
            "--seed",
            "3",
        ],
        [
            "couple",
            "--N",
            "6",
            "--beta",
            "1.0",
            "--field",
            "uniform:0.2",
            "--n",
            "2",
            "--runs",
            "1000",
            "--M",
            "4",
            "--dynamics-runs",
            "30",
            "--seed",
            "11",
        ],
    ]
    ok = True
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(argv)
            out = capsys.readouterr().out
            runs.append((code, out))
        if runs[0] != runs[1] or runs[0][0] != 0:
            ok = False
    report(14, ok, "byte-identical reports for repeated seeded commands")
