"""Potential-theoretic toolkit for metastable reversible Markov chains.

Capacities and equilibrium potentials, Orlicz-norm capacitary inequalities,
metastability diagnostics with sharp Poincare / log-Sobolev main terms, and a
desk-scale random field Curie-Weiss laboratory with its coupling machinery.
"""

__version__ = "0.1.0"

from .chains import (
    BadRowSum,
    DetailedBalanceViolation,
    InequalityViolation,
    MetastabError,
    NotIrreducible,
    ReversibleChain,
    SolverNotConverged,
    ValidationError,
    build_chain,
    chain_from_dict,
    chain_to_dict,
    conditional_expectation,
    dirichlet_form,
    entropy,
    load_chain,
    log_mean,
    save_chain,
    subset_mask,
    variance,
)
from .potential import (
    EquilibriumSolution,
    capacity,
    equilibrium_potential,
    hitting_probability_from_equilibrium,
    mean_hitting_time,
    path_capacity_1d,
)
from .orlicz import (
    YoungPair,
    builtin_pairs,
    capacitary_integral,
    entropy_pair,
    indicator_orlicz_norm,
    l1_pair,
    measure_capacity_constant,
    muckenhoupt_constant,
    orlicz_norm,
    p_pair,
    universal_mixed_constants,
)
from .metastable import (
    MetastableStructure,
    build_structure,
    eta_regularity,
    harmonic_neighborhood,
    mean_exit_asymptotics,
    metastable_partition,
    pi_lsi_estimates,
    rho_metastability,
)
from .oracle import (
    LsiReport,
    SpectralReport,
    brute_force_orlicz,
    cheeger_constant,
    estimate_clsi,
    exact_cpi,
)
from .rfcw import (
    MesoscopicLandscape,
    RFCWModel,
    barred_chain,
    bernoulli_laplace_constants,
    build_model,
    coarse_grain,
    find_minima_and_order,
    free_energy_continuous,
    free_energy_point,
    mesoscopic_rates_and_chain,
)
from .coupling import (
    eta_from_coupling,
    hitting_lower_bound_check,
    negative_binomial_rate,
    optimal_two_point_coupling,
    tail_bound_check,
)
