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
    dirichlet_form,
    entropy,
    load_chain,
    log_mean,
    save_chain,
    subset_mask,
)
from .potential import (
    EquilibriumSolution,
    equilibrium_potential,
)
from .orlicz import (
    YoungPair,
    builtin_pairs,
    capacitary_integral,
    entropy_pair,
    indicator_orlicz_norm,
    l1_pair,
    measure_capacity_constant,
    orlicz_norm,
    p_pair,
)
from .metastable import (
    MetastableStructure,
    build_structure,
    mean_exit_asymptotics,
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
    build_model,
    coarse_grain,
    find_minima_and_order,
    free_energy_continuous,
    mesoscopic_rates_and_chain,
)
from .coupling import (
    eta_from_coupling,
    hitting_lower_bound_check,
    negative_binomial_rate,
    tail_bound_check,
)
