"""Instance generation: sampled landscapes, the ring oscillator, fixtures,
and the multiway-cut encoding."""

from .binning import fill_distance, hmc_transition_matrix, rbf_membership, select_bin_centers
from .halton import low_discrepancy_points
from .hmc import Trajectory, hmc_with_drift
from .multiway_cut import (
    MultiwayCutInstance,
    cut_weight,
    min_multiway_cut,
    multiway_cut_to_instance,
)
from .ode import integrate
from .potentials import BY_NAME, FLAT, OMEGA3, OMEGA4, OMEGA6, Potential
from .repressilator import (
    generate_repressilator_instance,
    repressilator_rhs,
    repressilator_transition_matrix,
)
from .triangle import triangle_fixture

__all__ = [
    "BY_NAME", "FLAT", "MultiwayCutInstance", "OMEGA3", "OMEGA4", "OMEGA6",
    "Potential", "Trajectory", "cut_weight", "fill_distance",
    "generate_repressilator_instance", "hmc_transition_matrix", "hmc_with_drift",
    "integrate", "low_discrepancy_points", "min_multiway_cut",
    "multiway_cut_to_instance", "rbf_membership", "repressilator_rhs",
    "repressilator_transition_matrix", "select_bin_centers", "triangle_fixture",
]
