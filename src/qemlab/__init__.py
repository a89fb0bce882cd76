"""Desk-scale numerical laboratory for purification-based error mitigation.

Dense density-matrix simulation of noisy layered circuits, uncompute-based
purification estimators, subspace pencils (power, fault-amplified, and
divided constructions), a thresholded generalized-eigenvalue solver,
finite-shot modeling, and sampling-cost metrics, wrapped in a config-driven
CSV experiment harness.
"""

from .channels import Channel, NoiseModel, noiseless
from .circuits import Circuit, Gate, apply, attach_noise, build_ansatz, dual_circuit, \
    dual_state, reversed_circuit, run, trace_distance
from .gevp import GevpSolution, energy_window, solve_pencil
from .pauli import PauliSum, PauliTerm, SystemPartition, build_ising, factorize, sum_mul
from .purification import GeneralFactor, dsp_expectation, esd_expectation, \
    execute_plan, plan_general, re_purification
from .shotnoise import EnergyDistribution, ShotConfig, perturb, sample_distribution, \
    var_dsp, var_product
from .subspace import QueryPlan, SubspaceMatrices, SubspaceSpec, build, plan_queries
from .vqe import exact_ground, optimize

__version__ = "0.1.0"
