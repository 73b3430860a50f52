"""Thermodynamic formalism for perturbed interval-map families.

Pipeline: cylinder partitions -> Hofbauer tower -> first-return inducing
scheme -> induced Gibbs state (pressure, conformal weights, density) ->
projected equilibrium measure -> stability experiments.
"""

__version__ = "0.1.0"
