"""Two-well elastic energies with surface penalty: explicit branched
microstructures, energy evaluation, scaling laws and a direct minimizer."""

__version__ = "0.1.0"
