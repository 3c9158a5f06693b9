"""Tracking prescribed heat profiles with point actuators.

The package splits into a spectral core (Neumann modes, exact forced
steps), actuator placement and its sampling matrices, output-feedback
tracking with stationary-bias correction, a resonant-particle realization
of the point inputs, free-space versus insulated-domain comparisons, and a
harness that turns validated configs into reproducible experiment runs.
Each layer is its own module; the package re-exports nothing.
"""
