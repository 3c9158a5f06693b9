"""Oracles for the constrained coercivity quotient.

``coercivity_constant`` is one mesh's constant from the alias classes of
its vertices, as ``coercivity_profile`` computes it for every mesh at once.
``coercivity_at_nodes`` handles any node set by a complete QR of the
whitened constraints and a dense ``eigvalsh``, and is what the mesh
routines are checked against.
"""

import numpy as np

from heattrack.errors import DegenerateNodesError
from heattrack.harness.experiments import _alias_classes, _secular_floor
from heattrack.spectral import DomainSpec, enumerate_modes, eval_modes


def coercivity_constant(domain: DomainSpec, cells: int, n_modes: int) -> float:
    """Smallest graph-to-energy quotient over fields vanishing on a mesh.

    The fields vanish at the vertices x_j = jL/n, j = 0..n, of ``cells`` =
    n equal elements.  The constraints split into alias classes, and the
    constant is the smallest secular root over the classes.
    """
    dd, aa = _alias_classes(domain, cells, n_modes)
    return float(np.min(_secular_floor(dd, aa)))


def coercivity_at_nodes(domain: DomainSpec, nodes, n_modes: int) -> float:
    """Smallest graph-to-energy quotient over fields vanishing at nodes.

    The quotient compares the squared resolvent-graph norm against the
    diffusion energy norm; an empty node list leaves the quotient
    unconstrained, whose minimum is exactly one (attained by the constant
    mode).  Degenerate node sets (repeats, dependent constraint rows)
    raise instead of silently shrinking the constraint.
    """
    if domain.kind != "interval":
        raise ValueError("constraint coercivity is defined on an interval")
    table = enumerate_modes(domain, n_modes)
    lam = table.eigenvalues
    graph_w = (1.0 + lam) ** 2
    energy_w = 1.0 + lam / domain.kappa
    nodes = np.asarray(nodes, dtype=float).reshape(-1)
    if nodes.size == 0:
        return float(np.min(graph_w / energy_w))
    if np.unique(nodes).size != nodes.size:
        raise DegenerateNodesError("constraint nodes repeat")
    if nodes.size >= n_modes:
        raise DegenerateNodesError(
            "at least as many constraint nodes as modes; no field remains")
    constraints = eval_modes(table, nodes[:, None])  # (V, K)
    s = np.linalg.svd(constraints, compute_uv=False)
    if s[-1] <= 1e-10 * max(s[0], 1.0):
        raise DegenerateNodesError("constraint rows are numerically dependent")
    # Whiten by the diagonal energy weight: with x = energy_w^(-1/2) y the
    # quotient is a plain Rayleigh quotient of diag(graph_w / energy_w) on
    # the null space of the whitened constraints, spanned by the trailing
    # columns of a complete QR factor of their transpose.
    root_e = np.sqrt(energy_w)
    q_full = np.linalg.qr((constraints / root_e).T, mode="complete")[0]
    basis = q_full[:, nodes.size:]
    ratio = graph_w / energy_w
    vals = np.linalg.eigvalsh(basis.T @ (ratio[:, None] * basis))
    return float(vals[0])
