"""Boundary (edge) quadrature for weak boundary terms.

Needed by the splitting scheme's high-order pressure boundary condition
(Karniadakis, Israeli & Orszag 1991): the pressure-Poisson right-hand
side carries the surface integral

    oint phi [ -nu n.(curl omega)_extrap - gamma0 (u_b^{n+1} . n)/dt ]

over the velocity-Dirichlet boundary.  :class:`EdgeQuadrature` holds,
for one (element, local edge) side, the physical edge points, outward
normal, edge weights, and the element basis (values and physical
derivatives) tabulated at those points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import blas
from ..linalg.counters import charge
from ..mesh.curved import make_element_map
from ..spectral.expansions import QuadExpansion, TriExpansion
from ..spectral.jacobi import gauss_jacobi

__all__ = ["EdgeQuadrature", "build_edge_quadrature"]


@dataclass
class EdgeQuadrature:
    """Quadrature data of one boundary side."""

    elem: int
    local_edge: int
    x: np.ndarray  # physical points (n,)
    y: np.ndarray
    nx: np.ndarray  # outward unit normal
    ny: np.ndarray
    jw: np.ndarray  # arc-length weights
    phi: np.ndarray  # (nmodes, n) element basis at the edge points, read-only
    dphi_x: np.ndarray  # physical derivative tables
    dphi_y: np.ndarray

    @property
    def npts(self) -> int:
        return self.x.size

    def integrate(self, fvals: np.ndarray) -> float:
        return blas.ddot(self.jw, np.asarray(fvals, dtype=np.float64))

    def load(self, fvals: np.ndarray) -> np.ndarray:
        """(f, phi_i) over this edge, local (unsigned) coefficients.

        Kept dtype-generic (the Fourier solver feeds complex modes), so
        the matvec is raw numpy with an explicit charge.
        """
        m, n = self.phi.shape
        charge(2.0 * m * n, 8.0 * (m * n + n + m), "edge-load")
        return self.phi @ (self.jw * fvals)


def build_edge_quadrature(
    space, sides: list[tuple[int, int]], nq: int | None = None
) -> list[EdgeQuadrature]:
    """Edge quadrature for the given (element, local_edge) sides.

    The reference basis tables are the expansion's
    (:meth:`~repro.spectral.expansions.Expansion2D.edge_tables`), shared
    read-only by every side on the same local edge; the geometry (map,
    normals, weights, physical derivatives) is computed per side.
    """
    out = []
    n1d = nq if nq is not None else space.order + 2
    s, w = gauss_jacobi(n1d)
    for ei, le in sides:
        exp = space.dofmap.expansion(ei)
        param, (dxi1, dxi2), ccw_sign = exp.edge_params[le]
        xi1, xi2 = param(s)
        emap = make_element_map(space.mesh, ei)
        x, y = emap.x(xi1, xi2)
        # Tangent along the parameter s by the chain rule on the map.
        j = emap.jacobian(xi1, xi2)
        tx = j[:, 0, 0] * dxi1 + j[:, 0, 1] * dxi2
        ty = j[:, 1, 0] * dxi1 + j[:, 1, 1] * dxi2
        norm = np.hypot(tx, ty)
        nx = ccw_sign * ty / norm
        ny = -ccw_sign * tx / norm
        phi, d1, d2 = exp.edge_tables(le, n1d)
        # Physical derivatives at the edge points.
        det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
        dxi1_dx = j[:, 1, 1] / det
        dxi1_dy = -j[:, 0, 1] / det
        dxi2_dx = -j[:, 1, 0] / det
        dxi2_dy = j[:, 0, 0] / det
        dphi_x = d1 * dxi1_dx + d2 * dxi2_dx
        dphi_y = d1 * dxi1_dy + d2 * dxi2_dy
        out.append(
            EdgeQuadrature(
                elem=ei,
                local_edge=le,
                x=x,
                y=y,
                nx=nx,
                ny=ny,
                jw=w * norm,
                phi=phi,
                dphi_x=dphi_x,
                dphi_y=dphi_y,
            )
        )
    return out


def edge_physical_points(
    mesh, elem: int, local_edge: int, s_canonical: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Physical coordinates along an element edge at canonical
    (low->high vertex id) parameter values, honouring curved geometry."""
    exp_cls = TriExpansion if mesh.elements[elem].kind == "tri" else QuadExpansion
    param = exp_cls.edge_params[local_edge][0]
    s = np.asarray(s_canonical, dtype=np.float64)
    if mesh.edge_orientation(elem, local_edge) < 0:
        s = -s
    xi1, xi2 = param(s)
    return make_element_map(mesh, elem).x(xi1, xi2)
