"""Steer a unitary up to global phase and evolve a mixed state.

Run:  python3 demos/density_and_unitaries.py
"""

import numpy as np

from bqcontrol import (
    PiecewiseConstantControl,
    custom_system,
    expm_skew,
    propagate_density,
    steer_unitary,
    truncate,
)

s = custom_system([-0.5, 0.5], [[0.0, 0.6], [0.6, 0.0]])
g = truncate(s, 2)

# -- unitary steering -----------------------------------------------------------
# the target is produced by a forward simulation, so it is reachable exactly;
# the search matches it up to a global phase theta in [0, 2 pi) and reports
# theta; with tr A = tr B = 0 the propagators lie in SU(2), so the two phases
# pi apart that meet the target are both accepted

target = expm_skew(0.9 * g.A + g.B, 1.1)
r = steer_unitary(g, np.eye(2, dtype=complex), target, delta=0.1,
                  tol=1e-3, seed=3)
print("converged:", r.converged)
print("distance at theta:", f"{r.distance:.2e}")
print("global phase theta:", f"{r.theta:.4f}")

U = np.eye(2, dtype=complex)
for t, u in r.control.pieces:
    U = expm_skew(u * g.A + g.B, t) @ U
print("|| e^{i theta} U - target ||_F =",
      f"{np.linalg.norm(np.exp(1j * r.theta) * U - target):.2e}")
print()

# -- mixed states ride along for free --------------------------------------------
# conjugation by the same unitaries moves any density matrix; its eigenvalues
# (the populations of the diagonalizing basis) never change

rho0 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
c = PiecewiseConstantControl("reparametrized",
                             [(0.4, 0.3), (0.8, 1.7), (0.2, 0.5)], 0.1)
traj = propagate_density(g, c, rho0, samples_per_piece=8)
print("density trajectory:", len(traj.times), "samples")
print("spectrum drift:", f"{traj.spectrum_drift:.2e}")
purity = [float(np.real(np.trace(r_ @ r_))) for r_ in traj.states]
print("purity stays at", f"{purity[0]:.6f}",
      "(max wobble", f"{max(purity) - min(purity):.2e})")
