"""Build the two concrete spectral models and inspect their couplings.

Run:  python3 demos/build_models.py
"""

import numpy as np

from bqcontrol import (
    box3d_lambda_prime,
    box3d_system,
    dump_system,
    oscillator_system,
)

np.set_printoptions(precision=4, suppress=True)

# -- harmonic oscillator with a Gaussian control potential --------------------
# spectrum 2k+1, coupling entries are the integrals of exp(a x^2 + b x + c)
# against Hermite-function products, built by an exact recurrence

osc = oscillator_system(a=-1.0, b=1.0, levels=6)
print("oscillator spectrum:", osc.lam)
print("W[0][1] =", osc.W[0, 1], "(closed form: b / (sqrt(2) (1-a)^{3/2}) = 0.25)")
print("W[0][0] =", osc.W[0, 0], "(closed form at the normalized c: "
      "1 / sqrt(1-a) =", 1.0 / np.sqrt(2.0), ")")
print()

# with an even potential (b = 0) every odd-distance coupling vanishes: the
# levels split into parity classes and the system cannot be controllable
even = oscillator_system(a=-1.0, b=0.0, levels=6)
print("even potential coupling pattern (|W| > 1e-12):")
print((np.abs(even.W) > 1e-12).astype(int))
print()

# -- 3D rectangular well with coupling exp(alpha . x) --------------------------
# eigenvalues are sums of per-axis mode energies; labels keep the mode triples

box = box3d_system(l=(1.0, 1.1, 1.3), alpha=(0.4, 0.2, 0.1), levels=5)
print("box spectrum:", box.lam)
print("mode triples:", box.labels)

# the diagonal coupling doubles as the eigenvalue derivative in the coupling
# strength; at alpha -> 0 the potential is flat and the derivative tends to 1
for a in (0.4, 0.01, 1e-5):
    v = box3d_lambda_prime((1.0, 1.1, 1.3), (a, a, a), (1, 2, 1))
    print(f"lambda'(alpha={a:g}) = {v:.8f}")

dump_system(box, "box_system.json")
print("\nwrote box_system.json")
