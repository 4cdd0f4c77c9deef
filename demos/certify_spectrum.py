"""Run the controllability checks on a good spectrum and two broken ones.

Run:  python3 demos/certify_spectrum.py
"""

import json
import math

import numpy as np

from bqcontrol import certify, custom_system, oscillator_system

# -- a certified system: connected coupling, nonresonant gaps ------------------

good = custom_system(
    [0.0, 1.0, 1.0 + math.sqrt(2.0)],
    [[0.1, 0.5, 0.2], [0.5, -0.4, 0.5], [0.2, 0.5, 0.3]],
)
rep = certify(good, 3)
print("gaps (1, sqrt2):", rep.overall)
print("  lie rank:", rep.lie_rank.rank, "of", rep.lie_rank.dimension,
      "by", rep.lie_rank.method, "on the tree", rep.lie_rank.tree)
print("  gap relation search:", rep.nonresonant_gaps.status)
print()

# -- refuted by resonance: equally spaced spectrum -----------------------------
# the oscillator ladder has gaps (2, 2, ...); the integer relation (1, -1)
# between consecutive gaps is a concrete witness against nonresonance

osc = oscillator_system(a=-1.0, b=1.0, levels=4)
rep = certify(osc, 4)
print("oscillator ladder:", rep.overall)
print("  witness relation:", rep.nonresonant_gaps.relation)
print("  colliding gap pairs:", rep.pairwise_gaps_distinct.violations[:2], "...")
print()

# -- refuted by disconnection: a level nothing couples to ----------------------

W = np.zeros((3, 3))
W[0, 1] = W[1, 0] = 0.5
rep = certify(custom_system([0.0, 1.0, 2.5], W), 3)
print("decoupled third level:", rep.overall)
print("  invariant index set:", rep.connected.invariant_set)
print()

# the full report serializes to JSON for the batch front-end
print(json.dumps(rep.to_json()["connected"], indent=2))
