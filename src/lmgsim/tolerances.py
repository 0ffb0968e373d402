"""Centralized numerical tolerances.

Each constant has one reader: pure-state and density-matrix construction,
Born probabilities and their flushed tail, the QFI spectral sum or the
Lindblad integrator's drift check. One per-call override remains:
`DensityMatrix(psd_tol=...)`, which the MLE reconstruction loosens to 1e-6
for its iterates.
"""

STATE_NORM_TOL = 1e-10      # |1 - ||psi||| on pure-state construction
TRACE_TOL = 1e-8            # |1 - Tr rho| on density-matrix construction
HERMITICITY_TOL = 1e-10     # max |rho - rho^dag|
PSD_TOL = 1e-8              # most negative eigenvalue allowed on construction
BORN_NEG_TOL = 1e-10        # most negative Born probability accepted before flushing
BORN_FLUSH = 1e-12          # Born probabilities below this are set to 0, so seeded draws ignore ulps
TRACE_DRIFT_MAX = 1e-6      # Lindblad integrator aborts beyond this drift
EIG_CUTOFF = 1e-12          # q_k + q_k' cutoff in spectral QFI sums
