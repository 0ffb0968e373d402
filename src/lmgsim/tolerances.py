"""Centralized numerical tolerances.

State construction, Born probabilities, the QFI spectral sum and the Lindblad
integrator's drift check read these constants directly. Two per-call
overrides remain: `DensityMatrix(psd_tol=...)`, which the MLE reconstruction
loosens to 1e-6 for its iterates, and `evolve_lindblad(trace_drift_max=...)`.
"""

STATE_NORM_TOL = 1e-10      # |1 - ||psi||| on pure-state construction
TRACE_TOL = 1e-8            # |1 - Tr rho| on density-matrix construction
HERMITICITY_TOL = 1e-10     # max |rho - rho^dag|
PSD_TOL = 1e-8              # most negative eigenvalue allowed on construction
BORN_NEG_TOL = 1e-10        # most negative Born probability accepted before clipping
COMMUTATOR_TOL = 1e-12      # operator-algebra identities, relative to S^2
ECHO_FIDELITY_TOL = 1e-9    # perfect time reversal: 1 - F below this
TRACE_DRIFT_MAX = 1e-6      # Lindblad integrator aborts beyond this drift
EIG_CUTOFF = 1e-12          # q_k + q_k' cutoff in spectral QFI sums
