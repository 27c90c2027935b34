"""Numeric tolerance and convention constants used across the package.

All defaults assume unit-scale data (normalized states, unit octonions).
They are read-only: every module, and every default argument, binds its
value at import, so assigning to a name here changes nothing.
"""

# Generic absolute tolerance for algebraic identities on unit-scale values.
ABS_TOL = 1e-12

# Tolerance for norm-multiplicativity style identities checked over many
# random trials (slightly looser: errors accumulate over 8x8 products).
IDENTITY_TOL = 1e-10

# Acceptable deviation of a state vector from unit norm at construction.
STATE_NORM_TOL = 1e-12

# Residual threshold under which a bilinear separability condition counts
# as satisfied, on unit-norm states.
SEPARABILITY_TOL = 1e-9

# exp_imaginary rejects an axis whose norm or scalar part deviates more
# than this from a unit pure-imaginary element.
AXIS_TOL = 1e-9

# Inputs required to be unit length (fiber octonions, Bloch vectors) may
# deviate this much from it.
UNIT_INPUT_TOL = 1e-9

# The ratio map returns the point at infinity when the squared norm of the
# second pair member falls below this.
INFINITY_NORM_SQ = 1e-15

# Consistency requirement between map compositions (stereographic after
# base extraction versus the direct ratio).
MAP_CONSISTENCY_TOL = 1e-9

# CLI: inputs whose squared norm deviates by more than this are rejected
# unless renormalization is requested; smaller deviations are treated as
# decimal-representation roundoff and scaled to exact unit norm.
CLI_NORM_ACCEPT = 1e-6

# HyperComplex text omits coefficients of at most this magnitude.
DISPLAY_ZERO_TOL = 1e-14
