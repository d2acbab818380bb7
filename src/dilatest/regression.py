"""Frozen regression constants.

Every bound here was measured once on the reference grids below and then
frozen; the tests and the CLI defaults enforce them as regression limits,
not as mathematically derived constants. Re-measure deliberately (and update
in one commit) if a quadrature convention changes.

Reference setup: box halfwidth 8, 4096 cells, level truncation 6, five-
function fixture family, difference order 2, p = q = 2.
"""

# star_norm / diff_norm over the fixture family with t_k = 2**(k/2):
# measured range [0.50683, 0.54971]; enforced with a +-20% margin.
STAR_DIFF_BRACKET = (0.4224, 0.6597)

# fourier_norm / diff_norm over the same family and weights:
# measured range [0.25034, 0.45711]; +-20% margin.
FOURIER_DIFF_BRACKET = (0.2086, 0.5485)

# vector-valued maximal ratio over 20 seeded indicator families
# (6 functions each, p = q = 2, sigma = 0.5): measured max 1.2802 at both
# 512 and 1024 cells; frozen with ~10% headroom.
FS_RATIO_BOUND = 1.41

# weighted maximal ratio with t_k = 2**(k/2) |x|**0.3, theta = 1.5 over 20
# seeded smooth families: measured max 2.3081; ~10% headroom.
WEIGHTED_RATIO_BOUND = 2.54
