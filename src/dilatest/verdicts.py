"""Verdicts: every PASS, FAIL or INCONCLUSIVE a command reports comes from
the three rules of this module, and no other module decides one.

* ``trend(values)`` reads the refinement trace of a sup-over-cubes estimate.
  The supremum over an unbounded cube family can only be stabilized or
  falsified, never confirmed, so a trace reads

  * ``PASS``          when the running constant moved by < 10% across the
                      last two refinement stages (plateau),
  * ``FAIL``          when it grew by >= 2x per stage over the last two
                      stages,
  * ``INCONCLUSIVE``  otherwise, and for a trace of fewer than two values.

* ``within(value, hi, lo)`` checks a bound (``lo`` = -inf) or a bracket:
  PASS when lo <= value <= hi, else FAIL; a nan value reads FAIL.
* ``worst(verdicts)`` combines rule verdicts: FAIL if any is FAIL, else
  INCONCLUSIVE if any is, else PASS (also for none).

A command's overall verdict is ``worst`` of its rule verdicts; the README's
verdict table lists each command's rules.

``EXIT_CODE`` maps a verdict to the CLI's exit status; a verdict outside
the three has none.
"""

import math

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"
EXIT_CODE = {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}
_SEVERITY = {PASS: 0, INCONCLUSIVE: 1, FAIL: 2}

_GROWTH = 2.0 * (1.0 - 1e-9)  # robust against exact powers of two
_PLATEAU = 0.10


def trend(values):
    """The plateau-or-growth verdict of a refinement trace, coarse to fine."""
    if len(values) >= 3:
        g1 = values[-2] / max(values[-3], 1e-300)
        g2 = values[-1] / max(values[-2], 1e-300)
        if g1 >= _GROWTH and g2 >= _GROWTH:
            return FAIL
    if len(values) >= 2:
        prev = max(values[-2], 1e-300)
        if abs(values[-1] - values[-2]) / prev < _PLATEAU:
            return PASS
        return INCONCLUSIVE
    return INCONCLUSIVE


def within(value, hi, lo=-math.inf):
    """PASS when lo <= value <= hi, else FAIL; a nan value reads FAIL."""
    return PASS if lo <= value <= hi else FAIL


def worst(verdicts):
    """FAIL if any verdict is FAIL, else INCONCLUSIVE if any is, else PASS."""
    return max(verdicts, key=_SEVERITY.__getitem__, default=PASS)
