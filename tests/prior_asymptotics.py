"""Reference copy of the corner growth model's limit shapes as closed forms
in the slope s, as they were before lln_shapes derived them from the
exclusion shapes through the corner map.  The shape tests compare the
corner map of the library's 'm' and 'f' against them."""

import math


def corner_shape_M(q, s):
    """The law-of-large-numbers corner shape M(s)."""
    return (q + 1.0 - 2.0 * math.sqrt(q * (1.0 - 4.0 * s * s))) / (1.0 - q)


def corner_shape_F(q, s):
    """The fluctuation-scale corner shape F(s)."""
    num = (2.0 * q ** (1.0 / 3.0)
           * (math.sqrt(0.5 - s) - math.sqrt(q * (0.5 + s))) ** (2.0 / 3.0)
           * (math.sqrt(0.5 + s) - math.sqrt(q * (0.5 - s))) ** (2.0 / 3.0))
    den = ((1.0 - q) ** (4.0 / 3.0) * q ** (1.0 / 6.0)
           * (0.5 + s) ** (1.0 / 6.0) * (0.5 - s) ** (1.0 / 6.0))
    return num / den
