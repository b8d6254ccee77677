"""Whole-array references for the stepping kernel `three_level_steps`.

These are the two update formulas of the three-level scheme as plain array
expressions, one fresh array per call, with the elementwise operations in
the order the kernel applies them on each block of rows.  Tests build the
plain stepping loop from them and `laplacian_array`, and compare the
kernel's levels with it bit for bit.
"""


def leapfrog_first_level(v0, velocity, accel, h):
    """Bootstrap combination v0 + h*velocity + (h^2/2)*accel."""
    return (v0 + velocity * h) + accel * (0.5 * h * h)


def leapfrog_advance(v, v_prev, accel, h):
    """Three-level update 2v - v_prev + h^2 * accel."""
    return (v * 2.0 - v_prev) + accel * (h * h)
