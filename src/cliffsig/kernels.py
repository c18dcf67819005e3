"""Blade kernels: the sign functions every product in the package uses.

A blade is an index bitmask: bit i-1 stands for the basis vector e_i, so
e1^e3 is 0b101.  ``neg_mask`` marks the generators squaring to -1.  It
may be any subset of the generators, not only the trailing q of a
``Signature``: the deformed product of a grading is ``blade_mul`` under
the mask with the odd generators' squares flipped.
"""


def grade(mask):
    """Number of basis vectors in the blade."""
    return mask.bit_count()


def reorder_sign(a, b):
    """Parity sign of the permutation merging two increasing index lists.

    This is the sign accumulated by transposing the concatenation of the
    index sequences of ``a`` and ``b`` into a single increasing sequence
    (equal indices are left adjacent; their metric signs are applied by
    blade_mul, not here).
    """
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def blade_metric_sign(mask, neg_mask):
    """Product of the generator squares over the blade's index set."""
    return -1 if (mask & neg_mask).bit_count() & 1 else 1


def blade_mul(a, b, neg_mask):
    """Geometric product of two blades: (sign, result mask).

    Repeated indices annihilate via e_i^2 = +/-1, so the result mask is
    the symmetric difference; the sign combines the merge permutation
    with the metric signs of the common indices.
    """
    sign = reorder_sign(a, b)
    common = a & b
    if (common & neg_mask).bit_count() & 1:
        sign = -sign
    return sign, a ^ b


def blade_wedge(a, b):
    """Exterior product of two blades: (sign, mask), sign 0 on overlap."""
    if a & b:
        return 0, 0
    return reorder_sign(a, b), a | b


def blade_left_contract(a, b, neg_mask):
    """a left-contracted onto b: nonzero only when a's indices lie in b's."""
    if a & ~b:
        return 0, 0
    return blade_mul(a, b, neg_mask)


def blade_right_contract(a, b, neg_mask):
    """a right-contracted by b: nonzero only when b's indices lie in a's."""
    if b & ~a:
        return 0, 0
    return blade_mul(a, b, neg_mask)
