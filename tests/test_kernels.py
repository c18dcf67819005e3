"""The blade kernels must agree with the transposition-counting oracle,
under the package's (p, q) metrics and under any set of negative squares."""

import itertools
import random

from cliffsig import blade_indices, kernels
from oracles import naive_blade_product


def test_against_naive_oracle_exhaustive():
    for p, q in [(4, 0), (2, 2), (0, 4), (1, 2)]:
        n = p + q
        neg = ((1 << q) - 1) << p
        for a, b in itertools.product(range(1 << n), repeat=2):
            sign, mask = kernels.blade_mul(a, b, neg)
            want_sign, want_idx = naive_blade_product(
                blade_indices(a), blade_indices(b), p, q
            )
            assert (sign, blade_indices(mask)) == (want_sign, want_idx)


def test_blade_mul_under_every_negative_set():
    # the deformed products call blade_mul with neg ^ odd, which no
    # Signature produces: every mask and blade pair, n <= 4
    checked = 0
    for n in range(5):
        for neg, a, b in itertools.product(range(1 << n), repeat=3):
            sign, mask = kernels.blade_mul(a, b, neg)
            want_sign, want_idx = naive_blade_product(
                blade_indices(a), blade_indices(b), neg=blade_indices(neg)
            )
            assert (sign, blade_indices(mask)) == (want_sign, want_idx), (n, neg, a, b)
            checked += 1
    assert checked == sum(8**n for n in range(5))


def test_wedge_and_contract_consistency():
    neg = 0b111000  # (3,3)
    for a, b in itertools.product(range(64), repeat=2):
        ws, wm = kernels.blade_wedge(a, b)
        if a & b:
            assert ws == 0
        else:
            # no square fires: the sign is the bubble sort's merge sign
            want_sign, want_idx = naive_blade_product(blade_indices(a), blade_indices(b))
            assert (ws, blade_indices(wm)) == (want_sign, want_idx), (a, b)
        ls, lm = kernels.blade_left_contract(a, b, neg)
        if a & ~b:
            assert ls == 0
        else:
            assert (ls, lm) == kernels.blade_mul(a, b, neg)
        rs, rm = kernels.blade_right_contract(a, b, neg)
        if b & ~a:
            assert rs == 0
        else:
            assert (rs, rm) == kernels.blade_mul(a, b, neg)


def test_reorder_mask_against_its_definition():
    # bit j is set iff an odd number of a's bits lie above j
    for a in range(1 << 12):
        r = kernels.reorder_mask(a)
        for j in range(13):
            assert (r >> j & 1) == (a >> (j + 1)).bit_count() & 1, (a, j)
        assert r >> 12 == 0, a


def test_row_kernel_against_pairs_and_naive_oracle():
    # every bit of each row equals blade_mul pair by pair and the
    # transposition count: every pair for four signatures with n <= 6, and
    # every negative set with n <= 4, over every blade in order and over a
    # shuffled proper subset, where no position holds its own mask
    cases = [
        (p + q, ((1 << q) - 1) << p, p, q, None)
        for p, q in [(6, 0), (3, 3), (0, 6), (2, 3)]
    ] + [
        (n, neg, 0, 0, blade_indices(neg))
        for n in range(5)
        for neg in range(1 << n)
    ]
    rows = 0
    for n, neg, p, q, neg_indices in cases:
        every = list(range(1 << n))
        subset, rng = every[1:], random.Random(n)
        while any(b == j for j, b in enumerate(subset)):
            rng.shuffle(subset)
        for bs in (every, subset):
            cols = kernels.columns(bs)
            assert cols[0] == bs
            for a in every:
                row = kernels.blade_mul_row(a, cols, neg)
                assert row >> len(bs) == 0, (n, neg, a)
                for j, b in enumerate(bs):
                    sign, mask = kernels.blade_mul(a, b, neg)
                    assert (-1 if row >> j & 1 else 1, a ^ b) == (sign, mask), (n, neg, a, b)
                    assert kernels.row_sign((row, 0), j) == sign
                    want = naive_blade_product(blade_indices(a), blade_indices(b), p, q, neg_indices)
                    assert (sign, blade_indices(a ^ b)) == want, (n, neg, a, b)
                rows += 1
    assert rows == 2 * (3 * 64 + 32 + sum(4**n for n in range(5)))
    empty = kernels.columns([])
    assert empty == ([], [])
    assert kernels.blade_mul_row(0b101, empty, 0) == 0


def test_column_planes_hold_each_generator():
    # bit j of plane i is set exactly when bs[j] holds e_{i+1}, up to the
    # highest generator in the list
    bs = [0b10110, 0b1, 0, 0b100, 0b11111]
    _, planes = kernels.columns(iter(bs))
    assert len(planes) == 5
    for i, plane in enumerate(planes):
        assert plane == sum(1 << j for j, b in enumerate(bs) if b >> i & 1), i
