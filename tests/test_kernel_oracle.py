"""StepKernel against a pure-Python reference on tuples of complex.

The reference below is the tuple-of-tuples kernel the array-backed
``StepKernel`` replaced, kept as an oracle: every operation must give exactly
the same entries, bit for bit, on seeded grids of each shape class.
"""

import json
import random

import numpy as np
import pytest

from gnorm.falsify import random_kernel
from gnorm.kernels import StepKernel, kernel_from_json, kernel_to_json, phase_kernel

# -- reference: grids as tuples of tuples of Python complex ---------------------


def ref_conj(rows):
    return tuple(tuple(x.conjugate() for x in row) for row in rows)


def ref_scale(rows, c):
    return tuple(tuple(c * x for x in row) for row in rows)


def ref_add(r1, r2):
    return tuple(tuple(x + y for x, y in zip(a, b)) for a, b in zip(r1, r2))


def ref_constant(c, p, q):
    return tuple(tuple(complex(c) for _ in range(q)) for _ in range(p))


def ref_mean(rows):
    return sum(x for row in rows for x in row) / (len(rows) * len(rows[0]))


def ref_max_abs(rows):
    return max(abs(x) for row in rows for x in row)


def ref_is_real(rows):
    return all(x.imag == 0 for row in rows for x in row)


def ref_to_json(rows):
    return {"rows": len(rows), "cols": len(rows[0]),
            "values": [[[x.real, x.imag] for x in row] for row in rows]}


# -- seeded grids ----------------------------------------------------------------

SHAPES = [(1, 1), (1, 4), (3, 1), (2, 3), (3, 3)]


def grid(seed, p, q, real):
    rng = random.Random(f"oracle:{seed}:{p}:{q}:{real}")
    return tuple(
        tuple(complex(rng.uniform(-2, 2), 0.0 if real else rng.uniform(-2, 2))
              for _ in range(q))
        for _ in range(p))


CASES = [(seed, p, q, real) for seed in range(3) for p, q in SHAPES
         for real in (True, False)]


def entries(k: StepKernel):
    """The kernel's grid as tuples of Python complex, for exact comparison."""
    return tuple(tuple(complex(x) for x in row) for row in k.values)


def same_bits(a, b) -> bool:
    """Equal as tuples and equal in every sign bit, zeros included."""
    flat = lambda rows: [(x.real, x.imag) for row in rows for x in row]
    return a == b and json.dumps(flat(a)) == json.dumps(flat(b))


@pytest.mark.parametrize("seed,p,q,real", CASES)
def test_unary_ops_match_reference(seed, p, q, real):
    rows = grid(seed, p, q, real)
    k = StepKernel(rows)
    assert same_bits(entries(k), rows)
    assert same_bits(entries(k.conj()), ref_conj(rows))
    for c in (-1.0, 0.5, 3.0, 1j, -1j):
        assert same_bits(entries(k.scale(c)), ref_scale(rows, c))
    assert k.mean() == ref_mean(rows)
    assert k.max_abs() == ref_max_abs(rows)
    assert k.is_real == ref_is_real(rows)
    assert k.shape == (p, q)


@pytest.mark.parametrize("seed,p,q,real", CASES)
def test_add_and_equality_match_reference(seed, p, q, real):
    r1, r2 = grid(seed, p, q, real), grid(seed + 100, p, q, not real)
    k1, k2 = StepKernel(r1), StepKernel(r2)
    assert same_bits(entries(k1.add(k2)), ref_add(r1, r2))
    assert (k1 == k2) == (r1 == r2)
    assert k1 == StepKernel(r1) and k1 != k2


@pytest.mark.parametrize("seed,p,q,real", CASES)
def test_json_round_trip_matches_reference(seed, p, q, real):
    rows = grid(seed, p, q, real)
    blob = json.dumps(kernel_to_json(StepKernel(rows)))
    assert blob == json.dumps(ref_to_json(rows))
    assert kernel_from_json(json.loads(blob)) == StepKernel(rows)


@pytest.mark.parametrize("c", [0, 1.5, -2 + 0.25j])
@pytest.mark.parametrize("p,q", SHAPES)
def test_constant_matches_reference(c, p, q):
    assert same_bits(entries(StepKernel.constant(c, p, q)), ref_constant(c, p, q))


def test_real_constant_scale_keeps_exact_zero_imaginary_parts():
    k = StepKernel.constant(1.0, 2, 2).scale(-1.0)
    assert k.is_real and same_bits(entries(k), ref_scale(ref_constant(1.0, 2, 2), -1.0))


# -- pinned constructors -----------------------------------------------------------


RANDOM_KERNEL_2x2 = {
    0: ((0.6888437030500962 + 0.515908805880605j, -0.15885683833831 - 0.4821664994140733j),
        (0.02254944273721704 - 0.19013172509917142j, 0.5675971780695452 - 0.3933745478421451j)),
    5: ((0.24580338977940386 + 0.4835739785214588j, 0.5903871311313933 + 0.8849005675541006j),
        (0.4797971494798614 + 0.844649993330834j, -0.9419895434327705 - 0.0687546912437893j)),
    17: ((0.0439678194249864 + 0.6133815542373582j, 0.9209895486477535 - 0.420749244471069j),
         (0.5322148755959053 + 0.4084397336868253j, 0.3227661144476608 - 0.7796759021655764j)),
}


@pytest.mark.parametrize("seed", sorted(RANDOM_KERNEL_2x2))
def test_random_kernel_draws_in_the_same_order(seed):
    assert entries(random_kernel(random.Random(seed), 2, 2)) == RANDOM_KERNEL_2x2[seed]


def test_random_real_kernel_draws_one_number_per_entry():
    # a real kernel, as the density-sweep bench builds one: one draw per
    # entry, with a zero imaginary part, kept bit for bit and reported real
    rng = random.Random(1)
    k = StepKernel([[complex(rng.uniform(-1.0, 1.0), 0.0) for _ in range(3)] for _ in range(2)])
    ref = random.Random(1)
    assert k.is_real
    assert entries(k) == tuple(tuple(complex(ref.uniform(-1.0, 1.0)) for _ in range(3))
                               for _ in range(2))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_phase_kernel_entries_are_powers_of_the_root(p):
    w = np.exp(2j * np.pi / p)
    want = tuple(tuple(complex(w ** (i + j)) for j in range(p)) for i in range(p))
    assert same_bits(entries(phase_kernel(p)), want)


# -- no aliasing -------------------------------------------------------------------


def test_values_cannot_be_written():
    k = StepKernel(((1, 2), (3, 4)))
    with pytest.raises((TypeError, ValueError)):
        k.values[0][0] = 5
    assert k == StepKernel(((1, 2), (3, 4)))


def test_mutating_the_source_leaves_the_kernel_unchanged():
    src = np.array([[1, 2j], [3, 4]], dtype=np.complex128)
    k = StepKernel(src)
    src[0, 0] = 99
    assert entries(k) == ((1, 2j), (3, 4))
