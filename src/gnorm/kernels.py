"""Step kernels on [0,1]^2, the one kernel type of the package.

A step kernel is constant on a p-by-q grid of boxes, so every density integral
restricted to step kernels is a finite sum over grid assignments and is
evaluated without quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .graphs import _load_json


@dataclass(frozen=True, eq=False)
class StepKernel:
    """Complex p x q grid; entry (i, j) is the value on box i x j.

    ``values`` is a read-only complex128 array, copied from whatever nested
    sequence or array the kernel is built from, so no caller's array is
    aliased.  Kernels compare by value.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128)
        if arr.ndim != 2 or not arr.size:
            raise ValueError("kernel needs a 2-D grid of at least one row and one column")
        if not np.isfinite(arr).all():
            raise ValueError("kernel entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepKernel):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.shape, *self.values.ravel().tolist()))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def is_square(self) -> bool:
        p, q = self.shape
        return p == q

    def array(self) -> np.ndarray:
        return self.values

    def conj(self) -> "StepKernel":
        return StepKernel(self.values.conj())

    def scale(self, c: complex) -> "StepKernel":
        return StepKernel(c * self.values)

    def add(self, other: "StepKernel") -> "StepKernel":
        if self.shape != other.shape:
            raise ValueError(f"cannot add {self.shape} and {other.shape}")
        return StepKernel(self.values + other.values)

    @property
    def is_real(self) -> bool:
        return not self.values.imag.any()

    def max_abs(self) -> float:
        # hypot, as Python's abs(complex) uses; np.abs can differ in the last bit
        return float(np.hypot(self.values.real, self.values.imag).max())

    def mean(self) -> complex:
        # Python's left-to-right sum, not ndarray.mean's pairwise order
        return sum(self.values.ravel().tolist()) / self.values.size

    @staticmethod
    def constant(c: complex, p: int = 1, q: int = 1) -> "StepKernel":
        return StepKernel(np.full((p, q), complex(c)))


def phase_kernel(p: int) -> StepKernel:
    """Grid of p-th roots of unity: entry (i, j) = exp(2*pi*i*(i+j)/p).

    Row and column sums vanish for p >= 2, so its conjugate-mode density is
    1 when every vertex's colour imbalance is divisible by p and 0 otherwise:
    with p above every degree it is exactly the balance indicator, the
    step-kernel version of exp(2*pi*i*(x+y)).
    """
    w = np.exp(2j * np.pi / p)
    return StepKernel([[w ** (i + j) for j in range(p)] for i in range(p)])


@dataclass(frozen=True)
class Decoration:
    """One kernel per edge, index-aligned with the graph's edge list."""

    kernels: tuple[StepKernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.kernels:
            raise ValueError("decoration needs at least one kernel")
        shape = self.kernels[0].shape
        if any(k.shape != shape for k in self.kernels):
            raise ValueError("all decoration kernels must share one grid shape")

    def __len__(self) -> int:
        return len(self.kernels)

    def __getitem__(self, i: int) -> StepKernel:
        return self.kernels[i]

    @property
    def shape(self) -> tuple[int, int]:
        return self.kernels[0].shape

    @staticmethod
    def uniform(f: StepKernel, n_edges: int) -> "Decoration":
        return Decoration((f,) * n_edges)


# -- JSON interchange --------------------------------------------------------


def kernel_to_json(f: StepKernel) -> dict:
    p, q = f.shape
    return {
        "rows": p,
        "cols": q,
        "values": [[[x.real, x.imag] for x in row] for row in f.values.tolist()],
    }


def _json_entry(x) -> complex:
    if not isinstance(x, list) or len(x) != 2:
        raise ValueError(f"kernel entry {x!r} is not a [re, im] pair")
    # JSON true is 1 to Python's float; the format holds numbers
    if not all(type(part) in (int, float) for part in x):
        raise TypeError(f"kernel entry {x!r} is not a pair of numbers")
    return complex(float(x[0]), float(x[1]))


def kernel_from_json(data) -> StepKernel:
    try:
        p, q = data["rows"], data["cols"]
        # JSON true and 1.5 pass Python's int(); the format holds integers
        if type(p) is not int or type(q) is not int:
            raise TypeError(f"rows and cols must be integers, got {p!r} and {q!r}")
        k = StepKernel([[_json_entry(x) for x in row] for row in data["values"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad kernel object: {exc}") from exc
    if k.shape != (p, q):
        raise ParseError(f"kernel shape {k.shape} contradicts declared ({p}, {q})")
    return k


def load_kernel(path: str) -> StepKernel:
    return kernel_from_json(_load_json(path))
