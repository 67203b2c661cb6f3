"""Step kernels on [0,1]^2 and the closed-form trigonometric kernels.

A step kernel is constant on a p-by-q grid of boxes, so every density integral
restricted to step kernels is a finite sum over grid assignments and is
evaluated without quadrature error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParseError, ShapeMismatch


@dataclass(frozen=True)
class StepKernel:
    """Complex p x q grid; entry (i, j) is the value on box i x j."""

    values: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(complex(x) for x in row) for row in self.values)
        if not rows or not rows[0]:
            raise ValueError("kernel needs at least one row and one column")
        q = len(rows[0])
        if any(len(row) != q for row in rows):
            raise ValueError("ragged kernel grid")
        for row in rows:
            for x in row:
                if not (np.isfinite(x.real) and np.isfinite(x.imag)):
                    raise ValueError("kernel entries must be finite")
        object.__setattr__(self, "values", rows)

    @property
    def rows(self) -> int:
        return len(self.values)

    @property
    def cols(self) -> int:
        return len(self.values[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.complex128)

    def conj(self) -> "StepKernel":
        return StepKernel(tuple(tuple(x.conjugate() for x in row) for row in self.values))

    def transpose(self) -> "StepKernel":
        return StepKernel(tuple(zip(*self.values)))

    def tensor(self, other: "StepKernel") -> "StepKernel":
        """Tensor product: first variables pair up, second variables pair up.

        The grid is the Kronecker product, rows p1*p2 and columns q1*q2.
        """
        return StepKernel(tuple(map(tuple, np.kron(self.array(), other.array()))))

    def scale(self, c: complex) -> "StepKernel":
        return StepKernel(tuple(tuple(c * x for x in row) for row in self.values))

    def add(self, other: "StepKernel") -> "StepKernel":
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")
        return StepKernel(
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self.values, other.values)
            )
        )

    @property
    def is_real(self) -> bool:
        return all(x.imag == 0 for row in self.values for x in row)

    def max_abs(self) -> float:
        return max(abs(x) for row in self.values for x in row)

    def mean(self) -> complex:
        return sum(x for row in self.values for x in row) / (self.rows * self.cols)

    @staticmethod
    def constant(c: complex, p: int = 1, q: int = 1) -> "StepKernel":
        return StepKernel(tuple(tuple(complex(c) for _ in range(q)) for _ in range(p)))

    @staticmethod
    def from_real(rows: Sequence[Sequence[float]]) -> "StepKernel":
        return StepKernel(tuple(tuple(complex(x) for x in row) for row in rows))


def phase_kernel(p: int) -> StepKernel:
    """Grid of p-th roots of unity: entry (i, j) = exp(2*pi*i*(i+j)/p).

    Row and column sums vanish exactly for p >= 2, which makes densities of
    this kernel vanish on every colouring with an unbalanced vertex of
    colour-imbalance not divisible by p.
    """
    w = np.exp(2j * np.pi / p)
    return StepKernel(tuple(tuple(w ** (i + j) for j in range(p)) for i in range(p)))


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
            raise ShapeMismatch("all decoration kernels must share one grid shape")

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


@dataclass(frozen=True)
class TrigKernel:
    """Closed-form kernel: 'h0' is exp(2*pi*(x+y)*i), 'hk' is
    2*exp(2*pi*i/k)*cos(2*pi*(x+y)), 'const' is the constant c."""

    kind: str
    k: int | None = None
    c: complex | None = None

    def __post_init__(self):
        if self.kind not in ("h0", "hk", "const"):
            raise ValueError(f"unknown trig kernel kind {self.kind!r}")
        if self.kind == "hk" and (self.k is None or self.k < 1):
            raise ValueError("hk needs an integer k >= 1")
        if self.kind == "const" and self.c is None:
            raise ValueError("const needs a value")

    @staticmethod
    def h0() -> "TrigKernel":
        return TrigKernel("h0")

    @staticmethod
    def hk(k: int) -> "TrigKernel":
        return TrigKernel("hk", k=k)

    @staticmethod
    def constant(c: complex) -> "TrigKernel":
        return TrigKernel("const", c=complex(c))


# -- JSON interchange --------------------------------------------------------


def kernel_to_json(f: StepKernel) -> dict:
    return {
        "rows": f.rows,
        "cols": f.cols,
        "values": [[[x.real, x.imag] for x in row] for row in f.values],
    }


def kernel_from_json(data) -> StepKernel:
    try:
        p, q = int(data["rows"]), int(data["cols"])
        vals = data["values"]
        rows = tuple(
            tuple(complex(float(x[0]), float(x[1])) for x in row) for row in vals
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad kernel object: {exc}") from exc
    k = StepKernel(rows)
    if k.shape != (p, q):
        raise ParseError(f"kernel shape {k.shape} contradicts declared ({p}, {q})")
    return k


def load_kernel(path: str) -> StepKernel:
    try:
        with open(path) as fh:
            return kernel_from_json(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
