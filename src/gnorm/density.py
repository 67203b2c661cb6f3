"""Exact evaluation of the density functionals on step kernels, the one
kernel type: a closed form such as the trigonometric kernels of the paper is
evaluated on its step-kernel version (``kernels.phase_kernel``).

Everything here is a finite sum over grid assignments.  Two independent
evaluation routes are provided: ``direct`` materialises the product over all
assignments, ``eliminate`` contracts vertices one at a time along a greedy
minimum-fill order (a colouring sweep's order also counts the colour axes it
leaves open, ``_elimination_plan``).  Both are exact up to floating point and
must agree; the verification suite pins their relative deviation.  ``auto``
takes ``direct`` up to 4096 assignments (``_resolve``).

``_route`` is the one planner: it checks the mode and the kernel shape,
picks the route and raises its caps, before anything is contracted.  An
elimination plan is made once per graph object, grid and sweep budget and
kept on the graph (``BipartiteGraph.elimination_plans``), so reusing a graph
object reuses its plans; the caps are checked on every call.  Both
routes take edge factors with leading batch axes, and ``_means`` is the one
division by the assignment count.  ``s_max`` and ``rho_2m`` sweep the 2^e
colourings: they plan the route once and stack the two tables of the kernel
(colour 0 and colour 1).  On the elimination route the last k edges take
the stack whole, so their colours are einsum axes and a step is computed
once for all the colourings that agree on the edges it has absorbed; the
leading e-k colours are batch rows in product order, first edge most
significant (``graphs._colouring_rows``), contracted in chunks sized by
``_chunks``.  A vertex whose one factor is a step's output is summed by
that step (``_plan_along``), and steps over open edges alone that share
their subscripts are one einsum call, since every open edge reads the same
stack (``_evaluate_eliminate``): C8's sweep at p = 3 makes 4 or 5 calls,
not 8.  The values agree with ``t_density``, not bit for bit, but to within
1e-12 of t_a(|f|), the mean of |product| over the assignments, which bounds
|t_a(f)|; near cancellation they do not agree to 1e-12 of t_a(f) itself.
The falsifiers contract chunks of trials the same way
(k = 0), through ``_route``, ``_chunks`` and ``_densities``, and
``t_decoration`` and ``t_density`` are one-row calls of ``_densities``.
The direct route lays its product out with the batch rows last, so a
chunk's factors multiply in along loops over its rows, and sums each row
from a contiguous copy, with the bits that a batch-first layout gives
(``_evaluate_direct``).
A sweep skips what symmetry gives for free: conjugate-mode ``s_max``
contracts only the colourings whose first edge has colour 0, since a
colouring and its complement give conjugate values, and a real kernel's
tables, so every step of its sweep, are float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf, prod
from typing import Iterator, NamedTuple

import numpy as np

from .config import DEFAULT, RunConfig
from .errors import CapExceeded
from .graphs import (
    BipartiteGraph,
    EdgeColouring,
    _arcs_out,
    _colouring_rows,
    check_aligned,
    count_two_edge_matchings,
)
from .kernels import Decoration, StepKernel

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

MODES = ("conjugate", "transpose")

# Entries in a colouring sweep's widest step per chunk, colour axes included
# (256 KB of complex128).  It fixes how many colours an elimination leaves
# open: C8 and K_{2,4} (p = 3, 5) fit every colour into one row, and Q3 at
# p = 3 opens 9 of its 12 and takes 8 chunks of one row each.
_SWEEP_BUDGET = 1 << 14

# Entries in one contiguous copy of the direct route's rows (64 KB of
# complex128): blocks this size are summed faster than a whole chunk's copy,
# which would also add its size to the peak memory.
_SUM_BLOCK = 1 << 12

# Sweep values that agree to this relative tolerance tie in ``s_max``.
_TIE_RTOL = 1e-12


def _chunks(start: int, stop: int, route, per_row: int) -> Iterator[range]:
    """Rows start..stop-1 in chunks of _SWEEP_BUDGET // (route.row_width *
    per_row) rows (at least one), where per_row is the number of evaluations
    a row (a colouring prefix, or a falsifier trial) makes."""
    rows = max(1, _SWEEP_BUDGET // (route.row_width * per_row))
    for lo in range(start, stop, rows):
        yield range(lo, min(lo + rows, stop))


def _colour_table(arr: np.ndarray, colour: int, mode: str) -> np.ndarray:
    """The table an edge of this colour contributes; axis 0 is the left
    variable, axis 1 the right.

    Colour 1 keeps the kernel; colour 0 conjugates it (conjugate mode) or
    swaps its arguments (transpose mode).  Leading axes of ``arr`` are batch
    axes.
    """
    if colour == 1:
        return arr
    return arr.conj() if mode == "conjugate" else np.swapaxes(arr, -1, -2)


def _dims(g: BipartiteGraph, shape: tuple[int, int], mode: str) -> list[int]:
    p, q = shape
    nl = len(g.left)
    if mode == "transpose":
        return [p] * g.n_vertices
    return [p] * nl + [q] * (g.n_vertices - nl)


class _Route(NamedTuple):
    """How one batch row of evaluations is contracted, fixed once per graph
    and grid.

    ``assignments`` is the number of grid assignments.  ``open_edges`` is
    the number of trailing edges whose colour is an axis of size 2 in every
    factor and step (0 but for a colouring sweep's elimination), and
    ``row_width`` the entries in the widest step of one batch row, colour
    axes included, which sizes the chunks; with no open edge it is the
    widest step of one evaluation (every assignment for ``direct``, the
    largest elimination scope for ``eliminate``), which the caps count.
    ``steps`` are the elimination's einsum steps.
    """

    method: str
    dims: tuple[int, ...]
    assignments: int
    row_width: int
    steps: tuple[tuple[tuple[int, ...], str], ...] = ()
    open_edges: int = 0


def _resolve(method: str, dims: list[int]) -> str:
    """The route a method names: ``auto`` is ``direct`` up to 4096 grid
    assignments and ``eliminate`` beyond, decided before any planning."""
    if method == "auto":
        return "direct" if prod(dims) <= 4096 else "eliminate"
    return method


def _route(
    g: BipartiteGraph, shape: tuple[int, int], mode: str, method: str, config: RunConfig,
    budget: int = 0,
) -> _Route:
    """Check the mode and the kernel shape, then pick the route of one
    evaluation on this grid and raise its caps, before anything is
    contracted.  An elimination opens as many colour axes as fit ``budget``
    entries per step (none when it is 0).  An elimination plan is made once
    per graph object, grid and budget (``g.elimination_plans``), and its
    width and scope caps are raised on every call, in step order."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    p, q = shape
    if mode == "transpose" and p != q:
        raise ValueError(f"transpose mode needs a square kernel, got {p}x{q}")
    dims = _dims(g, shape, mode)
    method = _resolve(method, dims)
    if method == "direct":
        total = prod(dims)
        if total > config.cap_assignments:
            raise CapExceeded("direct density evaluation", total, config.cap_assignments)
        return _Route("direct", tuple(dims), total, total)
    if method == "eliminate":
        key = (tuple(dims), budget)
        plans = g.elimination_plans
        if key not in plans:
            plans[key] = _elimination_plan(g, dims, budget)
        route, sizes = plans[key]
        for width, scope in sizes:
            if width > config.cap_assignments:
                raise CapExceeded("elimination width", width, config.cap_assignments)
            if scope > len(_LETTERS):
                raise CapExceeded("elimination scope", scope, len(_LETTERS))
        return route
    raise ValueError(f"unknown method {method!r}")


def _evaluate(route: _Route, g: BipartiteGraph, factors: list[np.ndarray]) -> np.ndarray:
    """Assignment sums of a batch of evaluations: factor i, for edge i, has
    shape batch + (d_left, d_right), with one batch shape for every edge
    (empty for a single evaluation), and the result has the batch shape.
    The factor of each of the route's open edges is the (2, d_left, d_right)
    stack of its two colour tables, with no batch axes, and the result then
    ends in those colour axes, in edge order."""
    if route.method == "direct":
        return _evaluate_direct(g, factors, route.dims)
    return _evaluate_eliminate(route.steps, factors)


def _evaluate_direct(g, factors, dims) -> np.ndarray:
    """Sum the full product tensor over every grid assignment, in the
    factors' dtype.

    The tensor is laid out (*dims, n), with the n batch rows last, so each
    factor multiplies in along inner loops of length n, not of one grid
    axis.  The factors multiply in edge order, from ones, and each row is
    summed from a contiguous copy of its values, as the (*batch, *dims)
    layout summed it, so every value has that layout's bits.  The copy is
    made ``_SUM_BLOCK`` entries at a time."""
    batch = factors[0].shape[:-2]
    n = prod(batch)
    ones = [1] * g.n_vertices + [n]
    arr = np.ones((*dims, n), dtype=factors[0].dtype)
    # an edge's left end comes before its right end, as its factor's axes do
    for fac, (x, y) in zip(factors, g.ends):
        shape = ones.copy()
        shape[x] = dims[x]
        shape[y] = dims[y]
        arr *= fac.reshape(n, -1).T.reshape(shape)
    rows = arr.reshape(-1, n).T
    step = max(1, _SUM_BLOCK // rows.shape[1])
    sums = np.empty(n, arr.dtype)
    for lo in range(0, n, step):
        np.ascontiguousarray(rows[lo:lo + step]).sum(axis=-1, out=sums[lo:lo + step])
    return sums.reshape(batch)


def _means(route: _Route, sums: np.ndarray) -> np.ndarray:
    """Batched sums divided by the assignment count, each component on its
    own, as a complex-by-int division does: so at resolution >= 2 a batched
    value equals the value of the same evaluation made alone.  With 1x1
    kernels numpy multiplies a batch in its SIMD loop and a single row in its
    scalar loop, and the two differ in the last bits."""
    return (sums.view(np.float64) / float(route.assignments)).view(np.complex128)


def _densities(
    route: _Route, g: BipartiteGraph, a: EdgeColouring, kernels: list[np.ndarray], mode: str
) -> np.ndarray:
    """Densities of a batch of decorations, one per row: ``kernels[i]`` is
    the (N, p, q) stack of the kernels that edge i carries."""
    factors = [_colour_table(k, c, mode) for k, c in zip(kernels, a.colours)]
    return _means(route, _evaluate(route, g, factors))


def _elimination_order(
    scopes: list[frozenset[int]], n: int, fewest_edges: bool = False
) -> list[int]:
    """Greedy minimum-fill order over the variable interaction graph of the
    edge scopes, up to the first vertex whose step spans more vertices than
    there are einsum letters: the scope cap refuses that step, so no later
    one is ordered.

    A candidate's fill is the number of non-adjacent pairs among its k live
    neighbours ns, counted as (k(k - 1) - sum_{x in ns} |nbr[x] & ns|) / 2:
    ``nbr`` is symmetric and has no self-loops, so the sum counts each
    adjacent pair twice.  Its step spans ns and itself.  Ties go to the
    smallest vertex; with ``fewest_edges`` a tie goes first to the vertex
    whose step absorbs the fewest edges, counted through the live factors
    (each a scope and the number of edges it holds) that the step merges.
    """
    nbr: dict[int, set[int]] = {v: set() for v in range(n)}
    for sc in scopes:
        for x in sc:
            nbr[x] |= sc - {x}
    factors = [(sc, 1) for sc in scopes]
    alive = set(range(n))
    order = []
    while alive:
        best_v, best_key = None, None
        for v in sorted(alive):
            ns = nbr[v] & alive
            k = len(ns)
            key = ((k * (k - 1) - sum(len(nbr[x] & ns) for x in ns)) // 2,
                   sum(c for sc, c in factors if v in sc) if fewest_edges else 0)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        v = best_v
        ns = nbr[v] & alive
        for x in ns:
            nbr[x] |= ns - {x}
        alive.remove(v)
        order.append(v)
        if len(ns) >= len(_LETTERS):
            break
        if fewest_edges:
            factors = [f for f in factors if v not in f[0]] + [(frozenset(ns), best_key[1])]
    return order


def _elimination_plan(
    g: BipartiteGraph, dims: list[int], budget: int
) -> tuple[_Route | None, tuple[tuple[int, int], ...]]:
    """The elimination's route and each of its steps' (width, scope size),
    which ``_route`` checks against the caps, in step order.  The route is
    None when a scope outnumbers the einsum letters, which the scope cap
    always refuses; planning stops at that step.

    With ``budget`` 0 the order is greedy minimum fill.  A sweep plan
    (``budget`` > 0) also plans along the minimum-fill order whose ties go
    to the step absorbing the fewest edges, since each absorbed open edge
    doubles a step, and takes it when it opens at least as many edges,
    costs no more step entries (``_plan_along``) and has no wider step for
    one colouring; otherwise it keeps the minimum-fill plan.  Either way the
    caps are the minimum-fill steps', which the sweep's steps never exceed,
    so a sweep is refused as the loop over its colourings would be.
    """
    scopes = [frozenset(sc) for sc in g.ends]
    order = _elimination_order(scopes, g.n_vertices)
    route, sizes, entries = _plan_along(g, dims, budget, order)
    if budget == 0 or route is None:
        return route, sizes
    other_order = _elimination_order(scopes, g.n_vertices, fewest_edges=True)
    other, other_sizes, other_entries = _plan_along(g, dims, budget, other_order)
    if other is not None and other.open_edges >= route.open_edges and \
            other_entries <= entries and \
            max(w for w, _ in other_sizes) <= max(w for w, _ in sizes):
        return other, sizes
    return route, sizes


def _plan_along(
    g: BipartiteGraph, dims: list[int], budget: int, order: list[int]
) -> tuple[_Route | None, tuple[tuple[int, int], ...], float]:
    """Einsum steps eliminating the vertices in ``order``, each vertex's
    (width, scope size), and the step entries of a whole sweep: the sum over
    the steps that run of their entries, colour axes included, times their
    operands, times the 2^(e-k) leading rows.  The route is None, and the
    entries infinite, when a scope outnumbers the einsum letters.

    Slots 0..e-1 hold the edge factors and step k writes slot e+k.  A step is
    (the slots it consumes, its subscripts); the leading ``...`` of every
    subscript stands for the batch axes.  A vertex whose one live factor is
    a step's output is folded into that step: the step leaves the vertex out
    of its output, and einsum sums a letter its output leaves out.  So no
    step only sums a step's output (such as the last vertex of a cycle),
    and C8 runs 7 steps, not 8.  A fold never widens a step, so the widths,
    the scope sizes and ``row_width`` are those of the per-vertex steps.

    The last k edges are open: each carries its colour as an axis of size 2
    before its (left, right) axes, and every step keeps the colour axes of
    the edges it has absorbed, ahead of its vertex axes.  k is the largest
    for which every step, colour axes included, fits ``budget`` entries and
    the einsum letters.  When more than one component is summed out, a last
    step takes their outer product, colour axes in edge order; so the last
    slot always holds the result.  That step's entries, 2^e over all rows
    for each operand whatever the order, are not counted.
    """
    e = g.n_edges
    scopes = list(g.ends)
    edges = [[i] for i in range(e)]  # the edges each slot has absorbed
    live = list(range(e))
    finished = []
    groups = []
    for v in order:
        group = [s for s in live if v in scopes[s]]
        live = [s for s in live if v not in scopes[s]]
        union = sorted({x for s in group for x in scopes[s]})
        new_scope = [x for x in union if x != v]
        groups.append((group, union, prod(dims[x] for x in union)))
        (live if new_scope else finished).append(len(scopes))
        scopes.append(new_scope)
        edges.append(sorted(i for s in group for i in edges[s]))
    sizes = tuple((width, len(union)) for _, union, width in groups)
    if any(scope > len(_LETTERS) for _, scope in sizes):
        return None, sizes, inf

    def row_width(k: int) -> float:
        """Entries in the widest step, the outer product included, with the
        last k edges open; infinite when a step runs out of letters."""
        if k > len(_LETTERS):
            return inf
        widest_row = 1 << k
        for (_, union, width), absorbed in zip(groups, edges[e:]):
            n_open = sum(i >= e - k for i in absorbed)
            if len(union) + n_open > len(_LETTERS):
                return inf
            widest_row = max(widest_row, width << n_open)
        return widest_row

    k = next((k for k in range(e, 0, -1) if row_width(k) <= budget), 0)
    colours = [[i for i in sc if i >= e - k] for sc in edges]

    # a vertex whose one factor is a step's output is summed by that step,
    # which then writes the vertex's output slot: runs[r] is the vertex step
    # that step r contracts and the slot it writes, and run_slot[s] the slot
    # that holds slot s when the steps run
    runs: list[tuple[int, int]] = []
    run_slot = list(range(e))
    for n, (group, _, _) in enumerate(groups):
        if len(group) == 1 and group[0] >= e:
            r = run_slot[group[0]] - e
            runs[r] = (runs[r][0], e + n)
        else:
            r = len(runs)
            runs.append((n, e + n))
        run_slot.append(e + r)

    def subscript(slot: int, vertex_letter: dict, colour_letter: dict) -> str:
        return "..." + "".join(colour_letter[c] for c in colours[slot]) + \
            "".join(vertex_letter[x] for x in scopes[slot])

    steps = []
    for n, out in runs:
        group, union, _ = groups[n]
        vertex_letter = dict(zip(union, _LETTERS))
        colour_letter = dict(zip(colours[e + n], _LETTERS[len(union):]))
        inputs = ",".join(subscript(s, vertex_letter, colour_letter) for s in group)
        steps.append((tuple(run_slot[s] for s in group),
                      f"{inputs}->{subscript(out, vertex_letter, colour_letter)}"))
    if len(finished) > 1:
        colour_letter = dict(zip(range(e - k, e), _LETTERS))
        inputs = ",".join(subscript(s, {}, colour_letter) for s in finished)
        steps.append((tuple(run_slot[s] for s in finished),
                      f"{inputs}->..." + "".join(colour_letter.values())))
    entries = sum(len(groups[n][0]) * groups[n][2] << len(colours[e + n])
                  for n, _ in runs) << (e - k)
    route = _Route("eliminate", tuple(dims), prod(dims), row_width(k), tuple(steps), k)
    return route, sizes, entries


def _evaluate_eliminate(steps, factors) -> np.ndarray:
    """Run the elimination's einsum steps on a batch of edge factors and
    return each evaluation's sum over all assignments: the last slot.

    A step whose operands are all edge factors is contracted once per
    distinct subscripts and operand objects, and its result is reused: in a
    sweep every open edge's factor is the one stack of colour tables, so
    steps that differ only in which open edges they absorb are one einsum.
    ``factors`` holds those objects for the whole call, so no id is reused;
    a leading edge's factor is its own gather, so no step over one is
    shared, and neither is a step over conjugate-mode ``s_max``'s first
    factor (``tables[:1]``).  Consumed slots are freed; the results of
    steps over edge factors are kept until the call returns, since a later
    step may share them.
    """
    e = len(factors)
    slots: list[np.ndarray | None] = list(factors)
    shared: dict[tuple, np.ndarray] = {}
    for operands, subscripts in steps:
        if max(operands) < e:
            key = (subscripts, *[id(slots[s]) for s in operands])
            new = shared.get(key)
            if new is None:
                new = shared[key] = np.einsum(subscripts, *[slots[s] for s in operands])
        else:
            new = np.einsum(subscripts, *[slots[s] for s in operands])
        for s in operands:
            slots[s] = None
        slots.append(new)
    return slots[-1]


def _decoration_route(g: BipartiteGraph, a: EdgeColouring, dec: Decoration, mode: str,
                      method: str, config: RunConfig) -> _Route:
    """Check the colouring and the decoration against g's edges, then plan:
    the one decoration contract, for ``t_decoration`` and ``hatami_check``."""
    check_aligned(g, a)
    if len(dec) != g.n_edges:
        raise ValueError(f"decoration size {len(dec)} != edge count {g.n_edges}")
    return _route(g, dec.shape, mode, method, config)


def t_decoration(
    g: BipartiteGraph,
    a: EdgeColouring,
    dec: Decoration,
    mode: str = "conjugate",
    method: str = "auto",
    config: RunConfig = DEFAULT,
) -> complex:
    """Decorated density: each edge carries its own kernel.

    In conjugate mode colour-0 edges contribute the conjugated kernel; in
    transpose mode they contribute the argument-swapped kernel (kernels must
    be square).  The value is the mean of the edge-factor product over all
    grid assignments.
    """
    route = _decoration_route(g, a, dec, mode, method, config)
    return complex(_densities(route, g, a, [k.array()[None] for k in dec.kernels], mode)[0])


def t_density(
    g: BipartiteGraph,
    a: EdgeColouring,
    f: StepKernel,
    mode: str = "conjugate",
    method: str = "auto",
    config: RunConfig = DEFAULT,
) -> complex:
    """Homomorphism density of a single kernel under the given colouring.

    Every edge reads one of the kernel's two colour tables; an edgeless graph
    has density 1.
    """
    route = _route(g, f.shape, mode, method, config)
    check_aligned(g, a)
    if g.n_edges == 0:
        return complex(1.0)
    return complex(_densities(route, g, a, [f.array()[None]] * g.n_edges, mode)[0])


def _sweep(
    g: BipartiteGraph,
    f: StepKernel,
    mode: str,
    method: str,
    config: RunConfig,
    stage: str,
    first_half: bool = False,
) -> Iterator[tuple[int, np.ndarray]]:
    """t_a(f) for every colouring a, as (index of the first row, values)
    chunks in product order: row r is the colouring whose colours, first
    edge most significant, spell r in binary.  With ``first_half`` only the
    rows below 2^(e-1), the colourings whose first edge has colour 0, are
    contracted: the first edge's open factor is its colour-0 table alone
    when every edge is open, and otherwise the first half of the leading
    rows is chunked, at the same chunk boundaries.  Either way each value
    is the one the whole sweep gives, bit for bit.

    Every cap is raised before the first chunk is contracted, the
    colourings cap first, before ``_route`` reads the mode.  An
    elimination leaves the colours of its ``open_edges`` last edges (k of
    them) open, so each batch row is the 2^k colourings that share one
    prefix, and a step is computed once for all the colourings that agree on
    the edges it has absorbed.  The chunks of prefixes come from ``_chunks``;
    the leading edges index the stacked (colour 0, colour 1) tables of f, and
    the open edges take the stack whole.  The tables of a real kernel are
    float64, and so is every step; its sums become complex128 before
    ``_means``.
    """
    m = g.n_edges
    if m > config.cap_colourings:
        raise CapExceeded(stage, m, config.cap_colourings)
    route = _route(g, f.shape, mode, method, config, _SWEEP_BUDGET)
    if m == 0:
        yield 0, np.ones(1, dtype=np.complex128)
        return
    arr = f.array().real if f.is_real else f.array()
    tables = np.stack((_colour_table(arr, 0, mode), arr))
    k = route.open_edges
    open_factors = [tables] * k
    rows = 1 << (m - k)
    if first_half and k == m:
        open_factors[0] = tables[:1]
    elif first_half:
        rows >>= 1
    for chunk in _chunks(0, rows, route, 1):
        # one contiguous intp index row per leading edge, which numpy gathers
        # with no cast; the factors stay a temporary, freed before the yield
        bits = _colouring_rows(m - k, chunk.start, chunk.stop).T.astype(np.intp)
        sums = _evaluate(route, g, [tables[b] for b in bits] + open_factors)
        sums = sums.reshape(-1).astype(np.complex128, copy=False)
        yield chunk.start << k, _means(route, sums)


@dataclass(frozen=True, slots=True)
class ColouringMax:
    """The largest |t_a(f)| and its maximiser, kept as the maximiser's row in
    the product order of the colourings of n_edges edges (first edge most
    significant), which holds a result in about 100 bytes.  The maximiser is
    the first colouring whose |t_a(f)| is within ``_TIE_RTOL`` (relative) of
    the largest, and ``value`` is its own |t_a(f)|."""

    value: float
    row: int
    n_edges: int

    @property
    def argmax(self) -> EdgeColouring:
        return EdgeColouring(_colouring_rows(self.n_edges, self.row, self.row + 1)[0])


def s_max(
    g: BipartiteGraph,
    f: StepKernel,
    mode: str = "conjugate",
    method: str = "auto",
    config: RunConfig = DEFAULT,
) -> ColouringMax:
    """max over all colourings of |t(f)|, with the lexicographically least
    maximiser.  Conjugate mode realises the complex-side envelope, transpose
    mode the orientation envelope.

    The colourings are swept in product order (first edge most
    significant), in chunks of rows sized by ``_SWEEP_BUDGET``.  Transpose
    mode sweeps all 2^e.  Conjugate mode sweeps only the 2^(e-1) whose first
    edge has colour 0: the complement of a colouring conjugates every
    edge's table, so its value is exactly the conjugate of t_a(f), with the
    same |t|, and the complement of a skipped colouring is swept and comes
    earlier in product order.  So the skipped half holds no larger value
    and no earlier tie, and cannot move the maximiser.  Values that agree
    to ``_TIE_RTOL`` (relative) tie, since the elimination plan moves their
    last bits: a chunk replaces the kept maximiser only when its
    largest magnitude exceeds the kept one by more than ``_TIE_RTOL``, and
    then with its first row within ``_TIE_RTOL`` of that largest.  So ties
    go to the earliest colouring in product order, the lexicographically
    least, whatever the plan, and ``value`` is that colouring's own |t_a|.
    """
    best, best_row = -1.0, 0
    for start, vals in _sweep(g, f, mode, method, config, "colouring maximisation",
                              first_half=mode == "conjugate"):
        mags = np.abs(vals)
        top = float(mags.max())
        if top > best * (1 + _TIE_RTOL):
            k = int(np.argmax(mags >= top * (1 - _TIE_RTOL)))
            best, best_row = float(mags[k]), start + k
    return ColouringMax(best, best_row, g.n_edges)


def rho_2m(
    g: BipartiteGraph,
    f: StepKernel,
    m: int,
    mode: str = "transpose",
    method: str = "auto",
    config: RunConfig = DEFAULT,
) -> float:
    """The 2m-power mean over colourings: (sum_a t_a(f)^(2m))^(1/2m).

    The sum is real: conjugate colourings contribute conjugate values in the
    conjugate mode, and transpose mode is meant for real kernels.  All 2^e
    colourings are swept in both modes, in product order, in chunks of rows
    sized by ``_SWEEP_BUDGET``, keeping a running power sum and the largest
    |t_a|^(2m), the scale of the check that the sum is real.  No half is
    skipped: transpose mode pairs no colourings, and in conjugate mode that
    check reads the imaginary parts the pairs cancel.  A real kernel's sweep
    runs in float64, so its sum agrees with a complex128 sweep's to 1e-12
    relative, not bit for bit.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("m must be a positive integer")
    total = complex(0.0)
    scale = 0.0
    for _, vals in _sweep(g, f, mode, method, config, "colouring power sum"):
        total += complex((vals ** (2 * m)).sum())
        scale = max(scale, float(np.abs(vals).max()) ** (2 * m))
    if abs(total.imag) > 1e-9 * max(1.0, scale):
        raise ValueError("power sum is not real; use a real kernel in transpose mode")
    re = max(total.real, 0.0)
    return re ** (1.0 / (2 * m))


# -- second-order expansion of the orientation functional ----------------------


@dataclass(frozen=True)
class QuadraticExpansion:
    """Coefficients of t(1 + eps*h) in transpose mode through order eps^2.

    i1, i2, i3 are the three 2-edge-path integrals of h (out-out, in-in,
    in-out at the centre); matchings is the 2-edge-matching count.
    """

    c0: float
    c1: float
    c2: float
    i1: float
    i2: float
    i3: float
    mean: float
    matchings: int

    def predict(self, eps: float) -> float:
        return self.c0 + self.c1 * eps + self.c2 * eps * eps


def two_path_integrals(h: StepKernel) -> tuple[float, float, float]:
    """(I1, I2, I3) for a real square kernel.

    I1 = mean_x (row mean)^2, I2 = mean_x (column mean)^2,
    I3 = mean_x (row mean * column mean).
    """
    if not h.is_square:
        raise ValueError("two-path integrals need a square kernel")
    if not h.is_real:
        raise ValueError("two-path integrals are defined for real kernels")
    arr = h.array().real
    rows = arr.mean(axis=1)
    cols = arr.mean(axis=0)
    return (
        float((rows ** 2).mean()),
        float((cols ** 2).mean()),
        float((rows * cols).mean()),
    )


def second_order_expansion(
    g: BipartiteGraph, a: EdgeColouring, h: StepKernel
) -> QuadraticExpansion:
    """Predicted quadratic of eps -> t(1+eps*h) in transpose mode.

    The linear term is e(H) times the mean of h; the quadratic term combines
    the per-vertex in/out splits of the colouring with the two-path integrals
    plus the matching count times the squared mean.
    """
    i1, i2, i3 = two_path_integrals(h)
    mean = h.mean().real
    quad = 0.0
    for dp, d in zip(_arcs_out(g, a), g.degrees):
        dm = d - dp
        quad += comb(dp, 2) * i1 + comb(dm, 2) * i2 + dp * dm * i3
    m2 = count_two_edge_matchings(g)
    quad += m2 * mean * mean
    return QuadraticExpansion(
        c0=1.0,
        c1=g.n_edges * mean,
        c2=quad,
        i1=i1,
        i2=i2,
        i3=i3,
        mean=mean,
        matchings=m2,
    )


def expansion_tail_bound(g: BipartiteGraph, h: StepKernel, eps: float) -> float:
    """Rigorous bound on |t(1+eps*h) - quadratic prediction|.

    The exact value is a polynomial whose order-j coefficient is a sum over
    C(e, j) edge subsets, each bounded by max|h|^j, so the tail beyond eps^2
    is at most sum_{j>=3} C(e, j) (B*|eps|)^j.
    """
    b = h.max_abs()
    e = g.n_edges
    x = b * abs(eps)
    return sum(comb(e, j) * x ** j for j in range(3, e + 1))


def perturbed_kernel(h: StepKernel, eps: float) -> StepKernel:
    """The step kernel 1 + eps*h on the same grid."""
    return StepKernel(1.0 + eps * h.array())
