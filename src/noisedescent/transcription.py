"""Direct transcription of the descent problem into a finite NLP.

Equidistant grid, piecewise-constant controls (u_k held on
[t_k, t_{k+1})), explicit Heun (trapezoidal Runge-Kutta) defect
constraints, seven boundary equations, path-constraint rows at every
node, and the variant objective.  The decision vector packs all node
states, all interval controls and, for the minimax variant, one
epigraph variable.

All derivatives come from one engine.  Every nonlinear piece is local:
a defect row couples only (z_k, u_k, z_{k+1}) and is linear in z_{k+1};
a level sample depends only on its own node state; a fuel-flow sample
only on (V_k, h_k, delta_x).  So one complex-step perturbation per local
variable, applied at every node or interval at once, gives all gradient
and Jacobian entries (`_cs_derivative`); the d perturbations are stacked
on a leading axis and the kernel runs once.  Hessian blocks are the
symmetrised central differences of those exact gradients
(`_cs_hessian_blocks`), with the 2d shifted points stacked the same way.
The gradients are exact to machine precision; the test suite checks
both against central finite differences of the callbacks.

Each second-derivative block is built once per point, and only where it
can be nonzero.  An objective or extra-row term keeps a one-entry memo
(`_PointMemo`) keyed by the bytes of its local-variable array: the level
energy weights or fuel flows, their complex-step gradients and, on first
use, their Hessian blocks.  So the value, the gradient and both the exact
and the convexified Lagrangian Hessian at one point share one set of
kernel evaluations.  The defect Jacobian and Hessian blocks are
differenced only along the seven variables the step map is nonlinear in
(`_STEP_NONLINEAR`): `rhs_arrays` reads neither x nor y, so the step map
is the identity along them, their Jacobian columns are written exactly
and their Hessian rows and columns are exact zeros.  The same defect
blocks give J^T lam block by block (`jacobian_transpose_product`), so
the KKT certificate costs O(N) and builds no dense Jacobian.

The exact Hessian's two stencils, the step map's and the Leq term's,
evaluate their kernel's column groups once per distinct input (`_Group`).
A group is a set S of local variables and the arrays the kernel reads
that depend on S alone, and it names the kernel keyword those arrays
fill.  In each row of the stencil, S takes (|S|+1)(2|S|+1) distinct
inputs among the copies (98 for the step map, 72 for the Leq term): 6
for one column, 15 for two, 28 for three.  Each group runs on one
representative copy per distinct input, taken in copy order from the
stencil's own complex stack (`_group_index`), and travels to the kernel
as those values and a cached gather index; the kernel gathers where it
reads (`_Gathered`), so no gathered stack outlives the kernel call that
reads it.  The step map's groups are single columns (`_step_groups`):
sin/cos of alpha and mu fill `trig` (both Heun stages read it), sin/cos
of gamma and chi fill `path` and the density and speed of sound at h
fill `air` (the first stage reads those two).  The Leq term's
(`_level_groups`) fill the keywords of `noise.levels_arrays`: sin/cos of
gamma and chi fill `path` (velocity_vector mode only), the level's
(V, h) part `speed_height` and its (x, y, h) part `ranges`.  Every
other caller, the overhead-bound Jacobian and gradient stencils, the
value calls, one-node steps and fuel flows, lets the kernels compute
everything per copy.  A group's checks run on its representatives in
copy order, so a nonpositive log argument raises the error, node
included, of a per-copy evaluation.  The blocks have the bits of a per-copy evaluation while the whole stack's column
temporaries stay below the elision size: up to N=167 for the step map,
N=226 for the Leq term.  Above, numpy may elide those temporaries in a
per-copy evaluation and the bits may move (the model builds at N=168,
227 and 300 kept them).

The variant decides only which terms enter the problem: a table in
`_Transcription.__init__` names the objective term (Leq at the first
observer, the consumption, or the epigraph variable theta) and the extra
inequality rows with their upper bounds (the fuel cap, or
Leq_i - theta <= 0 per observer).

The value callbacks (`objective`, `equalities`, `inequalities`) also take
a stack of decision vectors (K, n_vars), the solver's line-search trial
points, and evaluate it with one kernel call per term: the kernels take
leading axes, each sum over nodes is a per-row 1-D dot product
(`np.vecdot`), so every row has the bits of a one-point call.  A stack
leaves the one-point memos as they were; each term's memo keeps its
last stack beside them, and a one-point call whose local variables have
the bytes of one of its rows takes that row's level energies and
weights, or fuel flows.  So the gradient at an accepted line-search
trial scores no level again.

The path rows select decision variables: `path_idx`, one row of six
indices per node in the order (gamma, V, chi, alpha, delta_x, mu), gives
their values (`w[path_idx]`), their 0/1 Jacobian and the variable box
that mirrors the same bounds.  The last node reuses control N-1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import noise
from .errors import ScenarioError
from .flight_dynamics import (
    IALPHA, IDELTA_X, IMU, IV, IGAMMA, ICHI, IX, IY, IH,
    AircraftModel, Atmosphere, ISA, air_at, control_trig, fuel_flow_arrays, rhs_arrays,
)
from .nlp_solver import NlpProblem

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import Scenario

_CS = 1e-100  # complex-step size; exact to machine precision, no cancellation
_FD = 1e-5    # relative step for Hessian blocks (central FD over exact gradients)

# Characteristic magnitudes used for variable and constraint-row scaling.
STATE_SCALE = np.array([100.0, 1.0, 1.0, 1.0e4, 1.0e4, 1.0e3])
CONTROL_SCALE = np.array([1.0, 1.0, 1.0])
# Path-constraint component order (gamma, V, chi, alpha, delta_x, mu):
# three node states, then three controls.
PATH_SCALE = np.array([1.0, 100.0, 1.0, 1.0, 1.0, 1.0])
_PATH_STATES = [IGAMMA, IV, ICHI]
_PATH_CONTROLS = [IALPHA, IDELTA_X, IMU]

_H_CEILING = 15000.0  # generic altitude box for the decision variables, m

# (node, state) of the seven boundary equations: the initial x, y, h, V
# and the final x, y, h
_BOUNDARY = (np.array([0, 0, 0, 0, -1, -1, -1]), np.array([IX, IY, IH, IV, IX, IY, IH]))

# Interval-local variables (z_k, u_k) the step map is nonlinear in:
# rhs_arrays reads neither x nor y, so Phi is the identity along them.
_STEP_NONLINEAR = np.array([IV, IGAMMA, ICHI, IH, 6 + IALPHA, 6 + IDELTA_X, 6 + IMU])
_INTERVAL_SCALE = np.concatenate([STATE_SCALE, CONTROL_SCALE])

_RANK_ONE_ROWS = 32  # rows per block of the Leq term's rank-one Hessian update


@dataclass(frozen=True)
class Grid:
    """Equidistant time grid t_k = t0 + k*h_step."""

    t0: float
    tf: float
    n_intervals: int

    def __post_init__(self):
        if self.n_intervals < 2:
            raise ValueError("grid needs at least 2 intervals")
        if not self.tf > self.t0:
            raise ValueError("tf must exceed t0")

    @property
    def h_step(self) -> float:
        return (self.tf - self.t0) / self.n_intervals

    @property
    def duration(self) -> float:
        return self.tf - self.t0

    def times(self) -> np.ndarray:
        return self.t0 + self.h_step * np.arange(self.n_intervals + 1)


def heun_step(z, u, h_step, rhs, k1=None):
    """Explicit Heun update z + (h/2)*(f(z,u) + f(z + h*f(z,u), u)).

    `rhs(z, u)` may operate on scalars or on whole arrays of nodes.  `k1`
    is the first stage's rhs(z, u) when the caller has it already.
    """
    if k1 is None:
        k1 = rhs(z, u)
    k2 = rhs(z + h_step * k1, u)
    return z + 0.5 * h_step * k1 + 0.5 * h_step * k2


def rk_step_arrays(Z, U, h_step, model: AircraftModel, atm: Atmosphere,
                   trig=None, path=None, air=None):
    """Heun update applied to whole arrays of nodes at once.

    The controls are constant over the step, so both stages share one
    `control_trig`, `trig` when the caller has it.  `path` and `air` are
    the first stage's `path_trig` and `air_at` at Z when the caller has
    them (see `rhs_arrays`); the second stage computes its own.  Each
    keyword may be any iterable of arrays: `rhs_arrays` unpacks it, so a
    stencil's `_Gathered` is gathered in the stage that reads it.  A stage
    writes its six rates into one array.  One node (a 1-D z and u) runs
    on Python floats: its controls are read once and each stage's state
    once with `tolist()`, so the kernel runs on scalars throughout.
    """
    one_node = Z.ndim == 1
    u = U.tolist() if one_node else (U[..., IALPHA], U[..., IDELTA_X], U[..., IMU])
    trig = trig or control_trig(u[IALPHA], u[IMU])
    if one_node:
        return heun_step(Z, U, h_step,
                         lambda z, _: np.array(rhs_arrays(*z.tolist(), *u, model, atm, trig)))

    def rates(z, path=None, air=None):
        out = rhs_arrays(z[..., 0], z[..., 1], z[..., 2], z[..., 3], z[..., 4], z[..., 5],
                         *u, model, atm, trig, path, air)
        k = np.empty(out[0].shape + (6,), np.result_type(*out))
        for i, rate in enumerate(out):
            k[..., i] = rate
        return k
    return heun_step(Z, U, h_step, lambda z, _: rates(z), rates(Z, path, air))


def simulate(z0, controls, grid: Grid, model: AircraftModel,
             atm: Atmosphere = ISA) -> noise.Trajectory:
    """Forward-simulate the piecewise-constant controls from z0.

    Each Heun step is a one-node `rk_step_arrays` call, which runs the
    kernel on Python floats and shares the control trigonometry between
    its two stages.  Its node matches the stacked step map of the NLP's
    defect rows to rounding, not bit for bit: a scalar `**` and an array
    `**` may round differently.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (6,):
        raise ValueError("z0 must have shape (6,)")
    U = np.asarray(controls, dtype=float)
    if U.shape != (grid.n_intervals, 3):
        raise ValueError(f"controls must have shape ({grid.n_intervals}, 3)")
    Z = np.empty((grid.n_intervals + 1, 6))
    Z[0] = z0
    for k in range(grid.n_intervals):
        Z[k + 1] = rk_step_arrays(Z[k], U[k], grid.h_step, model, atm)
    return noise.Trajectory(times=grid.times(), states=Z, controls=U)


@dataclass(frozen=True)
class VectorLayout:
    """Index map of the packed decision vector.

    Node states come first (node-major, 6 components each), then the
    interval controls (3 each), then the optional epigraph variable.
    """

    n_intervals: int
    has_epigraph: bool = False

    @property
    def n_state_vars(self) -> int:
        return 6 * (self.n_intervals + 1)

    @property
    def n_control_vars(self) -> int:
        return 3 * self.n_intervals

    @property
    def n_vars(self) -> int:
        return self.n_state_vars + self.n_control_vars + (1 if self.has_epigraph else 0)

    @property
    def epigraph_index(self) -> int:
        if not self.has_epigraph:
            raise ValueError("layout has no epigraph variable")
        return self.n_vars - 1

    def pack(self, states, controls, theta: float | None = None) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        controls = np.asarray(controls, dtype=float)
        if states.shape != (self.n_intervals + 1, 6):
            raise ValueError(f"states must have shape ({self.n_intervals + 1}, 6)")
        if controls.shape != (self.n_intervals, 3):
            raise ValueError(f"controls must have shape ({self.n_intervals}, 3)")
        parts = [states.ravel(), controls.ravel()]
        if self.has_epigraph:
            if theta is None:
                raise ValueError("epigraph layout needs a theta value")
            parts.append(np.array([float(theta)]))
        elif theta is not None:
            raise ValueError("theta given but layout has no epigraph variable")
        return np.concatenate(parts)

    def unpack(self, w: np.ndarray):
        """(states, controls, theta) of one vector (n_vars,), or of each row
        of a stack (K, n_vars) with the stack axis leading every array."""
        w = np.asarray(w)
        if w.shape[-1:] != (self.n_vars,):
            raise ValueError(f"decision vector must have shape (..., {self.n_vars})")
        lead = w.shape[:-1]
        Z = w[..., :self.n_state_vars].reshape(lead + (self.n_intervals + 1, 6)).copy()
        U = w[..., self.n_state_vars:self.n_state_vars + self.n_control_vars] \
            .reshape(lead + (self.n_intervals, 3)).copy()
        # [()] turns the 0-d theta of one vector into a scalar
        theta = w[..., -1][()] if self.has_epigraph else None
        return Z, U, theta

    def variable_scale(self) -> np.ndarray:
        s = np.concatenate([
            np.tile(STATE_SCALE, self.n_intervals + 1),
            np.tile(CONTROL_SCALE, self.n_intervals),
        ])
        if self.has_epigraph:
            s = np.concatenate([s, [1.0]])
        return s


def trajectory_from_vector(w: np.ndarray, layout: VectorLayout,
                           grid: Grid) -> noise.Trajectory:
    Z, U, _ = layout.unpack(w)
    return noise.Trajectory(times=grid.times(), states=Z, controls=U)


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n_intervals + 1, grid.h_step)
    w[0] = w[-1] = 0.5 * grid.h_step
    return w


def _floor_eigenvalues(blocks: np.ndarray, scale_outer: np.ndarray) -> np.ndarray:
    """Clamp the eigenvalues of a (M, d, d) stack of symmetric blocks at
    zero, measured in the scaled variable metric the solver optimizes in.
    A block with no negative eigenvalue is returned unchanged."""
    scaled = blocks * scale_outer
    vals, vecs = np.linalg.eigh(0.5 * (scaled + np.swapaxes(scaled, 1, 2)))
    floored = (vecs * np.maximum(vals, 0.0)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    return np.where((vals[:, 0] >= 0.0)[:, None, None], blocks, floored / scale_outer)


def _node_controls(U: np.ndarray) -> np.ndarray:
    # the path/integrand sample at t_N reuses the last interval's control
    return np.concatenate([U, U[..., -1:, :]], axis=-2)


def _cs_derivative(fn, X: np.ndarray, mult: np.ndarray | None = None,
                   along: np.ndarray | None = None, groups=()) -> np.ndarray:
    """Complex-step derivatives of a row-local function for every local variable.

    `fn` maps an (..., M, d) array, one row of local variables per node or
    interval, to (..., M) values or (..., M, r) vectors, where output row k
    depends on input row k only.  The perturbations are stacked on a new
    leading axis, so `fn` runs once on all of them, in one call on the
    calling thread.  Returns d(fn)/dX with the variable index last:
    (..., M, d) or (..., M, r, d).  With `mult` of shape (M, r) the r
    outputs are first contracted against it, giving d(mult . fn)/dX of
    shape (..., M, d); the contraction acts on the imaginary parts before
    the division by the step.  `along` restricts the derivative to those
    local variables, and the variable axis then has len(along) entries in
    that order.  `groups`, when given, are column groups of `fn`
    (`_Group`) and X is `_cs_hessian_blocks`' stack of shifted copies:
    each group is evaluated on one copy per distinct input
    (`_group_index`), and `fn` takes the arrays of the groups that name
    one keyword, in their order, as a `_Gathered` under that keyword.
    """
    j = np.arange(X.shape[-1]) if along is None else along
    Xc = np.repeat(X.astype(complex)[None], j.size, axis=0)
    Xc[np.arange(j.size), ..., j] += 1j * _CS
    factors = {}
    for group in groups:
        first, index = _group_index(tuple(j.tolist()), group.columns)
        arrays = group.compute(Xc.reshape((-1,) + Xc.shape[2:])[first])
        gathered = factors.setdefault(group.keyword, _Gathered([], []))
        gathered.values += arrays
        gathered.index += [index] * len(arrays)

    F = fn(Xc, **factors).imag
    D = F if mult is None else np.sum(mult * F, axis=-1)
    # the perturbation axis last: a view, as np.moveaxis(D, 0, -1) gives
    return D.transpose(*range(1, D.ndim), 0) / _CS


class _Group(NamedTuple):
    """Arrays a stencil's kernel reads that depend on a few of its local
    variables.

    `compute` maps local variables (..., M, d) to a tuple of arrays
    (..., M), each a function of the columns `columns` alone, with the
    bits the kernel would compute; the kernel reads them through the
    `_Gathered` it takes as its keyword `keyword`."""

    keyword: str
    columns: tuple
    compute: Callable


class _Gathered:
    """Arrays of a stack given on a few representative copies: array k is
    values[k][index[k]], (..., M) for an index with the stack's leading
    axes.  Unpacking gathers them, so a kernel gathers where it reads,
    and a gathered array lives no longer than the kernel call that reads
    it."""

    __slots__ = ("values", "index")

    def __init__(self, values, index):
        self.values, self.index = values, index

    def __iter__(self):
        return (v[i] for v, i in zip(self.values, self.index))


def _trig_group(keyword: str, column: int) -> _Group:
    """sin and cos of one column, as `control_trig` and `path_trig` compute them."""
    return _Group(keyword, (column,),
                  lambda X: (np.sin(X[..., column]), np.cos(X[..., column])))


@functools.lru_cache(maxsize=None)
def _group_index(along: tuple, columns: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(first, index) of a column group in `_cs_hessian_blocks`' stack.

    Copy (a, b) of the stack (s, 2s, M, d), s = len(along), has the
    imaginary step on column along[a] and the real shift +eps on
    along[b] (b < s) or -eps on along[b - s].  Restricted to `columns`,
    it is one of (|S|+1)(2|S|+1) distinct inputs, S the group's columns
    in `along`: the imaginary step on none or one of S, times the real
    shift on none, or up or down on one of S.  `first` lists, in copy
    order, the flat copy a*2s + b that first takes each distinct input,
    and `index` (s, 2s) the distinct input of every copy."""
    s = len(along)
    keys = {}
    index = np.empty((s, 2 * s), dtype=np.intp)
    for a in range(s):
        for b in range(2 * s):
            key = (a if along[a] in columns else -1, b if along[b % s] in columns else -1)
            index[a, b] = keys.setdefault(key, len(keys))
    first = np.array([np.flatnonzero(index.ravel() == k)[0] for k in range(len(keys))])
    first.flags.writeable = index.flags.writeable = False  # shared by every call
    return first, index


def _cs_hessian_blocks(fn, X: np.ndarray, scale: np.ndarray,
                       mult: np.ndarray | None = None,
                       along: np.ndarray | None = None,
                       groups: tuple = ()) -> np.ndarray:
    """Per-row Hessian blocks (M, d, d) of a row-local scalar function.

    Symmetrised central differences, with steps _FD*scale, of the
    `_cs_derivative` of `fn` (contracted against `mult` when given).  All
    shifted copies of X are stacked and differentiated in one call.  With
    `along`, only those local variables are shifted and differentiated;
    the rows and columns of the others are exact zeros, which is right
    when `fn` is linear in them.  With `groups`, the kernel's column
    groups are computed once per distinct input and passed to `fn` by
    keyword with the stack (`_cs_derivative`).
    """
    d = X.shape[-1]
    j = np.arange(d) if along is None else along
    s = j.size
    eps = _FD * scale[j]
    Xs = np.repeat(X[None], 2 * s, axis=0)
    k = np.arange(s)
    Xs[k, :, j] += eps[:, None]
    Xs[s + k, :, j] -= eps[:, None]
    G = _cs_derivative(fn, Xs, mult, j, groups)
    sub = ((G[:s] - G[s:]) / (2.0 * eps)[:, None, None]).transpose(1, 2, 0)
    blocks = np.zeros(X.shape[:-1] + (d, d))
    blocks[:, j[:, None], j] = 0.5 * (sub + np.swapaxes(sub, 1, 2))
    return blocks


def _add_blocks(H: np.ndarray, idx: np.ndarray, blocks: np.ndarray) -> None:
    """H[idx[k], idx[k]] += blocks[k] for k in order; blocks may share indices.

    Entries (p, q) and (q, p) receive their contributions in the same
    order, so symmetric blocks keep H symmetric bit for bit."""
    np.add.at(H, (idx[:, :, None], idx[:, None, :]), blocks)


def _symmetrise_blocks(H: np.ndarray, idx: np.ndarray) -> None:
    """H[idx[k], idx[k]] = its symmetric part, for every k, in place.

    Applied twice it changes nothing, so overlapping blocks are safe."""
    rows, cols = idx[:, :, None], idx[:, None, :]
    blocks = H[rows, cols]
    H[rows, cols] = 0.5 * (blocks + np.swapaxes(blocks, 1, 2))


class _PointMemo:
    """What one term derived at its last point, and at its last stack.

    `derive` maps an item name to its function of the term's local-variable
    array; an item is computed on first use and kept until the point
    changes.  The key is the bytes of that array, so equal values rebuilt
    from a new decision vector hit and a vector changed in place misses.
    One point's array is (rows, d).  A stack of them (K, rows, d) is
    computed and kept apart from the point, with each row's bytes: a point
    whose bytes equal a row of the last stack takes that row of the stack's
    items, which `NlpProblem`'s stacked contract makes the point's own.
    """

    def __init__(self, **derive: Callable):
        self._derive = derive
        self._key = None
        self._items: dict = {}
        self._rows: dict = {}   # row bytes -> row of the last stack
        self._stacked = None    # (name, item) of the last stack

    def get(self, X: np.ndarray, name: str):
        if X.ndim > 2:
            item = self._derive[name](X)
            self._rows = {x.tobytes(): k for k, x in enumerate(X)}
            self._stacked = name, item
            return item
        key = X.tobytes()
        if key != self._key:
            k = self._rows.get(key)
            self._key = key
            self._items = {} if k is None else {self._stacked[0]: _row(self._stacked[1], k)}
        if name not in self._items:
            self._items[name] = self._derive[name](X)
        return self._items[name]


def _row(item, k: int):
    """Row k of a stacked item: of an array, or of each array of a tuple."""
    return tuple(part[k] for part in item) if isinstance(item, tuple) else item[k]


class _Term(NamedTuple):
    """One term of the objective or of an extra inequality row: a smooth
    functional of the states and controls plus theta_coef * theta."""

    value: Callable        # (Z, U) -> float, or (K,) for stacked (K, ...) Z and U
    gradient: Callable     # (grad, Z, U) -> None: writes into a zeroed gradient
    add_hessian: Callable  # (H, Z, U, weight, convexify) -> None: adds weight * Hessian
    columns: np.ndarray    # (rows, d) indices of the local variables of each node
    theta_coef: float = 0.0


# The term builders read what they need from the transcription up front:
# closures that held the transcription itself would make it a reference
# cycle, which outlives its problem until a garbage-collector pass.

def _level_groups(params: noise.EngineNoiseParams, atm: Atmosphere, obs) -> tuple:
    """The column groups of the level kernel at node states (..., 6):
    sin/cos gamma and sin/cos chi (`path`) where the directivity reads
    them (velocity_vector mode), then the (V, h) part `speed_height` and
    the (x, y, h) part `ranges`, in the kernel's order."""
    groups = (
        _Group("speed_height", (IV, IH), lambda X: noise.speed_height_terms(
            X[..., IV], *air_at(X[..., IH], atm), params, atm)),
        _Group("ranges", (IX, IY, IH), lambda X: noise.range_terms(
            noise.slant_range_arrays(X[..., IX], X[..., IY], X[..., IH], obs))),
    )
    if params.directivity_mode != "velocity_vector":
        return groups
    return (_trig_group("path", IGAMMA), _trig_group("path", ICHI)) + groups


def _leq_term(tr: "_Transcription", obs) -> _Term:
    """Equivalent continuous level at one observer."""
    params, atm, weights, duration = tr.params, tr.atm, tr.weights, tr.grid.duration
    idx = tr.node_idx
    n_state = idx.size
    groups = _level_groups(params, atm, obs)

    def levels(X, **factors):
        return noise.levels_arrays(X[..., 0], X[..., 1], X[..., 2], X[..., 3],
                                   X[..., 4], X[..., 5], obs, params, atm, **factors)

    def leq_and_node_weights(Z):
        energy = 10.0 ** (0.1 * levels(Z))
        # the total keeps a trailing axis, so it divides each point's energies
        total = np.vecdot(energy, weights)[..., None]
        return 10.0 * np.log10(total[..., 0] / duration), weights * energy / total

    memo = _PointMemo(leq=leq_and_node_weights,
                      dlev=lambda Z: _cs_derivative(levels, Z),
                      blocks=lambda Z: _cs_hessian_blocks(levels, Z, STATE_SCALE,
                                                          groups=groups))

    def gradient(grad, Z, U):
        _, p = memo.get(Z, "leq")
        grad[idx] = p[:, None] * memo.get(Z, "dlev")

    def add_hessian(H, Z, U, weight, convexify):
        """With p_k the normalized energy quadrature weights and
        beta = ln(10)/10, the Hessian is
        blockdiag(p_k*(B_k + beta*g_k g_k^T)) - beta*G G^T, where B_k and
        g_k are the per-node level Hessian/gradient and G the assembled
        gradient vector.  With convexify the node blocks get their
        eigenvalues floored at zero and the negative rank-one term is
        dropped, yielding the positive-semidefinite model used by the
        solver's modified-Newton fallback.

        The rank-one term and the unfloored node blocks are symmetric bit
        for bit; a floored block is not, and the caller symmetrises it."""
        if weight == 0.0:
            return
        _, p = memo.get(Z, "leq")
        beta = np.log(10.0) / 10.0
        dlev = memo.get(Z, "dlev")
        blocks = memo.get(Z, "blocks")
        if not convexify:
            G = (p[:, None] * dlev).ravel()
            # the states lead the layout, so the node columns are 0..n_state-1:
            # subtract (G_i*G_j)*(weight*beta) from that leading block in
            # place, a few rows at a time through one small buffer
            scale = weight * beta
            buf = np.empty((min(_RANK_ONE_ROWS, n_state), n_state))
            for a in range(0, n_state, _RANK_ONE_ROWS):
                b = min(a + _RANK_ONE_ROWS, n_state)
                rows = buf[:b - a]
                np.multiply.outer(G[a:b], G, out=rows)
                rows *= scale
                H[a:b, :n_state] -= rows
        blocks = p[:, None, None] * (blocks + beta * (dlev[:, :, None] * dlev[:, None, :]))
        if convexify:
            blocks = _floor_eigenvalues(blocks, np.outer(STATE_SCALE, STATE_SCALE))
        _add_blocks(H, idx, weight * blocks)

    return _Term(lambda Z, U: memo.get(Z, "leq")[0], gradient, add_hessian, idx)


def _consumption_term(tr: "_Transcription") -> _Term:
    """Total fuel consumption, trapezoidal over the nodes."""
    model, atm, weights, idx = tr.model, tr.atm, tr.weights, tr.flow_idx
    scale = np.array([STATE_SCALE[IV], STATE_SCALE[IH], CONTROL_SCALE[IDELTA_X]])

    def flows(X):
        return fuel_flow_arrays(X[..., 0], X[..., 1], X[..., 2], model, atm)

    def local(Z, U):
        return np.stack([Z[..., IV], Z[..., IH], _node_controls(U)[..., IDELTA_X]], axis=-1)

    memo = _PointMemo(flows=flows,
                      dflow=lambda X: _cs_derivative(flows, X),
                      blocks=lambda X: _cs_hessian_blocks(flows, X, scale))

    def gradient(grad, Z, U):
        np.add.at(grad, idx, memo.get(local(Z, U), "dflow") * weights[:, None])

    def add_hessian(H, Z, U, weight, convexify):
        if weight == 0.0:
            return
        blocks = memo.get(local(Z, U), "blocks")
        if convexify:
            blocks = _floor_eigenvalues(blocks, np.outer(scale, scale))
        _add_blocks(H, idx, (weight * weights)[:, None, None] * blocks)

    return _Term(lambda Z, U: np.vecdot(memo.get(local(Z, U), "flows"), weights),
                 gradient, add_hessian, idx)


# the epigraph variable theta alone; its value broadcasts against a stack's thetas
_EPIGRAPH = _Term(lambda Z, U: 0.0, lambda grad, Z, U: None, lambda *args: None,
                  np.zeros((0, 0), dtype=int), theta_coef=1.0)


class _Transcription:
    """Shared state behind the NlpProblem callbacks of one scenario."""

    def __init__(self, scn: "Scenario", fuel_cap: float | None):
        self.scn = scn
        self.grid = grid = scn.grid()
        self.fuel_cap = fuel_cap
        self.model = scn.aircraft
        self.atm = scn.atmosphere
        self.params = scn.engine
        self.weights = _trapezoid_weights(grid)
        n = grid.n_intervals
        plain = VectorLayout(n)
        # local variables of each node, of each interval, and of the fuel-flow integrand
        self.node_idx = np.arange(plain.n_state_vars).reshape(n + 1, 6)
        ctrl_idx = plain.n_state_vars + np.arange(plain.n_control_vars).reshape(n, 3)
        self.interval_idx = np.hstack([self.node_idx[:-1], ctrl_idx])
        self.flow_idx = np.column_stack([self.node_idx[:, IV], self.node_idx[:, IH],
                                         _node_controls(ctrl_idx)[:, IDELTA_X]])
        # the variables each node's path row constrains
        self.path_idx = np.hstack([self.node_idx[:, _PATH_STATES],
                                   _node_controls(ctrl_idx)[:, _PATH_CONTROLS]])

        obs = scn.observers
        fuel_scale = 0.1 * self.model.C_SR * self.model.T0 * grid.duration
        # variant -> (objective term, objective scale, extra inequality rows
        # as (term, upper bound)); built on demand because "fuel" may have
        # no observer
        table = {
            "noise": lambda: (_leq_term(self, obs[0]), 1.0, []),
            "fuel": lambda: (_consumption_term(self), fuel_scale, []),
            "noise_fuel_capped": lambda: (_leq_term(self, obs[0]), 1.0,
                                          [(_consumption_term(self), fuel_cap)]),
            "minimax": lambda: (_EPIGRAPH, 1.0,
                                [(_leq_term(self, o)._replace(theta_coef=-1.0), 0.0)
                                 for o in obs]),
        }
        self.objective_term, self._f_scale, self.extra_rows = table[scn.variant]()
        caps = [upper for term, upper in self.extra_rows if not term.theta_coef]
        if None in caps:
            raise ScenarioError(f"{scn.variant} variant needs a fuel_cap value")
        if fuel_cap is not None and not caps:
            raise ScenarioError(f"fuel_cap is meaningless for variant {scn.variant!r}")
        terms = [self.objective_term] + [term for term, _ in self.extra_rows]
        self.layout = VectorLayout(n, has_epigraph=any(t.theta_coef for t in terms))

        self.n_eq = 6 * n + 7
        self.n_path = self.path_idx.size
        self.n_extra = len(self.extra_rows)
        self.n_ineq = self.n_path + self.n_extra

    def _value(self, term: _Term, Z, U, theta) -> float:
        value = term.value(Z, U)
        return value + term.theta_coef * theta if term.theta_coef else value

    def _gradient(self, term: _Term, Z, U) -> np.ndarray:
        grad = np.zeros(self.layout.n_vars)
        term.gradient(grad, Z, U)
        if term.theta_coef:
            grad[self.layout.epigraph_index] = term.theta_coef
        return grad

    # ----- equalities -------------------------------------------------

    def _step(self, X, **factors):
        """Phi(z_k, u_k) of every interval from its local variables (..., N, 9).

        `factors` are the `rk_step_arrays` keywords `trig`, `path` and `air`
        at X when the caller has them (`_step_groups`)."""
        return rk_step_arrays(X[..., :6], X[..., 6:], self.grid.h_step, self.model, self.atm,
                              **factors)

    def _step_groups(self) -> tuple:
        """The single-column groups of `_step`: sin/cos of alpha and mu
        (`trig`), of gamma and chi (`path`), and `air_at` of h (`air`)."""
        atm = self.atm
        return (_trig_group("trig", 6 + IALPHA), _trig_group("trig", 6 + IMU),
                _trig_group("path", IGAMMA), _trig_group("path", ICHI),
                _Group("air", (IH,), lambda X: air_at(X[..., IH], atm)))

    def equalities(self, w: np.ndarray) -> np.ndarray:
        Z, U, _ = self.layout.unpack(w)
        defects = Z[..., 1:, :] - self._step(np.concatenate([Z[..., :-1, :], U], axis=-1))
        scn = self.scn
        target = np.array([scn.x0, scn.y0, scn.h0, scn.V0, scn.xf, scn.yf, scn.hf])
        boundary = Z[(...,) + _BOUNDARY] - target
        return np.concatenate([defects.reshape(boundary.shape[:-1] + (-1,)), boundary],
                              axis=-1)

    def _defect_blocks(self, Z, U) -> np.ndarray:
        """D_k = dPhi/d(z_k, u_k) of every interval, (N, 6, 9): defect row
        block k is -D_k on `interval_idx[k]` and the identity on z_{k+1}."""
        # Phi is the identity along x and y; D's other x and y entries are
        # +0.0, so -D holds -0.0 there, as a complex step along them gives
        D = np.zeros((self.grid.n_intervals, 6, 9))
        D[..., _STEP_NONLINEAR] = _cs_derivative(self._step, np.hstack([Z[:-1], U]),
                                                 along=_STEP_NONLINEAR)
        D[:, IX, IX] = D[:, IY, IY] = 1.0
        return D

    def equalities_jacobian(self, w: np.ndarray) -> np.ndarray:
        Z, U, _ = self.layout.unpack(w)
        n = self.grid.n_intervals
        D = self._defect_blocks(Z, U)
        J = np.zeros((self.n_eq, self.layout.n_vars))
        rows = np.arange(6 * n).reshape(n, 6)
        J[rows[:, :, None], self.interval_idx[:, None, :]] = -D
        J[rows, self.node_idx[1:]] = 1.0
        J[6 * n + np.arange(7), self.node_idx[_BOUNDARY]] = 1.0
        return J

    def eq_scale(self) -> np.ndarray:
        defect = np.tile(STATE_SCALE, self.grid.n_intervals)
        boundary = STATE_SCALE[_BOUNDARY[1]]
        return np.concatenate([defect, boundary])

    # ----- inequalities -----------------------------------------------

    def inequalities(self, w: np.ndarray) -> np.ndarray:
        Z, U, theta = self.layout.unpack(w)
        extra = np.array([self._value(term, Z, U, theta) for term, _ in self.extra_rows],
                         dtype=float)
        # (n_extra,) or (n_extra, K), rows last
        return np.concatenate([w[..., self.path_idx.ravel()],
                               extra.T.reshape(w.shape[:-1] + (self.n_extra,))], axis=-1)

    def inequalities_jacobian(self, w: np.ndarray) -> np.ndarray:
        Z, U, _ = self.layout.unpack(w)
        J = np.zeros((self.n_ineq, self.layout.n_vars))
        J[np.arange(self.n_path), self.path_idx.ravel()] = 1.0
        for i, (term, _) in enumerate(self.extra_rows):
            J[self.n_path + i] = self._gradient(term, Z, U)
        return J

    def jacobian_transpose_product(self, w: np.ndarray, eq_mult: np.ndarray,
                                   ineq_mult: np.ndarray) -> np.ndarray:
        """J_eq^T eq_mult + J_in^T ineq_mult, physical-row multipliers.

        Summed row block by row block, in O(N), with no (rows, n_vars)
        array: defect block k adds -D_k^T mu_k on `interval_idx[k]` and
        mu_k on z_{k+1}, a boundary row its multiplier on its state, a path
        row its multiplier on its variable (the last node repeats control
        N-1, so those two add up) and an extra row its multiplier times its
        gradient.  Equal to the dense product to rounding.
        """
        Z, U, _ = self.layout.unpack(w)
        n = self.grid.n_intervals
        mu = np.asarray(eq_mult[:6 * n], dtype=float).reshape(n, 6)
        g = np.zeros(self.layout.n_vars)
        # interval k's columns are z_k and u_k: no two intervals share one
        g[self.interval_idx] = -np.einsum("ki,kij->kj", mu, self._defect_blocks(Z, U))
        g[self.node_idx[1:]] += mu
        g[self.node_idx[_BOUNDARY]] += eq_mult[6 * n:]
        np.add.at(g, self.path_idx, np.reshape(ineq_mult[:self.n_path], self.path_idx.shape))
        for i, (term, _) in enumerate(self.extra_rows):
            g += ineq_mult[self.n_path + i] * self._gradient(term, Z, U)
        return g

    def ineq_bounds(self):
        lo = np.concatenate([np.tile(self.scn.bounds.lower, self.grid.n_intervals + 1),
                             np.full(self.n_extra, -np.inf)])
        hi = np.concatenate([np.tile(self.scn.bounds.upper, self.grid.n_intervals + 1),
                             np.array([upper for _, upper in self.extra_rows], dtype=float)])
        return lo, hi

    def ineq_scale(self) -> np.ndarray:
        # extra rows keep unit scale: the fuel cap and epigraph gaps are
        # meaningful in absolute kg / dB
        return np.concatenate([np.tile(PATH_SCALE, self.grid.n_intervals + 1),
                               np.ones(self.n_extra)])

    # ----- objective ---------------------------------------------------

    def objective(self, w: np.ndarray) -> float:
        Z, U, theta = self.layout.unpack(w)
        return self._value(self.objective_term, Z, U, theta)

    def objective_gradient(self, w: np.ndarray) -> np.ndarray:
        Z, U, _ = self.layout.unpack(w)
        return self._gradient(self.objective_term, Z, U)

    # ----- second derivatives -------------------------------------------

    def lagrangian_hessian(self, w: np.ndarray, sigma_f: float,
                           eq_mult: np.ndarray, ineq_mult: np.ndarray,
                           convexify: bool = False) -> np.ndarray:
        """Hessian of sigma_f*objective + eq_mult.c_eq + ineq_mult.c_ineq.

        Boundary and path rows are linear and contribute nothing; the
        epigraph variable is linear everywhere.  A defect row
        z_{k+1} - Phi(z_k, u_k) contributes minus the Hessian of the
        weighted step map, one 9x9 block per interval.  With convexify the
        objective and extra-row blocks get their spectra floored at zero
        (the solver's modified-Newton model).

        The result is symmetric bit for bit.  Every block is symmetrised
        where it is differenced, and the rank-one Leq term is an outer
        product, so the exact Hessian needs no further step.  A floored
        block is symmetric only to rounding: with convexify the node
        blocks of the weighted terms are replaced by their symmetric
        parts, which is what 0.5*(H + H.T) would do, without a full copy.
        Returns a new array on every call.
        """
        Z, U, _ = self.layout.unpack(w)
        n = self.grid.n_intervals
        mu = np.asarray(eq_mult[:6 * n]).reshape(n, 6)
        # the defect blocks come first, so the step stencil's complex
        # working set is freed before H is allocated
        defect = (_cs_hessian_blocks(self._step, np.hstack([Z[:-1], U]), _INTERVAL_SCALE,
                                     mu, _STEP_NONLINEAR, self._step_groups())
                  if np.any(mu) else None)
        H = np.zeros((self.layout.n_vars, self.layout.n_vars))
        weighted = [(self.objective_term, sigma_f)] + [
            (term, float(ineq_mult[self.n_path + i]))
            for i, (term, _) in enumerate(self.extra_rows)]
        # blocks overlap, so this order (objective, defects, extra rows)
        # fixes the rounding of the sums
        self.objective_term.add_hessian(H, Z, U, sigma_f, convexify)
        if defect is not None:
            _add_blocks(H, self.interval_idx, -defect)
        for term, weight in weighted[1:]:
            term.add_hessian(H, Z, U, weight, convexify)
        if convexify:
            for term, weight in weighted:
                if weight != 0.0:
                    _symmetrise_blocks(H, term.columns)
        return H

    # ----- variable bounds ---------------------------------------------

    def variable_bounds(self):
        lo = np.full(self.layout.n_vars, -np.inf)
        hi = np.full(self.layout.n_vars, np.inf)
        # mirror the path bounds onto the variable box: keeps every inner
        # iterate inside the model domain (V > 0, cos(gamma) > 0, M < 1)
        lo[self.path_idx] = self.scn.bounds.lower
        hi[self.path_idx] = self.scn.bounds.upper
        lo[self.node_idx[:, IH]] = 0.0
        hi[self.node_idx[:, IH]] = min(max(_H_CEILING, 1.5 * max(self.scn.h0, self.scn.hf)),
                                       0.9 * self.atm.max_height)
        return lo, hi

    def f_scale(self) -> float:
        return self._f_scale


def assemble(scn: "Scenario", fuel_cap: float | None = None) -> NlpProblem:
    """Build the NLP for one scenario variant.

    `fuel_cap` is the absolute consumption bound in kg and is required
    for the noise_fuel_capped variant (the caller computes it from the
    fuel-reference trajectory).
    """
    tr = _Transcription(scn, fuel_cap)
    lo, hi = tr.variable_bounds()
    ineq_lo, ineq_hi = tr.ineq_bounds()
    problem = NlpProblem(
        n_vars=tr.layout.n_vars,
        objective=tr.objective,
        objective_gradient=tr.objective_gradient,
        lower=lo,
        upper=hi,
        n_eq=tr.n_eq,
        equalities=tr.equalities,
        equalities_jacobian=tr.equalities_jacobian,
        n_ineq=tr.n_ineq,
        inequalities=tr.inequalities,
        inequalities_jacobian=tr.inequalities_jacobian,
        jacobian_transpose_product=tr.jacobian_transpose_product,
        ineq_lower=ineq_lo,
        ineq_upper=ineq_hi,
        x_scale=tr.layout.variable_scale(),
        eq_scale=tr.eq_scale(),
        ineq_scale=tr.ineq_scale(),
        f_scale=tr.f_scale(),
        lagrangian_hessian=tr.lagrangian_hessian,
    )
    problem.meta = {"transcription": tr}
    return problem


def internode_violation(traj: noise.Trajectory, bounds_lower, bounds_upper,
                        model: AircraftModel, atm: Atmosphere = ISA,
                        refine: int = 10) -> float:
    """Max scaled path-constraint violation between grid nodes.

    Each interval is re-simulated from its own node state with `refine`
    substeps under the interval's control; the path components are
    checked at every substate.  Node values themselves are the NLP's
    responsibility and are not re-reported here.
    """
    lo = np.asarray(bounds_lower, dtype=float)
    hi = np.asarray(bounds_upper, dtype=float)
    h_sub = traj.dt / refine
    Z = traj.states[:-1].copy()
    U = traj.controls
    worst = 0.0
    for _ in range(refine):
        Z = rk_step_arrays(Z, U, h_sub, model, atm)
        rows = np.hstack([Z[:, _PATH_STATES], U[:, _PATH_CONTROLS]])
        over = (rows - hi) / PATH_SCALE
        under = (lo - rows) / PATH_SCALE
        worst = max(worst, float(np.max(np.maximum(over, under), initial=0.0)))
    return worst
