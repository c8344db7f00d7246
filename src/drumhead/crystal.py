"""Zero-temperature equilibrium configurations of a single-plane ion crystal.

The crystal is the minimum of the rotating-frame potential

    V = sum_j 1/2 M w1^2 (z_j^2 + beta r_j^2)
      + sum_j 1/2 M w1^2 delta_wall (x_j^2 - y_j^2)
      + sum_{j<k} k_e q^2 / d_jk

Minimization runs in dimensionless units (length l0 = (k_e q^2 / M w1^2)^(1/3),
energy M w1^2 l0^2) so the tolerances are scale-free: an L-BFGS descent in compact
form to max |g| <= 1e-4, then a regularized Newton-CG polish on the analytic Hessian,
whose CG products are float32: far from the minimum on a Hessian built in float32, near
it in rounds of iterative refinement, each closed by a float64 residual. Both use numpy
ufuncs and einsum, never BLAS, at either precision; the one LAPACK call only tells
whether K (below) is positive definite, so every lattice has the same bytes under any
thread count.

At z = 0 every z force vanishes and the z block of the Hessian decouples from
the in-plane problem, so the solve first runs over (x, y) alone. The z block
at the in-plane minimum, K_jk = 1/d_jk^3 and K_jj = 1 - sum_k 1/d_jk^3 (the
transverse stiffness `modes` diagonalizes), is the stability check: when K is
positive definite (its Cholesky factorization succeeds) the crystal is a single
plane and z = 0 exactly. Otherwise the plane is a saddle, and the solve restarts in 3D
from the in-plane positions given a seeded random z. The polish runs once, in
the space actually solved. An RNG built from the integer seed jitters the
starting hex-disk patch and draws that z, so (params, N, seed) fixes the result.

Every O(N^2) pass reads its pair geometry from `_pair_blocks`, 64 rows at a time, in
one reused scratch. The energy-gradient kernel takes rows [a, a + 64) against columns
[a, N), each pair once, as does `lattice_stats`; the Hessian and `z_stiffness` take whole
rows, so each row sum keeps its order. The only (N, N) arrays are the Hessian and K returned.
The kernel's Coulomb sum is the one coincident-ion test, so `require_consistent` judges a
lattice file in one pair pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .constants import COULOMB_K
from .errors import CoincidentIonsError, EquilibriumNotConverged
from .trap import TrapParams, beta

# Scaled-unit convergence targets. 1e-9 is the bar for the `converged` flag;
# the polish reaches ~1e-15 at N = 190 and 345, and 7e-18 to 9e-10 at N = 7-20.
_SCALED_GTOL = 1e-9
_POLISH_TARGET = 5e-14
# The relax hands over to the polish at max |g| <= _HANDOVER_GTOL; while |g_perp| >
# _FLOAT32_GNORM the polish builds its Hessian in float32, below it in float64 and refines
# float32 CG rounds against float64 residuals (`_newton_step`).
_HANDOVER_GTOL = 1e-4
_FLOAT32_GNORM = 1e-6
# Further bounds for the `converged` flag: residual force in newtons, and the
# predicted energy decrease of one more Newton step relative to the energy.
FORCE_TOL = 1e-14
ENERGY_RTOL = 1e-12
# Standard deviation (scaled units, ~1 % of a spacing) of the seeded random z
# push that leaves an unstable plane.
_BUCKLE_PUSH = 0.02
# Iteration budgets: L-BFGS steps per relax stage, Newton polish steps. From the
# hand-over the polish takes 3-21 steps at N = 19-345, but up to ~180 at N = 13 and 20.
_MAX_RELAX_STEPS = 100_000
_MAX_POLISH_STEPS = 400
# Rows per block of every pairwise pass (`_pair_blocks`).
_ROW_BLOCK = 64
# Most ions in a crystal. A planar near Newton step holds the float64 Hessian and its float32
# copy, 48 N^2 bytes (48.2 MB traced at N = 1000), 1.2 GB at N = 5000, and a buckled one
# 108 N^2, 2.7 GB: within 8 GB. A far step holds only a float32 Hessian.
MAX_IONS = 5000


def length_scale(params: TrapParams) -> float:
    """Natural length l0 = (k_e q^2 / (M w1^2))^(1/3) of the trap-Coulomb balance."""
    return (COULOMB_K * params.charge**2 / (params.mass * params.omega_1**2)) ** (1.0 / 3.0)


@dataclass(frozen=True)
class SolveStats:
    """What one `solve_equilibrium` did, counted by the solver as it ran. Newton solves count the
    certificate's too; a relax stage ends on "the hand-over" (max |g| <= 1e-4), "an energy stall"
    or "the budget", the polish on "the gradient target", "slow progress", "a rejected step" or
    "the budget"."""

    kernel_calls: int = 0           # energy-gradient evaluations, in every stage
    lbfgs_steps: int = 0            # L-BFGS steps taken, over both relax stages
    relax_ended: tuple[str, ...] = ()  # the rule that ended each relax stage, 2D then 3D
    newton_steps: int = 0           # Newton steps of the polish
    descent_steps: int = 0          # steepest-descent steps kept in place of rejected Newton steps
    newton_far: int = 0             # Newton solves on a float32 Hessian (|g_perp| above 1e-6)
    newton_near: int = 0            # Newton solves on a float64 Hessian
    cg_float32: int = 0             # CG products with a float32 Hessian
    cg_float64: int = 0             # CG products with a float64 Hessian
    cg_capped: int = 0              # CG runs stopped on their cap of 2N (3N) products above tolerance
    near_rounds: int = 0            # float32 CG rounds of near steps, each closed by a float64 residual
    switched_to_float64: bool = False  # a round failed: later near steps take float64 products
    polish_ended: str | None = None  # the rule that ended the polish


@dataclass(frozen=True)
class CrystalLattice:
    """A relaxed ion configuration in the rotating frame.

    positions           (N, 3) array, meters
    converged           residual force and energy-change tolerances were met
    residual_force_max  max |gradient| component at the solution, newtons
    planar              the z block at the in-plane minimum is positive definite;
                        the solve then keeps z = 0 exactly
    energy              total potential energy, joules
    energy_trace        energies of accepted minimizer steps (monotone audit trail)
    solve_stats         what the solve that made it did (`SolveStats`); None for a lattice
                        read from a file
    """

    params: TrapParams
    positions: np.ndarray
    converged: bool
    residual_force_max: float
    planar: bool
    energy: float
    seed: int
    energy_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    solve_stats: SolveStats | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "converged", bool(self.converged))
        object.__setattr__(self, "planar", bool(self.planar))
        object.__setattr__(self, "residual_force_max", float(self.residual_force_max))
        object.__setattr__(self, "energy", float(self.energy))

    @property
    def n_ions(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class LatticeStats:
    mean_spacing: float | None  # mean nearest-neighbor distance, m (None for N=1)
    diameter: float             # max pairwise distance, m


# ---------------------------------------------------------------------------
# scaled-unit energy / gradient / Hessian


def _pair_blocks(pos: np.ndarray, upper: bool, spare: int = 0):
    """Yield (a, diffs, d2, extra) for each block [a, a + m) of `_ROW_BLOCK` rows of points (N, D):
    the D separations r_j - r_k and d_jk^2 against columns [a, N) if `upper`, else [0, N), with +inf
    where j = k, and `spare` more planes; views into one scratch that the next block overwrites."""
    n, dim = pos.shape
    planes = dim + 1 + spare
    scratch = np.empty(planes * min(n, _ROW_BLOCK) * n)
    coords = pos.T
    for a in range(0, n, _ROW_BLOCK):
        m, c0 = min(_ROW_BLOCK, n - a), a if upper else 0
        block = scratch[: planes * m * (n - c0)].reshape(planes, m, n - c0)
        diffs, d2 = block[:dim], block[dim]
        # r_k copied into every row, then r_j - r_k in place: the same single subtraction per
        # element, but 25 against 30-35 us per 64 x 345 plane for numpy's broadcast loop
        np.copyto(diffs, coords[:, None, c0:])
        np.subtract(coords[:, a : a + m, None], diffs, out=diffs)
        np.einsum("cjk,cjk->jk", diffs, diffs, out=d2)
        d2.reshape(-1)[a - c0 :: n - c0 + 1] = np.inf  # j = k
        yield a, diffs, d2, block[dim + 1 :]


def z_stiffness(points: np.ndarray, coupling: float = 1.0, axial: float = 1.0) -> np.ndarray:
    """Out-of-plane stiffness of points (N, D) lying in the plane z = 0.

    K_jk = coupling / d_jk^3 and K_jj = axial - sum_k K_jk; in scaled units both constants are 1.
    """
    stiffness = np.empty((len(points), len(points)))
    for a, _, d2, _ in _pair_blocks(points, upper=False):
        rows = stiffness[a : a + len(d2)]
        np.multiply(coupling, np.power(d2, -1.5, out=rows), out=rows)
        np.fill_diagonal(rows[:, a:], axial - rows.sum(axis=1))
    return stiffness


def _trap_stiffness(params: TrapParams) -> np.ndarray:
    """Scaled trap stiffness along x, y and z: (beta + delta_wall, beta - delta_wall, 1)."""
    b = beta(params)
    return np.array([b + params.delta_wall, b - params.delta_wall, 1.0])


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("i,i", a, b))  # np.dot would hand the sum to BLAS


def _energy_gradient_scaled(coords: np.ndarray, trap: np.ndarray):
    # `trap` holds the per-axis trap stiffness; its length D is the points' dimension.
    dim = len(trap)
    pos = coords.reshape(-1, dim)
    force, coulomb = np.zeros((dim, len(pos))), 0.0  # force: sum_k (r_j - r_k) / d_jk^3
    for a, diffs, d2, (inv_d,) in _pair_blocks(pos, upper=True, spare=1):
        m = len(d2)
        np.divide(1.0, np.sqrt(d2, out=inv_d), out=inv_d)
        coulomb += 0.5 * np.sum(inv_d[..., :m]) + np.sum(inv_d[..., m:])
        # direct reductions; rowsum(1/d^3) * r_j - (1/d^3) @ r cancels worse
        np.multiply(diffs, np.divide(inv_d, d2, out=d2), out=diffs)
        force[:, a : a + m] += diffs.sum(axis=2)
        force[:, a + m :] -= diffs[..., m:].sum(axis=1)
    if coulomb == math.inf:  # with finite coordinates, exactly when some d^2 is 0 (underflow included)
        raise CoincidentIonsError("two ions coincide; Coulomb energy diverges")
    energy = 0.5 * sum(k * _dot(c, c) for k, c in zip(trap, pos.T)) + coulomb
    return energy, (pos * trap - force.T).ravel()


def _hessian_scaled(coords: np.ndarray, trap: np.ndarray, dtype=np.float64) -> np.ndarray:
    # each element is formed in float64 and rounded once into `dtype`: the float64 Hessian, cast
    dim = len(trap)
    pos = coords.reshape(-1, dim)
    n = len(pos)
    hess = np.empty((n, dim, n, dim), dtype=dtype)
    for a, diffs, d2, (inv_d3, three_inv_d5, block) in _pair_blocks(pos, upper=False, spare=3):
        rows = np.arange(a, a + len(d2))
        np.power(d2, -1.5, out=inv_d3)
        np.multiply(3.0, np.divide(inv_d3, d2, out=three_inv_d5), out=three_inv_d5)
        for u in range(dim):
            for v in range(u, dim):
                # d^2(1/d)/dr_ju dr_kv = delta_uv / d^3 - 3 r_u r_v / d^5 (j != k)
                np.multiply(three_inv_d5, diffs[u], out=block)
                block *= diffs[v]
                np.subtract(inv_d3 if u == v else 0.0, block, out=block)
                hess[rows, u, :, v] = hess[rows, v, :, u] = block
                hess[rows, u, rows, v] = hess[rows, v, rows, u] = (u == v) * trap[u] - block.sum(axis=1)
    return hess.reshape(dim * n, dim * n)


# ---------------------------------------------------------------------------
# SI-facing energy surface


def _outside_kernel(positions: np.ndarray, params: TrapParams, dim: int = 3):
    """Scaled energy and gradient over the first `dim` axes at positions (m) from outside the solver:
    coincident ions raise, and nothing warns (coordinates above about 1.5e303 m overflow to nan)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coords = np.asarray(positions, dtype=float).reshape(-1, 3)[:, :dim] / length_scale(params)
        return _energy_gradient_scaled(coords.ravel(), _trap_stiffness(params)[:dim])


def total_potential(positions: np.ndarray, params: TrapParams) -> float:
    """Total rotating-frame potential energy (J) of an arbitrary configuration; raises
    CoincidentIonsError when any two ions share a position."""
    return _outside_kernel(positions, params)[0] * (params.mass * params.omega_1**2 * length_scale(params) ** 2)


def potential_gradient(positions: np.ndarray, params: TrapParams) -> np.ndarray:
    """Gradient of total_potential, shape (N, 3), newtons; raises as total_potential does."""
    force_unit = params.mass * params.omega_1**2 * length_scale(params)
    return _outside_kernel(positions, params)[1].reshape(-1, 3) * force_unit


def scaled_gradient_max(lattice: CrystalLattice) -> float:
    """max |g| (scaled units, in the plane if planar) at the lattice's positions under its params."""
    return float(np.max(np.abs(_outside_kernel(lattice.positions, lattice.params, 2 if lattice.planar else 3)[1])))


def require_consistent(lattice: CrystalLattice) -> None:
    """Refuse a lattice read from a file that contradicts its flags or params: ValueError for `planar`
    with an ion off z = 0, or `converged` with a stored residual above FORCE_TOL or a max |g| not
    at most 1e-9 (nan included); CoincidentIonsError, converged or not, from the one force pass."""
    if lattice.planar and np.any(lattice.positions[:, 2] != 0.0):
        raise ValueError("lattice file: planar is true, but an ion lies off z = 0")
    if lattice.converged and not lattice.residual_force_max <= FORCE_TOL:
        raise ValueError(f"lattice file: converged is true, but residual_force_max_N "
                         f"{lattice.residual_force_max!r} exceeds {FORCE_TOL!r} N")
    try:
        gmax = scaled_gradient_max(lattice)
    except CoincidentIonsError:
        raise CoincidentIonsError("lattice file: two ions share a position") from None
    if lattice.converged and not gmax <= _SCALED_GTOL:
        raise ValueError(f"lattice file: converged is true, but its positions carry max |g| {gmax:.3g} "
                         f"(scaled units) under its params, above {_SCALED_GTOL!r}")


# ---------------------------------------------------------------------------
# seeding


def hex_disk_seed(n_ions: int, spacing: float) -> np.ndarray:
    """Triangular-lattice disk patch of n_ions sites (z = 0), deterministic."""
    m = int(math.ceil(math.sqrt(n_ions))) + 2
    i, j = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
    x = spacing * (i + 0.5 * j).ravel()
    y = spacing * (math.sqrt(3.0) / 2.0) * j.ravel()
    r = np.hypot(x, y)
    order = np.lexsort((np.arctan2(y, x), np.round(r / spacing * 1e9)))
    pts = np.zeros((n_ions, 3))
    pts[:, 0] = x[order][:n_ions]
    pts[:, 1] = y[order][:n_ions]
    return pts


def _seed_scaled(n_ions: int, b: float, rng: np.random.Generator) -> np.ndarray:
    # Continuum radius of a cold disk in a quadratic well, R^3 = 3*pi*N/(2*beta)
    # in l0 units; hex patch of that radius fixes the seed spacing. Returns (x, y).
    radius = (3.0 * math.pi * n_ions / (2.0 * b)) ** (1.0 / 3.0)
    spacing = radius * math.sqrt(2.0 * math.pi / (math.sqrt(3.0) * n_ions))
    xy = hex_disk_seed(n_ions, spacing)[:, :2]
    # deterministic jitter breaks the lattice symmetry
    return xy + 1e-3 * spacing * rng.standard_normal(xy.shape)


# ---------------------------------------------------------------------------
# solver


class _SolveLog:
    """One solve's running record: the energies of accepted steps (`trace`) and the fields of
    `SolveStats`, which `_relax`, `_polish`, `_newton_step`, `_cg` and `_descend` update as they
    run. Its `switched_to_float64` is also the solve's switch to float64 near steps."""

    def __init__(self):
        self.trace: list[float] = []
        for stat in fields(SolveStats):
            setattr(self, stat.name, stat.default)

    def energy_gradient(self, x: np.ndarray, trap: np.ndarray):
        self.kernel_calls += 1
        return _energy_gradient_scaled(x, trap)

    def stats(self) -> SolveStats:
        return SolveStats(**{stat.name: getattr(self, stat.name) for stat in fields(SolveStats)})


class _InverseHessian:
    """L-BFGS inverse Hessian of the last `memory` pairs (s, y) in compact form (Byrd, Nocedal &
    Schnabel, Math. Prog. 63, 129 (1994)), which is the two-loop recursion's H:

        H = gamma I + [S Y] [[R^-T (D + gamma Y^T Y) R^-1, -gamma R^-T], [-gamma R^-1, 0]] [S Y]^T

    with R the upper triangle of S^T Y over the pairs in the order stored and D its diagonal.
    The pairs sit in a ring of memory + 1 slots, filled in turn from slot 0, so the `stored` pairs
    are the slots before `next`, cyclically; R^-1, D and Y^T Y are indexed by slot, and R^-1 is
    zero on every row and column of a slot not in use, which masks that slot everywhere else.
    Dropping the oldest pair zeros its row and column (the inverse of a trailing block of a
    triangle is the same block of its inverse); storing one borders R^-1 with one column. A
    product H g costs two einsum passes over the ring, and storing a pair one more.
    """

    def __init__(self, n: int, memory: int, gamma: float):
        self.ring = np.zeros((memory + 1, 2, n))  # (s, y) per slot
        self.r_inv = np.zeros((memory + 1, memory + 1))
        self.d = np.zeros(memory + 1)
        self.yy = np.zeros((memory + 1, memory + 1))
        self.memory, self.gamma = memory, gamma
        self.clear()

    def clear(self) -> None:
        self.r_inv[:] = 0.0
        self.stored = self.next = 0

    def add(self, s: np.ndarray, y: np.ndarray) -> None:
        """Store (s, y) unless s.y <= 0, dropping the oldest pair when memory is full; the
        scaling gamma becomes s.y / y.y."""
        slot = self.next
        self.ring[slot, 0], self.ring[slot, 1] = s, y
        dots = np.einsum("pcj,j->pc", self.ring, self.ring[slot, 1])  # (s_i.y, y_i.y) per slot
        sy, yy = dots[slot]
        if not sy > 0.0:
            return
        self.next = (slot + 1) % len(self.ring)
        if self.stored == self.memory:
            self.r_inv[self.next] = self.r_inv[:, self.next] = 0.0  # the oldest pair
        else:
            self.stored += 1
        # R gains the column s_i.y (zero R^-1 columns mask the slots not in use) and sy below it
        self.r_inv[:, slot] = np.einsum("ij,j->i", self.r_inv, dots[:, 0]) / -sy
        self.r_inv[slot, slot] = 1.0 / sy
        self.d[slot] = sy
        self.yy[slot] = self.yy[:, slot] = dots[:, 1]
        self.gamma = sy / yy

    def times(self, g: np.ndarray) -> np.ndarray:
        """H g."""
        if not self.stored:
            return self.gamma * g
        sg, yg = np.einsum("pcj,j->cp", self.ring, g)
        u = np.einsum("ij,j->i", self.r_inv, sg)
        coef = np.empty((len(u), 2))
        v = self.d * u + self.gamma * (np.einsum("ij,j->i", self.yy, u) - yg)
        np.einsum("ji,j->i", self.r_inv, v, out=coef[:, 0])
        np.multiply(-self.gamma, u, out=coef[:, 1])
        hg = np.einsum("pc,pcj->j", coef, self.ring)
        hg += self.gamma * g
        return hg


def _relax(x: np.ndarray, trap: np.ndarray, log: _SolveLog) -> np.ndarray:
    """L-BFGS descent (Liu & Nocedal, Math. Prog. 45, 503 (1989)) in the space of
    `trap`'s dimension, with Armijo backtracking; appends accepted energies to `log.trace`.

    The direction comes from the compact form of the last 25 pairs (`_InverseHessian`).
    Pairs with s.y <= 0 are skipped; a non-descent direction restarts from steepest
    descent. Stops at max |g| <= `_HANDOVER_GTOL` (1e-4), where a few Newton steps of the
    polish replace the L-BFGS tail, or at a step lowering the energy by at most 1e-17
    relative (below rounding a step can pass Armijo), which is not taken. The rule that
    ended it goes to `log.relax_ended`.
    """
    energy, grad = log.energy_gradient(x, trap)
    # initial inverse Hessian gamma * I: a unit first step, then s.y / y.y of the last pair
    inverse = _InverseHessian(len(x), 25, 1.0 / max(math.sqrt(_dot(grad, grad)), 1e-300))
    rule = "the budget"
    for _ in range(_MAX_RELAX_STEPS):
        if np.max(np.abs(grad)) <= _HANDOVER_GTOL:
            rule = "the hand-over"
            break
        step = -inverse.times(grad)
        slope = _dot(grad, step)
        if not slope < 0.0:
            inverse.clear()
            step, slope = -inverse.gamma * grad, -inverse.gamma * _dot(grad, grad)
        for _ in range(60):
            x_try = x + step
            e_try, g_try = log.energy_gradient(x_try, trap)
            if e_try <= energy + 1e-4 * slope:
                break
            step, slope = 0.5 * step, 0.5 * slope
        if energy - e_try <= 1e-17 * max(abs(energy), abs(e_try), 1.0):
            rule = "an energy stall"
            break
        inverse.add(x_try - x, g_try - grad)
        x, energy, grad = x_try, e_try, g_try
        log.lbfgs_steps += 1
        # a 3D restart may begin above the plane's energy; the trace resumes below it
        if not log.trace or energy < log.trace[-1]:
            log.trace.append(energy)
    log.relax_ended += (rule,)
    return x


def _rotation_and_rhs(x: np.ndarray, trap: np.ndarray, grad: np.ndarray):
    """Unit rotation r about z at x (zero with a wall) and -g_perp = (g.r) r - g."""
    pos = x.reshape(-1, len(trap))
    rot = np.zeros_like(pos)
    if trap[0] == trap[1]:
        rot[:, 0], rot[:, 1] = -pos[:, 1], pos[:, 0]
    rot = rot.ravel() / math.sqrt(max(_dot(rot.ravel(), rot.ravel()), 1e-300))
    return rot, _dot(grad, rot) * rot - grad


def _shifted_product(hess: np.ndarray, rot: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(hess + r r^T) d, the hess part an einsum in hess's dtype (d rounded once into it): no BLAS."""
    return np.einsum("ij,j->i", hess, d.astype(hess.dtype, copy=False)) + _dot(rot, d) * rot


def _cg(hess: np.ndarray, rot: np.ndarray, rhs: np.ndarray, tol: float, log: _SolveLog):
    """Truncated CG (Steihaug; Nocedal & Wright, section 7.1) on (hess + r r^T) s = rhs from s = 0:
    s at the first residual <= tol and True, or, on non-positive curvature, the step so far (or
    the first direction) and False. The CG vectors and sums are float64 whatever hess's dtype.
    Its products count in `log` by hess's dtype. After len(rhs) products it stops and returns s
    and True whatever the residual, and a run that stops there above tol counts in
    `log.cg_capped`."""
    step, resid, direction = np.zeros_like(rhs), rhs, rhs
    rr, products, curved = _dot(rhs, rhs), 0, True
    while math.sqrt(rr) > tol and products < len(rhs):
        h_dir = _shifted_product(hess, rot, direction)
        products += 1
        curvature = _dot(direction, h_dir)
        if not curvature > 0.0:
            curved = False
            break
        alpha = rr / curvature
        step += alpha * direction
        resid = resid - alpha * h_dir
        rr, rr_prev = _dot(resid, resid), rr
        direction = resid + (rr / rr_prev) * direction
    if hess.dtype == np.float32:
        log.cg_float32 += products
    else:
        log.cg_float64 += products
    if not curved:
        return (step if step.any() else direction.copy()), False
    log.cg_capped += math.sqrt(rr) > tol
    return step, True


def _newton_step(x: np.ndarray, trap: np.ndarray, grad: np.ndarray, log: _SolveLog):
    """Step s solving (H + |g| I + r r^T) s = -g at x, and its predicted decrease 1/2 |g.s|.

    g and s are orthogonal to r, the unit rotation about z (zero with a wall). CG (`_cg`)
    stops at a residual of min(0.1, sqrt|g|) |g|, raised to 0.1 `_POLISH_TARGET` where that
    is smaller (below the ~1e-15 rounding of the gradient it solves against) but never above
    0.1 |g|, so a solve at a gradient below the floor still takes a CG step.

    While |g| > `_FLOAT32_GNORM` the shifted Hessian is built in float32 and CG takes float32
    products: their error, about 1e-7 relative, lies far below the residual asked for there
    (>= 1e-3 relative). Below it the shifted Hessian is built in float64 and cast once to
    float32, and the step is solved by mixed-precision iterative refinement (Moler, J. ACM 14,
    316 (1967)): each round runs CG with float32 products on the residual r to 1e-3 |r| (or the
    tolerance), adds its step, and recomputes r = -g - (H + |g| I + r r^T) s with one float64
    product, until |r| meets the tolerance. A round that ends on non-positive curvature, or
    leaves |r| above both the tolerance and half its previous value, is dropped: CG with
    float64 products finishes the step from r, and `log.switched_to_float64` turns True. A
    near step of a solve so switched takes float64 products from the start. The step counts in
    `log` as far or near, with its rounds.
    """
    rot, rhs = _rotation_and_rhs(x, trap, grad)
    gnorm = math.sqrt(_dot(rhs, rhs))
    tol = min(0.1 * gnorm, max(math.sqrt(gnorm) * gnorm, 0.1 * _POLISH_TARGET))
    far = gnorm > _FLOAT32_GNORM
    hess = _hessian_scaled(x, trap, np.float32 if far else np.float64)
    hess[np.diag_indices_from(hess)] += gnorm
    if far:
        log.newton_far += 1
        step = _cg(hess, rot, rhs, tol, log)[0]
    else:
        log.newton_near += 1
        step, resid, norm = np.zeros_like(rhs), rhs, gnorm
        hess32 = None if log.switched_to_float64 else hess.astype(np.float32)
        while not log.switched_to_float64 and norm > tol:
            log.near_rounds += 1
            delta, curved = _cg(hess32, rot, resid, max(tol, 1e-3 * norm), log)
            trial = step + delta
            trial_resid = rhs - _shifted_product(hess, rot, trial)
            trial_norm = math.sqrt(_dot(trial_resid, trial_resid))
            if curved and (trial_norm <= tol or trial_norm <= 0.5 * norm):
                step, resid, norm = trial, trial_resid, trial_norm
            else:
                log.switched_to_float64 = True
        if norm > tol:
            step += _cg(hess, rot, resid, tol, log)[0]
    step -= _dot(step, rot) * rot
    return step, 0.5 * abs(_dot(rhs, step))


def _descend(x: np.ndarray, trap: np.ndarray, grad: np.ndarray, energy: float, gmax: float,
             log: _SolveLog):
    """The projected steepest-descent step -g_perp, halved up to 40 times: the first point
    (x, energy, gradient, max |gradient|) whose energy does not rise and whose max |g| falls,
    or None."""
    step = _rotation_and_rhs(x, trap, grad)[1]
    for _ in range(40):
        x_try = x + step
        e_try, g_try = log.energy_gradient(x_try, trap)
        if e_try <= energy and (g_try_max := np.max(np.abs(g_try))) < gmax:
            return x_try, e_try, g_try, g_try_max
        step = 0.5 * step
    return None


def _polish(x: np.ndarray, trap: np.ndarray, log: _SolveLog):
    """Newton-CG polish (`_newton_step`); returns x, energy, max |gradient| and the energy
    decrease 1/2 |g.s| one more step s predicts there (or a bound on it). Its Newton steps,
    the descent steps it keeps and the rule that ended it go to `log`.

    It starts where the relax hands over, at max |g| <= 1e-4, and takes 3-21 Newton steps
    at N = 19-345: the ones above |g_perp| = 1e-6 on a float32 Hessian, then 1-2 near steps
    of float32 CG rounds under float64 residuals (`_newton_step`). Once a near step falls
    back to float64 CG products (`log.switched_to_float64`), every later near step of the
    solve takes them from the start: in the small crystals' flat valleys a round that failed
    once mostly fails again. The |g| shift keeps quasi-flat directions (shell rearrangements)
    from dominating a step far from the minimum and fades as g vanishes; r r^T lifts the
    rotational zero mode. Steps are capped at 0.5 scaled units and halved up to 30 times.
    When the line search rejects a Newton step above the 1e-9 bar, a projected
    steepest-descent step (`_descend`) is tried in its place. The polish stops at the first
    step neither keeps ("a rejected step"), whose solve gives the decrease, or at a small
    gradient ("the gradient target" or "slow progress"), where H >= 0 (a minimum) bounds
    every CG iterate's 1/2 |g.s| by 1/2 |g_perp|: that bound is the decrease if below
    ENERGY_RTOL |E|, else the certificate's solve runs, which is not a step.
    """
    energy, grad = log.energy_gradient(x, trap)
    if not log.trace or energy < log.trace[-1]:
        log.trace.append(energy)
    gmax = np.max(np.abs(grad))
    slow = 0
    decrease, rule = None, "the budget"
    while log.newton_steps < _MAX_POLISH_STEPS:
        # Magic-number crystals have quartically flat intershell-libration
        # valleys; once the gradient is below the convergence bar and barely
        # improving, grinding further buys nothing.
        if gmax <= _POLISH_TARGET or (gmax <= _SCALED_GTOL and slow >= 3):
            rule = "the gradient target" if gmax <= _POLISH_TARGET else "slow progress"
            break
        step, decrease = _newton_step(x, trap, grad, log)
        log.newton_steps += 1
        step *= min(1.0, 0.5 / max(np.max(np.abs(step)), 1e-300))
        scale, kept, prev_gmax = 1.0, None, gmax
        for _ in range(30):
            x_try = x + scale * step
            e_try, g_try = log.energy_gradient(x_try, trap)
            g_try_max = np.max(np.abs(g_try))
            if e_try <= energy or (math.isclose(e_try, energy, rel_tol=1e-14) and g_try_max < gmax):
                if e_try < energy or g_try_max < gmax:
                    kept = x_try, e_try, g_try, g_try_max
                break
            scale *= 0.5
        if kept is None and gmax > _SCALED_GTOL:
            # the last bits of the relax can leave a small crystal where the Newton step
            # is rejected just above the bar; plain descent still lowers the gradient there
            kept = _descend(x, trap, grad, energy, gmax, log)
            log.descent_steps += kept is not None
        if kept is None:
            rule = "a rejected step"
            break
        x, energy, grad, gmax = kept
        log.trace.append(energy)
        decrease = None
        slow = slow + 1 if gmax > 0.3 * prev_gmax else 0
    if decrease is None:
        rhs = _rotation_and_rhs(x, trap, grad)[1]
        half_gnorm = 0.5 * math.sqrt(_dot(rhs, rhs))
        decrease = half_gnorm if half_gnorm <= ENERGY_RTOL * abs(energy) else _newton_step(x, trap, grad, log)[1]
    log.polish_ended = rule
    return x, energy, gmax, decrease


def _positive_definite(k: np.ndarray) -> bool:
    """Whether the symmetric k is positive definite: its Cholesky factorization succeeds."""
    try:
        np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_equilibrium(params: TrapParams, n_ions: int, seed: int = 0) -> CrystalLattice:
    """Relax n_ions to a local minimum of the rotating-frame potential.

    The relax runs in the plane z = 0 from a jittered hex-disk patch; it
    continues in 3D only when the z block at the in-plane minimum is not
    positive definite, and the lattice is then reported with `planar=False`.

    `seed` feeds the RNG of the seed jitter and the buckling push, so runs are
    reproducible and callers can restart from a different basin. The one LAPACK
    call is `cholesky`, whose success says that the z block is positive definite, taken
    where the in-plane relax hands over (max |g| <= 1e-4). The scale-free bound 1e-9 is
    almost always stricter than FORCE_TOL (newtons): the polish ends at max |g|
    6e-16 to 2e-14 at N = 190 and 345 after 4-21 Newton steps, and at 7e-18 to
    9e-10 at N = 7-20 after up to ~180 of its 400.

    Raises ValueError unless 1 <= n_ions <= MAX_IONS, and EquilibriumNotConverged (carrying
    the best-so-far lattice in `.best`) when a tolerance is missed; its message names the rule
    that ended the polish (a rejected step, or the budget of `_MAX_POLISH_STEPS` Newton steps)
    and the Newton steps taken, as the lattice's `solve_stats` (`SolveStats`) counts them. Each
    relax stage has `_MAX_RELAX_STEPS` L-BFGS steps.
    """
    if not 1 <= n_ions <= MAX_IONS:
        raise ValueError(f"n_ions must be between 1 and {MAX_IONS}, got {n_ions}")
    trap = _trap_stiffness(params)
    l0 = length_scale(params)
    f0 = params.mass * params.omega_1**2 * l0
    e0 = params.mass * params.omega_1**2 * l0**2

    if n_ions == 1:
        return CrystalLattice(
            params=params,
            positions=np.zeros((1, 3)),
            converged=True,
            residual_force_max=0.0,
            planar=True,
            energy=0.0,
            seed=seed,
            energy_trace=np.zeros(1),
            solve_stats=SolveStats(),
        )

    rng = np.random.default_rng(seed)
    log = _SolveLog()
    x = _relax(_seed_scaled(n_ions, beta(params), rng).ravel(), trap[:2], log)
    planar = _positive_definite(z_stiffness(x.reshape(-1, 2)))
    if planar:
        trap = trap[:2]
    else:
        # The plane is a saddle: relax in 3D from a seeded random push. It has a
        # component along every soft mode and keeps no symmetry of the plane that
        # could hold the descent on a 3D saddle.
        z = _BUCKLE_PUSH * rng.standard_normal(n_ions)
        x = _relax(np.column_stack([x.reshape(-1, 2), z]).ravel(), trap, log)
    # The decrease one more Newton step predicts is the honest "relative energy
    # change of one more step"; with no z gradient on the plane, 2N = 3N here.
    x, energy, gmax, decrease = _polish(x, trap, log)
    stats = log.stats()
    residual_si = gmax * f0
    rel_de = decrease / max(abs(energy), 1e-300)
    converged = residual_si <= FORCE_TOL and gmax <= _SCALED_GTOL and rel_de <= ENERGY_RTOL

    positions = np.zeros((n_ions, 3))
    positions[:, : len(trap)] = x.reshape(n_ions, -1) * l0
    lattice = CrystalLattice(
        params=params,
        positions=positions,
        converged=converged,
        residual_force_max=residual_si,
        planar=planar,
        energy=energy * e0,
        seed=seed,
        energy_trace=np.asarray(log.trace) * e0,
        solve_stats=stats,
    )
    if not converged:
        raise EquilibriumNotConverged(
            f"residual force {residual_si:.3e} N (scaled gradient {gmax:.3e}); "
            f"the polish stopped on {stats.polish_ended} after {stats.newton_steps} Newton steps",
            best=lattice,
        )
    return lattice


def lattice_stats(lattice: CrystalLattice) -> LatticeStats:
    """Mean nearest-neighbor spacing and crystal diameter (meters)."""
    pos = lattice.positions
    if len(pos) == 1:
        return LatticeStats(mean_spacing=None, diameter=0.0)
    nearest, farthest = np.full(len(pos), np.inf), 0.0  # squared distances
    for a, _, d2, _ in _pair_blocks(pos, upper=True):
        np.minimum(nearest[a : a + len(d2)], np.min(d2, axis=1), out=nearest[a : a + len(d2)])
        np.minimum(nearest[a:], np.min(d2, axis=0), out=nearest[a:])
        np.fill_diagonal(d2, 0.0)
        farthest = max(farthest, np.max(d2))
    return LatticeStats(mean_spacing=float(np.mean(np.sqrt(nearest))), diameter=float(np.sqrt(farthest)))
