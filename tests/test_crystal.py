import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from drumhead import (
    COULOMB_K,
    CoincidentIonsError,
    CrystalLattice,
    EquilibriumNotConverged,
    beta,
    diagonalize,
    lattice_stats,
    length_scale,
    potential_gradient,
    solve_equilibrium,
    total_potential,
    transverse_stiffness,
)
from drumhead import crystal
from drumhead import io_formats as iof
from drumhead.crystal import (
    _energy_gradient_scaled,
    _hessian_scaled,
    _positive_definite,
    hex_disk_seed,
    z_stiffness,
)
from conftest import paper_trap, solve_cached


def analytic_pair_separation(params) -> float:
    """Force balance of two ions on the x axis: d^3 = 2 k q^2 / (M w1^2 beta)."""
    return (
        2.0 * COULOMB_K * params.charge**2 / (params.mass * params.omega_1**2 * beta(params))
    ) ** (1.0 / 3.0)


def analytic_triangle_radius(params) -> float:
    """Equilateral triangle: center-to-ion a^3 = k q^2 / (sqrt(3) M w1^2 beta)."""
    return (
        COULOMB_K * params.charge**2 / (np.sqrt(3.0) * params.mass * params.omega_1**2 * beta(params))
    ) ** (1.0 / 3.0)


class TestTotalPotential:
    def test_single_ion_at_origin_is_zero(self):
        assert total_potential(np.zeros((1, 3)), paper_trap()) == 0.0

    def test_two_ion_closed_form(self):
        params = paper_trap()
        d = 30e-6
        positions = np.array([[d / 2, 0.0, 0.0], [-d / 2, 0.0, 0.0]])
        expected = (
            0.25 * params.mass * params.omega_1**2 * beta(params) * d**2
            + COULOMB_K * params.charge**2 / d
        )
        assert total_potential(positions, params) == pytest.approx(expected, rel=1e-12)

    def test_wall_term_sign(self):
        params = paper_trap(wall=0.001)
        x_pos = np.array([[20e-6, 0.0, 0.0], [-20e-6, 0.0, 0.0]])
        y_pos = np.array([[0.0, 20e-6, 0.0], [0.0, -20e-6, 0.0]])
        # the wall stiffens x and softens y
        assert total_potential(x_pos, params) > total_potential(y_pos, params)

    def test_triangle_matches_brute_force_radius_scan(self):
        # independent oracle: 1D energy scan over the triangle radius
        params = paper_trap()

        def triangle(a):
            angles = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
            pos = np.zeros((3, 3))
            pos[:, 0] = a * np.cos(angles)
            pos[:, 1] = a * np.sin(angles)
            return pos

        a_star = analytic_triangle_radius(params)
        scan = minimize_scalar(
            lambda a: total_potential(triangle(a), params),
            bracket=(0.5 * a_star, 1.5 * a_star),
            method="brent",
            options={"xtol": 1e-12},
        )
        assert total_potential(triangle(a_star), params) == pytest.approx(scan.fun, rel=1e-10)

    def test_coincident_ions_raise(self, tmp_path):
        three = np.zeros((3, 3))
        three[2, 0] = 20e-6  # ions 0 and 1 share the origin
        # ion 140 on ion 3: the pair meets only across the first and third row blocks
        split = hex_disk_seed(150, 20e-6)
        split[140] = split[3]
        assert 3 < crystal._ROW_BLOCK and 140 >= 2 * crystal._ROW_BLOCK
        for positions in (np.zeros((2, 3)), three, split):
            for surface in (total_potential, potential_gradient):
                with pytest.raises(CoincidentIonsError):
                    surface(positions, paper_trap())
            lattice = crystal.CrystalLattice(
                params=paper_trap(), positions=positions, converged=False, residual_force_max=1.0,
                planar=True, energy=0.0, seed=0,
            )
            iof.save_lattice(lattice, tmp_path / "lattice.json")
            with pytest.raises(CoincidentIonsError):
                iof.load_lattice(tmp_path / "lattice.json")

    def test_gradient_matches_finite_differences(self):
        params = paper_trap(wall=0.002)
        rng = np.random.default_rng(7)
        pos = hex_disk_seed(5, 25e-6) + 1e-6 * rng.standard_normal((5, 3))
        grad = potential_gradient(pos, params)
        h = 1e-10
        for j, c in ((0, 0), (2, 1), (4, 2), (1, 2)):
            stepped = pos.copy()
            stepped[j, c] += h
            up = total_potential(stepped, params)
            stepped[j, c] -= 2 * h
            down = total_potential(stepped, params)
            assert grad[j, c] == pytest.approx((up - down) / (2 * h), rel=2e-5)


class TestPairKernel:
    def test_matches_explicit_pair_loop(self):
        # scaled units: V = 1/2 sum_j (z^2 + (b + dw) x^2 + (b - dw) y^2) + sum_{j<k} 1/d,
        # in 3D and in the plane (dim = 2, no z term)
        b, dw = 0.03, 0.004
        rng = np.random.default_rng(11)
        pos3 = rng.standard_normal((20, 3)) * np.array([3.0, 3.0, 1.0])
        for dim in (3, 2):
            pos = pos3[:, :dim]
            trap = np.array([b + dw, b - dw, 1.0])[:dim]
            grad = pos * trap
            hess = np.zeros((20, dim, 20, dim))
            for j in range(20):
                hess[j, :, j, :] = np.diag(trap)
            for j in range(20):
                for k in range(20):
                    if j == k:
                        continue
                    r = pos[j] - pos[k]
                    d = np.sqrt(r @ r)
                    grad[j] -= r / d**3
                    block = np.eye(dim) / d**3 - 3.0 * np.outer(r, r) / d**5
                    hess[j, :, k, :] = block
                    hess[j, :, j, :] -= block
            _, g = _energy_gradient_scaled(pos.ravel(), trap)
            h = _hessian_scaled(pos.ravel(), trap)
            assert np.max(np.abs(g - grad.ravel())) <= 1e-12 * np.max(np.abs(grad))
            assert np.max(np.abs(h - hess.reshape(20 * dim, 20 * dim))) <= 1e-12 * np.max(np.abs(hess))

    @pytest.mark.parametrize("dim", [3, 2])
    def test_row_blocks_match_explicit_pair_sum(self, dim):
        # 150 points span three row blocks of every pair pass, the last one partial
        n = 150
        assert 2 * crystal._ROW_BLOCK < n < 3 * crystal._ROW_BLOCK
        rng = np.random.default_rng(12)
        pos = rng.standard_normal((n, dim)) * np.array([6.0, 6.0, 2.0])[:dim]
        trap = np.array([0.034, 0.026, 1.0])[:dim]
        energy, grad = 0.5 * np.sum(trap * pos**2), pos * trap
        hess, onsite = np.zeros((n, dim, n, dim)), np.zeros((n, dim, dim)) + np.diag(trap)
        stiffness = np.zeros((n, n))
        for j in range(n - 1):
            r = pos[j] - pos[j + 1 :]  # each pair (j, k > j) once
            d = np.sqrt(np.sum(r**2, axis=1))
            energy += np.sum(1.0 / d)
            pull = r / d[:, None] ** 3
            grad[j] -= pull.sum(axis=0)
            grad[j + 1 :] += pull
            blocks = np.eye(dim) / d[:, None, None] ** 3 - 3.0 * r[:, :, None] * r[:, None, :] / d[:, None, None] ** 5
            hess[j, :, j + 1 :, :] = blocks.transpose(1, 0, 2)
            hess[j + 1 :, :, j, :] = blocks
            onsite[j] -= blocks.sum(axis=0)
            onsite[j + 1 :] -= blocks
            stiffness[j, j + 1 :] = stiffness[j + 1 :, j] = 1.0 / d**3
        hess[np.arange(n), :, np.arange(n), :] = onsite
        stiffness[np.diag_indices(n)] = 1.0 - stiffness.sum(axis=1)
        e, g = _energy_gradient_scaled(pos.ravel(), trap)
        assert e == pytest.approx(energy, rel=1e-12, abs=0.0)
        assert np.max(np.abs(g - grad.ravel())) <= 1e-12 * np.max(np.abs(grad))
        h = _hessian_scaled(pos.ravel(), trap)
        assert np.max(np.abs(h - hess.reshape(n * dim, n * dim))) <= 1e-12 * np.max(np.abs(hess))
        assert np.max(np.abs(z_stiffness(pos) - stiffness)) <= 1e-12 * np.max(np.abs(stiffness))

    @pytest.mark.parametrize("upper", [True, False])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 65, 150])
    def test_pair_blocks_match_broadcast_subtraction_bitwise(self, n, dim, upper):
        # the copy-then-subtract separations are the same single subtraction per element
        pos = np.random.default_rng(14).standard_normal((n, dim)) * 5.0
        for a, diffs, d2, _ in crystal._pair_blocks(pos, upper=upper):
            c0, rows = (a if upper else 0), slice(a, a + len(d2))
            expected = np.stack([c[rows, None] - c[None, c0:] for c in pos.T])
            sq = np.einsum("cjk,cjk->jk", expected, expected)
            sq.reshape(-1)[a - c0 :: n - c0 + 1] = np.inf
            assert np.array_equal(diffs, expected) and np.array_equal(d2, sq)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [2, 65, 150])
    def test_float32_hessian_is_the_float64_one_cast(self, n, dim):
        # each element is formed in float64 and rounded once into the float32 array
        pos = np.random.default_rng(17).standard_normal((n, dim)) * 5.0
        trap = np.array([0.034, 0.026, 1.0])[:dim]
        single = _hessian_scaled(pos.ravel(), trap, np.float32)
        assert single.dtype == np.float32
        assert np.array_equal(single, _hessian_scaled(pos.ravel(), trap).astype(np.float32))

    def test_pair_passes_allocate_only_their_result(self):
        # at N = 1000 a whole (N, N) separation array is 8 MB per component; the
        # row blocks of every pass together stay below 4 MB
        n = 1000
        pos = np.random.default_rng(13).standard_normal((n, 2)) * 15.0
        for build in (lambda: _hessian_scaled(pos.ravel(), np.array([0.034, 0.026])), lambda: z_stiffness(pos)):
            tracemalloc.start()
            try:
                result = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= result.nbytes + 4 * 2**20


def two_loop(pairs, gamma, g):
    """Reference L-BFGS product H g by the two-loop recursion (Nocedal & Wright, alg. 7.4)."""
    q, alphas = g.copy(), []
    for s, y in reversed(pairs):
        alphas.append((s @ q) / (s @ y))
        q -= alphas[-1] * y
    q *= gamma
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - (y @ q) / (s @ y)) * s
    return q


class TestNewtonStep:
    @staticmethod
    def scaled_point(n_ions, rotation_hz):
        lattice = solve_cached(n_ions, rotation_hz)
        trap = crystal._trap_stiffness(lattice.params)[:2]
        x = (lattice.positions[:, :2] / length_scale(lattice.params)).ravel()
        return x, trap

    @classmethod
    def near_point(cls, n_ions, rotation_hz):
        """A converged lattice displaced just enough that 1e-9 < |g_perp| <= 1e-6 (a near step):
        x, trap, grad, and the step's CG tolerance."""
        x, trap = cls.scaled_point(n_ions, rotation_hz)
        x = x + 1e-8 * np.random.default_rng(19).standard_normal(len(x))
        _, grad = _energy_gradient_scaled(x, trap)
        rhs = crystal._rotation_and_rhs(x, trap, grad)[1]
        gnorm = np.sqrt(rhs @ rhs)
        assert 1e-9 < gnorm <= crystal._FLOAT32_GNORM
        return x, trap, grad, max(np.sqrt(gnorm) * gnorm, 0.1 * crystal._POLISH_TARGET)

    @staticmethod
    def float64_residual(x, trap, grad, step):
        """|(H + |g_perp| I + r r^T) s + g_perp| with a float64 product."""
        rot, rhs = crystal._rotation_and_rhs(x, trap, grad)
        shifted = _hessian_scaled(x, trap) + np.sqrt(rhs @ rhs) * np.eye(len(x)) + np.outer(rot, rot)
        residual = np.einsum("ij,j->i", shifted, step) - rhs
        return np.sqrt(residual @ residual)

    @staticmethod
    def recorded_cg(monkeypatch):
        """The (dtype, tol) of each CG run from here on."""
        calls, cg = [], crystal._cg

        def recording_cg(hess, rot, rhs, tol, log):
            calls.append((hess.dtype, tol))
            return cg(hess, rot, rhs, tol, log)

        monkeypatch.setattr(crystal, "_cg", recording_cg)
        return calls

    @pytest.mark.parametrize("n_ions, rotation_hz", [(20, 44.7e3), (190, 44.7e3)])
    def test_near_step_meets_the_residual_in_float64(self, monkeypatch, n_ions, rotation_hz):
        # float32 CG rounds under float64 residuals solve the float64 system to the tolerance
        x, trap, grad, tol = self.near_point(n_ions, rotation_hz)
        calls = self.recorded_cg(monkeypatch)
        step, decrease = crystal._newton_step(x, trap, grad, log := crystal._SolveLog())
        single = not log.switched_to_float64
        assert single and calls and all(dtype == np.float32 for dtype, _ in calls)
        assert self.float64_residual(x, trap, grad, step) <= tol
        rhs = crystal._rotation_and_rhs(x, trap, grad)[1]
        assert decrease == 0.5 * abs(crystal._dot(rhs, step))

    @pytest.mark.parametrize("n_ions, rotation_hz", [(20, 44.7e3), (190, 44.7e3)])
    def test_refinement_corrects_a_wrong_float32_product(self, monkeypatch, n_ions, rotation_hz):
        # every float32 product 1e-3 relative wrong: one CG run on it misses the tolerance by far,
        # and the float64 residuals between float32 rounds still bring the step to it
        x, trap, grad, tol = self.near_point(n_ions, rotation_hz)
        product = crystal._shifted_product

        def wrong_product(hess, rot, d):
            return product(hess, rot, d) * (1.001 if hess.dtype == np.float32 else 1.0)

        monkeypatch.setattr(crystal, "_shifted_product", wrong_product)
        rot, rhs = crystal._rotation_and_rhs(x, trap, grad)
        hess = _hessian_scaled(x, trap)
        hess[np.diag_indices_from(hess)] += np.sqrt(rhs @ rhs)
        unrefined = crystal._cg(hess.astype(np.float32), rot, rhs, tol, crystal._SolveLog())[0]
        assert self.float64_residual(x, trap, grad, unrefined) > 2.0 * tol
        calls = self.recorded_cg(monkeypatch)
        step, _ = crystal._newton_step(x, trap, grad, log := crystal._SolveLog())
        single = not log.switched_to_float64
        assert single and len(calls) >= 2 and all(dtype == np.float32 for dtype, _ in calls)
        assert self.float64_residual(x, trap, grad, step) <= tol

    def test_flat_valley_switches_to_float64_and_converges(self, monkeypatch):
        # N = 13 at 43.2 kHz, seed 0: a float32 round fails in the quartically flat valley,
        # and every later step of the solve takes float64 products
        flags, newton_step = [], crystal._newton_step

        def recording_step(x, trap, grad, log):
            single = not log.switched_to_float64
            result = newton_step(x, trap, grad, log)
            flags.append((single, not log.switched_to_float64))
            return result

        monkeypatch.setattr(crystal, "_newton_step", recording_step)
        calls = self.recorded_cg(monkeypatch)
        assert solve_equilibrium(paper_trap(43.2e3), 13, seed=0).converged
        first = next(i for i, (_, still_single) in enumerate(flags) if not still_single)
        assert flags[first][0] and not any(single for single, _ in flags[first + 1 :])
        assert any(dtype == np.float64 for dtype, _ in calls)

    def test_last_step_stops_at_the_floor(self, monkeypatch):
        # the last step's forcing term asks for about 1e-16, below the gradient's own rounding;
        # CG stops at 0.1 _POLISH_TARGET instead, and the float64 residual meets it
        steps, newton_step = [], crystal._newton_step

        def recording_step(x, trap, grad, log):
            result = newton_step(x, trap, grad, log)
            steps.append((x, trap, grad, result[0]))
            return result

        monkeypatch.setattr(crystal, "_newton_step", recording_step)
        calls = self.recorded_cg(monkeypatch)
        assert solve_equilibrium(paper_trap(44.7e3), 190, seed=0).converged
        x, trap, grad, step = steps[-1]
        rhs = crystal._rotation_and_rhs(x, trap, grad)[1]
        gnorm = np.sqrt(rhs @ rhs)
        floor = 0.1 * crystal._POLISH_TARGET
        assert min(0.1, np.sqrt(gnorm)) * gnorm < floor == calls[-1][1]
        assert self.float64_residual(x, trap, grad, step) <= floor

    @pytest.mark.parametrize("n_ions, rotation_hz", [(20, 44.7e3), (190, 44.7e3)])
    def test_float32_products_meet_the_cg_residual(self, monkeypatch, n_ions, rotation_hz):
        # a point displaced from the minimum, above the switch: the step from float32 products
        # solves the float64 system to the residual CG asks for, with slack for the rounding
        # (observed at most 0.99 of it at N = 20 and 190)
        x, trap = self.scaled_point(n_ions, rotation_hz)
        x = x + 1e-4 * np.random.default_rng(18).standard_normal(len(x))
        _, grad = _energy_gradient_scaled(x, trap)
        rot, rhs = crystal._rotation_and_rhs(x, trap, grad)
        gnorm = np.sqrt(rhs @ rhs)
        assert gnorm > crystal._FLOAT32_GNORM
        types = []
        monkeypatch.setattr(crystal, "_hessian_scaled",
                            lambda *args: types.append(args[2]) or _hessian_scaled(*args))
        step, decrease = crystal._newton_step(x, trap, grad, crystal._SolveLog())
        assert types == [np.float32]
        shifted = _hessian_scaled(x, trap) + gnorm * np.eye(len(x)) + np.outer(rot, rot)
        residual = np.einsum("ij,j->i", shifted, step) - rhs
        assert np.sqrt(residual @ residual) <= 1.1 * min(0.1, np.sqrt(gnorm)) * gnorm
        assert decrease == 0.5 * abs(crystal._dot(rhs, step))


class TestInverseHessian:
    def test_compact_form_matches_two_loop(self):
        # random pairs y = A s + noise with A positive definite, so s.y > 0
        rng = np.random.default_rng(15)
        n, memory = 60, 25
        a = rng.standard_normal((n, n))
        a = a @ a.T / n + np.eye(n)
        inverse, pairs, checked = crystal._InverseHessian(n, memory, 0.7), [], set()
        for k in range(1, 41):
            s = rng.standard_normal(n)
            y = a @ s + 0.1 * rng.standard_normal(n)
            assert s @ y > 0.0
            inverse.add(s, y)
            pairs = (pairs + [(s, y)])[-memory:]
            assert inverse.gamma == pytest.approx((s @ y) / (y @ y), rel=1e-14)
            if k in (1, 2, 25, 26, 40):  # 26 and 40: the window has slid past 25
                g = rng.standard_normal(n)
                expected = two_loop(pairs, inverse.gamma, g)
                assert np.max(np.abs(inverse.times(g) - expected)) <= 1e-12 * np.max(np.abs(expected))
                checked.add(k)
        assert inverse.stored == memory and checked == {1, 2, 25, 26, 40}

    def test_skipped_pair_and_clear(self):
        rng = np.random.default_rng(16)
        n = 8
        inverse = crystal._InverseHessian(n, 3, 0.5)
        s = rng.standard_normal(n)
        inverse.add(s, 2.0 * s)
        inverse.add(s, -s)  # s.y < 0: not stored, gamma kept
        assert inverse.stored == 1 and inverse.gamma == pytest.approx(0.5)
        g = rng.standard_normal(n)
        assert np.allclose(inverse.times(g), two_loop([(s, 2.0 * s)], 0.5, g), rtol=1e-13, atol=0.0)
        inverse.clear()
        assert np.array_equal(inverse.times(g), 0.5 * g)


def counted_solve(monkeypatch, n_ions, rotation_hz, seed):
    """A solve under wrappers on the solver's private functions, and the SolveStats fields they count.

    Kernel calls wrap `_energy_gradient_scaled`; CG products wrap `_shifted_product` inside `_cg`, by
    the Hessian's dtype, and the one outside `_cg` is a near round's float64 residual. A Hessian
    built in float32 is a far Newton solve, one in float64 a near one. The last Newton solve is the
    certificate's when no kernel call follows it. Each `_cg` run is repeated by the loop it had
    before it counted, which must give the same step and says whether it used every iteration
    and ended above its tolerance. L-BFGS steps are the pairs offered to `_InverseHessian`, and
    the rules are read from where each stage stopped.
    """
    counts = dict.fromkeys(("kernel_calls", "lbfgs_steps", "descent_steps", "newton_far", "newton_near",
                            "cg_float32", "cg_float64", "cg_capped", "near_rounds"), 0)
    counts.update(relax_ended=(), switched_to_float64=False)
    newton_points, in_cg, polished = [], [], []  # (x, kernel calls so far) at each Newton solve
    kernel, hessian, product, cg = (crystal._energy_gradient_scaled, crystal._hessian_scaled,
                                    crystal._shifted_product, crystal._cg)
    newton_step, descend, relax, polish = crystal._newton_step, crystal._descend, crystal._relax, crystal._polish
    add = crystal._InverseHessian.add

    def counted_kernel(x, trap):
        counts["kernel_calls"] += 1
        return kernel(x, trap)

    def counted_hessian(coords, trap, dtype):
        counts["newton_far" if dtype == np.float32 else "newton_near"] += 1
        return hessian(coords, trap, dtype)

    def counted_product(hess, rot, d):
        counts[f"cg_{hess.dtype}" if in_cg else "near_rounds"] += 1
        return product(hess, rot, d)

    def loop_cg(hess, rot, rhs, tol):
        step, resid, direction = np.zeros_like(rhs), rhs, rhs
        rr = crystal._dot(rhs, rhs)
        for _ in range(len(rhs)):
            if np.sqrt(rr) <= tol:
                return step, True, False
            h_dir = product(hess, rot, direction)
            curvature = crystal._dot(direction, h_dir)
            if not curvature > 0.0:
                return (step if step.any() else direction.copy()), False, False
            alpha = rr / curvature
            step += alpha * direction
            resid = resid - alpha * h_dir
            rr, rr_prev = crystal._dot(resid, resid), rr
            direction = resid + (rr / rr_prev) * direction
        return step, True, np.sqrt(rr) > tol

    def counted_cg(hess, rot, rhs, tol, log):
        counts["switched_to_float64"] |= hess.dtype == np.float64
        in_cg.append(hess)
        step, curved = cg(hess, rot, rhs, tol, log)
        in_cg.pop()
        loop_step, loop_curved, capped = loop_cg(hess, rot, rhs, tol)
        assert curved == loop_curved and np.array_equal(step, loop_step)
        counts["cg_capped"] += capped
        return step, curved

    def counted_newton_step(x, trap, grad, log):
        newton_points.append((x.tobytes(), counts["kernel_calls"]))
        return newton_step(x, trap, grad, log)

    def counted_descend(*args):
        kept = descend(*args)
        counts["descent_steps"] += kept is not None
        return kept

    def counted_relax(x, trap, log):
        steps = counts["lbfgs_steps"]
        x = relax(x, trap, log)
        handed_over = np.max(np.abs(kernel(x, trap)[1])) <= crystal._HANDOVER_GTOL
        budget = counts["lbfgs_steps"] - steps == crystal._MAX_RELAX_STEPS
        counts["relax_ended"] += ("the hand-over" if handed_over else "the budget" if budget else "an energy stall",)
        return x

    def counted_polish(x, trap, log):
        polished[:] = polish(x, trap, log)
        return polished

    def counted_add(inverse, s, y):
        counts["lbfgs_steps"] += 1
        return add(inverse, s, y)

    for name, wrapper in (("_energy_gradient_scaled", counted_kernel), ("_hessian_scaled", counted_hessian),
                          ("_shifted_product", counted_product), ("_cg", counted_cg),
                          ("_newton_step", counted_newton_step), ("_descend", counted_descend),
                          ("_relax", counted_relax), ("_polish", counted_polish)):
        monkeypatch.setattr(crystal, name, wrapper)
    monkeypatch.setattr(crystal._InverseHessian, "add", counted_add)
    lattice = solve_equilibrium(paper_trap(rotation_hz), n_ions, seed=seed)
    certificate = newton_points[-1][1] == counts["kernel_calls"]
    counts["newton_steps"] = steps = len(newton_points) - certificate
    x, _, gmax, _ = polished
    if gmax <= crystal._POLISH_TARGET:
        counts["polish_ended"] = "the gradient target"
    elif steps == crystal._MAX_POLISH_STEPS:
        counts["polish_ended"] = "the budget"
    else:  # a rejected step leaves x where its Newton solve was
        counts["polish_ended"] = "a rejected step" if newton_points[steps - 1][0] == x.tobytes() else "slow progress"
    return lattice, counts


class TestSolveStats:
    @pytest.mark.parametrize("n_ions, rotation_hz, seed", [(20, 43.2e3, 0), (20, 45.0e3, 19), (190, 44.7e3, 1)])
    def test_counts_match_the_wrappers(self, monkeypatch, n_ions, rotation_hz, seed):
        lattice, counted = counted_solve(monkeypatch, n_ions, rotation_hz, seed)
        assert dataclasses.asdict(lattice.solve_stats) == counted
        # both N = 20 solves switch to float64 products after a failed round and stop CG on its cap,
        # and the one at 45 kHz keeps a descent step; N = 190 stays in float32
        assert counted["switched_to_float64"] == (counted["cg_capped"] > 0) == (n_ions == 20)
        assert counted["descent_steps"] == (rotation_hz == 45.0e3)

    def test_relax_rules(self, monkeypatch):
        # a buckled crystal relaxes twice; with no hand-over the relax ends on the energy stall
        assert solve_cached(50, 300e3).solve_stats.relax_ended == ("the hand-over", "the hand-over")
        monkeypatch.setattr(crystal, "_HANDOVER_GTOL", 0.0)
        assert solve_equilibrium(paper_trap(), 20).solve_stats.relax_ended == ("an energy stall",)
        monkeypatch.setattr(crystal, "_MAX_RELAX_STEPS", 3)
        assert solve_equilibrium(paper_trap(), 20).solve_stats.relax_ended == ("the budget",)

    def test_paper_size_counts(self):
        stats = solve_cached(345, 44.7e3, seed=1).solve_stats
        assert (stats.kernel_calls, stats.newton_far, stats.newton_near) == (219, 3, 2)
        assert (stats.cg_float32, stats.cg_float64, stats.near_rounds) == (546, 0, 4)
        assert stats.relax_ended == ("the hand-over",) and stats.polish_ended == "the gradient target"

    def test_single_ion_and_file_lattices(self, tmp_path):
        assert solve_equilibrium(paper_trap(), 1).solve_stats == crystal.SolveStats()
        iof.save_lattice(solve_cached(12), tmp_path / "lattice.json")
        assert iof.load_lattice(tmp_path / "lattice.json").solve_stats is None

    def test_cg_counts_a_stop_on_its_cap(self):
        # eigenvalues from 1 to 1e12: 40 products leave the residual far above 1e-12 |rhs|, and
        # CG still returns its step as finished
        rng = np.random.default_rng(20)
        basis = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        hess = (basis * np.logspace(0, 12, 40)) @ basis.T
        rhs, rot = rng.standard_normal(40), np.zeros(40)
        log = crystal._SolveLog()
        step, curved = crystal._cg(hess, rot, rhs, 1e-12 * np.linalg.norm(rhs), log)
        assert curved and (log.cg_capped, log.cg_float64, log.cg_float32) == (1, 40, 0)
        assert np.linalg.norm(hess @ step - rhs) > 1e-12 * np.linalg.norm(rhs)
        crystal._cg(np.eye(40), rot, rhs, 1e-12 * np.linalg.norm(rhs), log)  # one product finishes
        assert (log.cg_capped, log.cg_float64) == (1, 41)


class TestSolveEquilibrium:
    def test_single_ion_sits_at_origin(self):
        lattice = solve_equilibrium(paper_trap(), 1)
        assert lattice.converged and lattice.planar
        assert np.all(lattice.positions == 0.0)

    def test_pair_separation_analytic(self):
        params = paper_trap()
        lattice = solve_cached(2)
        d = np.linalg.norm(lattice.positions[0] - lattice.positions[1])
        assert d == pytest.approx(analytic_pair_separation(params), rel=1e-8, abs=0.0)

    def test_triangle_radius_analytic(self):
        params = paper_trap()
        lattice = solve_cached(3)
        center = lattice.positions[:, :2].mean(axis=0)
        radii = np.linalg.norm(lattice.positions[:, :2] - center, axis=1)
        assert np.allclose(radii, analytic_triangle_radius(params), rtol=1e-8, atol=0.0)

    def test_residual_force_is_tiny(self):
        lattice = solve_cached(26)
        grad = potential_gradient(lattice.positions, lattice.params)
        assert np.max(np.abs(grad)) <= 1e-14  # newtons; crystal.FORCE_TOL
        assert np.max(np.abs(grad)) == pytest.approx(lattice.residual_force_max, rel=1e-6, abs=1e-33)

    def test_center_of_charge_on_axis(self):
        lattice = solve_cached(26)
        stats = lattice_stats(lattice)
        center = np.abs(lattice.positions.mean(axis=0))
        assert np.all(center < 1e-9 * stats.diameter)

    def test_energy_trace_monotone_descent(self):
        lattice = solve_cached(50)
        trace = lattice.energy_trace
        assert len(trace) > 2
        assert np.all(np.diff(trace) <= 1e-12 * trace[0])

    def test_rotation_invariance_without_wall(self):
        lattice = solve_cached(12)
        params = lattice.params
        e0 = total_potential(lattice.positions, params)
        for angle in (0.3, 1.1, 2.9):
            c, s = np.cos(angle), np.sin(angle)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            e_rot = total_potential(lattice.positions @ rot.T, params)
            assert abs(e_rot - e0) <= 1e-12 * abs(e0)

    def test_seed_reproducibility(self):
        a = solve_equilibrium(paper_trap(), 10, seed=3)
        b = solve_equilibrium(paper_trap(), 10, seed=3)
        assert np.array_equal(a.positions, b.positions)

    def test_budget_exhaustion_carries_best_state(self, monkeypatch):
        monkeypatch.setattr(crystal, "_MAX_RELAX_STEPS", 3)
        monkeypatch.setattr(crystal, "_MAX_POLISH_STEPS", 0)
        with pytest.raises(EquilibriumNotConverged) as info:
            solve_equilibrium(paper_trap(), 30)
        best = info.value.best
        assert best is not None and not best.converged
        assert best.n_ions == 30
        assert best.residual_force_max > 0.0

    def test_uphill_direction_restarts_from_steepest_descent(self, monkeypatch):
        # the first L-BFGS direction, turned uphill, is dropped with the stored pairs and the relax
        # takes steepest descent instead; with no pair stored yet that is the step a plain solve
        # takes, so the solve ends where a plain one does
        plain = solve_equilibrium(paper_trap(), 30)
        clear, times, events = crystal._InverseHessian.clear, crystal._InverseHessian.times, []

        def counted_clear(inverse):
            events.append("clear")
            clear(inverse)

        def uphill_first(inverse, g):
            direction = times(inverse, g)
            if "times" not in events:
                events.append("times")
                return -direction
            return direction

        monkeypatch.setattr(crystal._InverseHessian, "clear", counted_clear)
        monkeypatch.setattr(crystal._InverseHessian, "times", uphill_first)
        restarted = solve_equilibrium(paper_trap(), 30)
        # the constructor's clear, the uphill direction, and the restart's clear
        assert events == ["clear", "times", "clear"]
        assert restarted.converged
        assert np.array_equal(restarted.positions, plain.positions)

    @pytest.mark.parametrize("n_ions", [30, 100])
    def test_polish_finishes_a_short_descent(self, monkeypatch, n_ions):
        # three L-BFGS steps leave the polish far from the minimum; only its
        # step cap and backtracking carry it there
        monkeypatch.setattr(crystal, "_MAX_RELAX_STEPS", 3)
        lattice = solve_equilibrium(paper_trap(), n_ions)
        assert lattice.converged

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_ions", [13, 20])
    def test_small_crystals_converge_for_every_seed(self, n_ions, seed):
        # N = 13 has a quasi-flat intershell mode that a polish with a floored
        # eigenvalue spectrum could not finish within its budget (seeds 1 and 2)
        assert solve_equilibrium(paper_trap(), n_ions, seed=seed).converged

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_ions", [13, 20])
    def test_small_crystals_converge_at_44_7_khz(self, n_ions, seed):
        # the polish alternates here and takes up to ~150 Newton steps; a
        # budget of 80 left N = 13 seeds 0, 1, 3 and 7 and N = 20 seed 3 unconverged
        assert solve_equilibrium(paper_trap(44.7e3), n_ions, seed=seed).converged

    @pytest.mark.parametrize("rotation_hz, n_ions, seed", [(44.7e3, 13, 20), (45.0e3, 13, 13), (45.0e3, 20, 23)])
    def test_rejected_newton_step_falls_back_to_descent(self, rotation_hz, n_ions, seed):
        # each once ended on a rejected Newton step at max |g| 1.4-2.5e-9, after 4-95 of
        # 400 steps; which seeds do so moves with the relax's last bits
        assert solve_equilibrium(paper_trap(rotation_hz), n_ions, seed=seed).converged

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("n_ions", [13, 20])
    def test_small_crystals_converge_at_45_khz(self, n_ions, seed):
        assert solve_equilibrium(paper_trap(45.0e3), n_ions, seed=seed).converged

    @pytest.mark.parametrize(
        "n_ions, seed, energy",
        [(190, 0, 5.517270378199256e-20), (190, 1, 5.517270378199255e-20), (190, 2, 5.517270378199255e-20),
         (190, 3, 5.517270378199255e-20), (345, 0, 1.5162848508440516e-19), (345, 1, 1.516278853657369e-19),
         (345, 2, 1.5162841989799728e-19), (345, 3, 1.5162841989799728e-19)],
    )
    def test_paper_size_minima_are_kept(self, n_ions, seed, energy):
        # energies (J) from the two-loop L-BFGS; the compact form must reach the same minima
        assert solve_cached(n_ions, 44.7e3, seed=seed).energy == pytest.approx(energy, rel=1e-12, abs=0.0)

    def test_polish_starts_at_the_hand_over(self, monkeypatch):
        # the relax stops at max |g| <= 1e-4 and the polish's Newton steps take it from there
        received, polish = [], crystal._polish

        def recording_polish(x, trap, log):
            received.append(np.max(np.abs(_energy_gradient_scaled(x, trap)[1])))
            return polish(x, trap, log)

        monkeypatch.setattr(crystal, "_polish", recording_polish)
        lattice = solve_equilibrium(paper_trap(44.7e3), 190, seed=0)
        assert len(received) == 1 and received[0] <= crystal._HANDOVER_GTOL == 1e-4
        assert lattice.converged and lattice.residual_force_max <= crystal.FORCE_TOL

    def test_message_names_a_rejected_step(self, monkeypatch):
        monkeypatch.setattr(crystal, "_MAX_RELAX_STEPS", 3)
        monkeypatch.setattr(crystal, "_newton_step", lambda x, trap, grad, log: (grad.copy(), 1.0))  # uphill
        monkeypatch.setattr(crystal, "_descend", lambda *args: None)
        with pytest.raises(EquilibriumNotConverged, match="stopped on a rejected step after 1 Newton steps"):
            solve_equilibrium(paper_trap(), 30)

    def test_descent_carries_the_polish_past_rejected_newton_steps(self, monkeypatch):
        # every Newton step is rejected; the projected steepest-descent step is kept in its place
        monkeypatch.setattr(crystal, "_MAX_RELAX_STEPS", 3)
        monkeypatch.setattr(crystal, "_MAX_POLISH_STEPS", 5)
        monkeypatch.setattr(crystal, "_newton_step", lambda x, trap, grad, log: (grad.copy(), 1.0))
        with pytest.raises(EquilibriumNotConverged, match="stopped on the budget after 5 Newton steps") as info:
            solve_equilibrium(paper_trap(), 30)
        assert np.all(np.diff(info.value.best.energy_trace[-6:]) <= 0.0)

    def test_message_names_the_budget(self, monkeypatch):
        monkeypatch.setattr(crystal, "_MAX_RELAX_STEPS", 3)
        monkeypatch.setattr(crystal, "_MAX_POLISH_STEPS", 2)
        with pytest.raises(EquilibriumNotConverged, match="stopped on the budget after 2 Newton steps"):
            solve_equilibrium(paper_trap(), 30)

    def test_no_hessian_is_built_twice_at_one_point(self, monkeypatch):
        # a rejected Newton step leaves x unchanged, so a retry could only
        # rebuild the same Hessian and reject the same step again
        points = []

        def recording_hessian(coords, trap, dtype):
            points.append(coords.tobytes())
            return _hessian_scaled(coords, trap, dtype)

        monkeypatch.setattr(crystal, "_hessian_scaled", recording_hessian)
        solve_equilibrium(paper_trap(), 20)
        assert points and len(set(points)) == len(points)

    @pytest.mark.parametrize("n_ions", [190, 345])
    def test_gradient_norm_bounds_newton_decrease(self, n_ions):
        # _polish certifies a finished solve with 1/2 |g_perp| in place of a CG
        # solve; at a minimum no CG step of the |g|-shifted system predicts more
        lattice = solve_cached(n_ions)
        trap = crystal._trap_stiffness(lattice.params)[:2]
        x = (lattice.positions[:, :2] / length_scale(lattice.params)).ravel()
        _, grad = _energy_gradient_scaled(x, trap)
        rot = np.column_stack([-x[1::2], x[::2]]).ravel()  # rotation about z
        rot /= np.linalg.norm(rot)
        g_perp = grad - (grad @ rot) * rot
        _, decrease = crystal._newton_step(x, trap, grad, crystal._SolveLog())
        assert 0.0 < decrease <= 0.5 * np.linalg.norm(g_perp)

    def test_zero_energy_tolerance_still_solves_at_the_final_point(self, monkeypatch):
        # the gradient-norm certificate skips the last Newton solve; with nothing
        # it could certify, the polish still runs that solve where it stopped
        newton_step = crystal._newton_step

        def newton_points_and_converged():
            points = []

            def recording_step(x, trap, grad, log):
                points.append(x.tobytes())
                return newton_step(x, trap, grad, log)

            monkeypatch.setattr(crystal, "_newton_step", recording_step)
            try:
                return points, solve_equilibrium(paper_trap(), 30).converged
            except EquilibriumNotConverged:
                return points, False

        certified, converged = newton_points_and_converged()
        monkeypatch.setattr(crystal, "ENERGY_RTOL", 0.0)
        solved, converged_at_zero = newton_points_and_converged()
        assert converged and not converged_at_zero
        assert solved[:-1] == certified

    def test_strong_compression_buckles_out_of_plane(self):
        # beta ~ 3: a 50-ion crystal cannot stay in a single plane
        params = paper_trap(rotation_hz=300e3)
        lattice = solve_equilibrium(params, 50, seed=0)
        assert lattice.converged
        assert not lattice.planar
        assert np.max(np.abs(lattice.positions[:, 2])) > 1e-6

    def test_planar_in_reported_rotation_window(self):
        # a ~345-ion crystal stays single-plane across the reported rotation
        # window; the upper edge is steeply N-dependent, so the last ~0.2 kHz
        # is covered within the reported +/-25-ion count uncertainty
        for rotation_hz in (42.2e3, 43.2e3, 44.7e3, 45.0e3):
            assert solve_cached(345, rotation_hz).planar
        assert solve_cached(300, 45.2e3).planar

    def test_plane_destabilizes_just_above_window(self):
        assert not solve_cached(345, 45.2e3).planar

    @pytest.mark.parametrize("n_ions", [190, 345])
    def test_planar_crystal_has_exactly_zero_z_and_stable_modes(self, n_ions):
        lattice = solve_cached(n_ions, 44.7e3)
        assert lattice.converged and lattice.planar
        assert np.all(lattice.positions[:, 2] == 0.0)
        assert diagonalize(transverse_stiffness(lattice)).stable

    @pytest.mark.parametrize("n_ions, rotation_hz", [(345, 45.2e3), (50, 300e3)])
    def test_buckled_crystal_lies_below_the_unstable_plane(self, n_ions, rotation_hz):
        lattice = solve_cached(n_ions, rotation_hz)
        assert lattice.converged and not lattice.planar
        # the energy trace stays monotone across the switch from 2D to 3D
        trace = lattice.energy_trace
        assert np.all(np.diff(trace) <= 1e-12 * trace[0])
        # the in-plane stationary point reached from the crystal's own (x, y)
        params = lattice.params
        l0 = length_scale(params)
        trap = np.array([beta(params), beta(params)])
        flat = minimize(
            _energy_gradient_scaled,
            (lattice.positions[:, :2] / l0).ravel(),
            args=(trap,),
            jac=True,
            method="L-BFGS-B",
            options={"gtol": 1e-11, "ftol": 1e-16, "maxiter": 100_000},
        )
        assert np.linalg.eigvalsh(z_stiffness(flat.x.reshape(-1, 2)))[0] < 0.0
        assert lattice.energy < flat.fun * params.mass * params.omega_1**2 * l0**2

    def test_buckle_needs_no_eigenvectors(self, monkeypatch):
        # the buckle direction is a seeded random push, so a buckled lattice's
        # bytes cannot follow the sign or last bits of a LAPACK eigenvector
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        lattice = solve_equilibrium(paper_trap(rotation_hz=60e3), 19, seed=0)
        assert lattice.converged and not lattice.planar

    @pytest.mark.parametrize("rotation_hz, planar", [(44.7e3, True), (60e3, False)])
    def test_planarity_needs_no_eigenvalues(self, rotation_hz, planar, monkeypatch):
        # the verdict is whether K's Cholesky factorization succeeds, not the sign of an eigenvalue
        def no_eigen(*args, **kwargs):
            raise AssertionError("an eigenvalue solver was called")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, no_eigen)
        lattice = solve_equilibrium(paper_trap(rotation_hz=rotation_hz), 19, seed=0)
        assert lattice.converged and lattice.planar is planar

    @pytest.mark.parametrize("lowest", [-1e-3, -1e-12, 1e-12, 1e-3])
    def test_positive_definite_is_the_sign_of_the_lowest_eigenvalue(self, lowest):
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((40, 40)))[0]
        k = (q * np.concatenate([[lowest], np.linspace(0.5, 2.0, 39)])) @ q.T
        assert _positive_definite((k + k.T) / 2.0) is (lowest > 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_buckled_crystal_is_a_minimum_in_3d(self, seed):
        # the random push must leave no symmetry of the plane that could hold the
        # 3D relax on a saddle (a push along the softest mode alone ended on one
        # for half of these seeds at N = 19 and 60 kHz)
        params = paper_trap(rotation_hz=60e3)
        lattice = solve_equilibrium(params, 19, seed=seed)
        assert lattice.converged and not lattice.planar
        trap = np.array([beta(params), beta(params), 1.0])
        hess = _hessian_scaled((lattice.positions / length_scale(params)).ravel(), trap)
        assert np.linalg.eigvalsh(hess)[0] > -1e-9

    def test_invalid_ion_count(self, monkeypatch):
        # refused before the seed is built, let alone a MAX_IONS + 1 solve started
        def no_seed(*args):
            raise AssertionError("the solve began")

        monkeypatch.setattr(crystal, "_seed_scaled", no_seed)
        for n_ions in (0, crystal.MAX_IONS + 1):
            with pytest.raises(ValueError):
                solve_equilibrium(paper_trap(), n_ions)


class TestLatticeStats:
    def test_single_ion(self):
        stats = lattice_stats(solve_equilibrium(paper_trap(), 1))
        assert stats.mean_spacing is None
        assert stats.diameter == 0.0

    def test_pair(self):
        lattice = solve_cached(2)
        d = np.linalg.norm(lattice.positions[0] - lattice.positions[1])
        stats = lattice_stats(lattice)
        assert stats.mean_spacing == pytest.approx(d, rel=1e-12, abs=0.0)
        assert stats.diameter == pytest.approx(d, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_ions", [1, 2, 65, 150])
    def test_matches_brute_force(self, n_ions):
        # 65 and 150 end on partial row blocks; random points in 3D, no lattice order
        pos = np.random.default_rng(n_ions).normal(0.0, 1e-4, (n_ions, 3))
        lattice = CrystalLattice(params=paper_trap(), positions=pos, converged=True,
                                 residual_force_max=0.0, planar=False, energy=0.0, seed=0)
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        stats = lattice_stats(lattice)
        assert stats.diameter == pytest.approx(d.max(), rel=1e-15, abs=0.0)
        if n_ions == 1:
            assert stats.mean_spacing is None
        else:
            np.fill_diagonal(d, np.inf)
            assert stats.mean_spacing == pytest.approx(d.min(axis=1).mean(), rel=1e-15)

    def test_mesoscopic_crystal_matches_reported_scales(self):
        # a few-hundred-ion crystal at the fast-rotation operating point:
        # ~20 um spacing, ~400 um diameter
        stats = lattice_stats(solve_cached(250, 44.7e3))
        assert 15e-6 < stats.mean_spacing < 30e-6
        assert 300e-6 < stats.diameter < 500e-6


class TestHexDiskSeed:
    def test_counts_and_determinism(self):
        a = hex_disk_seed(40, 20e-6)
        b = hex_disk_seed(40, 20e-6)
        assert a.shape == (40, 3)
        assert np.array_equal(a, b)
        assert np.all(a[:, 2] == 0.0)

    def test_minimum_distance_is_spacing(self):
        pts = hex_disk_seed(30, 20e-6)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(d, np.inf)
        assert d.min() == pytest.approx(20e-6, rel=1e-9, abs=0.0)
