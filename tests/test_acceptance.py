"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
``pytest -v`` run leaves an auditable record of the measured margin next
to the pinned tolerance.  Every random quantity is seeded; the stochastic
criteria state their seeds explicitly.
"""

from pathlib import Path

import numpy as np
import pytest

import vechgarch as vg
from vechgarch import linalg
from vechgarch.aggregation import AggregationInput, aggregate_data, aggregate_params
from vechgarch.asymptotics import JacobianState, jacobian_matrix, standard_errors
from vechgarch.cli import main as cli_main
from vechgarch.exceptions import UnimodularEigenvalues, VechGarchError
from vechgarch.simulate import simulate, to_x
from vechgarch.solver import GammaState, build_p, estimate, solve_b

FIXTURES = Path(__file__).parent / "data"


def reference_spec_d2():
    a = np.array([
        [0.12, 0.02, 0.01],
        [0.01, 0.10, 0.02],
        [0.02, 0.01, 0.12],
    ])
    b = np.array([
        [0.50, 0.03, 0.01],
        [0.02, 0.52, 0.02],
        [0.01, 0.03, 0.48],
    ])
    h = np.array([1.0, 0.25, 1.0])
    return vg.GarchSpec(d=2, c=(np.eye(3) - a - b) @ h, A=a, B=b)


def report(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def spec_error(est_spec, true_spec):
    return max(np.abs(est_spec.c - true_spec.c).max(),
               np.abs(est_spec.A - true_spec.A).max(),
               np.abs(est_spec.B - true_spec.B).max())


def stable_scalar_root(g0, g1):
    roots = np.roots([g1, g0, g1])
    stable = roots[np.abs(roots) < 1.0]
    assert stable.size == 1
    return float(stable[0].real)


def test_closed_form_round_trip_on_population_moments(capsys):
    # 100 random specs for each d in {1, 2, 3}: population moments in,
    # generating parameters back out, everything within 1e-8.
    rng = np.random.Generator(np.random.Philox(1001))
    worst = 0.0
    for d in (1, 2, 3):
        for _ in range(100):
            spec = vg.random_spec(d, rng)
            sigma = vg.random_sigma(spec.dbar, rng)
            rep = estimate(vg.population_moments(spec, sigma))
            err = max(spec_error(rep.spec, spec),
                      np.abs(rep.sigma - sigma).max())
            worst = max(worst, err)
    report(capsys, "round trip", worst < 1e-8,
           f"max parameter error {worst:.3e} over 300 specs (tol 1e-8)")


def test_scalar_solvent_matches_quadratic_formula(capsys):
    # 1000 scalar (B, Sigma) draws: the companion-based solvent must agree
    # with the explicit quadratic root to 1e-10.
    rng = np.random.Generator(np.random.Philox(1002))
    worst = 0.0
    for _ in range(1000):
        b = float(rng.uniform(0.05, 0.95) * rng.choice([-1.0, 1.0]))
        s = float(rng.uniform(0.2, 5.0))
        g0 = s * (1.0 + b * b)
        g1 = -b * s
        sol = solve_b(GammaState(phi=[[0.0]], gamma0=[[g0]], gamma1=[[g1]]))
        worst = max(worst, abs(sol.b[0, 0] - stable_scalar_root(g0, g1)))
    report(capsys, "scalar quadratic", worst < 1e-10,
           f"max |b - root| {worst:.3e} over 1000 draws (tol 1e-10)")


def test_companion_eigenvalues_come_in_reciprocal_pairs(capsys):
    # 1000 random symmetric gamma0 / invertible gamma1 states; sorted
    # moduli must multiply to 1 pairwise within 1e-8.
    rng = np.random.Generator(np.random.Philox(1003))
    worst = 0.0
    for i in range(1000):
        dbar = (1, 2, 3)[i % 3]
        w = rng.normal(size=(dbar, dbar))
        g0 = w + w.T
        while True:
            g1 = rng.normal(size=(dbar, dbar))
            if np.linalg.svd(g1, compute_uv=False)[-1] >= 0.05:
                break
        gs = GammaState(phi=np.zeros((dbar, dbar)), gamma0=g0, gamma1=g1)
        moduli = np.sort(np.abs(linalg.eig(build_p(gs)).eigenvalues))
        worst = max(worst, np.abs(moduli * moduli[::-1] - 1.0).max())
    report(capsys, "eigenvalue pairing", worst < 1e-8,
           f"max |r_i * r_(2k+1-i) - 1| {worst:.3e} over 1000 states (tol 1e-8)")


def test_analytic_jacobian_agrees_with_finite_differences(capsys):
    # 20 population states (10 scalar, 10 two-dimensional); relative
    # elementwise gap below 1e-6 against central differences with step
    # 1e-6 (1 + |m_i|).
    def pipeline(ms):
        rep = estimate(ms)
        return np.concatenate([rep.spec.c, linalg.vec(rep.spec.A),
                               linalg.vec(rep.spec.B)])

    worst = 0.0
    for d, base_seed in ((1, 1100), (2, 1200)):
        for i in range(10):
            rng = np.random.Generator(np.random.Philox(base_seed + i))
            while True:
                spec = vg.random_spec(d, rng)
                sigma = vg.random_sigma(spec.dbar, rng)
                ms = vg.population_moments(spec, sigma)
                # Central differences at this step cannot resolve the map
                # through an ill-conditioned lag-1 moment inversion (the
                # truncation term grows with cond(m1)^3), so redraw rather
                # than compare garbage against garbage.
                if np.linalg.cond(ms.m1) <= 25.0:
                    break
            k = ms.dbar
            analytic = jacobian_matrix(JacobianState.from_moments(ms))
            m = np.concatenate([ms.mean, linalg.vec(ms.m0), linalg.vec(ms.m1),
                                linalg.vec(ms.m2)])

            def at(vec):
                mats = [linalg.unvec(vec[k + j * k * k: k + (j + 1) * k * k], k, k)
                        for j in range(3)]
                return vg.MomentSet(mean=vec[:k], m0=mats[0], m1=mats[1],
                                    m2=mats[2])

            fd = np.empty_like(analytic)
            for col in range(m.size):
                step = 1e-6 * (1.0 + abs(m[col]))
                up, down = m.copy(), m.copy()
                up[col] += step
                down[col] -= step
                fd[:, col] = (pipeline(at(up)) - pipeline(at(down))) / (2 * step)
            worst = max(worst, (np.abs(analytic - fd) / (1.0 + np.abs(fd))).max())
    report(capsys, "jacobian vs fd", worst < 1e-6,
           f"max relative gap {worst:.3e} over 20 states (tol 1e-6)")


@pytest.mark.slow
def test_estimation_error_shrinks_with_sample_size(capsys):
    # 20 paired replications (seeds 5000..5019) at n = 20k and n = 80k:
    # quadrupling the sample should halve the typical error, so the median
    # error ratio must land in [1.3, 3.1].
    spec = reference_spec_d2()
    errors = {20_000: [], 80_000: []}
    failures = 0
    for rep in range(20):
        for n in errors:
            try:
                est = estimate(to_x(simulate(spec, n, seed=5000 + rep).y))
                errors[n].append(spec_error(est.spec, spec))
            except VechGarchError:
                failures += 1
    ok = failures == 0
    ratio = float("nan")
    if ok:
        ratio = np.median(errors[20_000]) / np.median(errors[80_000])
        ok = 1.3 <= ratio <= 3.1
    report(capsys, "error scaling", ok,
           f"median error ratio (n=2e4 / n=8e4) {ratio:.3f} "
           f"(window [1.3, 3.1], failures {failures})")


@pytest.mark.slow
def test_confidence_interval_coverage(capsys):
    # 200 scalar replications (seeds 42..241, n = 1e5): nominal 95%
    # intervals from the delta method must cover each of (c, a, b)
    # between 85% and 99% of the time.
    spec = vg.GarchSpec(d=1, c=[0.3], A=[[0.1]], B=[[0.6]])
    truth = np.array([spec.c[0], spec.A[0, 0], spec.B[0, 0]])
    hits = np.zeros(3)
    failures = 0
    reps = 200
    for rep in range(reps):
        try:
            x = to_x(simulate(spec, 100_000, seed=42 + rep).y)
            est = estimate(x)
            se = standard_errors(est, x).std_errors
            point = np.array([est.spec.c[0], est.spec.A[0, 0], est.spec.B[0, 0]])
            hits += (np.abs(point - truth) <= 1.96 * se).astype(float)
        except VechGarchError:
            failures += 1
    done = reps - failures
    coverage = hits / max(done, 1)
    ok = failures <= 10 and all(0.85 <= c <= 0.99 for c in coverage)
    report(capsys, "ci coverage", ok,
           f"coverage c/a/b = {coverage[0]:.3f}/{coverage[1]:.3f}/"
           f"{coverage[2]:.3f} over {done} fits (window [0.85, 0.99], "
           f"failures {failures})")


def test_aggregation_identity_and_scalar_oracle(capsys):
    # m = 1 must return the input spec for both kinds; the scalar stock
    # m = 2 parameters must match the quadratic formula applied to the
    # hand-computed autocovariances (1.5284, -0.72).
    rng = np.random.Generator(np.random.Philox(1007))
    worst_identity = 0.0
    for d in (1, 2):
        for kind in ("stock", "flow"):
            for _ in range(5):
                spec = vg.random_spec(d, rng)
                sigma = vg.random_sigma(spec.dbar, rng)
                agg = aggregate_params(AggregationInput(spec=spec, sigma=sigma,
                                                        m=1, kind=kind))
                worst_identity = max(worst_identity,
                                     spec_error(agg.spec_m, spec),
                                     np.abs(agg.report.sigma - sigma).max())

    scalar = vg.GarchSpec(d=1, c=[0.1], A=[[0.1]], B=[[0.8]])
    agg2 = aggregate_params(AggregationInput(spec=scalar, sigma=np.eye(1), m=2,
                                             kind="stock"))
    b_oracle = stable_scalar_root(1.5284, -0.72)
    gap2 = max(abs(agg2.spec_m.B[0, 0] - b_oracle),
               abs(agg2.spec_m.A[0, 0] - (0.81 - b_oracle)),
               abs(agg2.spec_m.c[0] - 0.19))
    ok = worst_identity <= 1e-10 and gap2 <= 1e-10
    report(capsys, "aggregation oracle", ok,
           f"m=1 identity error {worst_identity:.3e}, scalar m=2 gap "
           f"{gap2:.3e} (tol 1e-10)")


@pytest.mark.slow
def test_aggregate_then_estimate_matches_estimate_then_aggregate(capsys):
    # One long path (n = 6e5, seed 31337), m = 3 stock sampling: fitting
    # the subsampled data directly and aggregating the high-frequency fit
    # analytically must agree within 0.2 elementwise.
    spec = reference_spec_d2()
    sim = simulate(spec, 600_000, seed=31337)
    direct = estimate(to_x(aggregate_data(sim.y, 3, kind="stock")))
    high = estimate(to_x(sim.y))
    analytic = aggregate_params(AggregationInput(spec=high.spec, sigma=high.sigma,
                                                 m=3, kind="stock"))
    gap = spec_error(direct.spec, analytic.spec_m)
    report(capsys, "two-route aggregation", gap <= 0.2,
           f"max elementwise gap {gap:.3f} (tol 0.2, n=6e5, m=3)")


def test_unit_circle_eigenvalues_are_rejected(capsys):
    # gamma0 = 2, gamma1 = -1 puts the companion eigenvalues at exactly 1;
    # the library must refuse, and the CLI must map it to exit code 4 on
    # the frozen fixture sample.
    lib_ok = False
    try:
        solve_b(GammaState(phi=[[0.9]], gamma0=[[2.0]], gamma1=[[-1.0]]))
    except UnimodularEigenvalues:
        lib_ok = True
    code = cli_main(["estimate", "--data", str(FIXTURES / "unimodular.csv")])
    ok = lib_ok and code == 4
    report(capsys, "unimodular refusal", ok,
           f"library raised: {lib_ok}, cli exit code {code} (want 4)")


def test_jacobian_norm_increases_with_persistence(capsys):
    # Along b in {0.5, 0.9, 0.99} with a = (1 - b)/2 the sensitivity of
    # the closed form must grow strictly.
    norms = []
    for b in (0.5, 0.9, 0.99):
        a = (1.0 - b) / 2.0
        spec = vg.GarchSpec(d=1, c=[1.0 - a - b], A=[[a]], B=[[b]])
        ms = vg.population_moments(spec, np.array([[1.0]]))
        norms.append(float(np.linalg.norm(jacobian_matrix(
            JacobianState.from_moments(ms)))))
    ok = norms[0] < norms[1] < norms[2]
    report(capsys, "sensitivity growth", ok,
           f"Frobenius norms {norms[0]:.3g} < {norms[1]:.3g} < {norms[2]:.3g}")
