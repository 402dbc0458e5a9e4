"""Walk through the 4-state perturbed chain: classic Markov-Dobrushin
bounds, the coupling-matrix spectral-radius bound, and how both compare to
the true TV distances of exactly propagated flows."""

from nmcbounds import (
    StochasticMatrix,
    build_coupling_matrix,
    builtin_example,
    full_report,
    md_alpha,
    spectral_bound,
    spectral_radius,
    tv_envelope,
)
from nmcbounds.experiments import EXAMPLE1_P

K = builtin_example(1, kappa=0.1)
P = StochasticMatrix(EXAMPLE1_P)

print("Linear part of the 4-state example:")
print(EXAMPLE1_P)

print("\nMarkov-Dobrushin coefficients of the linear part:")
for k in range(1, 5):
    a = md_alpha(P, k).value
    print(f"  k={k}: alpha_{k} = {a:.4f}   ->  2(1-alpha_{k}) = {2 * (1 - a):.4f}")

M = build_coupling_matrix(P)
est = spectral_radius(M)
print(f"\nCoupling matrix over unordered state pairs is {M.dim}x{M.dim}; "
      f"spectral radius r = {est.r:.6f} (bracket width {est.eps:.1e})")
print("Spectral-radius bound 2(1-1/4)(r+eps)^n:")
for n in (1, 2, 3, 4):
    print(f"  n={n}: {spectral_bound(est.r, est.eps, P.p, n):.4f}")

print("\nFull report (all curves) vs the true distances of 1000 random starts:")
report = full_report(K, 10, mc_samples=500, seed=0)
env = tv_envelope(K, trials=1000, steps=10, rng=0)
print(f"  gamma = {report.gamma:.4f}, delta = {report.delta:.4f}")
header = f"{'n':>3} {'true max':>10} {'md':>8} {'spectral':>9} {'combined':>9}"
print(header)
for i in range(10):
    print(f"{i + 1:>3} {env.tv_max[i + 1]:>10.4f} {report.curves['md'][i]:>8.4f} "
          f"{report.curves['spectral'][i]:>9.4f} "
          f"{report.curves['combined_small_n'][i]:>9.4f}")
print("\nThe spectral curve sits well below the classic bound while still "
      "dominating every simulated trajectory.")
