"""The 5-state example: spectral-radius bounds stay strictly below the
Markov-Dobrushin curve, and the comparison table exports to CSV."""

import os
import tempfile

from nmcbounds import build_coupling_matrix, builtin_example, compare_bounds, export_report

K = builtin_example(2, kappa=0.1)
table, report = compare_bounds(K, steps=10, trials=500, seed=42)
d = build_coupling_matrix(K.linear_part).dim

print("5-state perturbed chain, kappa = 0.1")
print(f"alpha_1 = {report.alpha[0]:.4f}, r(M) = {report.r:.6f} "
      f"({d}x{d} coupling matrix)")
print()
print("  ".join(f"{c:>10}" for c in table.columns))
for row in table.rows:
    print("  ".join(f"{v:>10.4f}" if isinstance(v, float) else f"{v:>10}" for v in row))

ordering = all(r[table.columns.index("spectral")] < r[table.columns.index("md")]
               for r in table.rows)
print(f"\nspectral < md at every step: {ordering}")

out = os.path.join(tempfile.gettempdir(), "example2_comparison.csv")
export_report(table, out)
print(f"table written to {out}")
