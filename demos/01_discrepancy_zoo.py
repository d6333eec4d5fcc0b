"""Tour of the discrepancy functionals on a toy two-class problem.

Builds a labeled dataset T and a candidate synthetic set S, then walks the
whole family: kernel MMD, exact Wasserstein-1, Hausdorff, characteristic
discrepancy, the model-based feature/gradient/moment statistics, and the
generalization / value / parameter discrepancies over a finite hypothesis set.
Ends with the hierarchy report and its recorded bound checks.
"""
import numpy as np

from dckit import (
    LabeledDataset,
    Mlp,
    ModelBatch,
    SyntheticDataset,
    characteristic_discrepancy,
    gaussian_spec,
    generalization_discrepancy_finite,
    gradient_discrepancy,
    hausdorff_distance,
    hierarchy_report,
    ipm_feature_stat,
    loss_discrepancy,
    mmd_squared,
    moment_discrepancy,
    wasserstein1,
)

rng = np.random.default_rng(0)
t = LabeledDataset(rng.uniform(0, 1, (40, 2)), np.array([0] * 20 + [1] * 20), 2)
s = SyntheticDataset(rng.uniform(0, 1, (6, 2)), np.array([0] * 3 + [1] * 3),
                     per_class_size=3, origin="demo")

print("== model-free metrics on the pooled point sets ==")
kern = gaussian_spec(1.0)
print(f"MMD^2 (Gaussian c=1)      {mmd_squared(kern, t.features, s.features):.6f}")
print(f"Wasserstein-1 (exact)     {wasserstein1(t.features, s.features):.6f}")
print(f"Hausdorff                 {hausdorff_distance(t.features, s.features):.6f}")
print(f"Characteristic (128 freq) {characteristic_discrepancy(t.features, s.features):.6f}")

print("\n== finite-batch IPM surrogates (max over 4 random networks) ==")
batch = ModelBatch(tuple(Mlp.init((2, 16, 2), "relu", seed=i) for i in range(4)))
print(f"feature-mean mismatch     {ipm_feature_stat(batch, t, s):.6f}")
print(f"gradient mismatch         {gradient_discrepancy(batch, t, s):.6f}")
print(f"first+second moments      {moment_discrepancy(batch, t, s):.6f}")

print("\n== generalization / value / parameter discrepancies ==")
gd, vd, pd = generalization_discrepancy_finite(batch, t, s)
print(f"gd={gd:.6f}  vd={vd:.6f}  pd={pd:.6f}")
print(f"dd={loss_discrepancy(batch, t, s):.6f}  (max loss gap; gd <= 2 dd)")

print("\n== full hierarchy report ==")
rep = hierarchy_report(t, s, batch)
for name, value in sorted(rep.values.items()):
    print(f"  {name:12s} {value:.6f}")
for name, lhs, rhs, ok in rep.hierarchy_checks:
    print(f"  check {name}: {lhs:.6f} <= {rhs:.6f}  ->  {'satisfied' if ok else 'VIOLATED'}")
