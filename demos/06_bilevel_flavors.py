"""Bilevel condensation: unrolled training, implicit gradients, trajectory matching.

BPTT differentiates the post-training loss through K inner steps (one exact
adjoint sweep over the synthetic coordinates and the inner learning rate, with
optional randomized truncation); CIG uses the implicit-function formula on the
convex ridge inner problem; trajectory matching chases an expert's snapshots,
differentiated by the same adjoint sweep through the student's minibatch SGD.
"""
import numpy as np

from dckit import LabeledDataset, MethodConfig, SyntheticDataset, cig_ridge_value_and_grad, condense

rng = np.random.default_rng(4)
xt = rng.uniform(0, 1, (16, 2))
yt = np.array([0] * 8 + [1] * 8)
t = LabeledDataset(xt, yt, 2)
s0 = SyntheticDataset(xt[[0, 8]], yt[[0, 8]], per_class_size=1, origin="demo")

print("== BPTT: outer loss after K full-batch inner steps, learned eta ==")
cfg = MethodConfig(method="bptt", outer_steps=5, outer_lr=0.2, hidden=(6,), activation="tanh",
                   inner_steps=4, inner_lr=0.2, seed=1)
_, log = condense(cfg, t, s0)
for row in log.rows:
    print(f"  step {row['step']}: outer loss {row['objective']:.5f}  eta {row['eta']:.4f}")

print("\n== randomized-truncation BPTT: a random window start per outer step ==")
cfg = MethodConfig(method="bptt", outer_steps=3, outer_lr=0.2, hidden=(6,), activation="tanh",
                   inner_steps=6, inner_lr=0.2, seed=1,
                   variants={"rat_truncation": {"window": 2}})
_, log = condense(cfg, t, s0)
print(f"  objectives {[round(float(v), 5) for v in log.objectives()]} (window 2 of 6 inner steps)")

print("\n== CIG on the convex ridge inner problem ==")
s = rng.uniform(0.2, 0.8, (2, 2))
y_s = np.eye(2)
y_t = np.eye(2)[yt]
value, grad = cig_ridge_value_and_grad(s, y_s, xt, y_t, lam=0.3)
h = 1e-6
fd = np.zeros_like(s)
for j in range(2):
    for k in range(2):
        sp, sm = s.copy(), s.copy()
        sp[j, k] += h
        sm[j, k] -= h
        fd[j, k] = (cig_ridge_value_and_grad(sp, y_s, xt, y_t, 0.3)[0]
                    - cig_ridge_value_and_grad(sm, y_s, xt, y_t, 0.3)[0]) / (2 * h)
print(f"  outer loss {value:.6f}")
print(f"  implicit gradient  {grad.ravel().round(6).tolist()}")
print(f"  finite differences {fd.ravel().round(6).tolist()}")

cfg = MethodConfig(method="cig_ridge", outer_steps=20, outer_lr=1.0, ridge_lambda=0.3, seed=0)
_, log = condense(cfg, t, s0)
print(f"  descent with implicit gradients: {log.objectives()[0]:.5f} -> {log.objectives()[-1]:.5f}")

print("\n== trajectory matching against an expert trained on T ==")
cfg = MethodConfig(method="trajectory", outer_steps=4, outer_lr=0.05, hidden=(4,), activation="tanh",
                   inner_steps=3, inner_batch=8, inner_lr=0.2, seed=3)
_, log = condense(cfg, t, s0)
print(f"  snapshot-distance objective {[round(float(v), 5) for v in log.objectives()]}")
