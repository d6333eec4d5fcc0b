"""Kernel families and the mean-embedding view of MMD.

Shows the gamma-exponential family, the empirical NTK of an actual network,
random Fourier features converging to the Gaussian kernel, the identity
MMD^2 = || mean phi(T) - mean phi(S) ||^2 for finite feature maps, and the exact
input gradients sum_i coef[i, j] grad_{b_j} k(a_i, b_j) that krr and mmd take.
"""
import numpy as np

from dckit import (
    KernelSpec,
    Mlp,
    gaussian_spec,
    gram_matrix,
    kernel_eval,
    median_heuristic_spec,
    mmd_squared,
    random_feature_map,
)
from dckit.kernels import gram_and_vjp, kernel_grad2

rng = np.random.default_rng(1)
x1, x2 = rng.uniform(size=3), rng.uniform(size=3)
r = np.linalg.norm(x1 - x2)

print("== gamma-exponential family ==")
for gamma, name in ((2.0, "Gaussian"), (1.0, "Laplacian"), (0.5, "gamma=0.5")):
    spec = KernelSpec("gamma_exponential", gamma=gamma, scale=1.0)
    print(f"  {name:10s} k(x1,x2) = {kernel_eval(spec, x1, x2):.6f}   (exp(-r^{gamma}) = {np.exp(-r**gamma):.6f})")

print("\n== empirical NTK ==")
# a network without hidden layers is the linear model x.w + b; its logit's parameter gradient
# is (x, 1), so its NTK is x1.x2 + 1, the 1 coming from the bias
lin = Mlp((3, 1), "relu", [1.0, 1.0, 1.0, 0.0])  # the flat parameters: w = (1, 1, 1), then b = 0
ntk_lin = KernelSpec("empirical_ntk", model=lin)
print(f"  linear model: k(x1,x2) = {kernel_eval(ntk_lin, x1, x2):.6f}  vs  x1.x2 + 1 = {x1 @ x2 + 1:.6f}")
net = Mlp.init((3, 16, 2), "relu", seed=0)
ntk = KernelSpec("empirical_ntk", model=net)
pts = rng.uniform(size=(6, 3))
g = gram_matrix(ntk, pts, pts)
print(f"  relu net Gram is PSD: min eig = {np.linalg.eigvalsh((g + g.T) / 2).min():.2e}")

print("\n== random Fourier features -> Gaussian kernel ==")
c = 0.5
for p in (64, 1024, 16384):
    spec = KernelSpec("random_feature", scale=c, feature_dim=p, seed=3)
    approx = random_feature_map(spec, x1) @ random_feature_map(spec, x2)
    print(f"  p={p:6d}: phi(x1).phi(x2) = {approx:.5f}   target exp(-c r^2) = {np.exp(-c * r**2):.5f}")

print("\n== kernel-only MMD vs the embedding norm ==")
t = rng.uniform(size=(10, 3))
s = rng.uniform(size=(4, 3))
spec = KernelSpec("random_feature", scale=c, feature_dim=256, seed=5)
emb = random_feature_map(spec, t).mean(axis=0) - random_feature_map(spec, s).mean(axis=0)
print(f"  double-sum MMD^2      = {mmd_squared(spec, t, s):.12f}")
print(f"  ||mean embedding gap||^2 = {float(emb @ emb):.12f}")

print("\n== exact input gradients ==")
# gram_and_vjp(spec, a, b) returns k(a, b) and its VJP coef -> sum_i coef[i, j] grad_{b_j} k(a_i, b_j)
# from one evaluation of a and b
coef = rng.normal(size=(len(t), len(s)))
gauss = gaussian_spec(1.0)
tensor = np.einsum("ab,abn->bn", coef, kernel_grad2(gauss, t, s))  # the (A, B, n) tensor, summed
err = np.abs(gram_and_vjp(gauss, t, s)[1](coef) - tensor).max()
print(f"  Gaussian: max |gram_and_vjp's VJP - summed kernel_grad2| = {err:.1e}")
h, fd = 1e-5, np.zeros_like(s)
for j, f in np.ndindex(s.shape):  # central difference of sum_ij coef_ij k(t_i, s_j) in s_jf
    step = np.zeros_like(s)
    step[j, f] = h
    fd[j, f] = np.sum(coef * (gram_matrix(spec, t, s + step) - gram_matrix(spec, t, s - step))) / (2 * h)
err = np.abs(gram_and_vjp(spec, t, s)[1](coef) - fd).max()
print(f"  random features (p=256): max |gram_and_vjp's VJP - central difference| = {err:.1e}")

print("\n== median-heuristic bandwidth ==")
spec = median_heuristic_spec(t)
print(f"  c = {spec.scale:.4f} from the median pairwise distance; "
      f"MMD^2(T,S) = {mmd_squared(spec, t, s):.6f}")
print(f"  MMD^2(T,T) = {mmd_squared(spec, t, t):.2e} (identical multisets)")
print(f"  Gaussian MMD separates distinct sets: {mmd_squared(gaussian_spec(1.0), t, s) > 0}")
