"""Slip and stick on the 1D benchmark.

-(u')' = 1 on (0,1) with u(0) = 0 and a scalar friction threshold f acting on
u(1).  Below f = 1/2 the end slips and u(1) = 1/2 - f; above it sticks and
u(1) = 0.  The exact solver (active-set) and the smoothed Newton solver are
compared at the end point.
"""
import numpy as np

from vi_ident import (
    assemble_operator,
    ellipticity_field,
    friction_field,
    get_kernel,
    interval_mesh,
    solve_regularized,
    solve_vi_oracle,
)
from vi_ident.forward import factorize

n = 256
mesh = interval_mesh(0.0, 1.0, n)
e = ellipticity_field(mesh, 1.0)
fac = factorize(assemble_operator(mesh, e), mesh)  # one LU for every solve below
kernel = get_kernel("sqrt")

print(f"{'f':>6} {'u(1) exact':>12} {'oracle':>12} {'smoothed (eps=1e-6)':>20} {'regime':>8}")
for f_val in (0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0):
    f = friction_field(mesh, f_val)
    exact = max(0.5 - f_val, 0.0)
    oracle = solve_vi_oracle(fac, mesh, f)
    smooth = solve_regularized(fac, mesh, f, kernel, 1e-6, tol=1e-11)
    regime = "slip" if f_val < 0.5 else "stick"
    print(
        f"{f_val:6.2f} {exact:12.8f} {oracle.u[-1]:12.8f} "
        f"{smooth.u[-1]:20.8f} {regime:>8}"
    )

# the oracle solution minimizes the nonsmooth energy; sample the profile
f = friction_field(mesh, 0.25)
state = solve_vi_oracle(fac, mesh, f)
print()
print("u(x) at f = 0.25, sampled:")
for i in range(0, n + 1, n // 8):
    x = mesh.nodes[i, 0]
    print(f"  u({x:4.2f}) = {state.u[i]:.8f}   (exact {x - x * x / 2 - 0.25 * x:.8f})")
print(f"oracle iterations: {state.iterations}, residual {state.residual_norm:.2e}")
