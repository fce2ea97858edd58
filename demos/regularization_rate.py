"""How fast does the smoothed solution approach the exact one?

Theory guarantees ||u_eps - u||_V = O(sqrt(eps)); in the stick regime the
observed rate is typically close to 1.  Fit the log-log slope per kernel.
"""
import numpy as np

from vi_ident import (
    KERNEL_NAMES,
    assemble_operator,
    ellipticity_field,
    friction_field,
    get_kernel,
    interval_mesh,
    solve_regularized,
    solve_vi_oracle,
    v_norm,
)
from vi_ident.forward import factorize

mesh = interval_mesh(0.0, 1.0, 64)
e = ellipticity_field(mesh, 1.0)
f = friction_field(mesh, 1.0)  # stick: the friction node carries the kink
fac = factorize(assemble_operator(mesh, e), mesh)  # one LU for every solve below
exact = solve_vi_oracle(fac, mesh, f, tol=1e-12)

eps_list = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
print(f"{'eps':>8} " + " ".join(f"{name:>18}" for name in KERNEL_NAMES))
errors = {name: [] for name in KERNEL_NAMES}
for eps in eps_list:
    row = []
    for name in KERNEL_NAMES:
        state = solve_regularized(fac, mesh, f, get_kernel(name), eps, tol=1e-11, u0_full=exact.u)
        err = v_norm(mesh, state.u - exact.u)
        errors[name].append(err)
        row.append(err)
    print(f"{eps:8.0e} " + " ".join(f"{v:18.3e}" for v in row))

print()
for name in KERNEL_NAMES:
    slope = np.polyfit(np.log(eps_list), np.log(errors[name]), 1)[0]
    print(f"fitted slope {name:18s} {slope:.3f}   (guaranteed >= 0.5)")
