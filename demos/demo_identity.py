#!/usr/bin/env python3
"""Verify the Gibbs dynamical identity on manufactured space-time fields.

The identity ties the energy expression E, the velocity-weighted momentum
residuals, the mass residuals and the heat-exchange sum S, and holds for
arbitrary smooth fields -- no equations of motion are assumed.  Two
evaluation modes: complex-step derivatives (exact to round-off) and central
finite differences (second-order convergent).
"""

import bifluid as bf

pot = bf.ExtendedPotential.quadratic()
fields = bf.ManufacturedFields.sinusoidal()
window = bf.SampleWindow()

print("== analytic mode (exact derivatives) ==")
rep = bf.gibbs_residual(fields, pot, window, mode="analytic")
print(f"residual_max    = {rep.residual_max:.3e}")
print(f"term magnitude  = {rep.term_magnitude:.3e}")
print(f"relative        = {rep.residual_max / rep.term_magnitude:.3e}")
print("sub-identities:")
for name, val in rep.per_identity.items():
    print(f"  identity {name}: max residual {val:.3e}")

print("\n== finite-difference mode, three step halvings ==")
norms = []
for k in range(3):
    step = 0.5**k
    r = bf.gibbs_residual(fields, pot, window, mode="fd",
                          h=1e-3 * step, dt=1e-3 * step)
    norms.append(r.residual_max)
    print(f"step scale {step:5.3f}: residual_max = {r.residual_max:.6e}")
print(f"measured convergence order: {bf.convergence_order(norms):.4f} "
      "(central differences: expect 2)")

print("\n== constant fields: every derivative vanishes ==")
rep0 = bf.gibbs_residual(bf.ManufacturedFields.constant(), pot, window)
print(f"residual_max = {rep0.residual_max}")

print("\n== local Lagrangian quantities at one state ==")
q = bf.lagrangian_quantities(pot, 1.5, 2.0, 0.4, -0.3, 0.2, -0.1)
print(f"T1 = {q.T1:.4f}, T2 = {q.T2:.4f}")
print(f"drift momentum i = {q.i:.4f}, energy f = {q.f:.4f}")
print(f"modified velocities k1 = {q.k1:.4f}, k2 = {q.k2:.4f}")
