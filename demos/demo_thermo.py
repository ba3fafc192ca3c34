#!/usr/bin/env python3
"""Walk through the thermodynamic structure of a two-temperature gas pair.

Shows: entropy <-> temperature inversion, partial vs stress pressures, the
implicit average temperature and the density-weighted deviation split.
"""

import numpy as np

import bifluid as bf

model = bf.GasPairModel(k1=1.0, k2=0.5, cv1=1.5, cv2=2.5)
rho1, rho2, T1, T2 = 1.0, 2.0, 300.0, 320.0

print("== component entropies from temperatures ==")
s1 = float(bf.entropy_from_temperature(model, 1, rho1, T1))
s2 = float(bf.entropy_from_temperature(model, 2, rho2, T2))
print(f"s1 = {s1:.6f}, s2 = {s2:.6f}")
print(f"round trip T1 = {float(bf.temperature_from_entropy(model, 1, rho1, s1)):.6f}")

print("\n== full thermodynamic point ==")
pt = bf.thermo_eval(model, rho1, rho2, s1, s2)
print(f"internal energy e = {float(pt.e):.4f}")
print(f"partial pressures: {float(pt.p_partial1):.4f} + {float(pt.p_partial2):.4f}"
      f" = {float(pt.p):.4f}")
print(f"stress pressures:  {float(pt.p_stress1):.4f} + {float(pt.p_stress2):.4f}"
      f" = {float(pt.p_stress1 + pt.p_stress2):.4f}")
print("componentwise the two pressure definitions differ; the totals agree.")
print(f"enthalpies h1 = {float(pt.h1):.4f}, h2 = {float(pt.h2):.4f}")
print(f"chemical potentials mu1 = {float(pt.mu1):.4f}, mu2 = {float(pt.mu2):.4f}")

print("\n== average temperature (energy-matching definition, closed form) ==")
res = bf.average_temperature(model, rho1, rho2, T1, T2)
print(f"T = {res.T:.9f}  (energy residual {res.residual:.2e})")
print(f"deviations theta1 = {res.theta1:.6f}, theta2 = {res.theta2:.6f}")

beta = bf.beta_split(model, rho1, rho2)
theta = T2 - T1
print(f"\ndeviation split: beta = {beta:.9f}")
print(f"T + beta*Theta       = {res.T + beta * theta:.6f}  (should be T1 = {T1})")
print(f"T + (1+beta)*Theta   = {res.T + (1 + beta) * theta:.6f}  (should be T2 = {T2})")

print("\n== energy is conserved by the averaging ==")
e_two = bf.internal_energy_volume(model, rho1, rho2, T1, T2)
e_avg = bf.internal_energy_volume(model, rho1, rho2, res.T, res.T)
print(f"e(T1, T2) = {float(e_two):.6f}, e(T, T) = {float(e_avg):.6f}")
