#!/usr/bin/env bash
# The README command chain through the installed htspectra entry point,
# writing under out/ in the working directory:
#
#     bash tools/command_chain.sh
#
# The quick-start commands at small sizes, the critical-set search at
# alpha = 1.9, whose seeds reach the cone edge, where g takes the middle of
# the rays on which its integrand decays, and at alpha = 1.99, where g's
# default path raises instead of falling back to adaptive subdivision, and
# seeds converge on the negative real axis just outside the cone (1.005 of
# its edge) and the Newton loop's closing cone check must reject them, a
# gamma = 1 curve, which solves the covariance pair, a gamma = 0.5 curve at
# alpha = 1.9, whose Y2 reaches the cone edge, two curves whose sweep must
# turn back from a correction off the density's branch (alpha = 1.8 at 9
# points, alpha = 1.95 with gamma = 0.9 at 40), an alpha = 2 curve, a
# single covariance point, a three-cell piecewise band curve, whose Newton
# steps go through np.linalg.solve, and a perturbed ensemble with the
# README's diagonal law.  Any nonzero exit fails the chain, and a --t of 0
# must be rejected as a usage error, exit 1.  No command needs scipy.
set -e
htspectra theory --alpha 1.5 --t-min 0.01 --t-max 100 --points 200 --out out/theory
htspectra simulate --alpha 1.5 --n 200 --trials 2 --seed 1 --out out/sim
mkdir -p out
echo '{"atoms": [{"lambda": -1.0, "w": 0.5}, {"lambda": 1.0, "w": 0.5}]}' > out/diag.json
htspectra simulate --model perturbed --diag out/diag.json --alpha 1.5 --n 100 --trials 2 --seed 1 --out out/perturbed
htspectra compare --theory out/theory/density.csv \
  --spectra out/sim/eigenvalues.csv \
  --window=-10:10 --exclude-zero 0.2 --out out
htspectra critical-set --alpha 1.2 --out out
htspectra critical-set --alpha 1.9 --out out
htspectra critical-set --alpha 1.99 --out out
htspectra theory --model wishart --alpha 1.5 --gamma 1 --points 20 --out out/wishart
htspectra theory --model wishart --alpha 1.9 --gamma 0.5 --t-min 1e-2 --t-max 1e3 --points 40 --out out/wishart19
htspectra theory --model wishart --alpha 1.8 --gamma 0.5 --t-min 1e-2 --t-max 1e3 --points 9 --out out/wishart18
htspectra theory --model wishart --alpha 1.95 --gamma 0.9 --t-min 1e-2 --t-max 1e3 --points 40 --out out/wishart195
htspectra theory --alpha 2 --points 50 --out out/alpha2
htspectra theory --model wishart --alpha 1.5 --gamma 0.5 --t 0.7 --out out/point
echo '{"type": "piecewise", "breaks": [0.0, 0.3, 0.7, 1.0], "matrix": [[1.0, 0.5, 0.2], [0.5, 1.2, 0.4], [0.2, 0.4, 0.9]]}' > out/piecewise3.json
htspectra theory --model band --profile out/piecewise3.json --alpha 1.5 --t-min 0.01 --t-max 100 --points 20 --out out/piecewise3
rc=0
htspectra theory --alpha 1.5 --t 0 --out out/rejected || rc=$?
test "$rc" -eq 1
