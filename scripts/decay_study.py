#!/usr/bin/env python3
"""Compare the analytic reversal chain against a full simulation.

Runs the oscillator at a chosen stiffness-to-friction ratio, seeds the
exact-mode chain from the first simulated reversal, and tabulates both
force sequences side by side with their relative deviation.

Usage:
    python scripts/decay_study.py [--ratio 10] [--reversals 12] [--v0 0.5]
"""

from __future__ import annotations

import argparse

from presliding import FrictionParams, SimConfig, reversal_chain, simulate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ratio", type=float, default=10.0, help="sigma / f_c")
    parser.add_argument("--reversals", type=int, default=12)
    parser.add_argument("--v0", type=float, default=0.5)
    args = parser.parse_args()

    p = FrictionParams(f_c=1.0, sigma=args.ratio)
    cfg = SimConfig(
        params=p, x0=0.0, v0=args.v0, max_reversals=args.reversals, t_max=500.0
    )
    traj = simulate(cfg)
    f_chain = reversal_chain(
        -abs(traj.reversals[0].f_i), len(traj.reversals), p, mode="exact"
    )[1]  # the F_n column

    # the chain works in the ascending frame (seed force negative); flip its
    # signs to the simulation's convention for the printout
    sign_fix = 1.0 if traj.reversals[0].f_i < 0 else -1.0

    print(f"sigma/f_c = {args.ratio:g}, v0 = {args.v0:g}, m = {p.mass:g}")
    print(f"{'i':>3} {'t_i':>10} {'F_sim':>13} {'F_chain':>13} {'rel dev':>10} {'E_p':>12}")
    for rec, f in zip(traj.reversals, f_chain):
        dev = abs(abs(f) - abs(rec.f_i)) / abs(rec.f_i)
        print(
            f"{rec.index:>3} {rec.t_i:>10.4f} {rec.f_i:>13.6e} "
            f"{sign_fix * f:>13.6e} {dev:>10.2e} {rec.e_p:>12.4e}"
        )


if __name__ == "__main__":
    main()
