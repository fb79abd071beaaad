#!/usr/bin/env python3
"""End-to-end FIR H2 synthesis demo.

Synthesizes an FIR state-feedback controller for a small plant, compares
the implied static gain with the Riccati LQR gain, certifies all three
closed-loop realizations, and cross-checks each against a floating-point
simulation of its update equations.
"""

import argparse
from fractions import Fraction

from rstab import (
    PlantSS,
    RealizationVariant,
    certify_realization,
    dare_lqr,
    fir_from_slp,
    impulse_match,
    synthesize_sf_h2,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, default=20, help="FIR horizon T")
    parser.add_argument("--a", type=float, default=0.5, help="scalar plant pole")
    parser.add_argument("--match-horizon", type=int, default=50)
    args = parser.parse_args()

    plant = PlantSS.state_feedback([[args.a]], [[1.0]])
    print(f"plant: x[t+1] = {args.a} x[t] + u[t]")

    bundle = synthesize_sf_h2(plant, [[1.0]], [[1.0]], args.horizon)
    fx, fu = fir_from_slp(bundle)
    gain = dare_lqr(plant, [[1.0]], [[1.0]])
    print(f"H2 synthesis at T={args.horizon}: Phi_u[1] = {float(fu.taps[0][0, 0]):+.9f}")
    print(f"Riccati LQR gain:              K = {gain[0, 0]:+.9f}")
    print(f"difference: {float(abs(fu.taps[0][0, 0] - gain[0, 0])):.3e}")
    print()

    variants = [
        RealizationVariant.original(fx, fu),
        RealizationVariant.deployment(fx, fu),
        RealizationVariant.design_separation(fx, fu, fx, fu),
    ]
    print(f"{'variant':<20} {'certified':<10} {'impulse match (tol 1e-9)':<26} max dev")
    for v in variants:
        cert = certify_realization(v, plant)
        match = impulse_match(v, plant, args.match_horizon, tol=1e-9)
        print(f"{v.kind:<20} {str(cert.passed):<10} {str(match.passed):<26} "
              f"{match.max_deviation:.2e}")

    # a corrupted deployment tap is caught by the cross-check
    from rstab import FIRPhi

    taps = list(fu.taps)
    taps[0] = taps[0] + Fraction(1, 10)
    bad = RealizationVariant.original(fx, FIRPhi(tuple(taps)))
    match = impulse_match(bad, plant, args.match_horizon, tol=1e-9)
    print(f"\ncorrupted Phi_u[1] (+1/10): impulse match passed={match.passed}, "
          f"max deviation {match.max_deviation:.3f} at signal {match.worst_signal!r}, "
          f"lag {match.worst_lag}")


if __name__ == "__main__":
    main()
