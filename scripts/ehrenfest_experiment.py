#!/usr/bin/env python3
"""Ehrenfest trace experiment on the circle.

Evolves a wave packet, writes the force-decomposition trace CSV
(t, mean momentum, its time derivative, centripetal term, quantum term,
quartic F-term), and fits the hbar-scaling slopes of the two force
terms at fixed classical action.  Exits 3 (a refuted invariant, as in
the geomforce CLI) when the closure error reaches 1 % or a slope misses
its expected value (2 for the quantum term, 0 for the centripetal term)
by more than 0.1.

    python scripts/ehrenfest_experiment.py [--out trace.csv]
"""

import argparse
import sys

from geomforce.oplab import build_grid, evolve_wavepacket, hbar_scaling_slopes
from geomforce.oplab.evolve import WavePacket
from geomforce.reports import atomic_write


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="ehrenfest_trace.csv")
    parser.add_argument("--size", type=int, default=128)
    parser.add_argument("--sigma", type=float, default=0.2)
    parser.add_argument("--momentum", type=float, default=10.0)
    parser.add_argument("--dt", type=float, default=5e-4)
    parser.add_argument("--steps", type=int, default=400)
    args = parser.parse_args(argv)

    grid = build_grid("circle", {"a": 1.0}, args.size)
    packet = WavePacket(center=0.0, sigma=args.sigma,
                        mean_momentum=args.momentum)
    trace = evolve_wavepacket(grid, packet, dt=args.dt, steps=args.steps)
    atomic_write(args.out, trace.to_csv())
    print(f"trace written to {args.out}")
    print(f"norm drift          : {trace.norm_drift:.3e}")
    print(f"closure error (rel) : {trace.closure_error():.3e}")

    scaling = hbar_scaling_slopes({"a": 1.0}, mean_momentum=args.momentum,
                                  sigma=args.sigma)
    print(f"quantum-term slope      : {scaling['slope_quantum']:+.3f} (expect +2)")
    print(f"centripetal-term slope  : {scaling['slope_centripetal']:+.3f} (expect 0)")
    refuted = (trace.closure_error() >= 0.01
               or abs(scaling["slope_quantum"] - 2.0) > 0.1
               or abs(scaling["slope_centripetal"]) > 0.1)
    return 3 if refuted else 0


if __name__ == "__main__":
    sys.exit(main())
