#!/usr/bin/env python3
"""Monte-Carlo look at the Bloch-ball picture for 3-qubit states.

Haar-random states land inside the unit ball spanned by (X1, X2, X9);
separable states sit on the boundary sphere and maximally entangled ones
at the center, with concentric shells sharing the same per-cut E.  This
script samples both generic and product states, tabulates the radial
distribution and the e_avg histogram, and prints the shell relation
E = 1 - r^2 observed per sample.

Usage: python scripts/bloch_ball_stats.py --samples 20000 --bins 10
"""

import argparse

import numpy as np

from hopfq.entanglement import cut_entanglement
from hopfq.hopf_maps import bloch_slots, state_coords
from hopfq.qubit_states import haar_amplitudes, tensor_amplitudes


def ball_radius(amplitudes):
    """Radius of the (X1, X2, X9) Bloch point of each row of 3-qubit amplitudes."""
    return np.sqrt(np.sum(bloch_slots(state_coords(amplitudes)) ** 2, -1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--bins", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    amplitudes = haar_amplitudes(rng, 3, args.samples)
    radii = ball_radius(amplitudes)
    e_per_cut = cut_entanglement(amplitudes)
    shell_residual = np.abs(e_per_cut[:, 0] - (1.0 - radii ** 2))
    averaged = e_per_cut.mean(axis=-1)

    products = args.samples // 10
    one, two = haar_amplitudes(rng, 1, products), haar_amplitudes(rng, 2, products)
    product_radii = ball_radius(tensor_amplitudes(one, two))

    print(f"samples: {args.samples} (generic), {product_radii.shape[0]} (product)")
    print(f"max |E - (1 - r^2)| over samples: {shell_residual.max():.3e}")
    print(f"product-state radius: min {product_radii.min():.12f}, "
          f"max {product_radii.max():.12f} (boundary sphere)")
    print()
    print("radius bin        generic fraction")
    edges = np.linspace(0.0, 1.0, args.bins + 1)
    counts, _ = np.histogram(radii, bins=edges)
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        print(f"[{lo:4.2f}, {hi:4.2f})      {c / args.samples:8.4f}")
    print()
    print("e_avg bin         generic fraction")
    counts, _ = np.histogram(averaged, bins=edges)
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        print(f"[{lo:4.2f}, {hi:4.2f})      {c / args.samples:8.4f}")
    print()
    print(f"mean e_avg: {averaged.mean():.6f}   "
          f"fraction with e_avg < 1e-6: {(averaged < 1e-6).mean():.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
