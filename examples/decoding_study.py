"""Monte-Carlo decoding study: memory suppression and the Eq. (4) fit.

Runs small surface-code memory and two-patch transversal-CNOT experiments
through the batched decoding engine (syndrome dedup + per-point seed
streams), decodes with MWPM (sequential correlated decoding across the
CNOT), and fits the paper's heuristic logical-error model (Fig. 6(a)).
Memory points use streaming early-stop sampling: shots are drawn until a
target failure count instead of a fixed batch.  Shot caps are kept small
so the script finishes quickly; increase them for tighter fits.

The physical error rate and the noise model are command-line parameters
backed by the noise-model registry (:mod:`repro.noise.models`), so the
same study runs under uniform depolarizing, biased Pauli, or
movement-aware noise -- the decoders reweight themselves from the DEM.

Run:  python examples/decoding_study.py [--p 0.003]
          [--noise uniform_depolarizing|biased_pauli|movement_aware]
          [--bias 10]
"""

import argparse

import numpy as np

from repro.decoder.analysis import (
    cnot_experiment_rate,
    fit_alpha,
    fit_memory_model,
    memory_logical_error,
    per_round_rate,
)
from repro.noise.models import available_noise_models, make_noise_model


def build_model(args):
    if args.noise == "biased_pauli":
        return make_noise_model(args.noise, p=args.p, bias=args.bias)
    if args.noise == "movement_aware":
        # Pass the registry name through: each experiment builder resolves
        # it with its own code distance, so the d=5 points use a d=5
        # interleave move (a shared instance would freeze one duration).
        return args.noise
    return make_noise_model(args.noise, p=args.p)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.003,
                        help="physical error rate (default 0.003)")
    parser.add_argument("--noise", default="uniform_depolarizing",
                        choices=available_noise_models(),
                        help="registered noise model to run under")
    parser.add_argument("--bias", type=float, default=10.0,
                        help="Z:X bias ratio for --noise biased_pauli")
    args = parser.parse_args()
    noise = build_model(args)
    p = args.p

    root = np.random.SeedSequence(11)
    print(f"== memory experiments under {noise!r} (early-stop sampling) ==")
    rates = []
    for (d, rounds, shots), point_seed in zip(
        [(3, 4, 3000), (5, 6, 1500)], root.spawn(2)
    ):
        res = memory_logical_error(
            d, rounds, p, shots, seed=point_seed, target_failures=20,
            noise=noise,
        )
        rate = per_round_rate(res, rounds)
        rates.append(rate)
        # res is an EngineResult: std_error is the standard error of the
        # whole-run rate from the unbiased (n - 1) sample variance, and
        # 0 when no shot failed.
        print(f"  d={d}: {res.failures}/{res.shots} failures -> "
              f"per-round {rate:.5f} (+-{res.std_error / rounds:.5f})")
    fit = fit_memory_model([3, 5], rates)
    print(f"  Eq. (2) fit: C = {fit.prefactor_c:.3f}, Lambda = {fit.lam:.2f}")

    print("\n== transversal-CNOT experiments (sequential decoder) ==")
    data = []
    cnot_seeds = iter(root.spawn(4))
    for d, shots in [(3, 1500), (5, 800)]:
        for every in (1, 2):
            res, n = cnot_experiment_rate(
                d, 6, p, every, shots, seed=next(cnot_seeds), noise=noise,
            )
            per_cnot = res.rate / n
            print(f"  d={d}, x=1/{every}: {res.failures}/{res.shots} -> "
                  f"per-CNOT {per_cnot:.5f}")
            if res.failures:
                data.append((d, 1.0 / every, per_cnot))

    alpha = fit_alpha(data, fit.prefactor_c, fit.lam)
    print(f"\n  Eq. (4) fit: alpha = {alpha.alpha:.3f} "
          f"(paper's MLE decoder: 0.167); C = {alpha.prefactor_c:.3f}")
    print("  (a larger alpha for matching-type decoders is expected; the")
    print("   paper sweeps exactly this sensitivity in Fig. 13(a))")


if __name__ == "__main__":
    main()
