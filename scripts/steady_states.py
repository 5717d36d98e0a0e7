#!/usr/bin/env python3
"""Survey steady states of the subset integrator over seeds.

Runs the three canonical settings (1D consensus, 1D multi-cluster, 2D) for a
seed range and reports cluster counts, macro-cluster counts (weight >= 1%),
and steady-state verification, as CSV on stdout.
"""

import argparse
import collections
import sys

import numpy as np

import bcclust as b
from bcclust.rng import derive_seed

SETTINGS = {
    "consensus-1d": dict(n=50_000, d=1, eps1=0.5, t_final=20.0, stream=1),
    "clusters-1d": dict(n=50_000, d=1, eps1=0.15, t_final=20.0, stream=1),
    "clusters-2d": dict(n=10_000, d=2, eps1=0.15, t_final=50.0, stream=3),
}


def run(name, cfg, seed, M, dt):
    rng = np.random.default_rng(derive_seed(seed, cfg["stream"]))
    ps0 = b.ParticleSet(rng.uniform(0, 1, (cfg["n"], cfg["d"])))
    spec = b.InteractionSpec(eps1=cfg["eps1"], sigma_mode="stochastic")
    tr = b.mfi_simulate(ps0, spec,
                        b.MfiConfig(M=M, dt=dt, t_final=cfg["t_final"], seed=seed))
    cs = b.extract_clusters(tr.final, b.default_merge_tol(ps0, spec), spec)
    return (cs.n_clusters, int((cs.weights >= 0.01).sum()),
            b.verify_steady_state(cs, spec).passed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--M", type=int, default=10)
    ap.add_argument("--dt", type=float, default=0.5)
    ap.add_argument("--only", choices=sorted(SETTINGS), default=None)
    args = ap.parse_args(argv)

    print("setting,seed,n_clusters,macro_clusters,steady_state")
    for name, cfg in SETTINGS.items():
        if args.only and name != args.only:
            continue
        counts = []
        for seed in range(args.seeds):
            n, macro, ok = run(name, cfg, seed, args.M, args.dt)
            counts.append(n)
            print(f"{name},{seed},{n},{macro},{int(ok)}", flush=True)
        modal = collections.Counter(counts).most_common(1)[0]
        print(f"# {name}: modal count {modal[0]} ({modal[1]}/{len(counts)} seeds)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
