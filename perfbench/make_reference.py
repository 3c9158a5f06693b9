"""Write ``reference.json``: the seed-independent reference values.

Run from the repository root:

    python3 perfbench/make_reference.py

It runs each workload's op once at seed 7 and stores the values that do
not depend on the seed, plus the particle geometry the independent
pipeline in ``reference.py`` needs.  It then checks that the independent
pipeline reproduces this run's seed-dependent values and prints the
largest relative discrepancy.  Rerun it only when a change is meant to
alter these outputs, and say so in the change.
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
from heattrack.harness import config, experiments  # noqa: E402

SEED = 7


def particle_params(cfg, actuators):
    blk = cfg.plasmonic
    return {"centers": actuators.points.tolist(),
            "kappa": actuators.domain.kappa if blk.kappa is None else blk.kappa,
            "coupling_scale": blk.coupling_scale, "c_m": blk.c_m,
            "contrasts": [1.0] * actuators.count, "mu": cfg.track.mu,
            "delta": cfg.track.delta, "deltas": list(cfg.track.deltas),
            "horizon": cfg.control.horizon, "dt": cfg.control.dt}


def main():
    default = config.load_config("default", SEED)
    box3 = config.load_config(os.path.join(HERE, "configs", "box3.yaml"), SEED)
    assert default.plasmonic.contrasts == "ones"
    assert default.plasmonic.dictionary == "identity"

    # Stored track values are those fixed by the config alone.  The seeded
    # ones (remainder, eta, amap_sigma_min, remainder_slope) come from the
    # independent pipeline; roundoff-sized ones (pythagoras_gap,
    # cross_deviation, ...) are checked through the built-in assertions.
    track = experiments.run_track(default)
    rows = [r.__dict__ for r in track.budget_rows]
    head = track.headline
    summary = {
        "gain": track.setup.gain, "sigma_min": track.setup.matrices.sigma_min,
        "bias_norm": track.setup.bias.norm, "c_cert": track.c_cert,
        "orth": track.decomposition.orth,
        "projected_norm": track.decomposition.projected_norm,
        "delta": head.delta, "mismatch": head.mismatch,
        "proj_sup": head.proj_sup, "real_sup": head.real_sup,
        "total_sup": head.total_sup, "budget_proj": head.budget_proj,
        "budget_real": head.budget_real, "tail_vdual": track.tail.tail_vdual,
        "tail_bound": track.tail.bound,
        "convergence_gap": track.convergence_gap}
    budget_keys = ["orth", "mismatch", "proj_sup", "real_sup", "total_sup",
                   "budget_proj", "budget_real"]
    place = experiments.run_place(box3)
    coercivity, _ = experiments.run_coercivity(default)
    blk = default.coercivity

    stored = {
        "seed": SEED,
        "track-default": {
            "particles": particle_params(default, track.setup.actuators),
            "beta": track.decomposition.beta.tolist(),
            "steps": int(track.times.shape[0] - 1),
            "summary": summary,
            "budget": [{k: row[k] for k in ["delta"] + budget_keys}
                       for row in rows]},
        "studies": {
            "place_sigma_min": place[1].sigma_min,
            "modes": box3.modes.count,
            "coercivity": {"cells": list(coercivity.cells),
                           "constants": coercivity.constants.tolist(),
                           "modes_per_cell": blk.modes_per_cell,
                           "kappa": default.domain.kappa,
                           "length": default.domain.lengths[0]}},
    }
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")

    # The independent pipeline must reproduce this run's seeded values.
    particles = stored["track-default"]["particles"]
    units = reference.unit_heat_inputs(particles, particles["dt"],
                                       particles["horizon"])
    beta = np.asarray(stored["track-default"]["beta"])
    worst = 0.0
    for row in track.budget_rows:
        rem, smin = reference.remainder(units, SEED, row.delta,
                                        particles["mu"], beta)
        worst = max(worst, abs(rem - row.remainder) / rem)
        if row.delta == particles["delta"]:
            worst = max(worst, abs(smin - track.amap_sigma_min) / smin)
    print(f"wrote reference.json; independent pipeline agrees to "
          f"{worst:.2e} relative")


if __name__ == "__main__":
    main()
