"""Seeded `qclocksim run` configs for the benchmark workloads.

Every workload has a fixed structure: the same scenario kinds, matrix
sizes, sweep counts and therefore the same number of runs for every seed.
The seed only draws the physical values, each from a range inside the
README regime (internal energies below 0.2, p^2 below 0.1, boosts at most
0.1).  The ranges are centred on the defaults of `configs/full-suite.json`
and were not narrowed to avoid checks that fail on some draws.
"""

from __future__ import annotations

import random

WORKLOADS = ("suite", "suite-parallel", "fanout")

# Light runs per sweep in `fanout`; four sweeps give 1,200 runs.
FANOUT_SWEEP_COUNT = 300
# Pointer-clock sizes of the `fanout` SWP scans.
FANOUT_SWP_DIMS = (256, 512, 1024)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def suite_config(rng: random.Random) -> dict:
    """The ten-scenario mix of `configs/full-suite.json`, values jittered."""

    def twin(lo: float, hi: float) -> dict:
        return {
            "spacing": _u(rng, 0.05, 0.15),
            "boost": _u(rng, lo, hi),
            "duration": _u(rng, 1.0, 3.0),
        }

    def ion(fock_index: int) -> dict:
        # oracle_vs_first_order compares against a formula whose relative
        # error is about u itself, with tolerance 1e-3: u stays at or below
        # the full-suite value so that the check keeps its meaning.
        return {
            "transition_energy": _u(rng, 5e-4, 1e-3),
            "trap_frequency": _u(rng, 5e-6, 2e-5),
            "fock_index": fock_index,
        }

    scenarios = [
        {"name": "twin-momentum", "kind": "twin-momentum", "params": twin(0.05, 0.1)},
        {"name": "twin-velocity", "kind": "twin-velocity", "params": twin(0.005, 0.05)},
        {"name": "twin-observer", "kind": "twin-observer", "params": twin(0.005, 0.05)},
        {
            "name": "entanglement",
            "kind": "entanglement-demo",
            "params": {
                "spacing": _u(rng, 0.05, 0.15),
                "momentum": _u(rng, 0.05, 0.15),
                "boost": _u(rng, 0.005, 0.05),
            },
        },
        {
            "name": "swp-uniform",
            "kind": "swp",
            "params": {"dim": 16, "profile": "velocity-classical", "boost": _u(rng, 0.005, 0.015)},
        },
        {
            "name": "swp-nonclassical",
            "kind": "swp",
            "params": {
                "dim": 8,
                "profile": "momentum-nonclassical",
                "boost": _u(rng, 0.05, 0.1),
                "spacing": _u(rng, 0.005, 0.015),
            },
        },
        {"name": "impulse", "kind": "impulse-boost", "params": {"boost": _u(rng, 0.005, 0.015)}},
        {
            "name": "trotter",
            "kind": "trotter-accel",
            "params": {"acceleration": _u(rng, 0.01, 0.03), "duration": _u(rng, 1.5, 2.5)},
        },
        {"name": "ion-ground", "kind": "ion-spectroscopy", "params": ion(0)},
        {"name": "ion-excited", "kind": "ion-spectroscopy", "params": ion(1)},
    ]
    return {"schema_version": 1, "scenarios": scenarios}


def fanout_config(rng: random.Random, sweep_count: int = FANOUT_SWEEP_COUNT) -> dict:
    """Many light plane-wave runs from sweeps, plus a few large SWP scans."""

    def probe_momenta() -> list:
        return sorted(_u(rng, 0.0, 0.1) for _ in range(4))

    def sweep(lo: float, hi: float) -> dict:
        return {
            "parameter": "boost",
            "start": _u(rng, lo, 0.5 * (lo + hi)),
            "stop": _u(rng, 0.5 * (lo + hi), hi),
            "count": sweep_count,
        }

    scenarios = []
    for kind, (lo, hi) in (
        ("twin-momentum", (0.01, 0.1)),
        ("twin-velocity", (0.005, 0.1)),
        ("twin-observer", (0.005, 0.1)),
    ):
        scenarios.append(
            {
                "name": f"{kind}-sweep",
                "kind": kind,
                "params": {
                    "levels": 4,
                    "spacing": _u(rng, 0.02, 0.05),
                    "duration": _u(rng, 1.0, 3.0),
                    "probe_momenta": probe_momenta(),
                },
                "sweep": sweep(lo, hi),
            }
        )
    scenarios.append(
        {
            "name": "entanglement-sweep",
            "kind": "entanglement-demo",
            "params": {"levels": 4, "spacing": _u(rng, 0.02, 0.05), "momentum": _u(rng, 0.0, 0.1)},
            "sweep": sweep(0.005, 0.1),
        }
    )
    for dim in FANOUT_SWP_DIMS:
        scenarios.append(
            {
                "name": f"swp-n{dim}",
                "kind": "swp",
                "params": {
                    "dim": dim,
                    "omega0": 0.0005,
                    "profile": "momentum-nonclassical",
                    "boost": _u(rng, 0.05, 0.1),
                    "spacing": _u(rng, 0.02, 0.15) / (dim - 1),
                },
            }
        )
    return {"schema_version": 1, "scenarios": scenarios}


def expected_runs(config: dict) -> int:
    """Runs a config expands to: one per sweep value, else one per scenario."""
    return sum(s["sweep"]["count"] if "sweep" in s else 1 for s in config["scenarios"])


def generate(workload: str, seed: int, small: bool = False) -> dict:
    """The config of one workload for one seed.

    `suite` and `suite-parallel` share their inputs for a seed; they differ
    only in the `--threads` they run with.  `small` shrinks the `fanout`
    sweeps for the self-test and is never used for measurement.
    """
    rng = random.Random(f"{workload.removesuffix('-parallel')}:{seed}")
    if workload in ("suite", "suite-parallel"):
        return suite_config(rng)
    if workload == "fanout":
        return fanout_config(rng, sweep_count=10 if small else FANOUT_SWEEP_COUNT)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
