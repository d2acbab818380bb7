"""The benchmark's workloads: which CLI commands a pass runs, on which configs.

Every config is a snapshot taken when the benchmark was defined, so later
edits to ``configs/`` do not change what the benchmark measures. The only
random input is the workload seed, which becomes the config ``seed`` of every
``maximal`` command. Reference results exist for config seeds
``0 .. N_SEEDS - 1``; a workload seed ``s`` uses config seed ``s % N_SEEDS``.
"""

import copy

N_SEEDS = 16

_B_HALF = {"kind": "B", "p": 2.0, "q": 2.0, "M": 2, "alpha": [0.5, 0.5]}
_GEOMETRIC_POWER = {"kind": "geometric", "s": 0.5, "base": {"kind": "power", "beta": 0.3}}
_GEOMETRIC_FLAT = {"kind": "geometric", "s": 0.5, "base": {"kind": "constant", "value": 1.0}}

# the seven shipped configs/*.json, in file-name order
_CONFIGS_1D = [
    ("ap_power", "ap", {
        "command": "ap",
        "grid": {"L": 8.0, "N": 4096, "dim": 1},
        "space": {"p": 2.0},
        "weights": {"kind": "power", "beta": 0.5},
        "depth": 6,
    }),
    ("dilate_classical", "dilate", {
        "command": "dilate",
        "grid": {"L": 8.0, "N": 4096, "dim": 1},
        "space": {"kind": "B", "p": 2.0, "q": 2.0, "M": 2, "alpha": [1.0, 1.0],
                  "theta": 1.0, "K_max": 6},
        "weights": {"kind": "geometric", "s": 1.0,
                    "base": {"kind": "constant", "value": 1.0}},
        "fixture": "gaussian",
        "lambda_list": [2.0, 4.0, 8.0, 16.0],
        "norm": "diff",
    }),
    ("dilate_shifted_power", "dilate", {
        "command": "dilate",
        "grid": {"L": 8.0, "N": 4096, "dim": 1},
        "space": {"kind": "B", "p": 2.0, "q": 2.0, "M": 2, "alpha": [1.0, 1.0],
                  "theta": 1.0, "K_max": 4},
        "weights": {"kind": "geometric", "s": 1.0,
                    "base": {"kind": "shifted_power", "center": [1.0], "delta": -0.25}},
        "fixture": "gaussian",
        "lambda_list": [2.0, 4.0, 8.0],
        "norm": "diff",
    }),
    ("equiv_reference", "equiv", {
        "command": "equiv",
        "grid": {"L": 8.0, "N": 4096, "dim": 1},
        "space": dict(_B_HALF, K_max=6),
        "weights": _GEOMETRIC_FLAT,
    }),
    ("maximal_regression", "maximal", {
        "command": "maximal",
        "grid": {"L": 8.0, "N": 512, "dim": 1},
        "space": dict(_B_HALF, theta=1.5, K_max=3),
        "weights": _GEOMETRIC_POWER,
        "seed": 0,
        "families": 20,
        "family_size": 6,
        "sigma": 0.5,
    }),
    ("norm_gaussian", "norm", {
        "command": "norm",
        "grid": {"L": 8.0, "N": 2048, "dim": 1},
        "space": dict(_B_HALF, K_max=5),
        "weights": _GEOMETRIC_FLAT,
        "fixture": "gaussian",
    }),
    ("xclass_geometric", "xclass", {
        "command": "xclass",
        "grid": {"L": 8.0, "N": 2048, "dim": 1},
        "space": dict(_B_HALF, theta=1.0, sigma2=2.0, K_max=5),
        "weights": _GEOMETRIC_FLAT,
        "depth": 5,
    }),
]

# the 2-D ladder of the ROADMAP baseline
_LADDER = {
    "grid": {"L": 4.0, "N": 128, "dim": 2},
    "space": dict(_B_HALF, K_max=2),
    "weights": _GEOMETRIC_POWER,
    "lambda_list": [2, 4],
    "depth": 4,
    "families": 4,
    "family_size": 4,
}

_SCAN = {
    "grid": {"L": 4.0, "N": 256, "dim": 2},
    "space": dict(_B_HALF, theta=1.5, K_max=3),
    "weights": _GEOMETRIC_POWER,
    "depth": 6,
    "families": 4,
    "family_size": 4,
}

WORKLOADS = {
    "configs-1d": {
        "why": "the seven shipped 1-D configs as users run them: many short commands, "
               "so import, parsing, rendering, weight scans and the sup probe all count",
        "commands": _CONFIGS_1D,
    },
    "ladder-2d": {
        "why": "the 2-D ladder through norm, dilate, equiv and maximal: difference fields "
               "dominate, and norm/equiv reuse each (f, k, M) while dilate does not",
        "commands": [
            ("ladder_norm", "norm", _LADDER),
            ("ladder_dilate", "dilate", _LADDER),
            ("ladder_equiv", "equiv", _LADDER),
            ("ladder_maximal", "maximal",
             dict(_LADDER, space=dict(_LADDER["space"], theta=1.5))),
        ],
    },
    "scan-2d": {
        "why": "2-D cube scans (ap, xclass, maximal) dominated by family_cube_reduce; "
               "no difference field runs, so difference-engine changes must not show here",
        "commands": [
            ("scan_ap", "ap", _SCAN),
            ("scan_xclass", "xclass", _SCAN),
            ("scan_maximal", "maximal", _SCAN),
        ],
    },
}


def config_seed(seed: int) -> int:
    return seed % N_SEEDS


def pass_commands(workload: str, seed: int):
    """One pass: (label, command, config, reference key) per CLI call, in order.

    A ``maximal`` config takes the config seed, and its reference key names it.
    """
    out = []
    for label, command, config in WORKLOADS[workload]["commands"]:
        config = copy.deepcopy(config)
        key = label
        if command == "maximal":
            config["seed"] = config_seed(seed)
            key = f"{label}@seed={config['seed']}"
        out.append((label, command, config, key))
    return out
