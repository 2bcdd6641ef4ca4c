"""Seeded inputs of the three workloads.

Everything the program under test receives is made here from the
workload seed, with numpy only, so the worker (which times bernmix) and
the checker (which holds the oracle and never imports bernmix) build the
same inputs from the same seed.  The cli-session inputs are fixed: the
paper's chicken-embryo data and a raw file with a ``nan`` line.
"""

import numpy as np

# A round is PARTS parts, each with its own inputs; the timed metrics are
# medians over parts, so one slow stretch of the machine moves them less.
PARTS = 3

# --- mise-harness: the paper's desk-scale specs -----------------------------
MISE_TAGS = ("normal01", "exp1")
MISE_N = 100
MISE_CELLS = 10
MISE_DEGREES = tuple(range(1, 41))
MISE_REPLICATES = 2  # per spec
MISE_SPECS_PER_PART = 4  # distinct spec seeds per tag and part
MISE_ESTIMATORS = ("mble", "kernel", "parametric")

# --- raw-fit: a fixed Bernstein mixture of known degree -----------------------
RAW_TRUE_WEIGHTS = (0.3, 0.05, 0.1, 0.4, 0.15)
RAW_TRUE_DEGREE = len(RAW_TRUE_WEIGHTS) - 1
RAW_N = 2000
RAW_DEGREES = tuple(range(RAW_TRUE_DEGREE - 2, RAW_TRUE_DEGREE + 3))
RAW_SCANS_PER_PART = 16  # distinct samples
DIAG_LADDER = (4, 8, 16, 32)
DIAG_DRAWS = 10_000
DIAG_TAG = "normal01"

# --- cli-session -------------------------------------------------------------
CLI_GROUPED = "data/chicken_embryo.csv"
CLI_SUPPORT = (0.0, 21.0)
CLI_DEGREES = "2..50"
CLI_EXPECTED_DEGREE = 13  # the paper's chicken-embryo value
CLI_GRID = 20_000
CLI_NAN_DEGREE = 3
CLI_NAN_LINES = ("0.12", "0.37", "nan", "0.55", "0.81", "0.64")

# salts keep the streams of different workloads apart for one seed
_MISE_SALT = 0x6D697365
_RAW_SALT = 0x726177
_DIAG_SALT = 0x64696167


def mise_spec_seeds(seed):
    """Spec seeds of one round: [part][tag] -> [seed, ...]."""
    rng = np.random.default_rng([_MISE_SALT, seed])
    draws = rng.integers(0, 2**31 - 1, size=(PARTS, len(MISE_TAGS), MISE_SPECS_PER_PART))
    return [{tag: [int(s) for s in row] for tag, row in zip(MISE_TAGS, part)} for part in draws]


def raw_samples(seed):
    """Samples of one round, [part] -> [RAW_N draws on [0, 1], ...].

    Component j is drawn with probability w_j and realised as a
    beta(j+1, m0-j+1) variate from numpy's own beta sampler.
    """
    w = np.asarray(RAW_TRUE_WEIGHTS)
    m0 = RAW_TRUE_DEGREE
    parts = []
    for i in range(PARTS):
        part = []
        for k in range(RAW_SCANS_PER_PART):
            rng = np.random.default_rng([_RAW_SALT, seed, i, k])
            j = rng.choice(m0 + 1, size=RAW_N, p=w)
            part.append(rng.beta(j + 1.0, m0 - j + 1.0))
        parts.append(part)
    return parts


def diag_seed(seed):
    """Seed of the acceptance-rejection draws."""
    return int(np.random.default_rng([_DIAG_SALT, seed]).integers(0, 2**31 - 1))


def nan_file_text():
    return "\n".join(CLI_NAN_LINES) + "\n"
