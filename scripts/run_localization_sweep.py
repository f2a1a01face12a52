#!/usr/bin/env python3
"""IPR and Wehrl entropy of the (0,0) ground state vs coupling.

Runs both the variational (0,0) cat and the lowest numerical state of the
(0,0) parity sector, for N = 20 and 50, using importance-sampled
Monte-Carlo for the Wehrl integral.  A --parity list such as
00,10,01,11 adds the other sectors' lowest states, the tracked excited
states.  This is the slowest sweep; trim --lambda-steps or --samples for
a quick look.
"""

import sys
from pathlib import Path

from quditcat.cli import main

DEFAULTS = [
    "localization",
    "--N", "20,50",
    "--lambda-min", "0.05",
    "--lambda-max", "2.5",
    "--lambda-steps", "15",
    "--parity", "00",
    "--method", "importance_mc",
    "--samples", "200000",
    "--seed", "7",
    "--out", str(Path(__file__).resolve().parent / "localization.csv"),
]

if __name__ == "__main__":
    sys.exit(main(DEFAULTS + sys.argv[1:]))
