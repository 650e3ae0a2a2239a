"""Resource caps.

Every potentially unbounded computation checks one of these before
allocating.  The CLI can tighten or relax them via --cap-n; tests use the
defaults.
"""

from dataclasses import dataclass


@dataclass
class Caps:
    # Largest prime table.  Sieving takes 1/2 B per integer (a bool per odd
    # integer) and the table keeps 8 B per prime: about 96 MB at once at
    # 10**8, whose 5,761,455 primes then take 46 MB.
    sieve_limit: int = 10**8
    # Largest completely-multiplicative value table.  The Liouville table costs
    # 1 B per entry (about 0.4 GB here), built in segments of 2**20 entries
    # whose working arrays take 3 MB; growing it briefly holds the old table
    # too.  4e8 covers grid_n for the README forms:
    # shifted_value_bound([1,0,2], 1, 0, 0, 10**4) is 3e8.
    value_sieve_limit: int = 4 * 10**8
    dirichlet_modulus: int = 10**4
    root_scan_limit: int = 10**6      # exhaustive residue scans mod r
    box_count_n: int = 10**4          # lattice box half-width for norm counting
    enumerate_bound: int = 10**4      # solution enumeration in x, y
    folner_k: int = 7                 # full Folner enumeration
    grid_n: int = 10**4               # grid averages [N]^2
    divisor_grid_n: int = 5000
    lift_work: int = 10**6            # root-lifting work per prime power


CAPS = Caps()
