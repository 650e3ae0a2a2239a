"""Rewrite tests/corpus.json, the byte-identity corpus, and print the argvs
whose bytes moved.

The corpus maps each argv (joined by shlex) to the sha256 of its stdout, the
sha256 of its stderr and its exit code, as `cli.main` produces them in
process.  `tests/test_corpus.py` reruns every argv at --threads 1 and 2 and
checks both runs against the stored entry.  A change that moves bits on
purpose reruns this script and quotes its list of moved argvs:

    PYTHONPATH=src python tests/update_corpus.py

Each argv runs at --threads 1 and 2 here too; if the two differ, the script
names the argv, exits 1 and writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from qpairs import cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "corpus.json"

_FORMS = ["p1=[1,0,2]", "p2=[0,2,0]"]
_LEVEL_FORMS = ["p1=[1,-2,-1]", "p2=[1,2,-1]"]


def readme_examples() -> list[list[str]]:
    """The argvs of the README's CLI examples, in order."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("qpairs ")]


def small_grid(args: list[str]) -> list[str]:
    """args with the grid size n cut to at most 400; the sweep's n values
    (--axis n) are cut to a tenth."""
    out = []
    for prev, tok in zip(["", *args], args):
        if tok.startswith("n="):
            tok = f"n={min(int(tok[2:]), 400)}"
        elif prev == "--n":
            tok = str(min(int(tok), 400))
        elif prev == "--values":
            assert args[args.index("--axis") + 1] == "n"
            tok = ",".join(str(int(v) // 10) for v in tok.split(","))
        out.append(tok)
    return out


# Beyond the README: every function kind, the character index, and the
# divstat and malformed-spec cases.
EXTRA: list[list[str]] = [
    # every function kind in a prime sum, and in a grid
    *(["distance", "--f", f, "--y", "1000"]
      for f in ("principal", "char:5:2", "char:12:3", "char:101:7", "arch:2.0", "twisted:7:2:0.5",
                "prime-patch:10:100:-1", "prime-patch:10:100:0.5j", "prime-patch:10:100:0",
                "prime-patch:10:100:0.6+0.8j")),
    ["distance", "--f", "twisted:4:1:0.5", "--form", "[1,0,1]", "--y", "1000"],
    *(["ldelta", f"f={f}", *_FORMS, "delta=0.3", "n=200"]
      for f in ("char:4:1", "twisted:7:3:0.5", "prime-patch:10:100:-1")),
    ["ldelta", "f=char:5:1", *_FORMS, "q=3", "a=2", "b=1", "mode=pair", "n=150"],
    # chi= in concentrate
    ["concentrate", "form=[1,0,1]", "f=liouville", "chi=5:1", "q=30", "k=3", "n=200"],
    ["concentrate", "form=[1,0,1]", "f=twisted:7:3:0.5", "chi=7:3", "t=0.5", "q=14", "a=3", "k=2",
     "n=200"],
    ["--format", "csv", "concentrate", "form=[1,0,1]", "f=char:24:5", "chi=24:5", "q=24", "k=3",
     "n=200"],
    # the character index must lie in [0, phi(q))
    *(["distance", "--f", f, "--y", "100"] for f in ("char:5:-1", "char:5:4", "twisted:5:-1:0.5")),
    *(["concentrate", "form=[1,0,1]", "f=liouville", f"chi={chi}", "q=30", "k=3", "n=100"]
      for chi in ("5:-1", "5:4")),
    # the int64 and Python-int grid paths, and a cap refused before allocating
    ["divstat", "--form", "[1,0,1]", "--primes", "5,13", "--q", "1000000000", "--a", "1",
     "--b", "2", "--n", "100"],
    ["ldelta", "f=arch:2.0", *_FORMS, "q=10000000000", "a=1", "b=1", "n=100"],
    ["ldelta", "f=liouville", *_FORMS, "q=6", "a=1", "b=1", "n=4000"],
    ["ldelta", "f=liouville", *_FORMS, "q=3", "a=2", "b=1", "n=1"],
    ["correlate", "factors=char:4:1@[1,0];liouville@[1,1]", "g=arch:0.5", "form=[1,0,1]",
     "region=1,-1", "n=200"],
    # divstat: primes outside the predicted regime, and repeated primes
    ["divstat", "--form", "[1,0,1]", "--primes", "2", "--n", "50"],
    ["--format", "csv", "divstat", "--form", "[1,0,1]", "--primes", "2,5", "--n", "50"],
    ["divstat", "--form", "[1,0,1]", "--primes", "5,5", "--n", "50"],
    ["divstat", "--form", "[1,0,1]", "--primes", "5,13,5", "--n", "50"],
    # specs with extra fields
    *(["distance", "--f", f, "--y", "100"]
      for f in ("liouville:junk", "principal:7", "arch:2.0:zzz", "char:4:1:junk",
                "twisted:4:1:0.5:x", "prime-patch:10:100:-1:9")),
    *(["verify-coloring", "3", "5", "30", "--coloring", c, "--bound", "200"]
      for c in ("rado:5:junk", "two-adic:9", "dyadic:3:1")),
    # the colorings besides the README's dyadic one
    *(["verify-coloring", "3", "5", "30", "--coloring", c, "--bound", "2000"]
      for c in ("rado:5", "two-adic")),
    # prime overrides on a grid, and in a correlation factor
    *(["ldelta", f"f=prime-patch:10:100:{value}", *_FORMS, "delta=0.3", "n=200"]
      for value in ("0.5j", "0", "0.6+0.8j")),
    ["correlate", "factors=prime-patch:10:100:-1@[1,0];liouville@[0,1]", "g=principal",
     "form=[1,0,1]", "n=200"],
    # override tables read past their first keys: a window over two prime
    # chunks, windows starting past 2, and overrides on a grid
    ["distance", "--f", "prime-patch:10:1000000:-1", "--y", "1e6"],
    ["distance", "--f", "prime-patch:1000:200000:0.5j", "--x", "500", "--y", "3e5", "--form",
     "[1,0,1]"],
    ["distance", "--f", "liouville", "--g", "prime-patch:10:300000:0.6+0.8j", "--profile",
     "1e3,7e4,3e5"],
    ["concentrate", "form=[1,0,1]", "f=prime-patch:10:2000:-1", "q=6", "k=3", "n=100"],
    # prime sums past 10**6 that cross the sieve's segment edges (multiples of
    # 2**21): a window starting past 2, unsorted and repeated cutoffs, and
    # complex terms with root-count weights
    ["distance", "--f", "liouville", "--x", "2000000", "--y", "4500000"],
    ["distance", "--f", "liouville", "--profile", "5e6,1e3,2.2e6,5e6"],
    ["distance", "--f", "twisted:7:2:0.5", "--form", "[1,0,1]", "--x", "1e6", "--y", "2.5e6"],
    # solution enumeration at the benchmark's size, and with large residue
    # classes, so many blocks per class
    ["verify-coloring", "3", "5", "30", "--coloring", "dyadic:6", "--bound", "10000"],
    ["verify-coloring", "1", "1", "1", "--coloring", "dyadic:6", "--bound", "3000"],
    ["verify-coloring", "2", "-1", "1", "--coloring", "rado:5", "--bound", "3000"],
    # a --config file (paths are relative to the repository root), with a
    # token that overrides it
    ["ldelta", "--config", "tests/corpus_ldelta.conf", "n=150"],
    # a weight that vanishes on the whole grid
    ["ldelta", "f=liouville", "p1=[-1,0,-1]", "p2=[0,2,0]", "n=50"],
    # repeated integers in a list
    ["divstat", "--form", "[1,0,1]", "--primes", "5", "--n", "50"],
    *(["tk", "form=[1,0,1]", "q=210", "k=10", "n=50", f"h_primes={primes}"]
      for primes in ("13,13", "13")),
    # support primes of h that are not primes (exit 2)
    *(["tk", "form=[1,0,1]", "q=210", "k=10", "n=300", f"h_primes={p}"] for p in ("169", "221", "25")),
    # support primes on the ends of the prime sums' windows: at split =
    # max(K, isqrt(N)) = 13 and at N = 173; at K = 13, which must divide Q
    # and which tk refuses (exit 2); and with split = K, so (K, split] is empty
    ["tk", "form=[1,0,1]", "q=210", "k=10", "n=173", "h_primes=13,173"],
    *(["tk", "form=[1,0,1]", "q=30030", "k=13", "n=173", f"h_primes={primes}", "h_value=0.5j"]
      for primes in ("13,173", "17,173")),
    # parameters of two modes at once
    ["distance", "--f", "liouville", "--y", "10", "--profile", "100"],
    ["distance", "--f", "liouville", "--profile", "100"],
    ["divstat", "--form", "[1,0,1]", "--primes", "5", "--bound-l", "10", "--n", "50"],
    ["omega", "--form", "[1,0,1]", "--hensel", "5,2,2", "--partner", "[1,0,2]"],
    ["omega", "--form", "[1,0,1]", "--congruence-pair", "[1,0,2]", "--fast"],
    # prime searches: one that stops in the first sieve segment, a walk to
    # the limit across a segment edge (2**21), and a limit over the sieve cap
    ["obstruct", "1", "2", "5", "--prime-limit", "3000000"],
    ["obstruct", "--split", "2,3,5,7,11,13", "17,19", "--prime-limit", "3000000"],
    ["classify", "1", "2", "5", "--prime-limit", "1000000000"],
    # factorization: 999983 * 1000003, both factors between 2**16 and 10**6,
    # and 65537**2, whose prime is the first past 2**16
    ["ring", "count-ideals", "--d", "1", "--k", "999986000051"],
    ["omega", "--form", "[1,0,1]", "--modulus", "4295098369"],
    ["divstat", "--form", "[1,0,1]", "--bound-l", "4295098369", "--n", "50"],
    # override keys starting past 10**6, in a window across a segment edge
    ["distance", "--f", "prime-patch:1000000:3000000:-1", "--y", "3e6"],
    ["omega", "--form", "[1,0,1]", "--partner", "[1,0,2]", "--modulus", "3000000"],
    # the probe's Folner box past its limit (exit 3)
    ["probe-nonneg", "f=arch:2.0", *_FORMS, "delta=0.3", "k=5", "n=10"],
    # level sets: a box of two tiles (218 + 82 rows), first hits in the
    # second tile at k = 1 and in the last tile at k = 6, empty ranges, form
    # values past 2**63, and a box over the grid cap
    ["levelset", "f=liouville", "arc=0.3", *_LEVEL_FORMS, "kmax=500", "mnmax=300"],
    ["levelset", "f=arch:1.3", "arc=0.03", *_LEVEL_FORMS, "mnmax=700"],
    ["levelset", "f=arch:1.3", "arc=0.01", *_LEVEL_FORMS, "mnmax=600"],
    ["levelset", "f=arch:0.7", "arc=0.3", *_LEVEL_FORMS, "mnmax=0"],
    ["levelset", "f=arch:0.7", "arc=0.3", *_LEVEL_FORMS, "kmax=0"],
    ["levelset", "f=arch:0.7", "arc=0.3", "p1=[3000000000000000000,0,1]", "p2=[1,2,-1]"],
    ["--cap-n", "100", "levelset", "f=arch:0.7", "arc=0.3", *_LEVEL_FORMS, "mnmax=101"],
]


def argvs() -> list[list[str]]:
    return [*map(small_grid, readme_examples()), *EXTRA]


def run(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of cli.main(argv), in process."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # where --config paths start
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        os.chdir(cwd)
    return out.getvalue(), err.getvalue(), code


def entry(argv: list[str], threads: int) -> dict:
    """The corpus entry of argv run at the given thread count."""
    out, err, code = run(["--threads", str(threads), *argv])
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    return {"stdout": sha(out), "stderr": sha(err), "exit": code}


def main() -> int:
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    new = {}
    for argv in argvs():
        key = shlex.join(argv)
        new[key] = entry(argv, 1)
        if entry(argv, 2) != new[key]:
            print(f"differs between 1 and 2 threads: {key}", file=sys.stderr)
            return 1
    moved = [key for key in new if old.get(key) != new[key]]
    for key in moved:
        print(("moved: " if key in old else "new: ") + key)
    for key in old.keys() - new.keys():
        print("dropped: " + key)
    if new != old or list(new) != list(old):
        CORPUS.write_text(json.dumps(new, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
