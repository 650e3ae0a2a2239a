import ast
import dataclasses
import threading
from pathlib import Path

import pytest

import qpairs
from qpairs import cli
from qpairs._grid import striped_complex_mean
from qpairs.caps import Caps, caps, override

LDELTA = ["ldelta", "f=principal", "p1=[1,0,2]", "p2=[0,2,0]"]
RUNS = {
    "capped": ["--cap-n", "100", *LDELTA, "n=100"],
    "uncapped": [*LDELTA, "n=200"],
}


@pytest.mark.parametrize("first_to_end", ["uncapped", "capped"])
def test_cap_n_holds_for_its_own_run_only(first_to_end, monkeypatch, tmp_path):
    """Two cli.main runs at once, one with --cap-n 100: the other run's grid
    of 200 is not refused, and no caps are left behind when both have ended.

    Each run pauses in resolve_spec, inside cli.main, until released.  The
    capped run is inside first, then the uncapped one; then first_to_end is
    released and ends, then the other."""
    inside = {name: threading.Event() for name in RUNS}
    release = {name: threading.Event() for name in RUNS}
    resolve = cli.resolve_spec

    def paused_resolve(sub, raw):
        name = threading.current_thread().name
        inside[name].set()
        release[name].wait(30)
        return resolve(sub, raw)

    monkeypatch.setattr(cli, "resolve_spec", paused_resolve)
    codes = {}

    def run(name):
        codes[name] = cli.main([*RUNS[name], "--out", str(tmp_path / f"{name}.json")])

    threads = {name: threading.Thread(target=run, args=(name,), name=name) for name in RUNS}
    for name in ("capped", "uncapped"):
        threads[name].start()
        assert inside[name].wait(30)
    second_to_end = "capped" if first_to_end == "uncapped" else "uncapped"
    for name in (first_to_end, second_to_end):
        release[name].set()
        threads[name].join(60)
        assert not threads[name].is_alive()
    assert codes == {"capped": 0, "uncapped": 0}
    assert caps() == Caps()


def test_stripe_blocks_read_the_run_caps():
    """Stripe workers start in an empty context; each block still reads the
    caps of the run that started the reduction."""
    seen = []

    def block(ms):
        seen.append((threading.current_thread() is threading.main_thread(), caps()))
        return ([float(len(ms))],)

    with override(sieve_limit=1000, grid_n=300):
        assert striped_complex_mean(block, 300, threads=2) == (1 / 300,)
    want = Caps(sieve_limit=1000, grid_n=300)
    assert seen == [(False, want)] * 3
    assert caps() == Caps()


def test_every_cap_is_checked():
    """Each field of Caps is read somewhere in the package: a cap that no
    code checks promises a limit that nothing keeps."""
    read = set()
    for path in Path(qpairs.__file__).parent.glob("*.py"):
        if path.name == "caps.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert {f.name for f in dataclasses.fields(Caps)} <= read
