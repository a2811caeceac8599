"""The runner of the pinned fresh-process checks, scripts/pins.py: its
cheapest pin passes, each tampered copy of it fails under its own name, and
each child's peak RSS is its own, whatever ran before it."""

import importlib.util
import platform
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "pins.py"
_spec = importlib.util.spec_from_file_location("pins", _PATH)
pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pins)

# reduce-base on base(2,40) under Dihedral(40, 1), about 0.3 s
CHEAP = next(p for p in pins.PINS if p.name == "reduce-base-2-40-1")


def test_names_are_unique():
    names = [p.name for p in pins.PINS]
    assert len(set(names)) == len(names)


def test_every_pin_has_a_timeout():
    # a hung child would otherwise hold the run until the CI job's own limit
    assert [p.name for p in pins.PINS if p.timeout is None] == []


def test_cheapest_pin_passes(capsys):
    assert pins.run(CHEAP)[0], capsys.readouterr().out


@pytest.mark.parametrize(
    "tamper",
    [
        {"sha256": "0" * 64},
        {"stdout": '{"count": 0}\n'},
        {"contains": '"length": 38,'},
        {"rss_mb": 1},
        {"timeout": 0.01},
        {"argv": CHEAP.argv + ("--no-such-option",)},
    ],
    ids=["sha256", "stdout", "contains", "rss", "timeout", "exit"],
)
def test_tampered_pin_fails_under_its_name(tamper, capsys):
    assert not pins.run(CHEAP._replace(**tamper))[0]
    assert capsys.readouterr().out.startswith(f"FAIL {CHEAP.name}: ")


def test_rss_is_each_childs_own(capsys):
    # neither a larger child run before it nor the runner's own memory
    # (a pytest session, here 150 MB more) shows in a child's reading
    ok, big_mb = pins.run(pins.Pin("big", ("-c", "b = b'x' * (150 << 20)")))
    assert ok and big_mb > 150
    ballast = b"x" * (150 << 20)
    ok, small_mb = pins.run(CHEAP)
    del ballast
    assert ok and small_mb < 100, capsys.readouterr().out


def test_a_failure_does_not_stop_the_run(monkeypatch, capsys):
    monkeypatch.setattr(pins, "PINS", (CHEAP._replace(name="tampered", sha256="0" * 64), CHEAP))
    assert pins.main([]) == 1
    out = capsys.readouterr().out
    assert "FAIL tampered: " in out and f"ok {CHEAP.name}: " in out
    assert out.endswith(f"\nPython {platform.python_version()}: 1 of 2 pins passed; FAIL tampered\n")


def test_unknown_name_runs_nothing(capsys):
    assert pins.main([CHEAP.name, "no-such-pin"]) == 2
    assert capsys.readouterr().out == ""
