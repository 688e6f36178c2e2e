"""The certify benchmark's tracer wraps pursuit functions by name; every
name it wraps must still resolve."""

import sys
from pathlib import Path

import pursuit
from pursuit import cli, retractions, strategies

CERTBENCH = Path(__file__).resolve().parent.parent / "certbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(CERTBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave certbench/ as it is
    import tracing

    originals = (
        retractions.check_shifted_edge_property,
        strategies.ProtectiveCop.__dict__["move"],
        cli.main,
    )
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer._patches
        assert retractions.check_shifted_edge_property is not originals[0]
    finally:
        tracer.uninstall()
    assert not tracer._patches
    assert (
        retractions.check_shifted_edge_property,
        strategies.ProtectiveCop.__dict__["move"],
        cli.main,
    ) == originals
    assert pursuit.check_shifted_edge_property is originals[0]
