"""The benchmark tracer patches package names by attribute lookup, so a
renamed or deleted name must fail here and not only in a traced benchmark
run."""

import importlib.util
from pathlib import Path

from braidcomm import replays, rewriting, tietze

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_the_tracer_installs_and_uninstalls_cleanly():
    tracing = _load_tracing()
    originals = (rewriting.rewrite, rewriting.expand, tietze.substitute)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert rewriting.rewrite is not originals[0]
    finally:
        tracer.uninstall()
    assert (rewriting.rewrite, rewriting.expand, tietze.substitute) == originals


def test_the_tracer_counts_the_moves_of_a_replay():
    # the tracer reads p.transcript as lines of str
    tracer = _load_tracing().Tracer()
    kinds = []
    try:
        tracer.install()
        p = replays.SCRIPTS["fingen-sg-n5"](3, callback=lambda step: kinds.append(step["kind"]))
    finally:
        tracer.uninstall()
    lines = [line for line in p.transcript_text().splitlines()
             if line.startswith(("eliminate ", "derive ", "rename "))]
    assert lines
    assert tracer.layer_metrics()["replays.moves"] == len(lines)
    assert len(lines) == sum(kind in ("eliminate", "derive", "rename") for kind in kinds)
