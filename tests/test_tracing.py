"""The benchmark tracer patches package names by attribute lookup, so a
renamed or deleted name must fail here and not only in a traced benchmark
run."""

import importlib.util
from pathlib import Path

from braidcomm import rewriting, tietze

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_the_tracer_installs_and_uninstalls_cleanly():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (rewriting.rewrite, rewriting.expand, tietze.substitute)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert rewriting.rewrite is not originals[0]
    finally:
        tracer.uninstall()
    assert (rewriting.rewrite, rewriting.expand, tietze.substitute) == originals
