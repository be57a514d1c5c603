"""The benchmark's workloads: which units run, how, and how each is checked.

A unit is a claim request or a replay script.  ``--seed`` only shuffles
the order of units inside a pass; the program sees claim ids, script
names and fixed windows, nothing else.  Every unit's output is compared
with the references in ``reference.json`` (recorded by ``record.py``); a
mismatch or an exception marks that unit failed and never aborts the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import REF_KERNEL_S
from tracing import MOVE_PREFIXES

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


@dataclass
class Pass:
    """Outcome of one pass over a workload's units."""

    wall_s: float = 0.0          # every timed call of the pass
    kernel_s: float = 0.0        # host-speed samples taken during the pass, if any
    kernel_calls: int = 0
    batch_s: float = 0.0         # verify: the one batch call
    moves: int = 0               # replay: transcript moves; audit: steps verified
    latencies: list[float] = field(default_factory=list)  # verify: single-claim calls
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    @property
    def ref_wall_s(self) -> float:
        """``wall_s`` at the reference host speed (see ``hostspeed``)."""
        return self.wall_s * REF_KERNEL_S * self.kernel_calls / self.kernel_s


def call_cli(argv: list[str]) -> str:
    """``braidcomm.cli.main`` in-process; returns what it printed.  The exit
    status is not needed: every output is checked against the reference."""
    from braidcomm import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def _unit(tracer, name: str):
    return tracer.unit_span(name) if tracer is not None else contextlib.nullcontext()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: of 72 samples, p80 leaves 14 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Workload:
    name = ""
    why = ""

    def __init__(self, expected: dict | None, scratch: Path):
        self.expected = expected
        self.scratch = scratch  # where temporary files go
        # times every call; run.py swaps in one that stops while the host is sampled
        self.clock = time.perf_counter

    def units(self) -> list[str]:
        raise NotImplementedError

    def order(self, rng) -> list[str]:
        """The units in a seeded order; the seed changes nothing else."""
        units = self.units()
        return rng.sample(units, len(units))

    def run_pass(self, order: list[str], tracer=None) -> Pass:
        raise NotImplementedError

    def summary(self, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed beside the gated metrics."""
        return {"moves_per_s": (statistics.median(p.moves / p.ref_wall_s for p in passes), "1/s")}

    def _check(self, p: Pass, unit: str, got, want_ok: bool = True) -> None:
        """Count ``unit`` as attempted; fail it if ``got`` is not the reference."""
        p.attempted += 1
        if self.expected is None:
            return
        want = self.expected.get(unit)
        if not want_ok or got != want:
            p.failures.append(f"{self.name} {unit}: got {got!r}, reference {want!r}")


class VerifyWorkload(Workload):
    name = "verify-sg-w4"
    why = ("the SG claims of the registry at window 4: certificates repeated within a "
           "batch, tracked lattice and contains, rewriting; batch and single claims")
    # Sized so that three passes fit one run: on a 2-core x86-64 VM one pass
    # of all 61 claims takes 25-35 s at window 4 and twice that at window 6.  The SG claims keep
    # every registry mechanism: sg3 certificates reused across claims,
    # perfect:sg:* (tracked V and contains), expansion identity, relator list.
    group = "sg"
    window = 4

    def units(self) -> list[str]:
        from braidcomm import registry

        return sorted(c.id for c in registry.REGISTRY if c.group == self.group)

    def run_pass(self, order, tracer=None) -> Pass:
        p = Pass()
        argv = ["verify", "--group", self.group, "--window", str(self.window),
                "--format", "json-lines"]
        batch: dict[str, str] = {}
        with _unit(tracer, "batch"):
            t0 = self.clock()
            try:
                out = call_cli(argv)
            except Exception as exc:  # noqa: BLE001 -- a unit failure, reported below
                out = ""
                p.failures.append(f"{self.name} batch: {_error(exc)}")
            p.batch_s = self.clock() - t0
        p.wall_s = p.batch_s
        try:
            for line in out.splitlines():
                record = json.loads(line)
                batch[record["claim"]] = record["verdict"]
        except (json.JSONDecodeError, KeyError) as exc:
            p.failures.append(f"{self.name} batch output: {_error(exc)}")
        p.observed["batch"] = batch
        for cid in sorted(set(batch) | set(self.expected or ())):
            self._check(p, cid, batch.get(cid))
        for cid in order:
            with _unit(tracer, cid):
                t0 = self.clock()
                try:
                    out = call_cli(argv + ["--claims", cid])
                except Exception as exc:  # noqa: BLE001
                    out = _error(exc)
                dt = self.clock() - t0
            p.wall_s += dt
            p.latencies.append(dt)
            try:
                records = [json.loads(line) for line in out.splitlines()]
            except json.JSONDecodeError:
                records = []
            # exactly one line, for this id, agreeing with the batch
            one = len(records) == 1 and records[0].get("claim") == cid
            got = records[0].get("verdict") if one else out
            p.observed[cid] = got
            self._check(p, cid, got, want_ok=one and got == batch.get(cid))
        return p

    def summary(self, passes):
        latencies = [x for p in passes for x in p.latencies]
        return {
            "batch_s": (statistics.median(p.batch_s for p in passes), "s"),
            "claim_p50_s": (percentile(latencies, 50), "s"),
            "claim_p80_s": (percentile(latencies, 80), "s"),
            "claim_samples": (len(latencies), "count"),
        }


class ReplayWorkload(Workload):
    name = "replay-w5"
    why = ("all 15 Tietze replay scripts through the CLI; long growing words beside "
           "many short relators, and no lattice call")
    # one pass takes 8-11 s at window 5, 17-24 s at window 6 (2-core x86-64 VM)
    window = 5

    def units(self) -> list[str]:
        from braidcomm import replays

        return sorted(replays.SCRIPTS)

    def run_pass(self, order, tracer=None) -> Pass:
        p = Pass()
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            path = os.path.join(tmp, "transcript.txt")
            for script in order:
                argv = ["replay", "--script", script, "--window", str(self.window),
                        "--transcript", path]
                with _unit(tracer, script):
                    t0 = self.clock()
                    try:
                        call_cli(argv)
                        text = Path(path).read_bytes()
                    except Exception as exc:  # noqa: BLE001
                        text = _error(exc).encode()
                    dt = self.clock() - t0
                p.wall_s += dt
                p.moves += sum(1 for line in text.decode().splitlines()
                              if line.startswith(MOVE_PREFIXES))
                digest = hashlib.sha256(text).hexdigest()
                p.observed[script] = digest
                self._check(p, script, digest)
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        return p


class AuditWorkload(Workload):
    name = "audit-w4"
    why = ("the per-step abelian audit at window 4, checkpoint_every=150; rank-only "
           "lattice reductions dominate")
    window = 4
    checkpoint_every = 150
    # Criterion 10 audits all 15 scripts in 50-60 s on a 2-core x86-64 VM.
    # These 8 take 8-11 s, so three passes fit one run.  simplify-gvb-n5 keeps a large rank-only
    # start matrix; the word-heavy fingen-gvb* replays are in replay-w5.
    scripts = ("fingen-sg-n5", "fingen-sg-n6", "gvb3-free-quotient", "sg3-abelianization",
               "simplify-gvb-n3", "simplify-gvb-n4", "simplify-gvb-n5", "simplify-sg-n3")

    def units(self) -> list[str]:
        return list(self.scripts)

    def run_pass(self, order, tracer=None) -> Pass:
        from braidcomm import audit, replays

        p = Pass()
        for script in order:
            with _unit(tracer, script):
                t0 = self.clock()
                try:
                    report = audit.audit_script(replays.SCRIPTS[script], script, self.window,
                                                checkpoint_every=self.checkpoint_every)
                    got = {"steps_verified": report.steps_verified,
                           "epochs": [[e.start_step, e.invariants[0], list(e.invariants[1]),
                                       e.checks] for e in report.epochs]}
                except Exception as exc:  # noqa: BLE001
                    got = _error(exc)
                dt = self.clock() - t0
            p.wall_s += dt
            if isinstance(got, dict):
                p.moves += got["steps_verified"]
            p.observed[script] = got
            self._check(p, script, got)
        return p


WORKLOADS = {w.name: w for w in (VerifyWorkload, ReplayWorkload, AuditWorkload)}


def load(name: str, scratch: Path, with_reference: bool = True) -> Workload:
    expected = None
    if with_reference:
        expected = json.loads(REFERENCE_PATH.read_text())[name]
    return WORKLOADS[name](expected, scratch)
