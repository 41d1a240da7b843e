"""The four benchmark workloads: inputs from a seed, timed calls, oracles.

Each workload builds its inputs in `setup()` from the seed alone and
exposes them as rounds of `Op`s, plus a fixed op list for the traced run.
An op's `call` is the timed public entry point.  Its `check` is the
oracle, run afterwards outside the timed region; it returns a failure
reason or None.  Workloads over a ladder of sizes run whole rounds, so
every run covers the same mix of sizes; the others draw single ops from a
seeded pool.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import random
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from seprat import cli, cnf, reduction, rpcore, septest

BRUTE_FORCE_CHECK_VARS = 12     # unsat verdicts up to this size are re-checked


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    clauses: int = 0                 # formula size, for clauses_per_s
    info: dict = field(default_factory=dict)


@dataclass
class Sample:
    op: Op
    seconds: float
    start: float                     # perf_counter() when the op began
    result: Any = None
    error: str | None = None         # set when the call raised


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    if not values:
        return float("nan")
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


# This sandbox's vCPU switches between speed states about 1.5x apart,
# each lasting one to ten seconds, and the share of time spent in the fast
# one drifts over minutes, so identical runs minutes apart differ by up to
# a third.  While ops are measured, a timer signal runs a short loop that
# uses none of the package every CALIBRATION_INTERVAL_S of wall time, also
# inside long ops.  Each op's time, less the loop's own time inside it, is
# rescaled to the speed at which that loop takes CALIBRATION_REFERENCE_S:
# by the loops timed during the op when there are at least
# CALIBRATION_MIN_INSIDE of them, else by the mean over the whole run.
CALIBRATION_REFERENCE_S = 0.0006
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_MIN_INSIDE = 5


def calibration_seconds() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        acc += Fraction(i % 13 + 1, i % 11 + 2)
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the calibration loop from a timer signal while active."""

    def __enter__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S,
                         CALIBRATION_INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        self.starts.append(time.perf_counter())
        self.seconds.append(calibration_seconds())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean slowdown of the run against the reference speed."""
        seconds = self.seconds or [calibration_seconds()]
        return sum(seconds) / len(seconds) / CALIBRATION_REFERENCE_S

    def rescale(self, samples: list[Sample]) -> list[float]:
        """Each sample's op time at the reference speed."""
        run = self.slowdown()
        out = []
        for s in samples:
            lo = bisect.bisect_left(self.starts, s.start)
            hi = bisect.bisect_left(self.starts, s.start + s.seconds)
            inside = self.seconds[lo:hi]
            own = s.seconds - sum(inside)
            if len(inside) >= CALIBRATION_MIN_INSIDE:
                out.append(own / (sum(inside) / len(inside)
                                  / CALIBRATION_REFERENCE_S))
            else:
                out.append(own / run)
        return out


def run_ops(ops, tracer=None) -> list[Sample]:
    """Run ops once each, back to back."""
    samples = []
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op
            samples.append(Sample(op, time.perf_counter() - t0, t0,
                                  error=f"{type(exc).__name__}: {exc}"))
        else:
            samples.append(Sample(op, time.perf_counter() - t0, t0, result))
    return samples


def measure(rounds: list[list[Op]], seconds: float):
    """Whole rounds back to back, cycling through `rounds`, until another
    round as long as the last one would overrun `seconds`; returns the
    samples and the probe that timed the calibration loop meanwhile."""
    samples = []
    start = time.perf_counter()
    idx = 0
    with SpeedProbe() as probe:
        while True:
            t_round = time.perf_counter()
            samples += run_ops(rounds[idx % len(rounds)])
            idx += 1
            now = time.perf_counter()
            if now - start + (now - t_round) > seconds:
                break
    return samples, probe


def check_samples(samples: list[Sample]) -> list[str]:
    """Run each sample's oracle; returns the failed ones' reasons.  An op
    that returned the same result as before is not checked again."""
    cache = {}
    failures = []
    for s in samples:
        if s.error is not None:
            failures.append(f"{s.op.label}: raised {s.error}")
            continue
        hit = cache.get(id(s.op))
        if hit is not None and hit[0] == s.result:
            reason = hit[1]
        else:
            try:
                reason = s.op.check(s.result)
            except Exception as exc:  # malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
            cache[id(s.op)] = (s.result, reason)
        if reason is not None:
            failures.append(f"{s.op.label}: {reason}")
    return failures


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`seprat <argv>` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_failure(result) -> str | None:
    code, _, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}"
    return None


def dimacs(formula: cnf.CnfFormula) -> str:
    rows = [f"p cnf {formula.var_count} {len(formula.clauses)}"]
    rows += [" ".join(map(str, c.to_ints())) + " 0" for c in formula.clauses]
    return "\n".join(rows) + "\n"


SINGLE_CLAUSE = "p cnf 3 1\n1 2 3 0\n"
# Satisfiable, but its two clauses demand contradictory cross-variable
# orders through the chain slots: a known round-trip disagreement.
SLOT_CONFLICT = "p cnf 4 2\n2 1 3 0\n-1 -2 4 0\n"
# Every sign pattern over (x1, x2, x3): the smallest unsatisfiable 3SAT.
ALL_SIGN_PATTERNS = "p cnf 3 8\n" + "".join(
    f"{'-' if a else ''}1 {'-' if b else ''}2 {'-' if c else ''}3 0\n"
    for a in (0, 1) for b in (0, 1) for c in (0, 1))

_CHAIN_EDGES = {(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)}


def _cost(p, x) -> Fraction:
    return sum((a * b for a, b in zip(p, x)), Fraction(0))


def check_compiled_text(text: str, clauses: int) -> str | None:
    """Independent structural check of a compiled dataset's JSON.

    The JSON must round-trip exactly, hold 6 observations and 3 auxiliary
    points per clause on 9 goods with increasing level offsets, and each
    level's own bundles must carry exactly the three revealed chains.
    Costs are summed here, not with the package's `dot`.
    """
    ds = reduction.dataset_from_json(text)
    if reduction.dataset_to_json(ds) != text.strip():
        return "dataset JSON does not round-trip"
    if (ds.n_z, ds.n_o) != (2, 7) or len(ds.observations) != 6 * clauses \
            or len(ds.evaluation_points) != 3 * clauses:
        return "compiled dataset has the wrong shape"
    offsets = []
    for level in range(1, clauses + 1):
        rows = [o for o in ds.observations if o.clause == level]
        bundles = {o.k: o.x for o in rows}
        bundles.update({e.t: e.x for e in ds.evaluation_points
                        if e.clause == level})
        offsets.append(rows[0].x[-1])
        edges = set()
        for row in rows:
            budget = _cost(row.p, row.x)
            edges |= {(row.k, t) for t, x in bundles.items()
                      if t != row.k and _cost(row.p, x) < budget}
        if edges != _CHAIN_EDGES:
            return f"level {level} does not carry the three chains"
    if any(a >= b for a, b in zip(offsets, offsets[1:])):
        return "level offsets are not increasing"
    return None


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        """`size` is "full", or "tiny" for the smoke test."""
        self.seed, self.size, self.workdir = seed, size, workdir
        self.rounds: list[list[Op]] = []
        self.trace_ops: list[Op] = []

    def setup(self) -> None:
        """Build the inputs and warm up with one op (caches, lazy imports)."""
        raise NotImplementedError

    def report(self, samples: list[Sample]) -> list[tuple[str, Any, str]]:
        """Workload-specific report lines: (name, value, unit)."""
        return []

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


class Compile(Workload):
    name = "compile"
    why = ("seprat reduce: random 3SAT on L in {5,10,20}, paper and linear "
           "offsets; the level-separation check dominates")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        # two formulas at L=10, so that the median formula time is taken
        # over four ops of the same size
        ladder = (5, 10, 10, 20) if self.size == "full" else (1, 2)
        ops = []
        for clauses in ladder:
            for mode in ("paper", "linear"):
                # I is fixed per L: compile cost grows with I, through
                # the denominators of epsilon and M
                formula = cnf.random_formula(rng, clauses + 2, clauses)
                path = self._write(f"c{len(ops)}.cnf", dimacs(formula))
                argv = ["reduce", path, "--offset-mode", mode]
                ops.append(Op(f"reduce L={clauses} {mode}",
                              lambda argv=argv: run_cli(argv),
                              lambda res, n=clauses: self._check(res, n),
                              clauses=clauses))
        ops[0].call()
        self.rounds = [ops]
        self.trace_ops = ops

    @staticmethod
    def _check(result, clauses: int) -> str | None:
        return _cli_failure(result) or check_compiled_text(result[1], clauses)

    def report(self, samples):
        busy = sum(s.seconds for s in samples)
        return [("compile_s.p50", median(s.seconds for s in samples), "s"),
                ("clauses_per_s",
                 sum(s.op.clauses for s in samples) / busy, "1/s")]


class DecideCompiled(Workload):
    """The instance set is fixed; the seed only orders it.

    Per-instance CEGAR cost varies about twofold with the formula, and
    even between isomorphic renamings of one formula, so a ladder drawn
    from the run seed made the median verdict time swing by more than a
    third between seeds.  The ladder is therefore drawn once from
    CORPUS_SEED, and each run decides every instance in a seeded order.
    """

    name = "decide-compiled"
    why = ("seprat test --method cegar on compiled data: named formulas plus "
           "a fixed L=3..6 ladder; SAT solving, arena and revealed relation")
    CORPUS_SEED = 2014

    def setup(self) -> None:
        corpus = random.Random(self.CORPUS_SEED)
        formulas = [("single-clause", cnf.parse_dimacs(SINGLE_CLAUSE)),
                    ("slot-conflict", cnf.parse_dimacs(SLOT_CONFLICT))]
        if self.size == "full":
            formulas.append(
                ("all-sign-patterns", cnf.parse_dimacs(ALL_SIGN_PATTERNS)))
        ladder = (3, 3, 4, 4, 5, 5, 6, 6) if self.size == "full" else (2,)
        for clauses in ladder:
            formulas.append((f"random L={clauses}", cnf.random_formula(
                corpus, corpus.randint(3, clauses + 2), clauses)))
        ops = []
        for label, formula in formulas:
            for mode in ("paper", "linear"):
                ds = reduction.reduce_formula(formula, mode)
                text = reduction.dataset_to_json(ds)
                path = self._write(f"d{len(ops)}.json", text)
                argv = ["test", path, "--tie-mode", "strict",
                        "--method", "cegar"]
                op = Op(f"test {label} {mode}",
                        lambda argv=argv: run_cli(argv), None,
                        clauses=len(formula.clauses),
                        info={"formula": formula, "dataset": ds, "json": text})
                op.check = lambda res, op=op: self._check(res, op)
                ops.append(op)
        ops[0].call()
        random.Random(self.seed).shuffle(ops)
        self.rounds = [ops]
        self.trace_ops = ops

    @staticmethod
    def _satisfiable(op: Op) -> bool:
        if "satisfiable" not in op.info:
            op.info["satisfiable"] = \
                cnf.brute_force_sat(op.info["formula"]) is not None
        return op.info["satisfiable"]

    def _check(self, result, op: Op) -> str | None:
        failure = _cli_failure(result)
        if failure:
            return failure
        ds = op.info["dataset"]
        if reduction.dataset_from_json(op.info["json"]) != ds:
            return "compiled dataset does not round-trip through its JSON"
        doc = json.loads(result[1])
        op.info["rationalizable"] = doc["status"] == "rationalizable"
        if not op.info["rationalizable"]:
            return None
        if not self._satisfiable(op):
            return "unsatisfiable formula judged rationalizable"
        witness = septest.witness_from_json(doc["witness"])
        check = septest.verify_witness(ds, rpcore.build_grid(ds), witness,
                                       "strict")
        return None if check.valid else f"witness rejected: {check.reason}"

    def report(self, samples):
        busy = sum(s.seconds for s in samples)
        # _check records each instance's verdict in op.info
        instances = [op for op in self.rounds[0] if "rationalizable" in op.info]
        disagree = sum(1 for op in instances
                       if self._satisfiable(op) and not op.info["rationalizable"])
        satisfiable = sum(1 for op in instances if self._satisfiable(op))
        share = disagree / len(instances) if instances else float("nan")
        return [
            ("verdict_s.p50", median(s.seconds for s in samples), "s"),
            ("verdicts_per_s", len(samples) / busy, "1/s"),
            ("clauses_per_s", sum(s.op.clauses for s in samples) / busy, "1/s"),
            ("roundtrip_disagree_share", share,
             f"of {len(instances)} instances ({satisfiable} satisfiable, "
             f"{disagree} judged not rationalizable)"),
            ("unchecked_negative_verdicts",
             sum(1 for op in instances if not op.info["rationalizable"]),
             "not-rationalizable verdicts have no certificate to check"),
        ]


def random_foreign_dataset(rng: random.Random, max_z_parts: int = 6):
    """Small random dataset with positive prices, unrelated to any
    compiled formula (the shape of the test suite's generator)."""
    def fraction(lo=0, hi=4):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 3))

    n_z, n_o = 2, rng.randint(1, 2)
    while True:
        obs = []
        for _ in range(rng.randint(2, 4)):
            x = tuple(fraction() for _ in range(n_z + n_o))
            p = tuple(fraction(1) + Fraction(1, 4) for _ in range(n_z + n_o))
            obs.append(reduction.Observation(x=x, p=p))
        evs = [reduction.EvaluationPoint(
            x=tuple(fraction() for _ in range(n_z + n_o)))
            for _ in range(rng.randint(0, 2))]
        ds = reduction.Dataset(n_z=n_z, n_o=n_o, observations=tuple(obs),
                               evaluation_points=tuple(evs))
        z_parts = {o.x[:n_z] for o in obs} | {e.x[:n_z] for e in evs}
        if len(z_parts) <= max_z_parts:
            return ds


class ForeignBatch(Workload):
    name = "foreign-batch"
    why = ("septest.decide on thousands of tiny random datasets, weak ties, "
           "full-product grid: brute force, never the SAT engine")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        count, traced = (2000, 1000) if self.size == "full" else (30, 10)
        ops = []
        for idx in range(count):
            ds = random_foreign_dataset(rng)
            ops.append(Op(
                f"decide foreign #{idx}",
                lambda ds=ds: septest.decide(ds, tie_mode="weak",
                                             grid_mode="full-product"),
                lambda verdict, ds=ds: self._check(verdict, ds)))
        ops[0].call()
        self.rounds = [[op] for op in ops]
        self.trace_ops = ops[:traced]

    @staticmethod
    def _check(verdict, ds) -> str | None:
        if not verdict.rationalizable:
            return None
        if not rpcore.garp_check(ds).consistent:
            return "GARP-inconsistent dataset accepted"
        check = septest.verify_witness(
            ds, rpcore.build_grid(ds, "full-product"), verdict.witness, "weak")
        return None if check.valid else f"witness rejected: {check.reason}"

    def report(self, samples):
        times = sorted(s.seconds for s in samples)
        lines = [("verdict_s.p50", median(times), "s")]
        if len(times) >= 1000:       # at least ten samples beyond the p99
            lines.append(("verdict_s.p99", times[-(len(times) // 100) - 1], "s"))
        lines.append(("verdicts_per_s", len(times) / sum(times), "1/s"))
        return lines


class SatThreshold(Workload):
    name = "sat-threshold"
    why = ("seprat sat on random 3SAT at clause/variable ratio 4.26, I=70..90: "
           "the only workload where CDCL conflict analysis and learning run")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        count, traced, lo, hi = (400, 60, 70, 90) if self.size == "full" \
            else (6, 3, 8, 12)
        ops = []
        for idx in range(count):
            var_count = rng.randint(lo, hi)
            formula = cnf.random_formula(rng, var_count, round(4.26 * var_count))
            argv = ["sat", self._write(f"s{idx}.cnf", dimacs(formula))]
            clauses = tuple(c.to_ints() for c in formula.clauses)
            ops.append(Op(f"sat #{idx} I={var_count}",
                          lambda argv=argv: run_cli(argv),
                          lambda res, i=var_count, c=clauses:
                          self._check(res, i, c),
                          clauses=len(clauses), info={"vars": var_count}))
        run_cli(["sat", self._write("warmup.cnf", ALL_SIGN_PATTERNS)])
        self.rounds = [[op] for op in ops]
        self.trace_ops = ops[:traced]

    @staticmethod
    def _check(result, var_count, clauses) -> str | None:
        failure = _cli_failure(result)
        if failure:
            return failure
        formula = cnf.CnfFormula(
            var_count, tuple(cnf.Clause.from_ints(c) for c in clauses))
        doc = json.loads(result[1])
        if doc["status"] == "sat":
            model = {int(v): bool(val) for v, val in doc["model"].items()}
            return None if cnf.evaluate(formula, model) \
                else "model falsifies the formula"
        if var_count <= BRUTE_FORCE_CHECK_VARS \
                and cnf.brute_force_sat(formula) is not None:
            return "satisfiable formula judged unsat"
        return None

    def report(self, samples):
        busy = sum(s.seconds for s in samples)
        unchecked = {id(s.op) for s in samples
                     if s.op.info["vars"] > BRUTE_FORCE_CHECK_VARS
                     and s.result is not None and '"unsat"' in s.result[1]}
        return [("verdict_s.p50", median(s.seconds for s in samples), "s"),
                ("verdicts_per_s", len(samples) / busy, "1/s"),
                ("clauses_per_s", sum(s.op.clauses for s in samples) / busy,
                 "1/s"),
                ("unchecked_unsat_formulas", len(unchecked),
                 f"no certificate; above {BRUTE_FORCE_CHECK_VARS} variables "
                 f"brute force is out of reach")]


WORKLOADS = {w.name: w for w in (Compile, DecideCompiled, ForeignBatch,
                                 SatThreshold)}
