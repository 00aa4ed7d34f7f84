"""The benchmark workloads: inputs made from the seed, the timed op, and the
independent check every op's output must pass.

A workload yields *units*, the smallest batches the runner measures whole: a
pair of requests for `gen-large` and `verify`, a full pass over the pairs for
`gen-batch`, one sweep round for `minimality`.  A unit may carry a `prepare`
step that runs untimed before its ops.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60  # a hung `gen` process is killed; its op fails


class CheckFailed(Exception):
    """An op's output did not pass its independent check."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]          # timed: the call into the program
    check: Callable[[object], int]     # untimed: raises CheckFailed, returns output edges


@dataclass(frozen=True)
class Unit:
    ops: tuple
    prepare: Callable[[], None] | None = None


def admissible_ts(n: int, kind: str) -> list:
    """The t values of the constructible family at n (the paper's congruence)."""
    mod, n_min = (2, 6) if kind == "nonorientable" else (4, 5)
    if n < n_min:
        return []
    return [t for t in range(n - 3) if (t - n * (n - 5) // 2) % mod == 0]


def request_key(n: int, t: int, kind: str) -> str:
    return f"{kind}:n={n}:t={t}"


class Digests:
    """sha256 of every `gen` output.  The same request must give the same bytes
    within a run and across runs of the same source tree, whose digests are
    kept in ``path``; values are never compared with a checked-in reference."""

    def __init__(self, path: Path):
        self.path = path
        self.stored = json.loads(path.read_text()) if path.exists() else {}
        self.run: dict = {}

    def check(self, key: str, text: str) -> None:
        sha = hashlib.sha256(text.encode()).hexdigest()
        first = self.run.setdefault(key, sha)
        if sha != first:
            raise CheckFailed(f"{key}: bytes differ from an earlier output of this run")
        if self.stored.get(key, sha) != sha:
            raise CheckFailed(f"{key}: bytes differ from an earlier run of the same source")

    def save(self) -> None:
        merged = {**self.run, **self.stored}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)


@dataclass
class Context:
    seed: int
    workdir: Path
    env: dict           # environment of every quadforge subprocess
    digests: Digests
    tracer: object = None  # a tracer.Tracer while the traced phase runs

    def quadforge(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "quadforge.cli", *args], env=self.env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)


def certificate_of(stdout: str) -> str:
    """The certificate `gen` prints last: one key=value line per field."""
    from quadforge import emap
    lines = stdout.splitlines(keepends=True)
    return "".join(lines[-len(emap.Certificate.KEYS):])


def check_gen(ctx: Context, n: int, t: int, kind: str, text: str):
    """Re-parse and re-certify one `gen` output; the certificate on success."""
    from quadforge import emap, serialize
    ctx.digests.check(request_key(n, t, kind), text)
    cert = emap.certify(serialize.parse_emap(text))
    problems = []
    if (cert.n, cert.t) != (n, t):
        problems.append(f"(n,t)=({cert.n},{cert.t})")
    if cert.orientable != (kind == "orientable"):
        problems.append(f"orientable={cert.orientable}")
    for flag in ("quadrangular", "face_simple", "universal", "minimal"):
        if not getattr(cert, flag):
            problems.append(f"{flag} fails")
    if problems:
        raise CheckFailed(f"{request_key(n, t, kind)}: " + ", ".join(problems))
    return cert


def _gen_args(n: int, t: int, kind: str, out: Path) -> list:
    return ["gen", "--n", str(n), "--t", str(t), "--kind", kind, "--out", str(out)]


def _draw_pair(rng: random.Random, n_nonorientable: int, n_orientable: int) -> list:
    """One nonorientable and one orientable request, with t drawn by ``rng``."""
    return [(n_nonorientable, rng.choice(admissible_ts(n_nonorientable, "nonorientable")),
             "nonorientable"),
            (n_orientable, rng.choice(admissible_ts(n_orientable, "orientable")), "orientable")]


def _request_ops(requests, run, check) -> tuple:
    return tuple(Op(request_key(*req), lambda req=req: run(req),
                    lambda result, req=req: check(req, result))
                 for req in requests)


GEN_LARGE = ((50, "nonorientable"), (49, "orientable"))


class GenLarge:
    """Cold `quadforge gen --out` requests, each in a fresh process, alternating
    nonorientable n=50 and orientable n=49.  The seed draws each request's t
    without replacement, so a run covers several t and repeats none until all
    have been drawn: a repeated request would count once in `op_p50_s` and
    tilt the median towards the other kind, which costs less or more."""

    name = "gen-large"
    work_in_children = True

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        pass

    def units(self):
        rng = random.Random(self.ctx.seed)
        left = {kind: [] for _, kind in GEN_LARGE}
        while True:
            pair = []
            for n, kind in GEN_LARGE:
                if not left[kind]:
                    left[kind] = admissible_ts(n, kind)
                    rng.shuffle(left[kind])
                pair.append((n, left[kind].pop(), kind))
            yield Unit(_request_ops(pair, self._run, self._check))

    def _run(self, req):
        n, t, kind = req
        out = self.ctx.workdir / f"gen-{kind}-{n}.emap"
        out.unlink(missing_ok=True)
        if self.ctx.tracer is None:
            return self.ctx.quadforge(*_gen_args(n, t, kind, out)), out, None
        stats = self.ctx.workdir / "child-stats.json"
        argv = [sys.executable, str(HERE / "trace_child.py"), str(stats), "--",
                *_gen_args(n, t, kind, out)]
        proc = subprocess.run(argv, env=self.ctx.env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        return proc, out, stats

    def _check(self, req, result) -> int:
        proc, out, stats = result
        if stats is not None and stats.exists():
            self.ctx.tracer.merge(json.loads(stats.read_text()))
            stats.unlink()
        if proc.returncode != 0:
            raise CheckFailed(f"gen exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        cert = check_gen(self.ctx, *req, out.read_text())
        if cert.to_text() != certificate_of(proc.stdout):
            raise CheckFailed("the certificate gen printed differs from the re-certified one")
        return cert.edges


BATCH_RANGES = (("nonorientable", 6, 26), ("orientable", 5, 29))  # acceptance criteria 1-2
BATCH_PAIRS = 224


class GenBatch:
    """`planner.generate` over every admissible pair of acceptance criteria 1-2,
    in seed-shuffled order; each pass starts with empty caches."""

    name = "gen-batch"
    work_in_children = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.requests = [(n, t, kind) for kind, lo, hi in BATCH_RANGES
                         for n in range(lo, hi + 1) for t in admissible_ts(n, kind)]
        if len(self.requests) != BATCH_PAIRS:
            raise RuntimeError(f"expected {BATCH_PAIRS} admissible pairs, "
                               f"made {len(self.requests)}")
        random.Random(ctx.seed).shuffle(self.requests)

    def setup(self) -> None:
        pass

    def units(self):
        ops = _request_ops(self.requests, self._run, self._check)
        while True:
            yield Unit(ops, prepare=self._empty_caches)

    @staticmethod
    def _empty_caches() -> None:
        from quadforge import catalog, planner
        planner._GEN_CACHE.clear()
        catalog.clear_cache()

    @staticmethod
    def _run(req):
        from quadforge import planner
        n, t, kind = req
        return planner.generate(planner.ParamRequest(n=n, t=t, kind=kind))

    def _check(self, req, result) -> int:
        from quadforge import serialize
        emb, _, _ = result
        return check_gen(self.ctx, *req, serialize.write_emap(emb)).edges


class Verify:
    """Parse, certify, re-write and byte-compare `gen` outputs for
    nonorientable n=62 and orientable n=61, made by `gen` during setup."""

    name = "verify"
    work_in_children = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.requests = _draw_pair(random.Random(ctx.seed), 62, 61)
        self.inputs: dict = {}  # request -> (emap text, certificate text printed by gen)

    def setup(self) -> None:
        outs = [self.ctx.workdir / f"verify-{kind}-{n}.emap" for n, t, kind in self.requests]
        # the two inputs are made at once, one `gen` process per core
        with ThreadPoolExecutor(len(outs)) as pool:
            procs = list(pool.map(lambda req, out: self.ctx.quadforge(*_gen_args(*req, out)),
                                  self.requests, outs))
        inputs = {}
        for req, out, proc in zip(self.requests, outs, procs):
            if proc.returncode != 0:
                raise CheckFailed(f"setup gen exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            text = out.read_text()
            check_gen(self.ctx, *req, text)
            inputs[req] = (text, certificate_of(proc.stdout))
        self.inputs = inputs

    def units(self):
        ops = _request_ops(self.requests, self._run, self._check)
        while True:
            yield Unit(ops)

    def _run(self, req):
        from quadforge import emap, serialize
        emb = serialize.parse_emap(self.inputs[req][0])
        return emap.certify(emb), serialize.write_emap(emb)

    def _check(self, req, result) -> int:
        cert, rewritten = result
        text, cert_text = self.inputs[req]
        if rewritten != text:
            raise CheckFailed("re-written emap differs from the input bytes")
        if cert.to_text() != cert_text:
            raise CheckFailed("certificate differs from the one made at setup")
        return cert.edges


# Acceptance criterion 9's small searched records.
EXACT_RECORDS = ("phi_4_0", "phi_5_0_star", "phi_6_1", "phi_7_0_plus", "phi_7_2_plus",
                 "phi_7_4_plus", "k_6_3", "c4_sphere", "klein_6_3")
# The sphere sweep stops at n=7: the n=8 sweep of acceptance criterion 8 takes
# over a minute on its own, more than a benchmark run can spend.
SPHERE_MAX_N = 7
PROJECTIVE_MAX_N = 6


class Minimality:
    """`sweep_minimal` on the sphere (n<=7) and projective plane (n<=6), then
    `search_exact` for the criterion-9 records, in seed-shuffled order."""

    name = "minimality"
    work_in_children = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.names = list(EXACT_RECORDS)
        random.Random(ctx.seed).shuffle(self.names)
        self.specs: list = []

    def setup(self) -> None:
        from quadforge import catalog
        self.specs = []
        for name in self.names:
            rec = catalog.get_record(name)
            self.specs.append((name, rec.spec_for(rec.graphs()[0])))

    def units(self):
        op = Op("sweeps+exact", self._run, self._check)
        while True:
            yield Unit((op,))

    def _run(self):
        from quadforge import search
        sphere = search.sweep_minimal("sphere", SPHERE_MAX_N)
        projective = search.sweep_minimal("projective", PROJECTIVE_MAX_N)
        found = [(name, spec, search.search_exact(spec)) for name, spec in self.specs]
        return sphere, projective, found

    def _check(self, result) -> int:
        from quadforge import emap
        sphere, projective, found = result
        if any(sphere[n] for n in range(4, SPHERE_MAX_N + 1)):
            raise CheckFailed("the sphere has a candidate class below n=8")
        if any(projective[n] for n in range(4, PROJECTIVE_MAX_N)):
            raise CheckFailed("the projective plane has a candidate class below n=6")
        if len(projective[PROJECTIVE_MAX_N]) != 1:
            raise CheckFailed(f"the projective plane has {len(projective[6])} classes at n=6, not 1")
        edges = len(projective[PROJECTIVE_MAX_N][0].edges)
        for name, spec, res in found:
            if res.status != "found":
                raise CheckFailed(f"search_exact({name}) ended {res.status}")
            emb = res.embedding
            if (emb.graph != spec.graph or not emap.is_quadrangular(emb)
                    or emap.euler_characteristic(emb) != spec.chi
                    or (spec.orientable is not None
                        and emap.is_orientable(emb) != spec.orientable)):
                raise CheckFailed(f"search_exact({name}) returned an embedding off its spec")
            edges += len(emb.graph.edges)
        return edges


WORKLOADS = {w.name: w for w in (GenLarge, GenBatch, Verify, Minimality)}
