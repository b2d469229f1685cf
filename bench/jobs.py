"""The four workloads as batches of exact jobs, with their verdict checks.

Each workload class builds its tables in ``__init__`` (timed as set-up),
runs its jobs through a :class:`Runner` in ``run`` (the timed pass), and
re-derives every verdict in ``check`` with :mod:`reference`, after the pass.
A job's verdict is reduced to a small digest right after the job, outside
its timing, so the pass keeps no large results alive.

The program is called through its modules (``cells.point_count_polynomial``
and so on), never through names bound at import, so the wrappers installed
by :mod:`tracing` see every call.
"""

from __future__ import annotations

import random
import statistics
import time
from functools import partial

from deodhar import cells, chevalley, laurent, matrixgrp, roots, search, weyl

import calibration
import inputs
import reference


class JobError:
    """Stands in for the digest of a job that raised."""

    def __init__(self, err: BaseException):
        self.message = f"{type(err).__name__}: {err}"


PROBE_REACH = 3


class Runner:
    """Times each job to its verdict; optionally wraps it in a trace span.

    A calibration probe runs before every job and once after the last; the
    sampler adds probes during long jobs.  Time spent in probes, in the
    sampler and in digests is left out of every job time and collected in
    ``untimed_s``."""

    def __init__(self, sampler: calibration.Sampler, tracer=None):
        self.sampler = sampler
        self.labels: list[str] = []
        self.times: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.digests: list[object] = []
        self.probes: list[float] = []
        self.untimed_s = 0.0
        self._job = tracer.wrap("bench.job", _call, span=True) if tracer else _call

    def _untimed(self, fn, *args):
        overhead = self.sampler.overhead_s
        start = time.perf_counter()
        result = fn(*args)
        self.untimed_s += time.perf_counter() - start - (self.sampler.overhead_s - overhead)
        return result

    def probe(self) -> None:
        self.probes.append(self._untimed(calibration.probe))

    def job(self, label: str, digest, fn, *args) -> None:
        self.probe()
        overhead = self.sampler.overhead_s
        start = time.perf_counter()
        try:
            verdict = self._job(fn, *args)
        except Exception as err:  # a failed job is a failed verdict, not a crash
            verdict = JobError(err)
        done = time.perf_counter()
        self.labels.append(label)
        self.times.append(done - start - (self.sampler.overhead_s - overhead))
        self.windows.append((start, done))
        if not isinstance(verdict, JobError):
            try:
                verdict = self._untimed(digest, verdict)
            except Exception as err:
                verdict = JobError(err)
        self.digests.append(verdict)

    def job_probes(self) -> list[float]:
        """Per job, the median of the samples taken during it and of the
        ``2 * PROBE_REACH`` explicit probes nearest to it, so that one
        disturbed probe cannot skew a short job."""
        out = []
        for k, window in enumerate(self.windows):
            near = self.probes[max(0, k + 1 - PROBE_REACH):k + 1 + PROBE_REACH]
            out.append(statistics.median(near + self.sampler.between(*window)))
        return out


def _call(fn, *args):
    return fn(*args)


def _check_all(digests, check) -> dict[int, str]:
    """Apply ``check(digest)`` to every job; collect the failures by job index."""
    failures = {}
    for index, digest in enumerate(digests):
        if isinstance(digest, JobError):
            failures[index] = digest.message
            continue
        problem = check(digest)
        if problem:
            failures[index] = problem
    return failures


# -- census ---------------------------------------------------------------------


def _q_coefficients(poly) -> dict[int, int]:
    """{exponent: coefficient} of a polynomial in q with integer coefficients."""
    out = {}
    for mono, coeff in poly.terms():
        if coeff.denominator != 1 or any(var != "q" for var, _ in mono.powers):
            raise ValueError(f"{poly} is not an integer polynomial in q")
        out[mono.exponent("q")] = int(coeff)
    return out


class Census:
    """Criterion-7 sweep: every reduced word of each sampled element, each
    word one job computing ``point_count_polynomial`` for every endpoint."""

    def __init__(self, inputs: dict):
        self.build_s: dict[str, float] = {}
        self.endpoints = {(g["family"], g["rank"]): [tuple(w) for w in g["endpoints"]]
                          for g in inputs["groups"]}
        self.groups = []
        for g in inputs["groups"]:
            ctx = weyl.context(g["family"], g["rank"])
            endpoints = [ctx.from_window(w) for w in g["endpoints"]]
            elements = [ctx.from_window(w) for w in g["elements"]]
            self.groups.append((g["family"], g["rank"], endpoints, elements))

    def run(self, runner: Runner) -> None:
        for family, rank, endpoints, elements in self.groups:
            for w in elements:
                key = (family, rank, w.window)
                for word in weyl.all_reduced_words(w):
                    runner.job(
                        f"{family}{rank} w={w.serialize()} word={word.serialize()}",
                        partial(self._digest, key), self._counts, word, endpoints)

    @staticmethod
    def _counts(word, endpoints):
        return [cells.point_count_polynomial(word, v) for v in endpoints]

    @staticmethod
    def _digest(key, polys):
        return key, [_q_coefficients(p) for p in polys]

    def check(self, digests) -> dict[int, str]:
        groups = {}
        first_word: dict[tuple, list] = {}

        def check_one(digest):
            (family, rank, window), polys = digest
            if (family, rank) not in groups:
                groups[(family, rank)] = reference.Group(family, rank)
            group = groups[(family, rank)]
            reference_polys = first_word.setdefault((family, rank, window), polys)
            if polys != reference_polys:
                return "point counts differ between reduced words of one element"
            total: dict[int, int] = {}
            for poly in polys:
                for exp, coeff in poly.items():
                    total[exp] = total.get(exp, 0) + coeff
            total = {e: c for e, c in total.items() if c}
            if total != {group.length[window]: 1}:
                return f"sum over v of P_(w,v) is {total}, expected q^{group.length[window]}"
            for v, poly in zip(self.endpoints[(family, rank)], polys):
                if bool(poly) != group.bruhat_leq(v, window):
                    return f"P_(w,v) for v={v} is {poly} but v <= w is {group.bruhat_leq(v, window)}"
            return None

        return _check_all(digests, check_one)


# -- scan -------------------------------------------------------------------------


PRECEQ_SAMPLE = 12
OBSTRUCTION_SAMPLE = 12
CERTIFIED_ENDPOINT = (2, 1, 3)  # t_2
CERTIFIED_PAIR = ("010101101", "011001011")


class Scan:
    """Closure-order scans: obstruction scans, closure upper bounds and
    disjointness scans."""

    def __init__(self, inputs: dict):
        self.build_s: dict[str, float] = {}
        self.inputs = inputs
        self.obstruction_words = [
            (n, weyl.ReducedWord(weyl.context("B", n), reference.obstruction_word(n)))
            for n in inputs["obstruction_ranks"]
        ]
        n = inputs["closure_rank"]
        word = weyl.ReducedWord(weyl.context("B", n), reference.obstruction_word(n))
        self.gammas = [cells.subexpression(word, mask) for mask in inputs["gammas"]]
        ctx = weyl.context("B", 3)
        self.disjointness_word = weyl.ReducedWord(ctx, tuple(inputs["disjointness_word"]))
        self.endpoints = [ctx.from_window(w) for w in inputs["endpoints"]]

    def run(self, runner: Runner) -> None:
        for n, word in self.obstruction_words:
            runner.job(f"find_obstructions n={n}", partial(self._obstructions, n),
                       search.find_obstructions, word)
        for gamma in self.gammas:
            runner.job(f"closure_upper_bound gamma={gamma.mask_string}",
                       partial(self._bound, gamma.mask_string),
                       cells.closure_upper_bound, gamma)
        for v in self.endpoints:
            runner.job(f"scan_disjointness v={v.serialize()}", partial(self._certified, v.window),
                       search.scan_disjointness, self.disjointness_word, v)

    @staticmethod
    def _obstructions(n, reports):
        return "obstructions", n, [
            (r.first.mask_string, r.second.mask_string, r.first.dimension, r.second.dimension)
            for r in reports
        ]

    @staticmethod
    def _bound(mask, descriptors):
        return "bound", mask, [d.mask_string for d in descriptors]

    @staticmethod
    def _certified(window, pairs):
        return "certified", window, [
            (p.first.mask_string, p.second.mask_string, p.certificate.root.coeffs)
            for p in pairs
        ]

    def check(self, digests) -> dict[int, str]:
        rng = random.Random(self.inputs["check_seed"])
        groups = {n: reference.Group("B", n) for n in (3, *self.inputs["obstruction_ranks"],
                                                        self.inputs["closure_rank"])}
        masks = {}
        pool = inputs.closure_pool()

        def distinguished(n, letters):
            if letters not in masks:
                masks[letters] = dict(groups[n].distinguished_masks(letters))
            return masks[letters]

        def check_obstructions(n, reports):
            group, letters = groups[n], reference.obstruction_word(n)
            table = distinguished(n, letters)
            gamma, delta = reference.obstruction_pair(n)
            if (gamma, delta, 2 * n, 3 * n - 3) not in reports:
                return f"catalog pair ({gamma}, {delta}) with dimensions (2n, 3n-3) not reported"
            for first, second, dim1, dim2 in rng.sample(reports, min(OBSTRUCTION_SAMPLE, len(reports))):
                if first not in table or second not in table or first == second:
                    return f"reported pair ({first}, {second}) is not two distinguished masks"
                dims = (group.dimension(letters, table[first]), group.dimension(letters, table[second]))
                if dims != (dim1, dim2) or dim2 < dim1:
                    return f"pair ({first}, {second}) has dimensions {dims}, reported {(dim1, dim2)}"
                if not group.preceq(table[second], table[first]):
                    return f"pair ({first}, {second}) is not related by the closure order"
            return None

        def check_bound(gamma, below):
            n = self.inputs["closure_rank"]
            group = groups[n]
            table = distinguished(n, reference.obstruction_word(n))
            below_set = set(below)
            if gamma not in below_set or not below_set <= table.keys():
                return "bound misses gamma or holds a mask that is not distinguished"
            if len(below) != pool[gamma]:
                return f"regression anchor: bound holds {len(below)} cells, expected {pool[gamma]}"
            outside = [m for m in rng.sample(sorted(table), 4 * PRECEQ_SAMPLE) if m not in below_set]
            sample = rng.sample(below, min(PRECEQ_SAMPLE, len(below))) + outside[:PRECEQ_SAMPLE]
            for delta in sample:
                if group.preceq(table[delta], table[gamma]) != (delta in below_set):
                    return f"preceq({delta}, {gamma}) disagrees with the subword Bruhat oracle"
            return None

        def check_certified(window, pairs):
            group, letters = groups[3], tuple(self.inputs["disjointness_word"])
            table = distinguished(3, letters)
            if window == CERTIFIED_ENDPOINT and CERTIFIED_PAIR not in [p[:2] for p in pairs]:
                return f"certified pair {CERTIFIED_PAIR} missing at v = t_2"
            for first, second, root in pairs:
                if table.get(first, [None])[-1] != window or table.get(second, [None])[-1] != window:
                    return f"pair ({first}, {second}) is not two distinguished masks ending at {window}"
                if not group.preceq(table[second], table[first]):
                    return f"pair ({first}, {second}) is not related by the closure order"
                if sorted(root) != [-1] + [0] * (len(root) - 1):
                    return f"certificate root {root} is not a negative simple root"
            return None

        checks = {"obstructions": check_obstructions, "bound": check_bound,
                  "certified": check_certified}
        return _check_all(digests, lambda d: checks[d[0]](*d[1:]))


# -- witness ----------------------------------------------------------------------


class Witness:
    """The symbolic closure witness at growing rank, one job per rank."""

    def __init__(self, inputs: dict):
        self.ranks = inputs["ranks"]
        start = time.perf_counter()
        for n in self.ranks:
            roots.root_system("B", n).structure  # builds the structure-constant table
        self.build_s = {"roots.structure.build_s": time.perf_counter() - start}

    def run(self, runner: Runner) -> None:
        for n in self.ranks:
            runner.job(f"verify_closure_witness n={n}", self._digest,
                       chevalley.verify_closure_witness, n)

    @staticmethod
    def _digest(report):
        return report.n, report.passed, len(report.signs)

    def check(self, digests) -> dict[int, str]:
        def check_one(digest):
            n, passed, signs = digest
            if not passed or signs != 2 * n:
                return f"rank {n}: passed={passed}, {signs} signs realized, expected {2 * n}"
            return None

        return _check_all(digests, check_one)


# -- oracle -----------------------------------------------------------------------


class Oracle:
    """Short integer words collected and compared in the adjoint
    representation, exactly and modulo primes; exhaustive flag counts."""

    def __init__(self, inputs: dict):
        self.primes = inputs["primes"]
        self.count_primes = inputs["count_primes"]
        self.words = []
        for item in inputs["words"]:
            ctx = weyl.context("B", item["rank"])
            system = roots.root_system("B", item["rank"])
            factors = tuple(
                chevalley.Factor(system.root(coeffs), laurent.LaurentPoly.constant(c))
                for coeffs, c in item["factors"]
            )
            self.words.append((ctx, chevalley.UnipotentWord(factors), item["collected"]))
        ranks = sorted({item["rank"] for item in inputs["words"]})
        start = time.perf_counter()
        for rank in ranks:
            roots.root_system("B", rank).structure  # builds the structure-constant table
        built = time.perf_counter()
        for rank in ranks:
            rep = chevalley.adjoint_rep(weyl.context("B", rank))
            for root in roots.root_system("B", rank).all_roots():
                rep.divided_powers(root)
        self.build_s = {
            "roots.structure.build_s": built - start,
            "chevalley.adjoint_rep.build_s": time.perf_counter() - built,
        }

    def run(self, runner: Runner) -> None:
        for k, (ctx, word, collected) in enumerate(self.words):
            runner.job(f"collect+adjoint word {k} (B{ctx.rank}, {len(word)} factors)",
                       partial(self._compare, collected), self._evaluate, ctx, word)
        for q in self.count_primes:
            runner.job(f"count_cells q={q}", partial(self._table, q), matrixgrp.count_cells, q)

    def _evaluate(self, ctx, word):
        collected = chevalley.collect(word)
        exact = (chevalley.evaluate_adjoint(ctx, word), chevalley.evaluate_adjoint(ctx, collected))
        modular = {
            p: (chevalley.evaluate_adjoint(ctx, word, prime=p),
                chevalley.evaluate_adjoint(ctx, collected, prime=p))
            for p in self.primes
        }
        return len(collected), exact, modular

    @staticmethod
    def _compare(expected_length, verdict):
        length, (word_m, collected_m), modular = verdict
        out = ["words", length == expected_length, word_m == collected_m]
        for p, (word_p, collected_p) in modular.items():
            reduced = tuple(tuple(x % p for x in row) for row in word_m)
            out.append((p, word_p == collected_p, reduced == word_p))
        return tuple(out)

    @staticmethod
    def _table(q, table):
        return "flags", q, {(w.window, v.window): count for (w, v), count in table.items()}

    def check(self, digests) -> dict[int, str]:
        a2 = reference.Group("A", 2)

        def check_one(digest):
            if digest[0] == "words":
                if not digest[1]:
                    return "regression anchor: collected form has another length than recorded"
                if not digest[2]:
                    return "adjoint matrices of the word and its collected form differ"
                for p, equal, consistent in digest[3:]:
                    if not equal:
                        return f"adjoint matrices differ mod {p}"
                    if not consistent:
                        return f"exact matrix reduced mod {p} differs from the mod-{p} evaluation"
                return None
            _, q, table = digest
            total = sum(table.values())
            if total != q ** 3 + 2 * q ** 2 + 2 * q + 1:
                return f"{total} flags over F_{q}, expected q^3+2q^2+2q+1"
            for w in a2.elements:
                cell_size = sum(c for (w2, _v), c in table.items() if w2 == w)
                if cell_size != q ** a2.length[w]:
                    return f"Schubert cell of {w} holds {cell_size} flags, expected q^{a2.length[w]}"
            return None

        return _check_all(digests, check_one)


WORKLOADS = {"census": Census, "scan": Scan, "witness": Witness, "oracle": Oracle}
