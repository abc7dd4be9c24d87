"""Random polymatroid generation and the differential verification engine.

``STRATEGIES`` names the generators, each deterministic per seed:
``submodular-rejection`` keeps a min of random modular caps that validates;
``uniform-family`` takes rk(I) = min(r, sum of m over I); ``lattice-path``
lowers single ranks of a uniform family while the axioms hold.
``verify_instance`` builds the ``INPUTS`` of the chosen ``CHECKS`` once,
then times each check alone; a failed check is a report, a library fault
an ``InternalInvariantFailure``.  ``verify_campaign`` runs consecutive
seeds and shrinks each counterexample (``shrink_instance``).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, reduce
from operator import and_, getitem, ne

from .algorithms import (
    LexOrder,
    box_polynomial,
    cave_polynomial,
    mobius_interval,
    mobius_polynomial,
    mobius_table,
    snapper_eur_larson,
    snapper_from_cave,
    stalactite_counts,
    stalactite_polynomial,
)
from .core import (
    MAX_GROUND_SET,
    Polymatroid,
    RankFunction,
    _bits,
    _subset_sums,
    exchange_index,
    lattice_code,
    not_m_convex,
    points_from_rank,
    rank_from_points,
    threshold_masks,
    validate_rank_function,
)
from .errors import (
    AxiomViolation,
    CavepolyError,
    GenerationExhausted,
    InternalInvariantFailure,
    UnknownFamily,
)
from .geometry import independence_points, is_cave
from .polyalg import expand_binomial

_MAX_ATTEMPTS = 10_000


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic instance-generation parameters."""

    seed: int
    p: int
    max_rank: int = 6
    max_cage_entry: int = 5
    strategy: str = "submodular-rejection"

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.p > MAX_GROUND_SET:  # before any 2^p subset-sum table is built
            raise ValueError("p must be <= %d" % MAX_GROUND_SET)
        if self.max_rank < 1 or self.max_cage_entry < 1:
            raise ValueError("generation bounds must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError("unknown strategy %r, expected one of %s" % (self.strategy, list(STRATEGIES)))


def _uniform_values(p, r, m):
    return [min(r, s) for s in _subset_sums(m)]


def _draw_uniform(cfg: GeneratorConfig, rng) -> RankFunction:
    r = rng.randint(0, cfg.max_rank)
    m = [rng.randint(0, cfg.max_cage_entry) for _ in range(cfg.p)]
    return validate_rank_function(cfg.p, _uniform_values(cfg.p, r, m), m)


def _draw_submodular(cfg: GeneratorConfig, rng) -> RankFunction | None:
    p = cfg.p
    c0 = rng.randint(0, cfg.max_rank)
    m = [rng.randint(0, cfg.max_cage_entry) for _ in range(p)]
    caps = []
    for _ in range(rng.randint(1, 3)):
        shiftv = rng.randint(0, cfg.max_rank)
        weights = [rng.randint(0, cfg.max_cage_entry) for _ in range(p)]
        caps.append((shiftv, _subset_sums(weights)))
    msums = _subset_sums(m)
    # The min of monotone nonnegative caps is already monotone and nonnegative.
    vals = [min(c0, ms, min(a + s[mask] for a, s in caps)) for mask, ms in enumerate(msums)]
    try:
        return validate_rank_function(p, vals, [vals[1 << i] for i in range(p)])
    except AxiomViolation:
        return None


def _stays_valid_lowered(values, mask, p) -> bool:
    """Whether a valid rank table stays valid with ``values[mask]`` lowered
    by one.  Only the axioms that read that entry can break: monotonicity on
    the pairs (mask - a, mask) and submodularity on the squares with corners
    mask and mask - a + b, for a in mask and b outside it.  O(p^2) reads."""
    lowered = values[mask] - 1
    outside = [1 << b for b in range(p) if not mask >> b & 1]
    for a in _bits(mask):
        below = mask ^ 1 << a
        if values[below] > lowered:
            return False
        for bit in outside:
            if lowered + values[below | bit] < values[mask | bit] + values[below]:
                return False
    return True


def _draw_lattice_path(cfg: GeneratorConfig, rng) -> RankFunction:
    p = cfg.p
    r = rng.randint(0, cfg.max_rank)
    m = [rng.randint(0, cfg.max_cage_entry) for _ in range(p)]
    values = _uniform_values(p, r, m)
    for _ in range(rng.randint(0, 2 << p)):
        mask = rng.randrange(1, 1 << p)
        if values[mask] and _stays_valid_lowered(values, mask, p):
            values[mask] -= 1
    return validate_rank_function(p, values, [values[1 << i] for i in range(p)])


_DRAWS = {"submodular-rejection": _draw_submodular, "uniform-family": _draw_uniform,
          "lattice-path": _draw_lattice_path}
STRATEGIES = tuple(_DRAWS)


def random_polymatroid(cfg: GeneratorConfig) -> Polymatroid:
    """A valid random polymatroid, deterministic per config."""
    rng = random.Random(cfg.seed)
    draw = _DRAWS[cfg.strategy]
    for _ in range(_MAX_ATTEMPTS):
        rk = draw(cfg, rng)
        if rk is not None:
            return points_from_rank(rk)
    raise GenerationExhausted("no valid instance after %d attempts for %s" % (_MAX_ATTEMPTS, cfg))


def named_family(name: str, **params) -> Polymatroid:
    """Named instances: "uniform" (r, m), "free" (m), "rank-zero" (p),
    "running-example"."""

    def need(key):
        if key not in params:
            raise ValueError("family %r requires parameter %r" % (name, key))
        return params[key]

    if name == "running-example":
        return Polymatroid([(0, 3), (1, 2), (2, 1)])
    if name == "rank-zero":
        return Polymatroid([(0,) * need("p")])
    if name == "free":
        return Polymatroid([tuple(need("m"))])
    if name == "uniform":
        r = need("r")
        m = list(need("m"))
        p = len(m)
        rk = validate_rank_function(p, _uniform_values(p, r, m), m)
        return points_from_rank(rk)
    raise UnknownFamily("unknown family %r" % (name,))


def _poly_diff_detail(name, q, cave):
    exps = {e for e in set(q.terms) | set(cave.terms) if q.terms.get(e, 0) != cave.terms.get(e, 0)}
    e = min(exps)
    return "cave and %s differ at t^%s: %d vs %d" % (name, list(e), cave.terms.get(e, 0), q.terms.get(e, 0))


def _check_four_way(P):
    cave = cave_polynomial(P)
    for name, q in (
        ("stalactite", stalactite_polynomial(P)),
        ("box", box_polynomial(P)),
        ("mobius", mobius_polynomial(P)),
    ):
        if q != cave:
            return False, _poly_diff_detail(name, q, cave)
    return True, None


@lru_cache(maxsize=MAX_GROUND_SET)
def _lex_orders(p) -> tuple:
    """The ``LexOrder``s the lex-order check tries on p coordinates: all p!
    for p <= 4, else the identity, its reverse and eight shuffles seeded by
    p."""
    if p <= 4:
        perms = itertools.permutations(range(1, p + 1))
    else:
        rng = random.Random(0x5EED ^ p)
        perms = [tuple(range(1, p + 1)), tuple(range(p, 0, -1))]
        for _ in range(8):
            perm = list(range(1, p + 1))
            rng.shuffle(perm)
            perms.append(tuple(perm))
    return tuple(map(LexOrder, perms))


def _check_lex_order_invariance(P):
    """P's stalactite polynomial under each of ``_lex_orders(P.p)`` past the
    first, the identity, against the identity order's, by code; the first
    order that differs is reported.  Directions are found once per distinct
    ``precedence``, all that they read of an order, and cubes expanded once
    per distinct decomposition."""
    terms = stalactite_polynomial(P).terms
    base = dict(zip(lattice_code(P).encode(terms), terms.values()))
    index = exchange_index(P)
    by_precedence, by_decomposition = {}, {}
    for order in _lex_orders(P.p)[1:]:
        precedence = index.precedence(order)
        same = by_precedence.get(precedence)
        if same is None:
            decomposition = tuple(index.stalactites(order))
            same = by_decomposition.get(decomposition)
            if same is None:
                same = by_decomposition[decomposition] = index.cube_codes(decomposition) == base
            by_precedence[precedence] = same
        if not same:
            return False, "stalactite polynomial differs under order %s" % (order.permutation,)
    return True, None


def _check_mobius_interval_closed_form(P):
    """The raw recurrence mu(m, a) = -sum of mu(m, b) over m <= b < a against
    ``mobius_interval``, for every comparable pair of independence points.
    mu(m, a) is mu(d), d = a - m in the down-closed region, which
    ``mobius_table``'s partial sums mirrored downward fill in one lex-order
    pass, O(|I| p).  The m <= a are the box [0, a], whose codes of a - m are
    the same box in reverse; a code missing there is a region fault, an
    ``InternalInvariantFailure``.  A mismatch is reported at its first m,
    then a, in (degree, lex) order."""
    region, lattice = independence_points(P), lattice_code(P)
    strides = lattice.strides
    raw, partial, outside = {}, {}, (0,) * P.p
    for code in region.codes:
        below = [partial.get(code - s, outside)[k] for k, s in enumerate(strides)]
        raw[code] = mu = -sum(below) if code else 1
        partial[code] = sums = []
        for b in below:
            mu += b
            sums.append(mu)
    failures = []
    for a in region.ordered:
        box = [range(c + 1) for c in a]
        closed = list(map(mobius_interval, itertools.product(*box), itertools.repeat(a)))
        differences = itertools.product(*[range(c * s, -1, -s) for c, s in zip(a, strides)])  # code(a - m)
        try:
            recurrence = list(map(raw.__getitem__, map(sum, differences)))
        except KeyError as exc:
            raise InternalInvariantFailure("independence region is not down-closed: %s is missing under %s" % (
                lattice.decode(exc.args)[0], a))
        if closed != recurrence:
            failures.append(min((sum(m), m, sum(a), a, c, r)
                                for m, c, r in zip(itertools.product(*box), closed, recurrence) if c != r))
    if failures:
        _, m, _, a, c, r = min(failures)
        return False, "interval [%s, %s]: closed form %d, recurrence %d" % (m, a, c, r)
    return True, None


def _check_counts_equal_mobius(P):
    counts = stalactite_counts(P)
    table = mobius_table(P)
    region = independence_points(P).ordered
    stray = set(counts).difference(region)
    if stray:
        return False, "stalactite count outside independence region at %s" % (min(stray),)
    rank = P.rank
    for n in region:
        signed = counts.get(n, 0) * (-1 if (rank - sum(n)) % 2 else 1)
        if signed != table[n]:
            return False, "at %s: signed count %d, mobius %d" % (n, signed, table[n])
    return True, None


def _check_truncation_lemmas(P):
    """The stalactite polynomial of the truncation at each n in I(P) against
    P's at every m >= n in I(P), the truncation's region above n (a base
    above m >= n is itself >= n).  Each distinct set of kept bases, a mask
    of P's ``exchange_index``, is asserted to be a polymatroid as in
    ``truncate``, then decomposed from its own points, once.  Its counts
    and P's, compared by code, leave one mask over the region's positions,
    in lex order: the m where the two coefficients differ, an m missing
    from either counting 0.  The region above n is one AND of the region's
    masks {q_i >= n_i}, one map per i.  So n passes when that AND misses
    its kept set's disagreements; else the lowest bit of the two ANDed is
    the first m in lex order above n that differs, and the failing set is
    decomposed again for its coefficient."""
    terms = stalactite_polynomial(P).terms
    stal_p = dict(zip(lattice_code(P).encode(terms), terms.values()))
    bases, region, identity = exchange_index(P), independence_points(P), LexOrder.identity(P.p)
    size, base_rows = len(region.codes), bases.above
    full = (1 << size) - 1
    region_rows = [{x: full ^ below for x, (below, _) in threshold_masks(c).items()} for c in zip(*region.ordered)]
    # Positions by code; a code off the region, read by no n, takes the spare slot ``size``.
    position, spare = dict(zip(region.codes, itertools.count())), itertools.repeat(size)

    def decompose(kept):
        return bases.cube_codes(bases.stalactites(identity, kept))

    def disagree(counts, digits):  # digit k set to "1" where ``counts`` and P's differ at region.ordered[k]
        for k, differs in zip(map(position.get, counts, spare),
                              map(ne, counts.values(), map(stal_p.get, counts, itertools.repeat(0)))):
            digits[k] = 48 + differs
        return digits

    present = disagree(dict.fromkeys(stal_p, 0), bytearray(b"0" * (size + 1)))  # P's support: where 0 differs
    masks = {}
    for n in region.ordered:
        kept = reduce(and_, map(getitem, base_rows, n))
        differs = masks.get(kept)
        if differs is None:
            if not kept:  # a region point under no base: a fault of the region walk
                raise InternalInvariantFailure("%s is not in the independence region" % (n,))
            witness = bases.m_convex_failure(kept)
            if witness:
                raise InternalInvariantFailure(
                    "truncation at %s is not a polymatroid: %s" % (n, not_m_convex(witness)))
            differs = masks[kept] = int(disagree(decompose(kept), bytearray(present))[::-1], 2)
        bad = differs & reduce(and_, map(getitem, region_rows, n))
        if bad:
            k = (bad & -bad).bit_length() - 1
            code = region.codes[k]
            return False, "truncation at %s: coefficient at %s is %d, expected %d" % (
                n, region.ordered[k], decompose(kept).get(code, 0), stal_p.get(code, 0))
    return True, None


def _check_coefficient_sum(P):
    total = cave_polynomial(P).evaluate((1,) * P.p)
    if total != 1:
        return False, "coefficients sum to %d, expected 1" % total
    return True, None


def _check_cancellation_free(P):
    rank = P.rank
    terms = cave_polynomial(P).terms
    wrong = [e for e, c in terms.items() if c * (-1 if (rank - sum(e)) % 2 else 1) <= 0]
    if wrong:
        e = min(wrong)
        return False, "coefficient %d at t^%s has the wrong sign" % (terms[e], list(e))
    return True, None


def _check_snapper_routes(P):
    via_cave = snapper_from_cave(P)
    via_sum = snapper_eur_larson(P)
    if expand_binomial(via_cave) != expand_binomial(via_sum):
        return False, "the two Snapper expansions differ"
    zero = (0,) * P.p
    if via_cave.evaluate(zero) != 1 or via_sum.evaluate(zero) != 1:
        return False, "Snapper at the zero vector is %d / %d, expected 1" % (
            via_cave.evaluate(zero), via_sum.evaluate(zero))
    return True, None


def _check_cave_support(P):
    support = set(cave_polynomial(P).terms)
    union = set(stalactite_counts(P))
    if support != union:
        sample = min(support ^ union)
        return False, "cave support and stalactite union differ at %s" % (sample,)
    return True, None


def _check_cave_predicate(P):
    report = is_cave(set(stalactite_counts(P)))
    if not report:
        return False, "stalactite union rejected: condition %s, witness %s" % (
            report.failed_condition, report.witness)
    return True, None


CHECKS = {
    "four-way-equality": _check_four_way,
    "lex-order-invariance": _check_lex_order_invariance,
    "mobius-interval-closed-form": _check_mobius_interval_closed_form,
    "counts-equal-mobius": _check_counts_equal_mobius,
    "truncation-lemmas": _check_truncation_lemmas,
    "coefficient-sum": _check_coefficient_sum,
    "cancellation-free": _check_cancellation_free,
    "snapper-routes": _check_snapper_routes,
    "cave-support": _check_cave_support,
    "cave-predicate": _check_cave_predicate,
}

# The memoised builders each check's body reads; a name not here has none.
INPUTS = {
    "four-way-equality": (cave_polynomial, stalactite_polynomial, box_polynomial, mobius_polynomial),
    "lex-order-invariance": (stalactite_polynomial, lattice_code, exchange_index),
    "mobius-interval-closed-form": (independence_points, lattice_code),
    "counts-equal-mobius": (stalactite_polynomial, mobius_table, independence_points),
    "truncation-lemmas": (stalactite_polynomial, lattice_code, exchange_index, independence_points),
    "coefficient-sum": (cave_polynomial,),
    "cancellation-free": (cave_polynomial,),
    "snapper-routes": (cave_polynomial, independence_points),
    "cave-support": (cave_polynomial, stalactite_polynomial),
    "cave-predicate": (stalactite_polynomial,),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str | None
    elapsed: float


@dataclass
class VerificationReport:
    """Per-instance outcomes; ``inputs_elapsed`` times the inputs stage.  No
    elapsed figure enters serialized output."""

    descriptor: dict
    results: tuple
    inputs_elapsed: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list:
        return [r for r in self.results if not r.passed]


def instance_descriptor(P: Polymatroid) -> dict:
    return {"p": P.p, "rank": P.rank, "base_points": len(P.points), "cage": list(P.cage)}


def _check_names(checks) -> tuple:
    """The chosen check names, all by default.  Refused: an empty selection
    (a vacuous pass), a bare string (read by character), an unknown name."""
    names = tuple(CHECKS) if checks is None else tuple(checks)
    if not names or isinstance(checks, str):
        raise ValueError("checks must be a nonempty collection of check names, got %r" % (checks,))
    for name in names:
        if name not in CHECKS:
            raise ValueError("unknown check %r; known checks: %s" % (name, ", ".join(CHECKS)))
    return names


def verify_instance(P: Polymatroid, checks=None) -> VerificationReport:
    """Refuse unknown check names, build the chosen checks' (all by default)
    ``INPUTS`` once each, in first-seen order, then run the checks."""
    names = _check_names(checks)
    start = time.perf_counter()
    for build in dict.fromkeys(build for name in names for build in INPUTS.get(name, ())):
        build(P)
    inputs_elapsed = time.perf_counter() - start
    results = []
    for name in names:
        fn = CHECKS[name]
        start = time.perf_counter()
        passed, detail = fn(P)
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return VerificationReport(instance_descriptor(P), tuple(results), inputs_elapsed)


def _delete_coordinate(rk: RankFunction, drop: int) -> RankFunction:
    """Restrict a rank function to the ground set without 1-based ``drop``;
    restrictions are always valid."""
    # Masks without the dropped bit, in increasing order, are the masks of
    # the smaller ground set in increasing order.
    values = [v for mask, v in enumerate(rk.values) if not mask >> (drop - 1) & 1]
    return RankFunction(rk.p - 1, values, [values[1 << b] for b in range(rk.p - 1)])


def _shrink_candidates(P: Polymatroid):
    rk = rank_from_points(P)
    p = rk.p
    if p > 1:
        for drop in range(1, p + 1):
            yield points_from_rank(_delete_coordinate(rk, drop))
    cage = P.cage
    for i in range(p):
        if cage[i] == 0:
            continue
        capped = [cage[j] - (1 if j == i else 0) for j in range(p)]
        vals = list(map(min, rk.values, _subset_sums(capped)))
        try:
            yield points_from_rank(validate_rank_function(p, vals, capped))
        except AxiomViolation:
            continue
    if P.rank > 0:
        vals = [min(v, P.rank - 1) for v in rk.values]
        yield points_from_rank(validate_rank_function(p, vals, [vals[1 << i] for i in range(p)]))


def shrink_instance(P: Polymatroid, still_fails) -> Polymatroid:
    """Greedy minimization: drop coordinates, lower cage entries, truncate the
    rank, keeping any candidate on which ``still_fails`` holds."""
    current = P
    while True:
        for cand in _shrink_candidates(current):
            try:
                keep = still_fails(cand)
            except CavepolyError:
                keep = False
            if keep:
                current = cand
                break
        else:
            return current


@dataclass(frozen=True)
class CampaignFailure:
    seed: int
    check: str
    detail: str | None
    points: tuple
    shrunk_points: tuple


@dataclass
class CampaignReport:
    config: GeneratorConfig
    count: int
    checks: tuple
    reports: tuple
    failures: tuple
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_document(self) -> dict:
        """Deterministic JSON-ready summary (timing deliberately excluded)."""
        return {
            "count": self.count,
            "passed": sum(1 for r in self.reports if r.passed),
            "failed": sum(1 for r in self.reports if not r.passed),
            "all_passed": self.passed,
            "checks": list(self.checks),
            "config": asdict(self.config),
            "failures": [
                {
                    "seed": f.seed,
                    "check": f.check,
                    "detail": f.detail,
                    "points": [list(q) for q in f.points],
                    "shrunk_points": [list(q) for q in f.shrunk_points],
                }
                for f in self.failures
            ],
        }


def verify_campaign(cfg: GeneratorConfig, count: int, checks=None) -> CampaignReport:
    """Generate ``count`` instances from consecutive seeds, verify each, and
    aggregate.  Failures carry their seed and a minimized witness that still
    fails the same check.  Unknown check names are refused before any draw."""
    if count < 1:
        raise ValueError("count must be >= 1")
    names = _check_names(checks)
    start = time.perf_counter()
    reports = []
    failures = []
    for i in range(count):
        icfg = replace(cfg, seed=cfg.seed + i)
        P = random_polymatroid(icfg)
        report = verify_instance(P, checks=names)
        report.descriptor["seed"] = icfg.seed
        reports.append(report)
        for bad in report.failures():
            fn = CHECKS[bad.name]
            small = shrink_instance(P, lambda Q: not fn(Q)[0])
            failures.append(CampaignFailure(icfg.seed, bad.name, bad.detail, tuple(P), tuple(small)))
    failures.sort(key=lambda f: (f.seed, f.check))
    return CampaignReport(cfg, count, names, tuple(reports), tuple(failures), time.perf_counter() - start)
