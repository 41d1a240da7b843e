"""Compile a 3SAT formula into a priced consumption dataset, exactly.

Geometry of the construction, in brief.  Every variable i gets two base
bundles on the hyperbola y = 1/x in the positive quadrant,

    z1_i = (i, 1/i)          z2_i = (i + 1/2, 2/(2i+1))

with the supporting prices of that curve at each point,

    p1_i = (1/(2i), i/2)     p2_i = (1/(2i+1), (2i+1)/4)

so that p·z = 1 at the supported point and p·z' > 1 at every other base
point.  Two constants derived from the configuration, epsilon and M, pad
those strict gaps: epsilon shifts a bundle slightly without crossing any
other supporting hyperplane, and M dwarfs every cross cost.

A clause over variables (i, j, h) becomes nine bundles w1..w9 in R^8 (two
priced axes plus six bookkeeping goods).  The slot table `_SLOTS` is the
one statement of that layout: each slot's literal, base point, epsilon
shift and bookkeeping good.  Six bundles are purchased at prices r1..r8;
w3, w6, w9 are emitted as evaluation points only.  A negated literal
swaps its variable's two base points ("hatted" selection).  The six
observations generate, among the nine bundles, exactly three chains

    w1 > w2 > w3,   w4 > w5 > w6,   w7 > w8 > w9

of strict revealed preference, which is verified on every level's emitted
rows.

Each bundle holds one unit of a single bookkeeping good, and the six goods
in use are distinct, so no o-profile of a block dominates another.  Three
slot pairs share a good and hence an o-column: (w3, w4), (w6, w7) and
(w9, w1), each pairing the two base bundles of one variable.  Price r_k
charges M on every bookkeeping good except its chain successor's, and the
middle prices r2, r5, r8 also leave their own bundle's good free.  Under
strict ties the block cycle w1 > ... > w9 > w1 then closes exactly when
u ranks the first bundle above the second in all three shared columns,
i.e. when the assignment falsifies the clause; no order between different
variables is forced (README, "Acceptance status", records why this price
layout was chosen).

For a formula with L clauses the per-clause blocks are embedded into R^9:
bundle t of clause l gains a level offset c_l in coordinate 9 (M*2^l in
"paper" mode, 2M*l in "linear" mode) and every price pays 1 for that
coordinate, which makes each higher block strictly revealed preferred to
all lower blocks and never conversely (`_offsets` states why; also verified
at build time, exactly, from the cheapest and dearest point of each level).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .cnf import Clause, CnfFormula
from .numerics import dot, format_rational, parse_rational

log = logging.getLogger(__name__)

Z_DIM = 2          # priced z-goods
PRE_O_DIM = 6      # bookkeeping goods used inside one clause block
PRE_DIM = Z_DIM + PRE_O_DIM
GOODS = 9          # final dimension: the ninth coordinate carries the level offset
N_O = GOODS - Z_DIM

OBSERVED_SLOTS = (1, 2, 4, 5, 7, 8)
AUXILIARY_SLOTS = (3, 6, 9)
CHAIN_EDGES = frozenset(
    {(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)})

_ONES2 = (Fraction(1), Fraction(1))

# The base points and compute_epsilon_M take O(I) exact operations, but
# `_verify_level_separation` costs every z-part in use under every distinct
# z-price in use, and both counts grow with I as well as L.
# `reduce_formula` on L random clauses took 0.017–0.026, 1.4–1.9 and
# 3.2–4.0 s at I = 128 for L = 1, 100 and 300, and 0.54–1.1, 6.2–11.7 and
# 67–74 s at I = 4096 (Python 3.11.7, one core of a 2-vCPU machine whose
# speed varies about 1.5× between runs; measured at `8e9d119` and with the
# zero-skipping `numerics.dot` that followed it, which moved none of these
# beyond that spread); the guard stays until that check is O(L + I)
MAX_VARIABLES = 128

OFFSET_MODES = ("paper", "linear")


class ConstructionError(RuntimeError):
    """An internal invariant of the construction failed to verify."""


class DatasetError(ValueError):
    """Malformed dataset content (schema, dimensions, or rationals)."""


class SizeGuardExceeded(RuntimeError):
    """The formula declares more variables than a size guard accepts."""


@dataclass(frozen=True)
class BasePoints:
    """Base bundles and their supporting prices for variables 1..count."""

    count: int
    z: dict
    p: dict

    def pairs(self):
        return [(i, q) for i in range(1, self.count + 1) for q in (1, 2)]


@dataclass(frozen=True)
class GadgetConstants:
    epsilon: Fraction
    M: Fraction


@dataclass(frozen=True)
class ClauseGadget:
    """One clause block before embedding: bundles w1..w9, prices r_k."""

    bundles: dict
    prices: dict


@dataclass(frozen=True, slots=True)
class Observation:
    x: tuple
    p: tuple
    clause: int | None = None
    k: int | None = None


@dataclass(frozen=True, slots=True)
class EvaluationPoint:
    x: tuple
    clause: int | None = None
    t: int | None = None


@dataclass(frozen=True, slots=True)
class Dataset:
    n_z: int
    n_o: int
    observations: tuple
    evaluation_points: tuple
    epsilon: Fraction | None = None
    M: Fraction | None = None
    offset_mode: str | None = None

    @property
    def goods(self) -> int:
        return self.n_z + self.n_o


def base_points(count: int) -> BasePoints:
    """Base bundles z^q_i on xy = 1 with their supporting prices, so each
    costs 1 at its own price (`compute_epsilon_M` checks both premises, and
    that every cross cost exceeds 1)."""
    if count < 1:
        raise ConstructionError("need at least one variable")
    if count > MAX_VARIABLES:
        raise SizeGuardExceeded(f"{count} variables exceeds the compile "
                                f"guard of {MAX_VARIABLES}")
    z, p = {}, {}
    for i in range(1, count + 1):
        z[(i, 1)] = (Fraction(i), Fraction(1, i))
        z[(i, 2)] = (Fraction(2 * i + 1, 2), Fraction(2, 2 * i + 1))
        p[(i, 1)] = (Fraction(1, 2 * i), Fraction(i, 2))
        p[(i, 2)] = (Fraction(1, 2 * i + 1), Fraction(2 * i + 1, 4))
    return BasePoints(count, z, p)


def compute_epsilon_M(bp: BasePoints) -> GadgetConstants:
    """Pick epsilon and M constructively, from O(I) cross costs p_a . z_b
    and one price mass per base point.

    Premises, checked first: every base point is (x, 1/x) with x > 0, and
    its price is the support price (1/(2x), x/2) of y = 1/x there.  Then
    p_a . z_a = 1, and for a != b the cross cost is p_a . z_b =
    (r + 1/r)/2 with r = x_b / x_a, which is symmetric in a and b and grows
    with |log r|.  So in sorted order of x, the smallest cross cost is
    between neighbours, and each source's largest is at the smallest or the
    largest x; those pairs are the only ones costed.

    epsilon = delta / (2 S), for delta the smallest cross-cost excess over
    1 and S the largest price mass on (1,1); M is one more than the largest
    epsilon-shifted cross cost.  Every mass 1/(2x) + x/2 is at least 1, so
    if delta > 0, each shift lies in (0, delta/2] and 1 < 1 + shift_a <
    p_a . z_b < M for every pair: that is the one condition that can fail,
    and it fails when two base points coincide.
    """
    pairs = bp.pairs()
    for a in pairs:
        x, y = bp.z[a]
        if x <= 0 or x * y != 1:
            raise ConstructionError(f"base point {a} is not on xy = 1")
        if bp.p[a] != (1 / (2 * x), x / 2):
            raise ConstructionError(f"price at {a} is not the support price "
                                    f"of xy = 1 there")
    order = sorted(pairs, key=lambda a: bp.z[a][0])
    ends = (order[0], order[-1])
    needed = set(zip(order, order[1:])) | {
        (a, b) for a in pairs for b in ends if a != b}
    cross = {(a, b): dot(bp.p[a], bp.z[b]) for a, b in sorted(needed)}
    mass = {a: dot(bp.p[a], _ONES2) for a in pairs}
    a, b = min(cross, key=cross.get)
    delta = cross[a, b] - 1
    if delta <= 0:
        raise ConstructionError(f"epsilon gap fails for {a} vs {b}")
    epsilon = delta / (2 * max(mass.values()))
    M = 1 + max(c + epsilon * mass[src] for (src, _), c in cross.items())
    return GadgetConstants(epsilon, M)


_BOOKKEEPING_GOODS = range(Z_DIM + 1, PRE_DIM + 1)  # goods 3..8

# The one statement of the clause block's layout: slot t -> (position of
# the clause literal its bundle draws on, that literal's base point q, the
# epsilon shift, the bookkeeping good held).  One line per chain.
_SLOTS = {1: (0, 2, False, 3), 2: (1, 1, True, 4), 3: (1, 1, False, 7),
          4: (1, 2, False, 7), 5: (2, 1, True, 5), 6: (2, 1, False, 8),
          7: (2, 2, False, 8), 8: (0, 1, True, 6), 9: (0, 1, False, 3)}

_SLOT_GOOD = {t: good for t, (_, _, _, good) in _SLOTS.items()}

# Goods that price r_k leaves free: its chain successor's, plus its own for
# the middle prices r2, r5, r8; every other bookkeeping good costs M.
_FREE_GOODS = {k: {_SLOT_GOOD[k + 1]}
               | ({_SLOT_GOOD[k]} if k + 1 in AUXILIARY_SLOTS else set())
               for k in OBSERVED_SLOTS}

_SLOT_O = {
    t: tuple(Fraction(1 if c == good else 0) for c in _BOOKKEEPING_GOODS)
    for t, good in _SLOT_GOOD.items()}


def build_clause_gadget(clause: Clause, bp: BasePoints,
                        gc: GadgetConstants) -> ClauseGadget:
    """Nine bundles and six prices for one clause, before embedding.

    Bundle t is the base point that `_SLOTS` names (q -> 3-q for a negated
    literal), shifted by (epsilon, epsilon) when marked, then the slot's
    o-profile.  Price r_k supports the same, unshifted base point and
    charges M on each bookkeeping good outside `_FREE_GOODS[k]`.
    """
    bundles, prices = {}, {}
    for t, (position, q, shift, _) in _SLOTS.items():
        v, negated = clause.literals[position]
        base = (v, 3 - q if negated else q)
        x, y = bp.z[base]
        if shift:
            x, y = x + gc.epsilon, y + gc.epsilon
        bundles[t] = (x, y) + _SLOT_O[t]
        if t in OBSERVED_SLOTS:
            prices[t] = bp.p[base] + tuple(
                Fraction(0) if c in _FREE_GOODS[t] else gc.M
                for c in _BOOKKEEPING_GOODS)
    return ClauseGadget(bundles, prices)


_O_PARTS = sorted(set(_SLOT_O.values()))


def _offsets(mode: str, count: int, gc: GadgetConstants) -> list[Fraction]:
    """Level offsets at least 2M apart, which the construction's one cost
    bound makes enough.

    Every compiled z-part costs 1 to M - 1 under every compiled z-price
    (own cost 1, and M = 1 + max(cross + shift)), and every o-cost is 0 or
    M (o-parts are unit goods, o-prices 0 or M).  So a budget and the cost
    of any level-free grid point differ by less than 2M.  Paper offsets
    M*2^l are at least 4M - 2M = 2M apart; linear ones are 2M*l.  A
    positive-prices eta turns the o-cost 0 into eta, which keeps the bound
    for eta < M; `_verify_level_separation` checks every row exactly.
    """
    if mode == "paper":
        return [gc.M * 2 ** l for l in range(1, count + 1)]
    return [2 * gc.M * l for l in range(1, count + 1)]


def _verify_level_separation(gadgets: list, offsets: list,
                             observations: list) -> None:
    """Cross-level check on the final 9-dimensional data.

    Every observation must overspend on each grid point of any lower
    level (so the weak relation points downward) and underspend on every
    point of any higher level (so it never points upward).  The grid
    points of level l are its own z-parts, each paired with every slot
    o-part, plus (c_l,); so the dearest point of level l costs its largest
    z-cost plus the largest o-cost plus p_off * c_l, and the cheapest one
    the smallest of each.

    Those per-level extremes are built once per distinct (z-price, p_off),
    from one z-cost per distinct z-price and z-part, together with a
    prefix maximum and a suffix minimum over the levels; an observation
    then compares its budget with two numbers.  One that fails is walked
    level by level and raises on its first failing level, as a
    point-by-point comparison would.
    """
    # each level's z-parts as indices into z_parts (hashing a z-part is
    # dearer than costing it)
    z_parts = {}
    level_z = [{z_parts.setdefault(b[:Z_DIM], len(z_parts))
                for b in g.bundles.values()} for g in gadgets]
    z_extremes, levels, o_range = {}, {}, {}
    for obs in observations:
        budget = dot(obs.p, obs.x)
        pz, p_off = obs.p[:Z_DIM], obs.p[-1]
        if (pz, p_off) not in levels:
            if pz not in z_extremes:
                cost = [dot(pz, z) for z in z_parts]
                z_extremes[pz] = [(min(cost[i] for i in zs),
                                   max(cost[i] for i in zs))
                                  for zs in level_z]
            # zip stops at the shorter list: levels past it are never checked
            pairs = list(zip(z_extremes[pz], offsets))
            lo = [z_lo + p_off * off for (z_lo, _), off in pairs]
            hi = [z_hi + p_off * off for (_, z_hi), off in pairs]
            # below[i] = max(hi[:i + 1]) and above[i] = min(lo[i:])
            levels[(pz, p_off)] = (lo, hi, list(accumulate(hi, max)),
                                   list(accumulate(reversed(lo), min))[::-1])
        lo, hi, below, above = levels[(pz, p_off)]
        po = obs.p[Z_DIM:-1]
        if po not in o_range:
            costs = [dot(po, o) for o in _O_PARTS]
            o_range[po] = (min(costs), max(costs))
        o_lo, o_hi = o_range[po]
        n = len(lo)
        lower = min(max(obs.clause - 1, 0), n)
        higher = min(max(obs.clause, 0), n)
        if lower and below[lower - 1] + o_hi >= budget:
            first = next(l for l in range(lower) if hi[l] + o_hi >= budget)
            raise ConstructionError(
                f"level {obs.clause} observation k={obs.k} does not "
                f"dominate level {first + 1}")
        if higher < n and above[higher] + o_lo <= budget:
            first = next(l for l in range(higher, n) if lo[l] + o_lo <= budget)
            raise ConstructionError(
                f"level {obs.clause} observation k={obs.k} reaches "
                f"into level {first + 1}")


def reduce_formula(f: CnfFormula, offset_mode: str = "paper",
                   positive_prices: Fraction | int = 0) -> Dataset:
    """Compile a formula into a Dataset of 6L observations on 9 goods.

    positive_prices, when nonzero, is added to every zero price coordinate
    so all prices are strictly positive; the block chains and the level
    separation are then verified against the perturbed prices.
    """
    if offset_mode not in OFFSET_MODES:
        raise ValueError(f"unknown offset mode {offset_mode!r}")
    eta = Fraction(positive_prices)
    if eta < 0:
        raise ValueError("positive-prices perturbation must be nonnegative")

    bp = base_points(f.var_count)
    gc = compute_epsilon_M(bp)
    gadgets = [build_clause_gadget(c, bp, gc) for c in f.clauses]
    offsets = _offsets(offset_mode, len(gadgets), gc)

    observations = []
    evaluation_points = []
    for l, (g, off) in enumerate(zip(gadgets, offsets), start=1):
        bundles = {t: x + (off,) for t, x in g.bundles.items()}
        edges = set()
        for k in OBSERVED_SLOTS:
            price = g.prices[k] + (Fraction(1),)
            if eta:
                price = tuple(c if c else eta for c in price)
            budget = dot(price, bundles[k])
            edges.update((k, t) for t, x in bundles.items()
                         if t != k and dot(price, x) < budget)
            observations.append(Observation(
                x=bundles[k], p=price, clause=l, k=k))
        if edges != CHAIN_EDGES:
            raise ConstructionError(
                f"level {l} relation {sorted(edges)} lost the three chains")
        for t in AUXILIARY_SLOTS:
            evaluation_points.append(EvaluationPoint(
                x=bundles[t], clause=l, t=t))

    _verify_level_separation(gadgets, offsets, observations)
    log.info("reduced %d clauses over %d variables: %d observations",
             len(f.clauses), f.var_count, len(observations))
    return Dataset(
        n_z=Z_DIM, n_o=N_O,
        observations=tuple(observations),
        evaluation_points=tuple(evaluation_points),
        epsilon=gc.epsilon, M=gc.M, offset_mode=offset_mode)


# -- dataset serialization ------------------------------------------------

def dataset_to_json(ds: Dataset) -> str:
    """Bit-exact JSON on one line, with rationals encoded as "a/b" strings.

    The text is `json.dumps` of the document, as for every JSON document
    seprat writes; `dataset_from_json` reads it back.
    """
    def vec(x):
        return [format_rational(v) for v in x]

    return json.dumps({
        "n_z": ds.n_z,
        "n_o": ds.n_o,
        "offset_mode": ds.offset_mode,
        "epsilon": None if ds.epsilon is None else format_rational(ds.epsilon),
        "M": None if ds.M is None else format_rational(ds.M),
        "observations": [
            {"x": vec(o.x), "p": vec(o.p), "clause": o.clause, "k": o.k}
            for o in ds.observations],
        "evaluation_points": [
            {"x": vec(e.x), "clause": e.clause, "t": e.t}
            for e in ds.evaluation_points],
    })


def dataset_from_json(text: str) -> Dataset:
    """The dataset of `dataset_to_json`'s text, checked field by field.

    Each distinct literal string is parsed once per call: compiled data
    repeats a few dozen rationals across all its rows, so later rows look
    theirs up in a table local to this call, and nothing outlives it.  A
    failed parse is not kept, so a malformed literal in a row raises
    `DatasetError` naming the first field that holds it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DatasetError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise DatasetError("top level must be an object")

    parsed = {}  # literal string -> its Fraction, for this document only

    def rational(raw):
        s = str(raw)
        value = parsed.get(s)
        if value is None:
            value = parsed[s] = parse_rational(s)
        return value

    def vec(raw, dim, what):
        if not isinstance(raw, list) or len(raw) != dim:
            raise DatasetError(f"{what} must be a list of {dim} rationals")
        try:
            return tuple(map(rational, raw))
        except ValueError as exc:
            raise DatasetError(f"{what}: {exc}") from None

    n_z, n_o = doc.get("n_z"), doc.get("n_o")
    if type(n_z) is not int or type(n_o) is not int:  # not bool, float, str
        raise DatasetError("missing or malformed n_z / n_o")
    if n_z < 1 or n_o < 0:
        raise DatasetError(f"bad dimensions n_z={n_z} n_o={n_o}")
    dim = n_z + n_o

    def rows(key):
        raw = doc.get(key, [])
        if not isinstance(raw, list):
            raise DatasetError(f"{key} must be a list")
        return raw

    def label(row, key, what):
        value = row.get(key)
        if value is not None and type(value) is not int:  # bool is no level
            raise DatasetError(f"{what} {key} must be an integer or null")
        return value

    observations = []
    for idx, row in enumerate(rows("observations")):
        if not isinstance(row, dict) or "x" not in row or "p" not in row:
            raise DatasetError(f"observation {idx} needs x and p")
        what = f"observation {idx}"
        observations.append(Observation(
            x=vec(row["x"], dim, f"{what} bundle"),
            p=vec(row["p"], dim, f"{what} price"),
            clause=label(row, "clause", what), k=label(row, "k", what)))
    evaluation_points = []
    for idx, row in enumerate(rows("evaluation_points")):
        if not isinstance(row, dict) or "x" not in row:
            raise DatasetError(f"evaluation point {idx} needs x")
        what = f"evaluation point {idx}"
        evaluation_points.append(EvaluationPoint(
            x=vec(row["x"], dim, what),
            clause=label(row, "clause", what), t=label(row, "t", what)))

    offset_mode = doc.get("offset_mode")
    if offset_mode not in (None, *OFFSET_MODES):
        modes = " or ".join(map(json.dumps, OFFSET_MODES))
        raise DatasetError(f"offset_mode must be null, {modes}, "
                           f"not {json.dumps(offset_mode)}")
    eps = doc.get("epsilon")
    big = doc.get("M")
    return Dataset(
        n_z=n_z, n_o=n_o,
        observations=tuple(observations),
        evaluation_points=tuple(evaluation_points),
        epsilon=None if eps is None else rational(eps),
        M=None if big is None else rational(big),
        offset_mode=offset_mode)
