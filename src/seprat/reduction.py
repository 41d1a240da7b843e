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
priced axes plus six bookkeeping goods) of which six are purchased at
prices r1..r8; w3, w6, w9 are never purchased and are emitted as
evaluation points only.  When a literal is negated, the roles of that
variable's two base points swap ("hatted" selection).  The six
observations generate, among the nine bundles, exactly three chains

    w1 > w2 > w3,   w4 > w5 > w6,   w7 > w8 > w9

of strict revealed preference, which is verified after every build.

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
bundle t of clause l gains a level offset c_l in coordinate 9 and every
price pays 1 for that coordinate, which makes each higher block strictly
revealed preferred to all lower blocks and never conversely (also verified
exhaustively at build time).  Offsets are M*2^l in "paper" mode or l*C
with a polynomially sized C in "linear" mode.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from fractions import Fraction

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


class ConstructionError(RuntimeError):
    """An internal invariant of the construction failed to verify."""


class DatasetError(ValueError):
    """Malformed dataset content (schema, dimensions, or rationals)."""


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


@dataclass(frozen=True)
class Observation:
    x: tuple
    p: tuple
    clause: int | None = None
    k: int | None = None


@dataclass(frozen=True)
class EvaluationPoint:
    x: tuple
    clause: int | None = None
    t: int | None = None


@dataclass(frozen=True)
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
    """Base bundles z^q_i with supporting prices, verified pairwise."""
    if count < 1:
        raise ConstructionError("need at least one variable")
    z, p = {}, {}
    for i in range(1, count + 1):
        z[(i, 1)] = (Fraction(i), Fraction(1, i))
        z[(i, 2)] = (Fraction(2 * i + 1, 2), Fraction(2, 2 * i + 1))
        p[(i, 1)] = (Fraction(1, 2 * i), Fraction(i, 2))
        p[(i, 2)] = (Fraction(1, 2 * i + 1), Fraction(2 * i + 1, 4))
    bp = BasePoints(count, z, p)
    for a in bp.pairs():
        if dot(bp.p[a], bp.z[a]) != 1:
            raise ConstructionError(f"support price at {a} does not normalize")
        for b in bp.pairs():
            if b != a and dot(bp.p[a], bp.z[b]) <= 1:
                raise ConstructionError(f"support separation fails for {a} vs {b}")
    return bp


def compute_epsilon_M(bp: BasePoints) -> GadgetConstants:
    """Pick epsilon and M constructively and re-verify both gap conditions.

    epsilon = delta / (2 S) where delta is the smallest cross-cost excess
    over 1 and S the largest price mass on (1,1); M is one more than the
    largest epsilon-shifted cross cost.
    """
    pairs = bp.pairs()
    cross = [(a, b) for a in pairs for b in pairs if a != b]
    delta = min(dot(bp.p[a], bp.z[b]) - 1 for a, b in cross)
    mass = {a: dot(bp.p[a], _ONES2) for a in pairs}
    biggest = max(mass.values())
    epsilon = delta / (2 * biggest)
    M = 1 + max(dot(bp.p[a], bp.z[b]) + epsilon * mass[a] for a, b in cross)
    for a, b in cross:
        shifted = 1 + epsilon * mass[a]
        if not 1 < shifted < dot(bp.p[a], bp.z[b]):
            raise ConstructionError(f"epsilon gap fails for {a} vs {b}")
        if not dot(bp.p[a], bp.z[b]) + epsilon * mass[a] < M:
            raise ConstructionError(f"M bound fails for {a} vs {b}")
    return GadgetConstants(epsilon, M)


_BOOKKEEPING_GOODS = range(Z_DIM + 1, PRE_DIM + 1)  # goods 3..8

# The bookkeeping good each slot's bundle holds one unit of.
_SLOT_GOOD = {1: 3, 2: 4, 3: 7, 4: 7, 5: 5, 6: 8, 7: 8, 8: 6, 9: 3}

# Goods that price r_k leaves free (chain successor's, plus its own for
# the middle prices); every other bookkeeping good costs M.
_FREE_GOODS = {
    1: {_SLOT_GOOD[2]}, 2: {_SLOT_GOOD[2], _SLOT_GOOD[3]},
    4: {_SLOT_GOOD[5]}, 5: {_SLOT_GOOD[5], _SLOT_GOOD[6]},
    7: {_SLOT_GOOD[8]}, 8: {_SLOT_GOOD[8], _SLOT_GOOD[9]},
}

_SLOT_O = {
    t: tuple(Fraction(1 if c == good else 0) for c in _BOOKKEEPING_GOODS)
    for t, good in _SLOT_GOOD.items()}


def build_clause_gadget(clause: Clause, bp: BasePoints,
                        gc: GadgetConstants) -> ClauseGadget:
    """Nine bundles and six prices for one clause, with the chain verified.

    Negated literals use the swapped base point (q -> 3-q) for both the
    bundle and its supporting price; that includes the second price of the
    middle slot, whose unpurchased twin bundle w3 shares its o-profile.
    """
    (vi, ni), (vj, nj), (vh, nh) = clause.literals
    eps, M = gc.epsilon, gc.M

    def hz(v, neg, q):
        return bp.z[(v, 3 - q if neg else q)]

    def hp(v, neg, q):
        return bp.p[(v, 3 - q if neg else q)]

    def shifted(zv):
        return (zv[0] + eps, zv[1] + eps)

    def price_o(k):
        return tuple(Fraction(0) if c in _FREE_GOODS[k] else M
                     for c in _BOOKKEEPING_GOODS)

    bundles = {
        1: hz(vi, ni, 2) + _SLOT_O[1],
        2: shifted(hz(vj, nj, 1)) + _SLOT_O[2],
        3: hz(vj, nj, 1) + _SLOT_O[3],
        4: hz(vj, nj, 2) + _SLOT_O[4],
        5: shifted(hz(vh, nh, 1)) + _SLOT_O[5],
        6: hz(vh, nh, 1) + _SLOT_O[6],
        7: hz(vh, nh, 2) + _SLOT_O[7],
        8: shifted(hz(vi, ni, 1)) + _SLOT_O[8],
        9: hz(vi, ni, 1) + _SLOT_O[9],
    }
    prices = {
        1: hp(vi, ni, 2) + price_o(1),
        2: hp(vj, nj, 1) + price_o(2),
        4: hp(vj, nj, 2) + price_o(4),
        5: hp(vh, nh, 1) + price_o(5),
        7: hp(vh, nh, 2) + price_o(7),
        8: hp(vi, ni, 1) + price_o(8),
    }

    edges = set()
    for k in OBSERVED_SLOTS:
        budget = dot(prices[k], bundles[k])
        for t in range(1, 10):
            if t != k and dot(prices[k], bundles[t]) < budget:
                edges.add((k, t))
    if edges != CHAIN_EDGES:
        raise ConstructionError(
            f"clause block relation {sorted(edges)} is not the three chains; "
            f"clause {clause.to_ints()}")
    return ClauseGadget(bundles, prices)


def _offsets(mode: str, count: int, gc: GadgetConstants,
             gadgets: list) -> list[Fraction]:
    if mode == "paper":
        return [gc.M * 2 ** l for l in range(1, count + 1)]
    if mode != "linear":
        raise ValueError(f"unknown offset mode {mode!r}")
    # C must beat |r_k . g - r_k . w_k| for every observation k and every
    # level-free grid point g, including cross pairings of z- and o-parts
    # from different clause blocks.  Over that product of z- and o-costs
    # the largest gap is reached at the extremes.
    spread = Fraction(0)
    z_parts = set(b[:Z_DIM] for g in gadgets for b in g.bundles.values())
    o_parts = set(_SLOT_O.values())
    for g in gadgets:
        for k in OBSERVED_SLOTS:
            price = g.prices[k]
            budget = dot(price, g.bundles[k])
            z_costs = [dot(price[:Z_DIM], zp) for zp in z_parts]
            o_costs = [dot(price[Z_DIM:], op) for op in o_parts]
            spread = max(spread, max(z_costs) + max(o_costs) - budget,
                         budget - min(z_costs) - min(o_costs))
    big = 1 + spread
    return [l * big for l in range(1, count + 1)]


def _verify_level_separation(gadgets: list, offsets: list,
                             observations: list) -> None:
    """Exhaustive cross-level check on the final 9-dimensional data.

    Every observation must overspend on each grid point of any lower
    level (so the weak relation points downward) and underspend on every
    point of any higher level (so it never points upward).  A point of
    level l is z + o + (c_l,), so its cost splits exactly into a z-cost,
    an o-cost and an offset cost; those are computed once per observation
    and every point's sum is compared.
    """
    o_parts = sorted(set(_SLOT_O.values()))
    level_z = [sorted(set(b[:Z_DIM] for b in g.bundles.values()))
               for g in gadgets]
    for obs in observations:
        budget = dot(obs.p, obs.x)
        pz, po, p_off = obs.p[:Z_DIM], obs.p[Z_DIM:-1], obs.p[-1]
        o_costs = [dot(po, o) for o in o_parts]
        z_costs = {}
        for other, (zs, off) in enumerate(zip(level_z, offsets)):
            if other + 1 == obs.clause:
                continue
            for z in zs:
                if z not in z_costs:
                    z_costs[z] = dot(pz, z)
                base = z_costs[z] + p_off * off
                if other + 1 < obs.clause and \
                        not all(base + oc < budget for oc in o_costs):
                    raise ConstructionError(
                        f"level {obs.clause} observation k={obs.k} does not "
                        f"dominate level {other + 1}")
                if other + 1 > obs.clause and \
                        not all(base + oc > budget for oc in o_costs):
                    raise ConstructionError(
                        f"level {obs.clause} observation k={obs.k} reaches "
                        f"into level {other + 1}")


def _verify_block_chains(observations: list, evaluation_points: list,
                         clause_count: int) -> None:
    """Re-check the three chains per level on the final embedded data."""
    for l in range(1, clause_count + 1):
        rows = {o.k: o for o in observations if o.clause == l}
        bundles = {o.k: o.x for o in observations if o.clause == l}
        bundles.update({e.t: e.x for e in evaluation_points if e.clause == l})
        edges = set()
        for k, row in rows.items():
            budget = dot(row.p, row.x)
            for t, x in bundles.items():
                if t != k and dot(row.p, x) < budget:
                    edges.add((k, t))
        if edges != CHAIN_EDGES:
            raise ConstructionError(
                f"level {l} relation {sorted(edges)} lost the three chains")


def reduce_formula(f: CnfFormula, offset_mode: str = "paper",
                   positive_prices: Fraction | int = 0) -> Dataset:
    """Compile a formula into a Dataset of 6L observations on 9 goods.

    positive_prices, when nonzero, is added to every zero price coordinate
    so all prices are strictly positive; the block chains and the level
    separation are then re-verified against the perturbed prices.
    """
    bp = base_points(f.var_count)
    gc = compute_epsilon_M(bp)
    gadgets = [build_clause_gadget(c, bp, gc) for c in f.clauses]
    offsets = _offsets(offset_mode, len(gadgets), gc, gadgets)

    eta = Fraction(positive_prices)
    if eta < 0:
        raise ValueError("positive-prices perturbation must be nonnegative")

    observations = []
    evaluation_points = []
    for l, (g, off) in enumerate(zip(gadgets, offsets), start=1):
        for k in OBSERVED_SLOTS:
            price = g.prices[k] + (Fraction(1),)
            if eta:
                price = tuple(c if c else eta for c in price)
            observations.append(Observation(
                x=g.bundles[k] + (off,), p=price, clause=l, k=k))
        for t in AUXILIARY_SLOTS:
            evaluation_points.append(EvaluationPoint(
                x=g.bundles[t] + (off,), clause=l, t=t))

    _verify_block_chains(observations, evaluation_points, len(gadgets))
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
    """Bit-exact JSON with rationals encoded as "a/b" strings."""
    def vec(x):
        return [format_rational(v) for v in x]

    doc = {
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
    }
    return json.dumps(doc, indent=2)


def dataset_from_json(text: str) -> Dataset:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DatasetError("top level must be an object")

    def vec(raw, dim, what):
        if not isinstance(raw, list) or len(raw) != dim:
            raise DatasetError(f"{what} must be a list of {dim} rationals")
        try:
            return tuple(parse_rational(str(v)) for v in raw)
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

    eps = doc.get("epsilon")
    big = doc.get("M")
    return Dataset(
        n_z=n_z, n_o=n_o,
        observations=tuple(observations),
        evaluation_points=tuple(evaluation_points),
        epsilon=None if eps is None else parse_rational(str(eps)),
        M=None if big is None else parse_rational(str(big)),
        offset_mode=doc.get("offset_mode"))
