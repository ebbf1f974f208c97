"""Extended affine root systems presented by finite data.

A system is a finite root system living in the dot space, together with one
isotropic translation set per root-length class: every anisotropic root is
dot-root + translation, and the isotropic roots are the pairwise sums of the
short translation set.  Membership, windowed enumeration, axiom checking,
isotropic closure and trimming all operate on this finite presentation with
exact rational arithmetic; nothing infinite is ever materialized.

Vectors live in the space isotropic + dot + dual; roots have zero dual part.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from types import MappingProxyType

from .finite import (
    FiniteRootSystem,
    InvalidRank,
    _classify_subset,
    _connected,
    build_finite,
    length_classes,
)
from .linalg import (
    AmbientSpace,
    BilinearForm,
    DimensionMismatch,
    Matrix,
    Value,
    Vector,
    _frac,
    common_ints,
    sorted_vectors,
    span_rank,
)
from .semilattice import (
    Lattice,
    RankMismatch,
    Semilattice,
    sum_condition,
    verify_semilattice,
)


class ConstraintViolation(ValueError):
    pass


class WrongArity(ValueError):
    pass


class NotBCType(ValueError):
    pass


_LABEL_RE = re.compile(r"^(BC|[A-G])(\d+)$")

_CLASS_TAGS = ("short", "long", "extra")


def _as_finite(x) -> FiniteRootSystem:
    if isinstance(x, FiniteRootSystem):
        return x
    m = _LABEL_RE.match(str(x).strip().upper().replace("_", ""))
    if not m:
        raise InvalidRank(f"unrecognized type label {x!r}")
    return build_finite(m.group(1), int(m.group(2)))


class EarsDescriptor(Value):
    """Finite presentation of an extended affine root system.

    The isotropic root set is short + short, built on first read, or irc's closure.
    """

    __slots__ = (
        "finite_part",
        "nullity",
        "translations",
        "space",
        "dot_classes",
        "_tag_of",
        "_lattices",
        "_residues",
        "_isotropic",
        "removal_chain",
    )

    def __init__(
        self, finite_part, nullity, translations, removal_chain=(), isotropic=None
    ):
        sh, lg, ex = length_classes(finite_part)
        classes = {"short": sh, "long": lg, "extra": ex}
        dot_classes = {t: classes[t] for t in _CLASS_TAGS if classes[t]}
        if set(dot_classes) != set(translations):
            raise WrongArity(
                f"{finite_part.label} has length classes "
                f"{sorted(dot_classes)} but translation sets "
                f"{sorted(translations)}"
            )
        space = AmbientSpace(nullity, finite_part.form.gram)
        tag_of = {d: t for t, roots in dot_classes.items() for d in roots}
        # read-only views: the hash is taken over translations
        self._fill(finite_part, nullity, MappingProxyType(dict(translations)), space,
                   MappingProxyType(dot_classes), tag_of, {}, {}, isotropic, tuple(removal_chain))

    def _identity(self):
        return self.finite_part.label, self.nullity, tuple(sorted(self.translations.items()))

    def __repr__(self) -> str:
        return f"<EARS {self.label}>"

    @property
    def label(self) -> str:
        return f"{self.finite_part.label} nullity {self.nullity}"

    @property
    def isotropic(self) -> Semilattice:
        if self._isotropic is None:
            short = self.translations["short"]
            object.__setattr__(self, "_isotropic", short.sum_set(short))
        return self._isotropic

    # -- membership ---------------------------------------------------------

    def class_of_dot(self, dot: Vector) -> str | None:
        return self._tag_of.get(dot)

    def class_lattice(self, tag: str) -> Lattice:
        """T of every root whose dot part lies in the class tag, built on
        first use: the sum of g_b <S_b> over the classes b, one HNF at the
        sets' common scale.  The gcds g_b come from one Cartan-table row;
        any member of the class gives the same ones."""
        if tag not in self._lattices:
            finite = self.finite_part
            row = finite.cartan[finite.index[next(iter(self.dot_classes[tag]))]]
            scale = math.lcm(*(sl.lattice.den for sl in self.translations.values()))
            ints = []
            for b, sl in self.translations.items():
                g = math.gcd(*(row[finite.index[d]] for d in self.dot_classes[b]))
                ints += [[g * x for x in r] for r in sl.lattice.rows_at(scale)]
            self._lattices[tag] = Lattice._of(self.space.nu, scale, ints)
        return self._lattices[tag]

    def class_residues(self, tag: str):
        """(fine, scale, table) of the class tag, built on first use: fine =
        modulus meet T, and per coset c of its set modulo fine (ints at
        scale) the pair (c, c reduced modulo T), whose key names c's orbit."""
        if tag not in self._residues:
            sl, t = self.translations[tag], self.class_lattice(tag)
            fine, scale = sl.modulus.intersect(t), math.lcm(sl.den, t.den)
            self._residues[tag] = fine, scale, [(c, t.reduce_at(c, scale)) for c in sl._residues(fine, scale)]
        return self._residues[tag]

    def classify(self, v: Vector) -> str:
        """One of "anisotropic", "isotropic", "not_root"."""
        if v.dim != self.space.dim:
            raise DimensionMismatch(
                f"vector dim {v.dim}, ambient dim {self.space.dim}"
            )
        iso, dot, dual = self.space.blocks(v)
        if not dual.is_zero():
            return "not_root"
        if dot.is_zero():
            return "isotropic" if self.isotropic.contains(iso) else "not_root"
        tag = self.class_of_dot(dot)
        if tag is None:
            return "not_root"
        return "anisotropic" if self.translations[tag].contains(iso) else "not_root"

    # -- assembly and enumeration -------------------------------------------

    def families(self, bound):
        """(tag, dot root, translation set) triples, one per finite root
        with every coordinate in [-bound, bound]."""
        limit = _frac(bound)
        return [(tag, dot, self.translations[tag]) for tag in _CLASS_TAGS
                for dot in sorted_vectors(self.dot_classes.get(tag, ())) if dot.max_norm() <= limit]

    def anisotropic_window(self, bound) -> list[Vector]:
        out = []
        for _, dot, trans in self.families(bound):
            for iso in trans.window(bound):
                out.append(self.space.assemble(iso, dot))
        return sorted_vectors(out)

    def isotropic_window(self, bound) -> list[Vector]:
        zero_dot = Vector([0] * self.finite_part.rank)
        return sorted_vectors(self.space.assemble(iso, zero_dot) for iso in self.isotropic.window(bound))


def is_root(r: EarsDescriptor, v) -> str:
    """Classify a vector against the root set: anisotropic/isotropic/not_root."""
    return r.classify(v)


# ---------------------------------------------------------------------------
# construction: the constraints are read off the finite tables


def _require(cond: bool, message: str):
    if not cond:
        raise ConstraintViolation(message)


def _check_semilattice(s: Semilattice, name: str, need_zero: bool, need_lattice: bool):
    rep = verify_semilattice(s)
    _require(rep.spans, f"{name} translation set does not span the isotropic space")
    _require(rep.closed, f"{name} translation set is not closed under x + 2y")
    if need_zero:
        _require(rep.contains_zero, f"0 is missing from the {name} translation set")
    if need_lattice:
        _require(
            s.is_lattice(),
            f"{name} translation set must be a full lattice for this type",
        )


def construct_ears(x, short, long=None, extra=None, removal_chain=()) -> EarsDescriptor:
    """Build a descriptor from a finite type and per-length translation sets.

    short/long/extra hold the isotropic translations of the corresponding
    root-length class; a set supplied for an absent length class (or a
    missing one) raises WrongArity, sets of different ranks RankMismatch.
    The constraints follow from the finite tables: a class's set is a full
    lattice when two of its roots span an A2 (Cartan integer -1), every set
    but extra's contains 0, extra avoids 2*short, and for consecutive classes
    x < y with squared-length ratio k, y + k*x lies in y and x + y in x.
    Their failures raise ConstraintViolation naming the violated inclusion.
    """
    finite = _as_finite(x)
    given = {"short": short, "long": long, "extra": extra}
    r = EarsDescriptor(
        finite, short.ambient, {t: s for t, s in given.items() if s is not None}, removal_chain
    )
    sets = r.translations
    ranks = {t: s.ambient for t, s in sets.items()}
    if len(set(ranks.values())) > 1:
        raise RankMismatch(f"translation sets differ in rank: {ranks}")
    norms = {}
    for tag, roots in r.dot_classes.items():
        idx = [finite.index[d] for d in roots]
        norms[tag] = finite.norms[idx[0]]
        a2 = any(finite.cartan[i][j] == -1 for i in idx for j in idx)
        _check_semilattice(sets[tag], tag, tag != "extra", a2)
    if "extra" in sets:
        _require(not sets["extra"].intersects(short.scaled(2)), "extra ∩ 2*short ≠ ∅")
    tags = list(norms)
    for x, y in zip(tags, tags[1:]):
        k = norms[y] // norms[x]
        _require(sum_condition(sets[y], sets[x], k), f"{y} + {k}*{x} ⊄ {y}")
        _require(sum_condition(sets[x], sets[y], 1), f"{x} + {y} ⊄ {x}")
    return r


# ---------------------------------------------------------------------------
# axiom verification


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    detail: str
    witnesses: tuple = ()


@dataclass(frozen=True)
class AxiomReport:
    bound: int
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, axiom: str) -> AxiomCheck:
        return next(c for c in self.checks if c.axiom == axiom)


_SCAN = 8  # root strings have length at most 5; leave slack to catch strays


def verify_axioms(r, bound: int = 4, space: AmbientSpace | None = None) -> AxiomReport:
    """Windowed check of the eight defining axioms.

    With a descriptor, membership queries are exact (no window artifacts);
    enumeration is restricted to the max-norm window.  With a finite vector
    set (space required), the set itself is treated as the entire root set.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if isinstance(r, EarsDescriptor):
        return _verify_descriptor(r, bound)
    if space is None:
        raise ValueError("space is required when verifying a plain vector set")
    return _verify_finite_set(frozenset(r), space, bound)


def _verify_descriptor(desc: EarsDescriptor, bound: int) -> AxiomReport:
    checks = []
    space = desc.space
    aniso = desc.anisotropic_window(bound)
    iso = desc.isotropic_window(bound)
    full = aniso + iso
    zero = Vector([0] * space.dim)

    ok = desc.classify(zero) == "isotropic"
    checks.append(
        AxiomCheck("R1", ok, "0 is a root" if ok else "0 is not a root")
    )

    bad = [v for v in full if desc.classify(-v) == "not_root"]
    checks.append(
        AxiomCheck(
            "R2",
            not bad,
            f"negation closure on {len(full)} window roots (window {bound})",
            tuple(bad[:3]),
        )
    )

    rank = span_rank(full)
    want = space.nu + space.split[1]
    checks.append(
        AxiomCheck(
            "R3",
            rank == want,
            f"window roots span rank {rank}, expected {want} (window {bound})",
        )
    )

    bad = [v for v in aniso if desc.classify(v * 2) != "not_root"]
    detail = f"2*root is a root for {len(bad)} of" if bad else "2*root excluded for"
    checks.append(AxiomCheck("R4", not bad, f"{detail} {len(aniso)} window roots (window {bound})",
                             tuple(bad[:3])))

    checks.append(
        AxiomCheck(
            "R5",
            True,
            "structural: all members lie in a fixed finitely generated "
            "rational lattice, hence discrete",
        )
    )

    checks.append(_check_strings_descriptor(desc, bound))

    present = {space.blocks(v)[1] for v in aniso}
    detail, connected = _dot_connectivity(present, desc.finite_part)
    checks.append(AxiomCheck("R7", connected, detail + f" (window {bound})"))

    checks.append(_check_iso_pairing(desc, bound, iso))

    return AxiomReport(bound, tuple(checks))


def _dot_connectivity(present: set, finite: FiniteRootSystem):
    if not present:
        return "no anisotropic roots in window", False
    connected = _connected(list(present), finite.cartan_int)
    return (
        f"non-orthogonality graph on {len(present)} root directions is "
        + ("connected" if connected else "disconnected"),
        connected,
    )


def _check_iso_pairing(desc: EarsDescriptor, bound, iso_window) -> AxiomCheck:
    """Some short root pairs with each isotropic root: tau + sigma lies in the
    short set for some tau in it, and membership depends only on the coset
    of tau, so the coset representatives decide it exactly."""
    short = desc.translations["short"]
    bad = []
    for v in iso_window:
        sigma = desc.space.blocks(v)[0]
        if not any(short.contains(tau + sigma) for tau in short.cosets):
            bad.append(v)
    n = len(iso_window)
    detail = (f"{len(bad)} of {n} window isotropic roots pair with no anisotropic root" if bad
              else f"every one of {n} window isotropic roots pairs with an anisotropic root")
    return AxiomCheck("R8", not bad, f"{detail} (window {bound})", tuple(bad[:3]))


def _string_ok(member: list, c) -> bool:
    """Whether the membership profile of b + n*a, n in [-_SCAN, _SCAN], is
    one interval [-d, u] around n = 0 with d - u = c = 2(a,b)/(a,a)."""
    if not member[_SCAN]:
        return False
    d = 0
    while d < _SCAN and member[_SCAN - d - 1]:
        d += 1
    u = 0
    while u < _SCAN and member[_SCAN + u + 1]:
        u += 1
    return sum(member) == d + u + 1 and d - u == c


def _check_strings_descriptor(desc: EarsDescriptor, bound: int) -> AxiomCheck:
    """Root strings: membership of b + n*a must form one interval around 0
    whose endpoints satisfy d - u = 2(a,b)/(a,a).

    Every translation set is a finite union of cosets of its modulus, so
    whether b + n*a is a root depends only on the classes of a and b modulo
    the intersection K of all moduli.  Points are keyed by their class as
    integer vectors (at the sets' common denominator, reduced by K),
    the interval test runs once per class pair, and a failing class pair is
    expanded back to window pairs only to name the first two witnesses of
    its family pair.  The set b + n*a must lie in is read off the class map
    by its integer dot part (0: isotropic), and c = 0 for isotropic b.
    """
    finite = desc.finite_part
    sets = [*desc.translations.values(), desc.isotropic]
    k = sets[0].modulus
    for s in sets[1:]:
        k = k.intersect(s.modulus)
    scale = math.lcm(*(s.den for s in sets))

    windows = {}

    def keyed(s: Semilattice):
        """Window points of s and their class keys, enumerated once per call."""
        if s not in windows:
            pts = s.window(bound)
            windows[s] = pts, [k.reduce_at(v.at(scale), scale) for v in pts]
        return windows[s]

    member = {}
    by_tag = {**desc.translations, "isotropic": desc.isotropic}

    def in_set(tag: str, x: list) -> bool:
        cls = k.reduce_at(x, scale)
        if (tag, cls) not in member:
            member[tag, cls] = by_tag[tag].contains(Vector._of(cls, scale))
        return member[tag, cls]

    profiles = {}

    def class_pair_ok(targets: tuple, c, memo: dict, ka: tuple, kb: tuple) -> bool:
        """Interval test for one class pair; memo holds those of one (targets, c)."""
        if (ka, kb) not in memo:
            profile = [
                tag is not None and in_set(tag, [b + n * a for a, b in zip(ka, kb)])
                for n, tag in enumerate(targets, -_SCAN)
            ]
            memo[ka, kb] = _string_ok(profile, c)
        return memo[ka, kb]

    dden, dots = common_ints(desc._tag_of)  # the class map on integer dot parts
    tag_at = dict(zip(dots, desc._tag_of.values()))
    tag_at[(0,) * finite.rank] = "isotropic"
    zero_dot = Vector([0] * finite.rank)
    fams = desc.families(bound)
    b_fams = fams + [("isotropic", zero_dot, desc.isotropic)]
    pair_count = 0
    witnesses = []

    for _, da, ta in fams:
        a_iso, a_keys = keyed(ta)
        if not a_iso:
            continue
        ia = da.at(dden)
        for tag, db, tb in b_fams:
            b_iso, b_keys = keyed(tb)
            if not b_iso:
                continue
            c = 0 if tag == "isotropic" else finite.cartan_int(db, da)
            ib = db.at(dden)
            targets = tuple(
                tag_at.get(tuple([y + n * x for x, y in zip(ia, ib)]))
                for n in range(-_SCAN, _SCAN + 1)
            )
            pair_count += len(a_iso) * len(b_iso)
            memo = profiles.setdefault((targets, c), {})
            b_classes = set(b_keys)
            bad = {
                (ka, kb)
                for ka in set(a_keys)
                for kb in b_classes
                if not class_pair_ok(targets, c, memo, ka, kb)
            }
            if bad:
                found = (
                    (i, j)
                    for i, ka in enumerate(a_keys)
                    for j, kb in enumerate(b_keys)
                    if (ka, kb) in bad
                )
                for i, j in islice(found, 2):
                    witnesses.append(
                        (
                            desc.space.assemble(a_iso[i], da),
                            desc.space.assemble(b_iso[j], db),
                        )
                    )
            if len(witnesses) > 4:
                break
        if len(witnesses) > 4:
            break

    return AxiomCheck(
        "R6",
        not witnesses,
        f"root strings checked for {pair_count} window pairs, "
        f"scan n in [-{_SCAN}, {_SCAN}] (window {bound})",
        tuple(witnesses[:3]),
    )


# -- finite-set mode ---------------------------------------------------------


def _verify_finite_set(roots: frozenset, space: AmbientSpace, bound) -> AxiomReport:
    checks = []
    members = set(roots)
    zero = Vector([0] * space.dim)
    aniso = sorted_vectors(v for v in members if not space.is_isotropic(v))
    iso = sorted_vectors(v for v in members if space.is_isotropic(v))

    where = "in" if zero in members else "missing from"
    checks.append(AxiomCheck("R1", zero in members, f"0 {where} the given set"))
    bad = [v for v in members if -v not in members]
    checks.append(
        AxiomCheck("R2", not bad, f"negation closure on {len(members)} vectors", tuple(bad[:3]))
    )
    rank = span_rank(members)
    want = space.nu + space.split[1]
    checks.append(
        AxiomCheck("R3", rank == want, f"set spans rank {rank}, expected {want}")
    )
    bad = [v for v in aniso if v * 2 in members]
    detail = f"2*root in the set for {len(bad)} of" if bad else "2*root excluded,"
    checks.append(AxiomCheck("R4", not bad, f"{detail} {len(aniso)} anisotropic vectors", tuple(bad[:3])))
    checks.append(AxiomCheck("R5", True, "finite sets are discrete"))

    witnesses = []
    pair_count = 0
    for a in aniso:
        caa = space.pair(a, a)
        for b in members:
            pair_count += 1
            c = 2 * space.pair(b, a) / caa
            profile = [b + a * n in members for n in range(-_SCAN, _SCAN + 1)]
            if not _string_ok(profile, c):
                witnesses.append((a, b))
        if len(witnesses) > 4:
            break
    checks.append(
        AxiomCheck(
            "R6",
            not witnesses,
            f"root strings inside the set, {pair_count} pairs",
            tuple(witnesses[:3]),
        )
    )

    connected = True
    detail = "no anisotropic vectors"
    if aniso:
        connected = _connected(aniso, space.pair)
        detail = (
            f"non-orthogonality graph on {len(aniso)} vectors is "
            + ("connected" if connected else "disconnected")
        )
    checks.append(AxiomCheck("R7", connected, detail))

    bad = [s for s in iso if not any(a + s in members for a in aniso)]
    detail = (f"{len(bad)} of {len(iso)} isotropic vectors pair with no anisotropic one" if bad
              else f"every one of {len(iso)} isotropic vectors pairs with an anisotropic one")
    checks.append(AxiomCheck("R8", not bad, detail, tuple(bad[:3])))
    return AxiomReport(int(bound), tuple(checks))


# ---------------------------------------------------------------------------
# isotropic root closure


def irc(r, space: AmbientSpace | None = None):
    """Isotropic root closure: adjoin all isotropic differences.

    For a descriptor the closure is computed at the coset level and returned
    as a new descriptor carrying the recomputed isotropic part; for a finite
    vector set (space required) the closed finite set is returned.
    """
    if isinstance(r, EarsDescriptor):
        closed = None
        for trans in r.translations.values():
            diff = trans.sum_set(trans.scaled(-1))
            closed = diff if closed is None else closed.union(diff)
        return EarsDescriptor(
            r.finite_part, r.nullity, r.translations, r.removal_chain, closed
        )
    if space is None:
        raise ValueError("space is required when closing a plain vector set")
    return irc_window(r, space)


def irc_window(vectors, space: AmbientSpace) -> list[Vector]:
    """Finite-set closure: the set plus all differences lying in the
    isotropic subspace (zero dot and dual parts)."""
    vs = list(vectors)
    out = set(vs)
    for i, a in enumerate(vs):
        for b in vs:
            d = a - b
            _, dot, dual = space.blocks(d)
            if dot.is_zero() and dual.is_zero():
                out.add(d)
    return sorted_vectors(out)


# ---------------------------------------------------------------------------
# trimming


def trim(r: EarsDescriptor) -> EarsDescriptor:
    """Halve the extra-long roots of a BC-type system, merging them into the
    short class; the result is the reduced-type system with the same
    reflections.  Raises NotBCType away from BC input."""
    if "extra" not in r.dot_classes:
        raise NotBCType(f"trim needs a BC-type system, got {r.finite_part.label}")
    finite = r.finite_part
    merged = r.translations["short"].union(
        r.translations["extra"].scaled(Fraction(1, 2))
    )
    rep = verify_semilattice(merged)
    _require(rep.ok, "short ∪ (1/2)extra is not a semilattice: " + "; ".join(rep.problems))
    reduced = _classify_subset(finite, finite.roots - r.dot_classes["extra"])
    return construct_ears(reduced, merged, r.translations.get("long"))


# ---------------------------------------------------------------------------
# characterization of anisotropic root sets


@dataclass(frozen=True)
class CharacterizeReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        return next(c for c in self.checks if c.axiom == name)


def _iso_index(xs, lo, hi, i=0):
    """Index of the sorted rows xs[lo:hi] by coordinate i: its distinct
    values, where each starts (then hi), and each one's index by i + 1."""
    starts = [j for j in range(lo, hi) if j == lo or xs[j][i] != xs[j - 1][i]]
    ends = starts[1:] + [hi]
    subs = None if i + 1 == len(xs[lo]) else [_iso_index(xs, a, b, i + 1) for a, b in zip(starts, ends)]
    return [xs[j][i] for j in starts], starts + [hi], subs


def _box_runs(node, bounds):
    """The runs (lo, hi) of indexed rows x with bounds[k][0] <= x[k] <=
    bounds[k][1] for every k, in the rows' order."""
    nodes = [node]
    for lo, hi in bounds[:-1]:
        nodes = [sub for keys, _, subs in nodes for sub in subs[bisect_left(keys, lo) : bisect_right(keys, hi)]]
    lo, hi = bounds[-1]
    return [(starts[a], starts[b]) for keys, starts, _ in nodes
            for a, b in ((bisect_left(keys, lo), bisect_right(keys, hi)),) if a < b]


def _pack(x, m: int) -> int:
    """sum x_i m^i: linear in x, and one-to-one on |x_i| <= (m - 1) / 2."""
    return sum(t * m**i for i, t in enumerate(x))


def characterize(window, space: AmbientSpace) -> CharacterizeReport:
    """Test a finite window of an alleged anisotropic root set.

    Four hypotheses: closure under its own reflections (images leaving the
    window box are ignored), the image in the dot space is an irreducible
    finite root system, the generated subgroup is a full lattice, and no
    root has its double in the set.  All verdicts are window-scale.

    Reflections use the form on the (iso, dot) part, for which a vector is
    isotropic exactly when its dot part is zero, and images have zero dual
    part.  The window is scaled to integers once: for each pair of dot
    parts the coefficient c = p/q is exact, and the image of beta in alpha
    has scaled iso part (q beta - p alpha) / q, in the box exactly when
    |q beta_i - p alpha_i| <= edge for each i: an index of the betas by iso
    coordinate yields just those betas, in runs, in order.  Iso parts are
    packed as P(x) = sum x_i M^i, M = 2 edge + 1: P is linear, and one-to-one
    where |y_i| <= edge, as on every in-box image and q-fold target, so no
    image aliases onto a member.  A run is one set containment, walked pair
    by pair for its witnesses only when that fails.  The count reported is
    |alphas| * |betas| for each dot pair whose image dot part is in the box.
    Raises DimensionMismatch on a vector not of the space's dimension.
    """
    members = set(window)
    vs = sorted_vectors(members)
    if (wrong := next((v for v in vs if v.dim != space.dim), None)) is not None:
        raise DimensionMismatch(f"vector dim {wrong.dim}, space dim {space.dim}")
    checks = []
    nu, ell = space.nu, space.rank

    scale, ints = common_ints(vs)
    box = Fraction(max((abs(t) for x in ints for t in x), default=0), scale)
    groups: dict[tuple, list] = {}  # scaled dot part -> (root, scaled iso part)
    targets: dict[tuple, set] = {}  # scaled dot part -> scaled iso parts, dual zero
    for v, x in zip(vs, ints):
        dot = x[nu : nu + ell]
        groups.setdefault(dot, []).append((v, x[:nu]))
        if not any(x[nu + ell :]):
            targets.setdefault(dot, set()).add(x[:nu])

    dots = {d: Vector._of(d, scale) for d in groups}
    iso_members = [v for v, x in zip(vs, ints) if not any(x[nu : nu + ell])]
    dot_form = _dot_form(space)
    bad = list(iso_members[:3])
    checked = 0
    packed: dict[int, tuple] = {}  # q -> iso parts by dot part, packed at radix 2 * edge + 1
    if not bad:
        index = {d: _iso_index([x for _, x in b], 0, len(b)) for d, b in groups.items()} if nu else {}
        for da_key, alphas in groups.items():
            da = dots[da_key]
            caa = dot_form.evaluate(da, da)
            for db_key, betas in groups.items():
                db = dots[db_key]
                c = 2 * dot_form.evaluate(db, da) / caa
                img_dot = db - da * c
                if img_dot.max_norm() > box:
                    continue
                checked += len(alphas) * len(betas)
                p, q = c.numerator, c.denominator
                edge = int(box * scale) * q
                if q not in packed:
                    packed[q] = ({d: [_pack(x, 2 * edge + 1) for _, x in b] for d, b in groups.items()},
                                 {d: {q * _pack(x, 2 * edge + 1) for x in t} for d, t in targets.items()})
                units, target = packed[q][0], packed[q][1].get(img_dot.at(scale), set())
                q_betas = [q * u for u in units[db_key]]
                for (alpha, xa), ua in zip(alphas, units[da_key]):
                    pa = p * ua
                    bounds = [(-((edge - p * t) // q), (p * t + edge) // q) for t in xa]
                    runs = _box_runs(index[db_key], bounds) if nu else [(0, len(betas))]
                    failing = (j for lo, hi in runs
                               if not target.issuperset(map(pa.__rsub__, q_betas[lo:hi]))
                               for j in range(lo, hi))
                    for j in failing:
                        if q_betas[j] - pa not in target:
                            beta, xb = betas[j]
                            y = [q * u - p * w for u, w in zip(xb, xa)]
                            bad.append((alpha, beta, space.assemble(Vector._of(y, q * scale), img_dot)))
                            if len(bad) >= 3:
                                break
                    if len(bad) >= 3:
                        break
                if bad:
                    break
            if bad:
                break
    if not bad:
        detail = (
            f"{checked} reflection images inside the window box "
            f"(norm {box}) are all members"
        )
    elif iso_members:
        detail = "isotropic vector in an allegedly anisotropic set"
    else:
        detail = "reflection image escapes the set"
    checks.append(
        AxiomCheck("reflection_invariance", not bad, detail, tuple(bad[:3]))
    )

    dot_set = {dots[d] for d in groups}
    dot_set.discard(Vector([0] * ell))
    finite_ok, finite_detail = _finite_root_system_check(dot_set, space)
    checks.append(AxiomCheck("finite_image", finite_ok, finite_detail))

    rank = span_rank(vs)
    dual_zero = not any(any(x[nu + ell :]) for x in ints)
    checks.append(
        AxiomCheck(
            "full_lattice",
            rank == space.nu + ell and dual_zero,
            f"generated subgroup has rank {rank}, expected {space.nu + ell}; "
            "finitely generated rational, so discrete"
            if dual_zero
            else "a vector has a non-zero dual part, outside the (iso, dot) span",
        )
    )

    doubles = [v for v in vs if v * 2 in members]
    checks.append(
        AxiomCheck(
            "reduced",
            not doubles,
            f"no vector has its double in the set ({len(vs)} vectors)"
            if not doubles
            else "a vector and its double are both present",
            tuple(doubles[:3]),
        )
    )
    return CharacterizeReport(tuple(checks))


def _vec_to_json(v: Vector) -> list:
    """Each coordinate as a JSON integer, or as "n/d" in lowest terms."""
    return [x // g if g == v.den else f"{x // g}/{v.den // g}" for x in v.ints for g in (math.gcd(x, v.den),)]


def semilattice_to_config(s: Semilattice) -> dict:
    return {
        "basis": [_vec_to_json(row) for row in s.modulus.rows],
        "cosets": [_vec_to_json(c) for c in sorted_vectors(s.cosets)],
        "translated": s.translated,
    }


def semilattice_from_config(data: dict, nullity: int) -> Semilattice:
    """The set a config block describes; Lattice and Semilattice check the rows' nullity."""
    translated = _typed("translated", data.get("translated", False), bool)
    return Semilattice.from_cosets(data["cosets"], Lattice(nullity, data["basis"]), translated)


_JSON_KINDS = {bool: "boolean", int: "integer", dict: "object"}


def _typed(key: str, value, kind: type):
    """value, if it is a JSON boolean, integer (a boolean is not one) or
    object, as kind says: a config value is checked, never coerced."""
    if type(value) is not kind:
        raise TypeError(f"config field {key!r} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    return value


_CONFIG_KEYS = {"short": "S", "long": "L", "extra": "E"}


def descriptor_to_config(r: EarsDescriptor) -> dict:
    out = {
        "type": r.finite_part.label,
        "rank": r.finite_part.rank,
        "nullity": r.nullity,
    }
    for tag, key in _CONFIG_KEYS.items():
        if tag in r.translations:
            out[key] = semilattice_to_config(r.translations[tag])
    return out


def descriptor_from_config(data: dict) -> EarsDescriptor:
    finite = _as_finite(data["type"])
    if "rank" in data and _typed("rank", data["rank"], int) != finite.rank:
        raise WrongArity(
            f"rank {data['rank']} does not match type {data['type']}"
        )
    nullity = _typed("nullity", data["nullity"], int)
    sets = {}
    for tag, key in _CONFIG_KEYS.items():
        if key in data:
            sets[tag] = semilattice_from_config(_typed(key, data[key], dict), nullity)
    if "short" not in sets:
        raise WrongArity("config is missing the short translation set S")
    return construct_ears(
        finite, sets.get("short"), sets.get("long"), sets.get("extra")
    )


def _dot_form(space: AmbientSpace):
    g, dot = space.form.gram, slice(space.nu, space.nu + space.rank)
    return BilinearForm(Matrix._of([row[dot] for row in g.ints[dot]], g.den))


def _finite_root_system_check(dots: set, space: AmbientSpace):
    if not dots:
        return False, "empty image in the dot space"
    ell = space.split[1]
    form = _dot_form(space)

    def pair(a, b):
        return form.evaluate(a, b)

    rank = span_rank(dots)
    if rank != ell:
        return False, f"image spans rank {rank}, expected {ell}"
    for a in dots:
        for b in dots:
            n = 2 * pair(b, a) / pair(a, a)
            if n.denominator != 1:
                return False, f"non-integral pairing between {a} and {b}"
            if b - a * n not in dots:
                return False, f"image not closed under the reflection along {a}"
    if not _connected(list(dots), pair):
        return False, "image splits into orthogonal parts"
    return True, f"image is an irreducible finite root system on {len(dots)} roots"
