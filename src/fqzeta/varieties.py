"""Varieties as explicit polynomial systems, counted exactly over F_{q^n}.

A variety is described by polynomial equations over F_q (q = p^k) in an
affine or projective ambient space.  Counting over F_{q^n} runs over a
domain of candidate points and tests all equations; projective points are
normalized representatives whose first nonzero coordinate is 1, so no orbit
bookkeeping is needed.

The enumeration order is fixed: representatives are grouped by the position
of the leading 1 (ascending), and free coordinates run through the field in
lexicographic element order, last coordinate fastest.  count_points accepts a
``span`` of positions in this order, so a caller may partition the domain
into disjoint blocks, count them independently (e.g. on separate workers),
and sum the results.  The budget bounds the size of this domain.

count_points plans the whole count once, building no field but F_q
(_plan).  Each block (one position of the leading 1) is planned over F_q
itself: folding the fixed 0s and 1 into the equations decides that a block
is empty or wholly on the variety, and every other block gets one of six
strategies:

* by roots, for a block wholly inside ``span`` with one free coordinate y,
  whatever the number of equations.  With g the gcd of their polynomials
  in y over F_q, the block holds deg gcd(g, y^(q^n) - y) points, since
  y^(q^n) - y is squarefree and vanishes exactly on F_{q^n}.  That is
  N_n = sum over d | n of d c_d, with c_d the number of distinct
  irreducible factors of g of degree d, so the spec keeps, for the
  block's polynomials, g's distinct-degree factorization so far
  (VarietySpec._roots), once q^n exceeds every exponent: degree d takes
  y^(q^d) mod the unfactored rest as the q-th power of y^(q^(d-1)), and
  a gcd.  It advances for the next term of a series, or where it
  completes within n degrees, and then no n needs more; any other n
  takes y^(q^n) mod the rest directly, from the highest power of y kept
  below it (_count_roots).
* by its curve, for a block wholly inside ``span`` of a one-equation spec
  with two free coordinates, one of them y of degree at most 2 (at most 1
  if p = 2), as for fibres below.  The block holds
  Q + S_n - r(A) + Q r(gcd(A, B, C)) points, Q = q^n, with r the roots
  in F_Q as above and S_n = sum over z in F_Q of chi(B^2 - 4AC); where A
  vanishes identically, as always for p = 2, Q - r(B) + Q r(gcd(B, C)).
  If D = B^2 - 4AC is squarefree, of degree delta, S_n is an integer
  function of S_1..S_g for the curve w^2 = D(z) of genus
  g = ceil(delta / 2) - 1 (Weil).  So this costs the q^m evaluations of
  each S_m, m <= g, once per spec (kept with the block's plan), and none
  after that.  A D that is not squarefree stays on fibres, and so does a
  block while the degrees of A, B and C leave room for a genus past n
  (_plane_curve).
* by Jacobi sums, for a block wholly inside ``span`` of a one-equation
  spec with two or more free coordinates whose polynomial reads
  c + sum a_i x_i^e_i, each term a power of its own coordinate
  (_count_diagonal).  With d_i = gcd(e_i, q^n - 1), L = lcm(d_i) and
  f = ord_L(q), the count is Q^(r-1) plus a sum, over the prod (d_i - 1)
  tuples of characters of order dividing d_i, of Jacobi sums over
  F_{q^f}, lifted to F_{q^n} by Hasse-Davenport and certified exact mod
  the cyclotomic polynomial Phi_L.  The sum runs coordinate by coordinate
  over at most L partial sums of characters.  Its cost is one point per
  term it forms (_characters), plus the q^f points of a class table of
  F_{q^f} that neither the spec keeps (VarietySpec._jacobi) nor an
  earlier block of the count builds; if some d_i = 1 it is none.  It is
  offered only while q^f <= _CHUNK.
* by fibres, for a block wholly inside ``span`` of a one-equation spec with
  two or more free coordinates, one of them y of degree at most 2 (at most
  1 if p = 2).  The equation reads A y^2 + B y + C with A, B, C in the
  other free coordinates, which are evaluated at the q^(n(m-1)) other
  points only.  Since #{y : y^2 = s} = 1 + chi(s), each fibre holds
  1 + chi(B^2 - 4AC) - [A = 0] + q^n [A = B = C = 0] points, so a chunk
  of them costs one sum of the quadratic character chi, read from the
  counting field's cached table if it has at most _CHUNK elements, and by
  Euler's criterion above; where A vanishes identically, none.
* by halves, for a block wholly inside ``span`` of a one-equation spec
  whose free coordinates fall into two or more groups that no monomial
  links, over a field F_Q of at most _CHUNK elements.  The groups are
  packed into the two most even sides X and Y, the equation reads
  g(X) + h(Y) = 0, and the block holds sum_v #{g = v} #{-h = v} points:
  Q^|X| + Q^|Y| evaluations, two histograms of Q entries each.
* directly, at every point.

Of the last five, a block takes the one that evaluates the fewest points,
ties going first to the curve, then to Jacobi sums, then to fibres, then
to halves.  The curve ties with fibres only at n = g = 1, where its S_1
serves every later n.  A Jacobi-sum term counts as one point, though it
is a product of L coefficients by L: where it competes with halves, on
fields of a few elements such as the Fermat cubic surface's over F_4, it
still takes less time than the points halves evaluates, with numpy
already imported.  A partial block is always counted directly, so
partitions of a span cross-check the strategies.  The half of the plan
that no n changes, each block's polynomials and their fibre, halves and
diagonal splits, is derived once per spec and kept with it, with each
block's curve once built (VarietySpec._block_plans), so every term of a
series reuses it.
count_points then runs the plan, one counter per block; _Count says which
counters run over F_q and which evaluate on chunks of int64 scalars of
F_{q^n}.  The tests keep a pure-Python counter that evaluates every point
as the oracle for all six.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .errors import BudgetExceededError, MalformedSpecError, NotPrimeError
from .fields import (
    _CHUNK,
    ExtensionField,
    _chunks,
    _fq_divexact,
    _fq_frobenius_gcd,
    _fq_gcd,
    _fq_mod,
    _fq_powmod,
    _fq_trim,
    add_digits,
    check_characteristic,
    from_digits,
    make_extension,
    to_digits,
)
from .polys import _power_sums, _series_from_counts, quotient

DEFAULT_BUDGET = 10**8

Term = tuple[int, tuple[int, ...]]  # (coefficient, exponents)


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int; a spec means neither.
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Ambient:
    kind: str  # "affine" | "projective"
    dim: int

    def __post_init__(self):
        if self.kind not in ("affine", "projective"):
            raise MalformedSpecError(f"unknown ambient type {self.kind!r}")
        if not _is_int(self.dim) or self.dim < 0:
            raise MalformedSpecError(f"ambient dimension must be >= 0, got {self.dim!r}")

    @property
    def nvars(self) -> int:
        return self.dim + 1 if self.kind == "projective" else self.dim


@dataclass(frozen=True)
class VarietySpec:
    """Equations over F_{p^k} cutting out a closed subset of the ambient space.

    What the counts of a series share across n is kept with the spec, in
    three maps filled as the counts need them: _block_plans by block
    prefix, _roots by the polynomials of a roots count, and _jacobi by L.
    Every value there is exact as far as it goes, and is either replaced
    whole or only gains entries, so two threads that race there lose work,
    never a count.
    """

    label: str
    p: int
    k: int
    ambient: Ambient
    equations: tuple[tuple[Term, ...], ...]

    @property
    def q(self) -> int:
        return self.p**self.k

    @cached_property
    def _block_plans(self) -> dict:
        """The half of every count's plan that no n changes, derived once per spec.

        Maps each block's prefix (see _blocks) to (polys, fibre, halves
        sides, diagonal): its _block_plan and, for a one-equation spec and
        two or more free coordinates, its _fibre_split paired with the list
        in which _plane_curve keeps a two-coordinate block's _Curve, its
        _halves_split and its _diagonal_split, else None.  Every
        count_points of a series reuses it.
        """
        plans = {}
        for prefix, n_free in _shapes(self.ambient):
            polys = _block_plan(self.p, self.equations, prefix)
            fibre = sides = diagonal = None
            if polys and n_free > 1 and len(self.equations) == 1:
                parts = _fibre_split(self.p, polys[0], n_free)
                fibre = None if parts is None else (parts, [])
                sides = _halves_split(self.p, polys[0], n_free)
                diagonal = _diagonal_split(polys[0], n_free)
            plans[prefix] = polys, fibre, sides, diagonal
        return plans

    @cached_property
    def _roots(self) -> dict:
        """polys -> the _Factorization of their gcd g so far, filled by _count_roots.

        Only for the n that reduce no exponent, where every n forms the same g.
        """
        return {}

    @cached_property
    def _jacobi(self) -> dict:
        """L -> the character tables of F_{q^f} (_Jacobi), filled by _count_diagonal.

        Keyed by L alone, since f is the order of q mod L: every diagonal
        block with the same L shares one table.
        """
        return {}

    @staticmethod
    def from_dict(data: dict) -> "VarietySpec":
        if not isinstance(data, dict):
            raise MalformedSpecError("variety spec must be a JSON object")
        try:
            label = data["label"]
            p = data["p"]
            k = data["k"]
            ambient_raw = data["ambient"]
            equations_raw = data["equations"]
        except KeyError as exc:
            raise MalformedSpecError(f"missing field in variety spec: {exc}") from None
        if not isinstance(label, str):
            raise MalformedSpecError("label must be a string")
        if not _is_int(p) or not _is_int(k) or k < 1:
            raise MalformedSpecError("p must be an int and k a positive int")
        try:
            check_characteristic(p)
        except (NotPrimeError, ValueError) as exc:
            raise MalformedSpecError(str(exc)) from None
        if not isinstance(ambient_raw, dict):
            raise MalformedSpecError('ambient must be an object {"type": ..., "dim": ...}')
        ambient = Ambient(ambient_raw.get("type"), ambient_raw.get("dim"))
        nvars = ambient.nvars
        if not isinstance(equations_raw, list):
            raise MalformedSpecError("equations must be a list of equations")
        equations = []
        for eq_idx, eq in enumerate(equations_raw):
            if not isinstance(eq, list):
                raise MalformedSpecError(f"equation {eq_idx} must be a list of terms")
            terms = []
            for term in eq:
                try:
                    coeff_raw, exps_raw = term
                except (TypeError, ValueError):
                    raise MalformedSpecError(
                        f"equation {eq_idx}: each term must be [coeff, exponents]"
                    ) from None
                if k == 1:
                    if not _is_int(coeff_raw):
                        raise MalformedSpecError(
                            f"equation {eq_idx}: coefficient must be an int when k=1"
                        )
                    coeff_raw = [coeff_raw]
                elif (
                    not isinstance(coeff_raw, list)
                    or len(coeff_raw) != k
                    or not all(_is_int(c) for c in coeff_raw)
                ):
                    raise MalformedSpecError(
                        f"equation {eq_idx}: coefficient must be a length-{k} list of ints"
                    )
                coeff = from_digits(coeff_raw, p)
                if not isinstance(exps_raw, list) or len(exps_raw) != nvars:
                    raise MalformedSpecError(
                        f"equation {eq_idx}: exponent vector must have length {nvars}"
                    )
                if any(not _is_int(e) or e < 0 for e in exps_raw):
                    raise MalformedSpecError(
                        f"equation {eq_idx}: exponents must be nonnegative integers"
                    )
                if coeff:
                    terms.append((coeff, tuple(exps_raw)))
            if ambient.kind == "projective" and terms:
                degrees = {sum(exps) for _, exps in terms}
                if len(degrees) > 1:
                    raise MalformedSpecError(
                        f"equation {eq_idx} is not homogeneous: degrees {sorted(degrees)}"
                    )
            equations.append(tuple(terms))
        return VarietySpec(label, p, k, ambient, tuple(equations))

    def to_dict(self) -> dict:
        eqs = []
        for eq in self.equations:
            terms = []
            for coeff, exps in eq:
                c = coeff if self.k == 1 else to_digits(coeff, self.p, self.k)
                terms.append([c, list(exps)])
            eqs.append(terms)
        return {
            "label": self.label,
            "p": self.p,
            "k": self.k,
            "ambient": {"type": self.ambient.kind, "dim": self.ambient.dim},
            "equations": eqs,
        }


def load_spec(path) -> VarietySpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MalformedSpecError(f"invalid JSON in {path}: {exc}") from None
    return VarietySpec.from_dict(data)


@dataclass(frozen=True)
class PointCountSeries:
    """The sequence N_n = #X(F_{q^n}) for n = 1..B."""

    q: int
    counts: tuple[int, ...]


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def domain_size(spec: VarietySpec, n: int) -> int:
    """Number of candidate points over F_{q^n}: the size the budget bounds."""
    qn = spec.q**n
    m = spec.ambient.dim
    if spec.ambient.kind == "affine":
        return qn**m
    return (qn ** (m + 1) - 1) // (qn - 1) if qn > 1 else m + 1


def count_points(
    spec: VarietySpec,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
    span: tuple[int, int] | None = None,
) -> int:
    """Exact number of F_{q^n}-points (restricted to ``span`` if given)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # Every domain has at least q^(nm) >= 2^bits points.  Far past the budget
    # that refuses it before its exact size, which may run to millions of
    # digits, is built; within 64 bits of it the refusal names the exact size,
    # or its bit length once the size has too many digits to print.
    bits = spec.ambient.dim * ((spec.q**n).bit_length() - 1)
    if bits > budget.bit_length() + 64:
        raise BudgetExceededError(
            f"enumeration of at least 2^{bits} points exceeds budget {budget}",
            required=None,
            budget=budget,
        )
    size = domain_size(spec, n)
    if size > budget:
        try:
            named = str(size)
        except ValueError:  # more digits than int -> str allows
            named = f"at least 2^{size.bit_length() - 1}"
        raise BudgetExceededError(
            f"enumeration of {named} points exceeds budget {budget}",
            required=size,
            budget=budget,
        )
    lo, hi = span if span is not None else (0, size)
    count = _Count(spec, n)
    return sum(counter(count, data) for _, counter, data in _plan(count, lo, hi))


def count_series(
    spec: VarietySpec, terms: int, *, budget: int = DEFAULT_BUDGET
) -> PointCountSeries:
    """N_1..N_B by repeated counting; budget failures name the offending n."""
    counts = []
    for n in range(1, terms + 1):
        try:
            counts.append(count_points(spec, n, budget=budget))
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"term n={n}: {exc}", required=exc.required, budget=exc.budget
            ) from None
    return PointCountSeries(spec.q, tuple(counts))


class _Count:
    """One count over F_Q, Q = order = q^n, read by every block's counter.

    _plan gives each block counter(count, data), data being the block's own
    part of the plan.  Blocks empty or wholly on the variety (_count_known),
    roots, curves and Jacobi sums are counted over F_q, so a line in P^1 or
    the lone point of P^0 is counted over any F_{p^n}; a curve takes its
    character sums S_1..S_g once per spec (_character_sum).  Fibres, halves
    and direct evaluation, for blocks with two or more free coordinates or
    cut by a span, run over F_Q: the first builds ``kernel``, F_Q with its
    vectorized kernel (ExtensionField.vector_ops) and the embedding of F_q's
    scalars, by which _evaluator maps their polynomials.  That map is
    injective and additive, so every choice made over F_q holds over F_Q.
    """

    def __init__(self, spec: VarietySpec, n: int):
        self.spec, self.n, self.order = spec, n, spec.q**n

    @cached_property
    def kernel(self):
        field = make_extension(self.spec.p, self.spec.k * self.n)
        return field, field.vector_ops(), _make_embedding(self.spec, field)


def _make_embedding(spec: VarietySpec, field: ExtensionField, subfield=None):
    """The map of the scalars of F_q into ``field``.

    ``subfield``, if given, holds the nonzero scalars of F_q in ``field``;
    the root is then found among them by scalar operations, with no kernel.
    """
    if spec.k == 1:
        return field.element
    if field.k == spec.k:
        return lambda scalar: scalar
    # Map the base generator to the first root, in scalar order, of the base
    # modulus in the larger field; a root exists because k divides field.k,
    # and every root lies in F_q, the one subfield of its order.
    base = make_extension(spec.p, spec.k)
    if subfield is None:
        return base.embedding(field, _first_root(base.modulus, field))
    modulus = [field.element(c) for c in base.modulus]
    roots = (x for x in subfield if not _fq_mod(modulus, [field._sub(0, x), field.one], field))
    return base.embedding(field, min(roots))


def _first_root(poly: tuple[int, ...], field: ExtensionField) -> int:
    """The first root, in scalar order, of a polynomial over F_p."""
    import numpy as np

    add, mul = field.vector_ops()
    coeffs = [field.element(c) for c in reversed(poly)]
    for c0, c1 in _chunks(0, field.order, field.k):
        x = np.arange(c0, c1, dtype=np.int64)
        acc = np.zeros_like(x)
        for c in coeffs:
            acc = add(mul(acc, x), c)
        roots = np.flatnonzero(acc == 0)
        if roots.size:
            return c0 + int(roots[0])
    raise AssertionError("base modulus has no root in the extension")


def _shapes(ambient: Ambient):
    """(prefix, n_free) for each block, in enumeration order; see _blocks."""
    m = ambient.dim
    if ambient.kind == "affine":
        return [((), m)]
    return [((0,) * j + (1,), m - j) for j in range(m + 1)]


def _blocks(spec: VarietySpec, order: int, lo: int, hi: int):
    """(prefix, n_free, block_lo, block_hi, whole) for each block meeting lo..hi.

    Affine space is one block with all coordinates free.  Projective space
    has one block per position of the leading 1: coordinates before it are
    0, the position itself is 1, later coordinates are free.  The prefix
    holds these fixed values as the ints 0 and 1; block_lo..block_hi are the
    offsets of the span within a block of order^n_free points, and whole
    says the span covers it.
    """
    start = 0
    for prefix, n_free in _shapes(spec.ambient):
        size = order**n_free
        block_lo, block_hi = max(lo - start, 0), min(hi - start, size)
        if block_lo < block_hi:
            yield prefix, n_free, block_lo, block_hi, block_hi - block_lo == size
        start += size


def _plan(count: _Count, lo: int, hi: int):
    """(points, counter, data) for each block of ``count`` meeting lo..hi.

    counter(count, data) counts the block by evaluating ``points`` points
    (see _Count).  _count_known and _count_roots evaluate none, _count_curve
    the points of the character sums it has yet to keep, _count_diagonal one
    point per term it forms (_characters) and the points of a class table
    that no earlier block has built.  No field is built but F_q, and that
    only to form the discriminant of a plane curve (_plane_curve).
    """
    spec, n, order = count.spec, count.n, count.order
    tables = set(spec._jacobi)  # the class tables kept, or built by an earlier block
    for prefix, n_free, block_lo, block_hi, whole in _blocks(spec, order, lo, hi):
        polys, fibre, sides, diagonal = spec._block_plans[prefix]
        parts, kept = fibre or (None, None)
        if not polys:
            yield 0, _count_known, 0 if polys is None else block_hi - block_lo
            continue
        if n_free == 1 and whole:
            yield 0, _count_roots, polys
            continue
        # Fewest points first, ties to the earliest.  A partial block stays
        # on the direct path, so partitions of a span cross-check the
        # strategies.
        options = []
        if whole and n_free == 2 and parts is not None:
            curve = _plane_curve(count, parts, kept)
            if curve is not None:
                unkept = [m for m in range(1, curve.genus + 1) if m not in curve.sums]
                points = sum(spec.q**m for m in unkept)
                options.append((points, _count_curve, (parts, curve)))
        if whole and diagonal is not None:
            characters = _characters(spec.q, diagonal, n, order)
            if characters is not None:
                steps, L, f = characters
                points = steps + (spec.q**f if steps and L not in tables else 0)
                options.append((points, _count_diagonal, (diagonal, L, f)))
        if whole and parts is not None:
            options.append((order ** (n_free - 1), _count_fibres, (parts, n_free - 1)))
        if whole and sides is not None and order <= _CHUNK:
            options.append((sum(order**m for m, _ in sides), _count_halves, sides))
        options.append((block_hi - block_lo, _count_direct, (polys, n_free, block_lo, block_hi)))
        best = min(options, key=lambda option: option[0])
        if best[1] is _count_diagonal:
            tables.add(best[2][1])
        yield best


def _count_known(count, points) -> int:
    """The points of a block known from its plan alone: none, or every point of its span."""
    return points


def _count_roots(count, polys) -> int:
    """Points of a whole block with one free coordinate y, over F_order.

    ``polys`` are the block's polynomials over F_q, a subfield of F_order,
    order = count.order = q^n.  With g their gcd in y, the count is
    deg gcd(g, y^order - y): y^order - y is squarefree and vanishes exactly
    on F_order (g = 0 means every y is a point).  An exponent e >= order
    becomes ((e - 1) mod (order - 1)) + 1, which gives the same power of
    every y in F_order, so g has degree below order.

    F_order holds a root of an irreducible factor of g exactly when its
    degree d divides n, so N_n = sum over d | n of d c_d, with c_d the
    number of distinct irreducible factors of g of degree d.  They are read
    from g's distinct-degree factorization so far (_Factorization), whose
    rest starts as g, where it reaches n or is complete, as it is at once
    for a constant or linear g.  Once order exceeds every exponent, none is
    reduced, and the spec keeps one record for all such n
    (VarietySpec._roots, by polys), with the largest exponent, so that a
    kept record says whether order reduces any; a g that a smaller n forms
    serves that count alone.  The record advances one q-th power per
    degree, only where n is its next degree, as for the next term of a
    series, or where it completes within n degrees.  Any other n, such as
    a large g counted once at a large n, jumps: it takes y^order mod the
    unfactored rest from the highest power of y kept below it, y^(q^m),
    about 2 log2(order / q^m) products over F_q[y], and one gcd, where
    factoring up to n would take n gcds at that degree.  A series whose
    first terms reduce exponents reaches an unreduced g past n = 1, and so
    goes on by jumps of one q-th power each.
    """
    spec, n, order = count.spec, count.n, count.order
    field = make_extension(spec.p, spec.k)
    record = kept = spec._roots.get(polys)
    top = kept.top if kept else max((e for _, terms in polys for _, ((_, e),) in terms), default=0)
    unreduced = order > top
    if not unreduced:  # this n forms a g of its own, not the kept record's
        record = kept = None
    if record is None:
        g = []
        for poly in polys:
            g = _fq_gcd(g, _univariate(field, poly, order), field)
        record = _Factorization(top, (), tuple(g), (field.zero, field.one))
    done = len(record.counts)
    while done < n and not record.complete and (n == done + 1 or (len(record.rest) - 1) // 2 <= n):
        record = record.advance(field)
        done += 1
    if unreduced and record is not kept:
        spec._roots[polys] = record
    rest, degree = record.rest, len(record.rest) - 1
    if not rest:  # g = 0: every y is a point
        return order
    roots = sum(d * c for d, c in enumerate(record.counts, 1) if n % d == 0) if done else 0
    # The rest is 1 or irreducible, or each of its factors has degree above n.
    if n <= done or record.complete:
        return roots + (degree if degree and n % degree == 0 else 0)
    m, power = record.lead if done < record.lead[0] <= n else (done, record.power)
    power = _fq_powmod(power, field.order ** (n - m), rest, field)
    if unreduced and n > record.lead[0]:
        spec._roots[polys] = replace(record, lead=(n, tuple(power)))
    return roots + len(_fq_frobenius_gcd(rest, power, field)) - 1


@dataclass(frozen=True)
class _Factorization:
    """The distinct-degree factorization of a monic g over F_q, degree by degree.

    top is the largest exponent of the polynomials whose gcd is g, kept so
    that _count_roots reads whether q^n reduces any without a pass over
    their terms.  counts[d - 1] is c_d, the number of distinct irreducible
    factors of g of degree d, for d = 1..len(counts).  rest is g with
    every factor of those degrees divided out, multiplicity included, and
    power is y^(q^d) mod rest for d = len(counts) (Cantor-Zassenhaus; von
    zur Gathen and Gerhard, Modern Computer Algebra, section 14.2).  Every
    factor of rest has degree above d, so once deg rest < 2(d + 1) it is
    1 or irreducible, and the record is complete.  lead is
    (m, y^(q^m) mod rest) for the largest m a count has jumped to, or
    (0, ()); while m > d, a jump to n > m starts from it rather than from
    power, so jumps along a series take one q-th power per term.
    """

    top: int
    counts: tuple
    rest: tuple
    power: tuple
    lead: tuple = (0, ())

    @property
    def complete(self) -> bool:
        return len(self.rest) < 2 * len(self.counts) + 3

    def advance(self, field) -> _Factorization:
        """The record one degree d further: y^(q^d) = (y^(q^(d-1)))^q mod rest."""
        d = len(self.counts) + 1
        power = _fq_powmod(self.power, field.order, self.rest, field)
        found = _fq_frobenius_gcd(self.rest, power, field)  # the factors of degree d
        c_d, rest, (m, lead) = (len(found) - 1) // d, self.rest, self.lead
        if c_d:
            while len(found) > 1:
                rest = _fq_divexact(rest, found, field)
                found = _fq_gcd(rest, found, field)
            power, lead = _fq_mod(power, rest, field), _fq_mod(lead, rest, field)
        return _Factorization(
            self.top, self.counts + (c_d,), tuple(rest), tuple(power), (m, tuple(lead))
        )


def _univariate(field, poly, order=None) -> list:
    """A block polynomial in one free coordinate as its coefficients over F_q = field.

    Low degree first, with no trailing zeros.  Given ``order``, an exponent
    e >= order enters as ((e - 1) mod (order - 1)) + 1, the same function
    on F_order.
    """
    const, terms = poly
    coeffs = [const]
    for scalar, ((_, e),) in terms:
        if order is not None and e >= order:
            e = (e - 1) % (order - 1) + 1
        coeffs += [field.zero] * (e + 1 - len(coeffs))
        coeffs[e] = field._add(coeffs[e], scalar)
    return _fq_trim(coeffs)


@dataclass
class _Curve:
    """w^2 = D(z) for the discriminant D of a two-coordinate fibre block; see _count_curve.

    disc is D over F_q, low degree first, or None where A vanishes
    identically; genus is ceil(deg D / 2) - 1, at least 0; eps is
    chi_q(lead D) for even deg D, else 0; sums maps m to S_m for the
    m <= genus summed so far.
    """

    disc: list | None
    genus: int
    eps: int
    sums: dict


def _plane_curve(count, parts, kept):
    """The block's _Curve (see _count_curve), or None.

    ``parts`` is the block's _fibre_split over its two free coordinates,
    and ``kept`` the list beside it in the block's plan that keeps its
    _Curve, or None, once built.  None where D is not squarefree, and
    where nothing is kept yet and n is too small for a _Curve: with a, b, c
    the degrees of A, B, C read from their exponents (-1 for a part that
    is absent), the bound delta = max(2b, a + c, a, c) holds for deg D and
    for every part, and no _Curve is built while ceil(delta / 2) - 1
    exceeds n.  So neither D nor a gcd is formed past degree 2n + 2, and
    y^2 = x^(10^12) + 1 stays on fibres.  A _Curve once built serves every
    n.
    """
    if not kept:
        c, b, a = (
            max((e for _, ((_, e),) in terms), default=0 if const else -1)
            for const, terms in parts
        )
        if max(2 * b, a + c, a, c) > 2 * count.n + 2:
            return None
        kept.append(_make_curve(make_extension(count.spec.p, count.spec.k), parts))
    return kept[0]


def _make_curve(field, parts):
    """The _Curve of [C, B, -4A] over F_q = field, or None if D is not squarefree."""
    c, b, minus_4a = (_univariate(field, part) for part in parts)
    if not minus_4a:
        return _Curve(None, 0, 0, {})
    disc = [field.zero] * max(2 * len(b) - 1, len(minus_4a) + len(c) - 1, 0)
    for u, v in ((b, b), (minus_4a, c)):
        for i, cu in enumerate(u):
            for j, cv in enumerate(v):
                disc[i + j] = field._add(disc[i + j], field._mul(cu, cv))
    _fq_trim(disc)
    derivative = [field._mul(field.element(i), ci) for i, ci in enumerate(disc)][1:]
    if len(_fq_gcd(disc, derivative, field)) != 1:  # D = 0 included
        return None
    degree = len(disc) - 1
    eps = 0
    if degree % 2 == 0:
        eps = 1 if field._pow(disc[-1], (field.order - 1) // 2) == field.one else -1
    return _Curve(disc, max((degree + 1) // 2 - 1, 0), eps, {})


def _count_curve(count, data) -> int:
    """Points of a whole block with two free coordinates whose equation reads A y^2 + B y + C.

    ``data`` holds the parts C, B, -4A over the other coordinate z
    (_fibre_split) and the block's _Curve.  With r(f) the distinct roots
    of f in F_Q, Q = count.order (_count_roots), and
    S_n = sum over z in F_Q of chi(D(z)), D = B^2 - 4AC, summing the
    fibres of _count_fibres gives Q + S_n - r(A) + Q r(gcd(A, B, C))
    points; where A vanishes identically, as always for p = 2,
    Q - r(B) + Q r(gcd(B, C)).  Nothing is evaluated over F_Q.

    S_n comes from the curve w^2 = D(z) (_Curve), D squarefree of degree
    delta.  For delta = 0, S_n = Q chi_q(D)^n.  Otherwise its smooth model
    has genus g = ceil(delta / 2) - 1 and Q + 1 + S_n + eps^n points over
    F_Q: Q + S_n affine ones and 1 + eps^n at infinity.  So the
    inverse roots of its L-polynomial L(t) = 1 + c_1 t + ... + c_2g t^2g
    have the power sums -S_m - eps^m (Weil).  S_1..S_g fix c_1..c_g
    (_series_from_counts), the functional equation c_(2g-j) = q^(g-j) c_j
    gives the rest, and S_n = -p_n(L) - eps^n (_power_sums), in ints, for
    every n.  S_1..S_g are summed once per spec (_character_sum).
    """
    (c, b, minus_4a), curve = data
    spec, n, order = count.spec, count.n, count.order
    if curve.disc is None:
        return order - _count_roots(count, (b,)) + order * _count_roots(count, (c, b))
    disc, genus, eps, sums = curve.disc, curve.genus, curve.eps, curve.sums
    if len(disc) == 1:
        s_n = order * eps**n
    else:
        for m in range(1, genus + 1):
            if m not in sums:
                sums[m] = _character_sum(spec, disc, m)
        half = _series_from_counts([sums[m] + eps**m for m in range(1, genus + 1)])
        lpoly = half + [spec.q ** (genus - j) * half[j] for j in reversed(range(genus))]
        s_n = -_power_sums(lpoly, n)[-1] - eps**n
    r_a = _count_roots(count, (minus_4a,))
    return order + s_n - r_a + order * _count_roots(count, (c, b, minus_4a))


def _character_sum(spec, disc, m) -> int:
    """S_m = sum over z in F_{q^m} of chi(D(z)), for D = disc over F_q.

    Over a prime field of at most _CHUNK elements (m = 1, k = 1) it is
    summed in pure Python, by Horner's rule mod p over a list of chi, so no
    field is built and numpy is not imported.  Otherwise D is evaluated on
    the kernel of F_{q^m} and chi summed by ExtensionField.chi_sum.
    """
    p = spec.p
    if m == 1 and spec.k == 1 and p <= _CHUNK:
        chi = [-1] * p
        chi[0] = 0
        for x in range(1, p):
            chi[x * x % p] = 1
        coeffs = disc[::-1]
        total = 0
        for z in range(p):
            value = 0
            for coeff in coeffs:
                value = (value * z + coeff) % p
            total += chi[value]
        return total
    count = _Count(spec, m)
    field = count.kernel[0]
    terms = [(coeff, ((0, e),)) for e, coeff in enumerate(disc) if e and coeff]
    return sum(
        field.chi_sum(_evaluator(count, 1, c0, c1)(disc[0], terms))
        for c0, c1 in _chunks(0, field.order, field.k)
    )


def _characters(q, diagonal, n, order):
    """(steps, L, f) for a _diagonal_split block over F_order, order = q^n, or None.

    With d_i = gcd(e_i, order - 1), L = lcm(d_i) and f is the order of q
    mod L, which divides n as L divides q^n - 1.  steps bounds the terms
    _count_diagonal forms: the d_1 - 1 characters of the first coordinate,
    then, for each further coordinate, d_k - 1 products for each partial
    sum, of which there are at most L.  If some d_i = 1 it forms none, and
    L = f = 1.  None where F_{q^f} has more than _CHUNK elements.
    """
    degrees = [math.gcd(e, order - 1) for _, e in diagonal[1]]
    if 1 in degrees:
        return 0, 1, 1
    steps = tuples = degrees[0] - 1
    L = math.lcm(*degrees)
    for d in degrees[1:]:
        steps += min(tuples, L) * (d - 1)
        tuples *= d - 1
    f = next(f for f in range(1, n + 1) if n % f == 0 and pow(q, f, L) == 1)
    return (steps, L, f) if q**f <= _CHUNK else None


@dataclass
class _Jacobi:
    """The characters chi_j(g^t) = zeta_L^(jt) of F' = F_{q^f}; see _count_diagonal.

    order is q^f; logs[u] is log_g u mod L for a nonzero scalar u of F';
    classes maps (log u, log(1 - u)) mod L to the number of such u outside
    {0, 1}; embed maps the scalars of F_q into F'; sums keeps the powers
    of Jacobi sums that power() has formed.
    """

    order: int
    L: int
    logs: list
    classes: Counter
    embed: Callable[[int], int]
    sums: dict

    def power(self, alpha: int, beta: int, s: int) -> list:
        """J2(chi_alpha, chi_beta)^s, beta != 0, in Z[x]/(x^L - 1), x standing for zeta_L.

        J2(alpha, beta) = sum over u in F' of chi_alpha(u) chi_beta(1 - u):
        -q^f for the trivial chi_0, else one term per class of u.
        """
        key = alpha, beta, s
        if key not in self.sums:
            value = [0] * self.L
            if alpha:
                for (a, b), count in self.classes.items():
                    value[(alpha * a + beta * b) % self.L] += count
            else:
                value[0] = -self.order
            power = value
            for bit in bin(s)[3:]:
                power = _cyclic_mul(power, power)
                if bit == "1":
                    power = _cyclic_mul(power, value)
            self.sums[key] = power
        return self.sums[key]


def _make_jacobi(spec, L, f) -> _Jacobi:
    """The _Jacobi of F_{q^f} for the characters of order dividing L.

    Built from scalar field operations alone: q^f products walk the powers
    of a generator g, and q^f subtractions form 1 - u.  Every
    (q^f - 1)/(q - 1)-th power on the walk is a nonzero scalar of F_q, and
    F_q is embedded by the least root of its modulus among those.
    """
    field = make_extension(spec.p, spec.k * f)
    g, one = field._generator(), field.one
    step = (field.order - 1) // (spec.q - 1)
    logs, subfield, u = [0] * field.order, [], one
    for t in range(field.order - 1):
        logs[u] = t % L
        if not t % step:
            subfield.append(u)
        u = field._mul(u, g)
    classes = Counter((logs[u], logs[field._sub(one, u)]) for u in range(1, field.order) if u != one)
    return _Jacobi(field.order, L, logs, classes, _make_embedding(spec, field, subfield), {})


def _count_diagonal(count, data) -> int:
    """Points of a whole block whose one equation reads c + sum_i a_i x_i^e_i = 0.

    ``data`` is the block's _diagonal_split over F_q, with L and f: r terms,
    each a power of its own free coordinate, and the number of free
    coordinates absent, each of which multiplies the count by Q = count.order.
    With d_i = gcd(e_i, Q - 1) and b = -c, #{x : x^e_i = u} is the sum of
    chi(u) over the characters chi^(d_i) = 1 of F_Q, so the block holds
    Q^(r-1) plus, over the tuples of nontrivial such characters,
    prod chi_i(a_i)^-1 times Jacobi sums over F_Q; if some d_i = 1 it
    holds Q^(r-1) (Weil 1949; Ireland and Rosen, ch. 8).

    Every such character is chi_j o N from F_Q to F' = F_{q^f}, f = ord_L(q)
    and L = lcm(d_i) (_characters): chi_j(g^t) = zeta_L^(jt) for a
    generator g of F', with j_i running over the multiples of L / d_i in
    1..L-1.  So chi_j(a) = chi_j(a)^s over F', s = n / f, for a in F_q,
    and Hasse-Davenport lifts J = prod_(k=2..r) J2(psi_(k-1), chi_(j_k)),
    psi_k = chi_(j_1 + ... + j_k), from F' as (-1)^((r-1)(s+1)) J^s
    (Ireland and Rosen, ch. 11).  The block holds
    Q^(r-1) + (-1)^((r-1)(s+1)) sum prod_i chi_(j_i)(a_i)^-s T points, with
    T = chi_(sum j)(b)^s J^s for b != 0, -(Q - 1) J^s for b = 0 and
    sum j = 0 mod L, and no term otherwise.

    Each factor of a term depends on one j_k and on psi_(k-1) alone, so the
    sum runs coordinate by coordinate over the partial sums psi, at most L
    of them, rather than over every tuple.  It is formed in Z[x]/(x^L - 1)
    and reduced mod Phi_L, where it must come out an integer
    (_cyclotomic_value): the certificate of the count.  The tables of F'
    are kept with the spec (VarietySpec._jacobi), and F_Q is never built.
    """
    (const, powers, absent), L, f = data
    spec, n, order = count.spec, count.n, count.order
    r, free = len(powers), order**absent
    degrees = [math.gcd(e, order - 1) for _, e in powers]
    if 1 in degrees:
        return free * order ** (r - 1)
    jacobi = spec._jacobi.get(L)
    if jacobi is None:
        jacobi = spec._jacobi[L] = _make_jacobi(spec, L, f)
    s = n // f
    logs, embed = jacobi.logs, jacobi.embed
    b = add_digits(0, const, spec.p, -1)
    # chi_(sum j)(b)^s prod chi_(j_i)(a_i)^-s = zeta_L^(sum_i j_i unit_i).
    log_b = logs[embed(b)] if b else 0
    units = [s * (log_b - logs[embed(a)]) for a, _ in powers]
    # psi -> the sum of the terms of j_1..j_k over the tuples with sum psi.
    partial = {}
    for j in range(L // degrees[0], L, L // degrees[0]):
        partial[j] = [0] * L
        partial[j][j * units[0] % L] = 1
    for d, unit in zip(degrees[1:], units[1:]):
        grown = {}
        for psi, terms in partial.items():
            for j in range(L // d, L, L // d):
                out = grown.setdefault((psi + j) % L, [0] * L)
                _cyclic_mul(terms, jacobi.power(psi, j, s), j * unit, out)
        partial = grown
    if b:
        total = [sum(column) for column in zip(*partial.values())]
    else:
        total = [(1 - order) * c for c in partial.get(0, [0] * L)]
    value = _cyclotomic_value(total, L)
    return free * (order ** (r - 1) + (-1) ** ((r - 1) * (s + 1)) * value)


def _cyclic_mul(a: list, b: list, shift: int = 0, out: list | None = None) -> list:
    """out + a * b * x^shift in Z[x]/(x^L - 1), L = len(a) = len(b), out = 0 if not given."""
    L = len(a)
    if out is None:
        out = [0] * L
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[(i + j + shift) % L] += ca * cb
    return out


@lru_cache(maxsize=None)
def _cyclotomic(L: int) -> tuple:
    """Phi_L over Z, low degree first: x^L - 1 divided by Phi_d for each proper divisor d."""
    phi = (-1,) + (0,) * (L - 1) + (1,)
    for d in range(1, L):
        if L % d == 0:
            phi = quotient(phi, _cyclotomic(d))
    return phi


def _cyclotomic_value(coeffs: list, L: int) -> int:
    """sum_t coeffs[t] zeta_L^t, asserted to be an integer.

    The remainder mod Phi_L, which is monic, holds the coordinates in the
    basis 1, zeta_L, ..., zeta_L^(phi(L) - 1), so an integer reduces to a
    constant.  Any other remainder raises AssertionError: a count's
    exactness certificate, like GCDHEU's in polys.gcd.
    """
    phi = _cyclotomic(L)
    top = len(phi) - 1
    rem = list(coeffs)
    while len(rem) > top:
        lead = rem.pop()
        shift = len(rem) - top
        for i in range(top):
            rem[shift + i] -= lead * phi[i]
    if any(rem[1:]):
        raise AssertionError(f"{rem} mod Phi_{L} is not an integer")
    return rem[0]


def _count_direct(count, data) -> int:
    """Points of the block offsets block_lo..block_hi where every polynomial vanishes."""
    polys, n_free, block_lo, block_hi = data
    total = 0
    for c0, c1 in _chunks(block_lo, block_hi, count.kernel[0].k):
        evaluate = _evaluator(count, n_free, c0, c1)
        alive = None
        for const, terms in polys:
            zero = evaluate(const, terms) == 0
            alive = zero if alive is None else alive & zero
            if not alive.any():
                break
        total += int(alive.sum())
    return total


def _count_fibres(count, data) -> int:
    """Points of a whole block whose one equation reads A y^2 + B y + C.

    ``data`` holds C, B, -4A (as far as y occurs; see _fibre_split) over
    the other n_other free coordinates, and n_other.  Each of their
    Q^n_other points is the fibre of Q values of y, and with D = B^2 - 4AC
    it holds 1 + chi(D) - [A = 0] + Q [A = B = C = 0] points, where chi is
    the quadratic character and chi(0) = 0: 1 + chi(D) if A != 0 (p odd), and
    if A = 0, so that D = B^2, one if B != 0, Q if B = C = 0 and none
    otherwise.  A chunk of M points thus holds
    M + sum chi(D) - #{A = 0} + Q #{A = B = C = 0}: one chi sum
    (ExtensionField.chi_sum).  Where A vanishes identically, as always for
    p = 2, that is #{B != 0} + Q #{B = C = 0}, with no chi at all.  A part
    that vanishes identically is not evaluated.
    """
    import numpy as np

    parts, n_other = data
    field, (add, mul), _ = count.kernel
    q = field.order
    # None stands for a part that vanishes identically.
    parts = [part if part[0] or part[1] else None for part in parts]
    total = 0
    for c0, c1 in _chunks(0, q**n_other, field.k):
        evaluate = _evaluator(count, n_other, c0, c1)
        values = [None if part is None else evaluate(*part) for part in parts]
        c, b, minus_4a = values
        size = c1 - c0
        if minus_4a is None:
            zero_a = size
            total += 0 if b is None else int(np.count_nonzero(b))
        else:
            zero_a = size - int(np.count_nonzero(minus_4a))
            total += size - zero_a
            disc = None  # B^2 + (-4A) C, None if it vanishes identically
            for u, v in ((b, b), (minus_4a, c)):
                if v is not None:
                    disc = mul(u, v) if disc is None else add(disc, mul(u, v))
            if disc is not None:
                total += field.chi_sum(disc)
        if zero_a:
            vanish = None
            for value in values:
                if value is not None:
                    vanish = value == 0 if vanish is None else vanish & (value == 0)
            total += q * (size if vanish is None else int(np.count_nonzero(vanish)))
    return total


def _count_halves(count, sides) -> int:
    """Points of a whole block whose one equation reads g(X) = -h(Y).

    ``sides`` holds |X| with g and |Y| with -h (see _halves_split).
    With H_g[v] the number of points of X where g = v, and H_-h alike, the
    block holds sum_v H_g[v] H_-h[v] points.  Each histogram has one entry
    per element of F_Q, so it is no larger than one evaluation chunk.
    """
    import numpy as np

    field = count.kernel[0]
    q = field.order
    hists = []
    for n_side, side in sides:
        hist = np.zeros(q, dtype=np.int64)
        for c0, c1 in _chunks(0, q**n_side, field.k):
            values = _evaluator(count, n_side, c0, c1)(*side)
            hist += np.bincount(values, minlength=q)
        hists.append(hist)
    return _exact_dot(*hists)


def _exact_dot(a, b) -> int:
    """sum(a * b) for int64 arrays of counts, exact however large it is."""
    import numpy as np

    # sum(a) * max(b) bounds every partial sum of the int64 dot product.
    if int(a.sum()) * int(b.max()) <= np.iinfo(np.int64).max:
        return int(a @ b)
    return sum(map(operator.mul, a.tolist(), b.tolist()))


def _evaluator(count, n_free, c0, c1):
    """Evaluates block polynomials over F_q at the block offsets c0..c1, on count's kernel."""
    import numpy as np

    field, (add, mul), embed = count.kernel
    q, one = field.order, field.one
    offs = np.arange(c0, c1, dtype=np.int64)
    coords = [offs // q ** (n_free - 1 - t) % q for t in range(n_free)]
    powers: dict[tuple[int, int], np.ndarray] = {}

    def power(t, e):
        # Square and multiply, keeping every power formed on the way.
        if e == 1:
            return coords[t]
        if (t, e) not in powers:
            if e & 1:
                powers[t, e] = mul(power(t, e - 1), coords[t])
            else:
                half = power(t, e // 2)
                powers[t, e] = mul(half, half)
        return powers[t, e]

    def evaluate(const, terms):
        acc, const = None, embed(const)
        for scalar, free in terms:
            vec, scalar = None, embed(scalar)
            for t, e in free:
                vec = power(t, e) if vec is None else mul(vec, power(t, e))
            if scalar != one:
                vec = mul(vec, scalar)
            acc = vec if acc is None else add(acc, vec)
        if acc is None:
            return np.full(c1 - c0, const, dtype=np.int64)
        return add(acc, const) if const else acc

    return evaluate


def _fibre_split(p, poly, n_free):
    """The block polynomial as [C, B, -4A] with poly = A y^2 + B y + C, or None.

    y is a free coordinate of least degree, which must be at most 2 (at most
    1 in characteristic 2, where B^2 - 4AC says nothing); C, B, -4A are
    block polynomials in the other free coordinates, (0, ()) past y's
    degree.  A is kept as -4A, nonzero where A is for odd p, so that the
    discriminant is B^2 + (-4A) C.
    """
    const, terms = poly
    degree = [0] * n_free
    for _, free in terms:
        for t, e in free:
            degree[t] = max(degree[t], e)
    y = min(range(n_free), key=degree.__getitem__)
    if degree[y] > (1 if p == 2 else 2):
        return None
    parts = [[const, []], [0, []], [0, []]]
    for scalar, free in terms:
        power = dict(free).get(y, 0)
        if power == 2:  # -4A, so that B^2 - 4AC = B^2 + (-4A) C
            scalar = add_digits(0, scalar, p, -4)
        part = parts[power]
        rest = tuple((t - (t > y), e) for t, e in free if t != y)
        if rest:
            part[1].append((scalar, rest))
        else:
            part[0] = add_digits(part[0], scalar, p)
    return [(c, tuple(ts)) for c, ts in parts]


def _diagonal_split(poly, n_free):
    """The block polynomial as (c, ((a_i, e_i), ...), n_absent), or None.

    It reads c + sum_i a_i x_i^e_i: every term is a pure power of one free
    coordinate, and no coordinate appears in two terms.  n_absent counts
    the free coordinates absent from it.
    """
    const, terms = poly
    powers, coords = [], set()
    for scalar, free in terms:
        if len(free) != 1 or free[0][0] in coords:
            return None
        coords.add(free[0][0])
        powers.append((scalar, free[0][1]))
    return const, tuple(powers), n_free - len(coords)


def _halves_split(p, poly, n_free):
    """The block polynomial as g(X) + h(Y) = 0 on disjoint free coordinates, or None.

    X and Y are unions of the connected components of "free coordinates
    sharing a monomial", packed into the two most even sides; None means
    all free coordinates are linked.  Returns [(|X|, g), (|Y|, -h)], each a
    block polynomial in its side's coordinates, with the block's constant
    in g.
    """
    const, terms = poly
    groups = [{t} for t in range(n_free)]
    for _, free in terms:
        linked = {t for t, _ in free}
        joined = set().union(*(g for g in groups if g & linked))
        groups = [g for g in groups if not g & linked] + [joined]
    if len(groups) < 2:
        return None
    # Each reachable size of X as a union of groups, with the first such union.
    unions = {0: set()}
    for group in groups:
        for size, union in list(unions.items()):
            unions.setdefault(size + len(group), union | group)
    size = min((s for s in unions if 0 < s < n_free), key=lambda s: (abs(n_free - 2 * s), s))
    x = unions[size]
    g, minus_h = [], []
    for scalar, free in terms:
        if free[0][0] in x:
            g.append((scalar, free))
        else:
            minus_h.append((add_digits(0, scalar, p, -1), free))
    sides = []
    for coords, c, side in ((x, const, g), (set(range(n_free)) - x, 0, minus_h)):
        index = {t: i for i, t in enumerate(sorted(coords))}
        renamed = tuple((s, tuple((index[t], e) for t, e in free)) for s, free in side)
        sides.append((len(coords), (c, renamed)))
    return sides


def _block_plan(p, equations, prefix):
    """Equations as (constant, ((scalar, ((free coordinate, exponent), ...)), ...)).

    The block's fixed prefix of 0s and 1 is folded into scalars and
    constants, which takes only add_digits, so no field is built; None
    means some equation is a nonzero constant on the block.
    """
    plan = []
    j = len(prefix)
    for eq in equations:
        if not eq:
            continue
        const, terms = 0, []
        for coeff, exps in eq:
            if any(e and not fixed for e, fixed in zip(exps, prefix)):
                continue
            free = tuple((i - j, e) for i, e in enumerate(exps) if e and i >= j)
            if free:
                terms.append((coeff, free))
            else:
                const = add_digits(const, coeff, p)
        if terms:
            plan.append((const, tuple(terms)))
        elif const:
            return None
    return tuple(plan)
