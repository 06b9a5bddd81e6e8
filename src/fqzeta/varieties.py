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

count_points plans the whole count once, with no field built (_plan).  Each
block (one position of the leading 1) is planned over F_q itself: folding
the fixed 0s and 1 into the equations decides that a block is empty or
wholly on the variety, and every other block gets one of four strategies:

* by roots, for a block wholly inside ``span`` with one free coordinate y,
  whatever the number of equations.  With g the gcd of their polynomials
  in y over F_q, the block holds deg gcd(g, y^(q^n) - y) points, since
  y^(q^n) - y is squarefree and vanishes exactly on F_{q^n}, and F_{q^n}
  is never built.  y^(q^n) mod g is the q-th power of y^(q^(n-1)) mod g,
  so the spec keeps, for each g, the highest such power computed so far
  (VarietySpec._frobenius), and a series takes one q-th power per term.
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

Of the last three, a block takes the one that evaluates the fewest points,
ties going first to fibres, then to halves.  A partial block is always
counted directly, so partitions of a span cross-check the strategies.
The half of the plan that no n changes, each block's polynomials and their
fibre and halves splits, is derived once per spec and kept with it
(VarietySpec._block_plans), so every term of a series reuses it.
count_points then runs the plan.  Only the last three build F_{q^n}, once
for all their blocks, embed their planned scalars in it and evaluate with
its vectorized kernel (ExtensionField.vector_ops) on chunks of int64
scalars.  The tests keep a pure-Python counter that evaluates every point
as the oracle for all four.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceededError, MalformedSpecError, NotPrimeError
from .fields import (
    _CHUNK,
    ExtensionField,
    _chunks,
    _fq_frobenius_gcd,
    _fq_gcd,
    _fq_powmod,
    add_digits,
    check_characteristic,
    from_digits,
    make_extension,
    to_digits,
)

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
    """Equations over F_{p^k} cutting out a closed subset of the ambient space."""

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

        Maps each block's prefix (see _blocks) to (polys, fibre parts,
        halves sides): its _block_plan and, for a one-equation spec and two
        or more free coordinates, its _fibre_split and _halves_split, else
        None.  Every count_points of a series reuses it.
        """
        plans = {}
        for prefix, n_free in _shapes(self.ambient):
            polys = _block_plan(self.p, self.equations, prefix)
            parts = sides = None
            if polys and n_free > 1 and len(self.equations) == 1:
                parts = _fibre_split(self.p, polys[0], n_free)
                sides = _halves_split(self.p, polys[0], n_free)
            plans[prefix] = polys, parts, sides
        return plans

    @cached_property
    def _frobenius(self) -> dict:
        """The spec's Frobenius chain: g -> (q^m, y^(q^m) mod g), filled by _count_roots.

        Keyed by g, not by block: reducing exponents mod q^n - 1 can give a
        block a different g at small n.  Each entry holds the largest q^m
        counted so far, so the next term of a series starts from it.  Every
        entry is exact, so two threads that race there lose work, never a
        count.
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
    order = spec.q**n
    count, jobs = 0, []
    for job in _plan(spec, order, lo, hi):
        _, counter, polys, args = job
        if counter is None:
            count += args[0]
        elif counter is _count_roots:
            count += _count_roots(make_extension(spec.p, spec.k), polys, order, *args)
        else:
            jobs.append(job)
    if jobs:
        field = make_extension(spec.p, spec.k * n)
        embed = _make_embedding(spec, field)
        ops = field.vector_ops()
        for _, counter, polys, args in jobs:
            embedded = [(embed(c), [(embed(s), free) for s, free in terms]) for c, terms in polys]
            count += counter(field, ops, embedded, *args)
    return count


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


def _make_embedding(spec: VarietySpec, field: ExtensionField):
    if spec.k == 1:
        return field.element
    if field.k == spec.k:
        return lambda scalar: scalar
    # Map the base generator to the first root, in scalar order, of the base
    # modulus in the larger field; a root exists because k divides field.k.
    base = make_extension(spec.p, spec.k)
    return base.embedding(field, _first_root(base.modulus, field))


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


def _plan(spec: VarietySpec, order: int, lo: int, hi: int):
    """(points, counter, polys, args) for each block meeting lo..hi; builds no field.

    counter(field, ops, polys, *args) counts a block from its polynomials
    over F_q (see _block_plan), scalars embedded in field = F_order, by
    evaluating ``points`` points.  _count_roots runs over F_q instead and
    evaluates none.  An empty or whole block has no counter; args holds the
    points it adds.  The embedding into F_order is injective and additive,
    so every choice made over F_q holds over F_order.
    """
    for prefix, n_free, block_lo, block_hi, whole in _blocks(spec, order, lo, hi):
        polys, parts, sides = spec._block_plans[prefix]
        if not polys:
            yield 0, None, polys, (0 if polys is None else block_hi - block_lo,)
            continue
        if n_free == 1 and whole:
            yield 0, _count_roots, polys, (spec._frobenius,)
            continue
        # Fewest points first, ties to the earliest.  A partial block stays
        # on the direct path, so partitions of a span cross-check the
        # strategies.
        options = []
        if whole and parts is not None:
            options.append((order ** (n_free - 1), _count_fibres, parts, (n_free - 1,)))
        if whole and sides is not None and order <= _CHUNK:
            sizes, halves = zip(*sides)
            options.append((sum(order**m for m in sizes), _count_halves, halves, (sizes,)))
        options.append((block_hi - block_lo, _count_direct, polys, (n_free, block_lo, block_hi)))
        yield min(options, key=lambda option: option[0])


def _count_roots(field, plan, order, frobenius) -> int:
    """Points of a whole block with one free coordinate y, over F_order.

    ``plan`` is the block's plan over ``field`` = F_q, a subfield of F_order.
    With g the gcd of its equations' polynomials in y, the count is
    deg gcd(g, y^order - y): y^order - y is squarefree and vanishes exactly
    on F_order (g = 0 means every y is a point).  An exponent e >= order
    becomes ((e - 1) mod (order - 1)) + 1, which gives the same power of
    every y in F_order, so g has degree below order.

    ``frobenius`` is the spec's Frobenius chain (VarietySpec._frobenius):
    it maps g to (q^m, y^(q^m) mod g) for the largest q^m counted so far.
    If q^m <= order, y^order mod g is reached from it by q-th powers,
    y^(q^i) = (y^(q^(i-1)))^q, so a series N_1..N_B takes one q-th power
    per term; otherwise y^order mod g takes log2(order) squarings from y.
    """
    zero = field.zero
    g = []
    for const, terms in plan:
        poly = [const]
        for scalar, ((_, e),) in terms:
            if e >= order:
                e = (e - 1) % (order - 1) + 1
            poly += [zero] * (e + 1 - len(poly))
            poly[e] = field._add(poly[e], scalar)
        g = _fq_gcd(g, poly, field)
    if not g:
        return order
    key = tuple(g)
    stored = frobenius.get(key)
    if stored is not None and stored[0] <= order:
        known, power = stored
        while known < order:
            power = _fq_powmod(power, field.order, g, field)
            known *= field.order
        frobenius[key] = order, power
    else:
        power = _fq_powmod([zero, field.one], order, g, field)
        if stored is None:
            frobenius[key] = order, power
    return len(_fq_frobenius_gcd(g, power, field)) - 1


def _count_direct(field, ops, plan, n_free, block_lo, block_hi) -> int:
    """Points of the block offsets block_lo..block_hi where every equation vanishes."""
    count = 0
    for c0, c1 in _chunks(block_lo, block_hi, field.k):
        evaluate = _evaluator(field, ops, n_free, c0, c1)
        alive = None
        for const, terms in plan:
            zero = evaluate(const, terms) == 0
            alive = zero if alive is None else alive & zero
            if not alive.any():
                break
        count += int(alive.sum())
    return count


def _count_fibres(field, ops, parts, n_other) -> int:
    """Points of a whole block whose one equation reads A y^2 + B y + C.

    ``parts`` holds C, B, -4A (as far as y occurs; see _fibre_split) over
    the other n_other free coordinates.  Each of their Q^n_other points is
    the fibre of Q values of y, and with D = B^2 - 4AC it holds
    1 + chi(D) - [A = 0] + Q [A = B = C = 0] points, where chi is the
    quadratic character and chi(0) = 0: 1 + chi(D) if A != 0 (p odd), and
    if A = 0, so that D = B^2, one if B != 0, Q if B = C = 0 and none
    otherwise.  A chunk of M points thus holds
    M + sum chi(D) - #{A = 0} + Q #{A = B = C = 0}: one chi sum
    (ExtensionField.chi_sum).  Where A vanishes identically, as always for
    p = 2, that is #{B != 0} + Q #{B = C = 0}, with no chi at all.  A part
    that vanishes identically is not evaluated.
    """
    import numpy as np

    add, mul = ops
    q = field.order
    # None stands for a part that vanishes identically or lies past y's degree.
    parts = [part if part[0] or part[1] else None for part in parts]
    parts += [None] * (3 - len(parts))
    count = 0
    for c0, c1 in _chunks(0, q**n_other, field.k):
        evaluate = _evaluator(field, ops, n_other, c0, c1)
        values = [None if part is None else evaluate(*part) for part in parts]
        c, b, minus_4a = values
        size = c1 - c0
        if minus_4a is None:
            zero_a = size
            count += 0 if b is None else int(np.count_nonzero(b))
        else:
            zero_a = size - int(np.count_nonzero(minus_4a))
            count += size - zero_a
            disc = None  # B^2 + (-4A) C, None if it vanishes identically
            for u, v in ((b, b), (minus_4a, c)):
                if v is not None:
                    disc = mul(u, v) if disc is None else add(disc, mul(u, v))
            if disc is not None:
                count += field.chi_sum(disc)
        if zero_a:
            vanish = None
            for value in values:
                if value is not None:
                    vanish = value == 0 if vanish is None else vanish & (value == 0)
            count += q * (size if vanish is None else int(np.count_nonzero(vanish)))
    return count


def _count_halves(field, ops, sides, sizes) -> int:
    """Points of a whole block whose one equation reads g(X) = -h(Y).

    ``sides`` holds g and -h, and ``sizes`` |X| and |Y| (see _halves_split).
    With H_g[v] the number of points of X where g = v, and H_-h alike, the
    block holds sum_v H_g[v] H_-h[v] points.  Each histogram has one entry
    per element of F_Q, so it is no larger than one evaluation chunk.
    """
    import numpy as np

    q = field.order
    hists = []
    for n_side, (const, terms) in zip(sizes, sides):
        hist = np.zeros(q, dtype=np.int64)
        for c0, c1 in _chunks(0, q**n_side, field.k):
            values = _evaluator(field, ops, n_side, c0, c1)(const, terms)
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


def _evaluator(field, ops, n_free, c0, c1):
    """Evaluates block polynomials, scalars of ``field``, at the block offsets c0..c1."""
    import numpy as np

    add, mul = ops
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
        acc = None
        for scalar, free in terms:
            vec = None
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
    block polynomials in the other free coordinates, listed up to y's
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
    parts = [[const, []]] + [[0, []] for _ in range(degree[y])]
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
    """Equations as (constant, [(scalar, ((free coordinate, exponent), ...))]).

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
            plan.append((const, terms))
        elif const:
            return None
    return plan
