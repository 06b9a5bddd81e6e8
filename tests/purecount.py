"""The pure-Python point counter: the tests' oracle for every counting strategy.

count_pure evaluates every point of a span in the order varieties._blocks
documents, one scalar at a time, with no numpy and no strategy.  Each point
forms only the powers of a coordinate that the equations name, each from the
one before times x^gap, x^gap by square-and-multiply (ExtensionField._pow),
so a high exponent costs its bit length, not its size.
"""

from __future__ import annotations

import itertools

from fqzeta.varieties import _blocks, _make_embedding


def embedded_equations(spec, field):
    """Equations with coefficients mapped into the counting field."""
    embed = _make_embedding(spec, field)
    return tuple(
        tuple((embed(coeff), exps) for coeff, exps in eq) for eq in spec.equations
    )


def _powers(field, x, exponents) -> dict:
    """{e: x^e} for the increasing positive ``exponents``, each from the one before."""
    powers, acc, prev = {}, field.one, 0
    for e in exponents:
        acc = field._mul(acc, x if e - prev == 1 else field._pow(x, e - prev))
        powers[e], prev = acc, e
    return powers


def count_pure(spec, field, equations, lo, hi) -> int:
    exponents = [set() for _ in range(spec.ambient.nvars)]
    for eq in equations:
        for _, exps in eq:
            for i, e in enumerate(exps):
                if e:
                    exponents[i].add(e)
    exponents = [sorted(es) for es in exponents]
    count = 0
    fixed = (field.zero, field.one)
    for prefix, n_free, block_lo, block_hi, _ in _blocks(spec, field.order, lo, hi):
        prefix = tuple(fixed[c] for c in prefix)
        if n_free <= 1:
            # One free coordinate may range over a huge field; stay lazy.
            points = ((t,) for t in range(field.order)) if n_free else iter([()])
        else:
            points = itertools.product(range(field.order), repeat=n_free)
        points = itertools.islice(points, block_lo, block_hi)
        for free in points:
            coords = prefix + free
            powers = [None] * len(coords)
            ok = True
            for eq in equations:
                acc = None
                for coeff, exps in eq:
                    v = coeff
                    for i, e in enumerate(exps):
                        if not e:
                            continue
                        if powers[i] is None:
                            powers[i] = _powers(field, coords[i], exponents[i])
                        v = field._mul(v, powers[i][e])
                    acc = v if acc is None else field._add(acc, v)
                if acc is not None and acc:
                    ok = False
                    break
            if ok:
                count += 1
    return count
