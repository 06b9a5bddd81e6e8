"""The pure-Python point counter: the tests' oracle for every counting strategy.

count_pure evaluates every point of a span in the order varieties._blocks
documents, one scalar at a time, with no numpy and no strategy.
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


def count_pure(spec, field, equations, lo, hi) -> int:
    max_exp = [0] * spec.ambient.nvars
    for eq in equations:
        for _, exps in eq:
            for i, e in enumerate(exps):
                max_exp[i] = max(max_exp[i], e)
    one = field.one
    count = 0
    fixed = (field.zero, one)
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
                            ps = [one]
                            for _ in range(max_exp[i]):
                                ps.append(field._mul(ps[-1], coords[i]))
                            powers[i] = ps
                        v = field._mul(v, powers[i][e])
                    acc = v if acc is None else field._add(acc, v)
                if acc is not None and acc:
                    ok = False
                    break
            if ok:
                count += 1
    return count
