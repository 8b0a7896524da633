"""Brute-force reference implementations used only by the tests.

Everything here is computed from definitions by exhaustive enumeration,
independently of the package internals, so the tests can hold the two
against each other.  The one exception, :func:`h_concatenation_product`, is
the outer product's earlier route, kept through the public conversions as the
reference for the Pieri route.  :func:`det_expansion_all_permutations` is the
Jacobi-Trudi determinant's earlier loop over all n! permutations, kept as the
reference for the walk that skips permutations with a zero entry.
"""

import itertools
import math
from fractions import Fraction

from symkron.symfunc import SymFunc, convert


def brute_compositions(n, d):
    return {t for t in itertools.product(range(d + 1), repeat=n) if sum(t) == d}


def brute_partitions(d):
    levels = {0: {()}}
    for total in range(1, d + 1):
        acc = set()
        for k in range(1, total + 1):
            for rest in levels[total - k]:
                acc.add(tuple(sorted((k,) + rest, reverse=True)))
        levels[total] = acc
    return levels[d]


def brute_conjugate(lam):
    cells = {(i, j) for i, part in enumerate(lam) for j in range(part)}
    heights = {}
    for i, j in cells:
        heights[j] = heights.get(j, 0) + 1
    return tuple(heights[j] for j in range(len(heights)))


def brute_ssyt(shape, content):
    """All fillings with weakly increasing rows and strictly increasing columns."""
    entries = []
    for value, mult in enumerate(content, start=1):
        entries.extend([value] * mult)
    cells = [(i, j) for i, width in enumerate(shape) for j in range(width)]
    fillings = []
    grid = {}

    def place(k, remaining):
        if k == len(cells):
            fillings.append(dict(grid))
            return
        i, j = cells[k]
        tried = set()
        for idx, v in enumerate(remaining):
            if v in tried:
                continue
            tried.add(v)
            if j and grid[(i, j - 1)] > v:
                continue
            if i and grid[(i - 1, j)] >= v:
                continue
            grid[(i, j)] = v
            place(k + 1, remaining[:idx] + remaining[idx + 1 :])
            del grid[(i, j)]

    place(0, tuple(sorted(entries)))
    return fillings


def brute_contingency(lam, mu):
    """All margin matrices, as a set of row tuples."""
    n = len(mu)
    row_choices = [
        [t for t in itertools.product(range(r + 1), repeat=n) if sum(t) == r]
        for r in lam
    ]
    out = set()
    for rows in itertools.product(*row_choices):
        if all(sum(row[j] for row in rows) == mu[j] for j in range(n)):
            out.add(rows)
    return out


def multinomial(d, parts):
    out = math.factorial(d)
    for p in parts:
        out //= math.factorial(p)
    return out


def all_perms(d):
    return list(itertools.permutations(range(1, d + 1)))


def cycle_type_of(sigma):
    seen = [False] * len(sigma)
    lengths = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = sigma[t] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def inverse_of(sigma):
    inv = [0] * len(sigma)
    for pos, image in enumerate(sigma, start=1):
        inv[image - 1] = pos
    return tuple(inv)


def brute_character_pairing(phi, psi, d):
    """Group-averaged pairing summed over every single permutation.

    ``phi`` and ``psi`` are rows of values, one per cycle type, with the
    cycle types in reverse lexicographic order.
    """
    position = {rho: k for k, rho in enumerate(sorted(brute_partitions(d), reverse=True))}
    total = Fraction(0)
    for sigma in all_perms(d):
        a = phi[position[cycle_type_of(sigma)]]
        b = psi[position[cycle_type_of(inverse_of(sigma))]]
        total += Fraction(a * b)
    return total / math.factorial(d)


# -- polynomial expansion in finitely many variables ---------------------------
#
# A degree-d symmetric function is faithfully represented by its expansion in
# d variables; polynomials are dicts mapping exponent tuples to coefficients.


def poly_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def poly_unit(nvars):
    return {(0,) * nvars: 1}


def mono_poly(lam, nvars):
    padded = tuple(lam) + (0,) * (nvars - len(lam))
    return {exps: 1 for exps in set(itertools.permutations(padded))}


def e_poly(k, nvars):
    out = {}
    for combo in itertools.combinations(range(nvars), k):
        exps = [0] * nvars
        for i in combo:
            exps[i] = 1
        out[tuple(exps)] = 1
    return out


def h_poly(k, nvars):
    out = {}
    for combo in itertools.combinations_with_replacement(range(nvars), k):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out[tuple(exps)] = 1
    return out


def p_poly(k, nvars):
    return {tuple(k if i == j else 0 for i in range(nvars)): 1 for j in range(nvars)}


def s_poly(lam, nvars):
    """Schur expansion as the content generating function of fillings."""
    d = sum(lam)
    out = {}
    for content in itertools.product(range(d + 1), repeat=nvars):
        if sum(content) != d:
            continue
        count = len(brute_ssyt(lam, content))
        if count:
            out[content] = count
    return out


def expand_symfunc(f, nvars):
    """Polynomial expansion of a SymFunc value, reading only its public fields."""
    total = {}
    for lam, coeff in f.terms.items():
        if f.basis == "m":
            poly = mono_poly(lam, nvars)
        elif f.basis == "s":
            poly = s_poly(lam, nvars)
        else:
            factor = {"e": e_poly, "h": h_poly, "p": p_poly}[f.basis]
            poly = poly_unit(nvars)
            for k in lam:
                poly = poly_mul(poly, factor(k, nvars))
        for mono, c in poly.items():
            value = total.get(mono, Fraction(0)) + Fraction(coeff) * c
            total[mono] = value
    return {k: v for k, v in total.items() if v}


def h_concatenation_product(f, g):
    """``f * g`` in ``f``'s basis: both factors in h, where the product concatenates indices."""
    acc = {}
    for lam, a in convert(f, "h").terms.items():
        for mu, b in convert(g, "h").terms.items():
            key = tuple(sorted(lam + mu, reverse=True))
            acc[key] = acc.get(key, 0) + a * b
    return convert(SymFunc("h", f.degree + g.degree, acc), f.basis)


def det_expansion_all_permutations(parts):
    """``det(x_{parts[i] - i + j})`` with x_0 = 1, x_{<0} = 0, summed over all n! permutations.

    Maps the sorted tuple of positive indices of every permutation with no
    negative index to the sum of the signs of those permutations.
    """
    n = len(parts)
    acc = {}
    for perm in itertools.permutations(range(1, n + 1)):
        idx = [p - i - 1 + j for i, (p, j) in enumerate(zip(parts, perm))]
        if min(idx, default=0) < 0:
            continue
        sign = (-1) ** (n - len(cycle_type_of(perm)))
        key = tuple(sorted((k for k in idx if k > 0), reverse=True))
        acc[key] = acc.get(key, 0) + sign
    return {k: v for k, v in acc.items() if v}
