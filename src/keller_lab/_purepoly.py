"""Term-dict kernels: the package's one polynomial kernel, in pure python.

A term dict maps an exponent tuple (one non-negative int per variable) to a
nonzero Fraction coefficient.  The zero polynomial is the empty dict.  Every
kernel expects canonical inputs (no zero coefficients, keys of equal length)
and returns a canonical dict.  The hot loops run on plain ints: exponent
tuples packed into one int, coefficients as integer numerators over a
shared denominator, and one Fraction built per result term.  Products,
powers, compositions, segment moments and polynomial determinants
(det_terms, which every PolyMatrix.det runs) all work this way, and all of
them multiply through the one loop of ``_convolve``.  Values at rational
points (``lattice_values``, which ``eval_terms`` runs at one point) are
integer sums over one denominator too.

The integer product and power, ``mul_ints`` and ``pow_ints``, take and
return {exponent tuple: integer} dicts with no denominator at all.
``mul_terms`` and ``pow_terms`` wrap them, and the parser calls them
directly on its numerators, so an expression builds one Fraction per term
of each finished component and none per intermediate term.

Compositions and segment moments both walk the trie of their monomials
(``_trie``), in opposite directions.  A composition needs only the sum, so
it walks the trie in post-order, a multivariate Horner scheme: each node
adds its children's suffix sums, and those shrink with depth.  Segment
moments need each monomial's own product, so ``_products`` walks forward
and builds each product from its parent's.

A composition whose x_n-fibres are dense folds x_n into the numerators
(x_n -> 2**w, one-variable Kronecker substitution), so one bigint multiply
does a whole fibre product; ``_slot_width`` bounds the slot width w, and
``_fold_width`` decides, from the inputs alone, whether folding pays.  Only
the last variable is folded: the exponent box of a simplex-dense polynomial
in all its variables is mostly empty, but its x_n-fibres are full.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterator

IMPLEMENTATION = "pure"

_ZERO = Fraction(0)


def add_terms(a: dict, b: dict) -> dict:
    """Return the term dict of a + b."""
    out = dict(a)
    for mono, coeff in b.items():
        s = out.get(mono, _ZERO) + coeff
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def sub_terms(a: dict, b: dict) -> dict:
    """Return the term dict of a - b."""
    out = dict(a)
    for mono, coeff in b.items():
        s = out.get(mono, _ZERO) - coeff
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def scale_terms(c: Fraction, a: dict) -> dict:
    """Return the term dict of c * a for a scalar c."""
    if not c:
        return {}
    return {mono: c * coeff for mono, coeff in a.items()}


def _degree(a: dict) -> int:
    return max(sum(mono) for mono in a)


def _numerators(a: dict, den: int) -> dict:
    """{exponent tuple: integer numerator} of a over den, a multiple of
    each of a's denominators."""
    return {mono: coeff.numerator * (den // coeff.denominator)
            for mono, coeff in a.items()}


def _denominator(a: dict) -> int:
    """The LCM of a's denominators."""
    # lcm gets a list, never a generator: unpacking a generator into a call
    # builds its argument tuple by resizing, and every call then leaves one
    # more tuple on the interpreter's tuple free list, so memory crept up
    # with each compose
    return lcm(*[coeff.denominator for coeff in a.values()])


def terms_over(nums: dict, den: int) -> dict:
    """The term dict of {exponent tuple: nonzero integer numerator} over
    den: one Fraction per term."""
    if den == 1:
        return {mono: Fraction(num) for mono, num in nums.items()}
    return {mono: Fraction(num, den) for mono, num in nums.items()}


def _packed(nums: dict, base: int) -> dict:
    """{packed exponent: numerator} of an integer-numerator dict."""
    out = {}
    for mono, num in nums.items():
        key = 0
        for e in mono:
            key = key * base + e
        out[key] = num
    return out


def _convolve(big: dict, small: dict, acc: dict | None = None) -> dict:
    """Product of two packed dicts, summed into acc (a new dict by default);
    it may hold zero numerators.

    The caller's packing base must exceed the product's total degree, so
    that adding two keys never carries from one exponent slot into the next.
    """
    if acc is None:
        acc = {}
    get = acc.get
    for key_s, num_s in small.items():
        for key_b, num_b in big.items():
            key = key_b + key_s
            acc[key] = get(key, 0) + num_b * num_s
    return acc


def _unpacked(packed: dict, base: int, n: int) -> dict:
    """{exponent tuple: numerator} of a packed dict, zeros dropped."""
    out: dict = {}
    for key, num in packed.items():
        if not num:
            continue
        mono = [0] * n
        for i in range(n - 1, -1, -1):
            key, mono[i] = divmod(key, base)
        out[tuple(mono)] = num
    return out


def _folded(packed: dict, base: int, width: int) -> dict:
    """Fold the last base-digit of every packed key into its numerator, as
    the slot of ``width`` bits that x_n -> 2**width gives it.

    A folded key holds x_1..x_{n-1} (the key divided by base) and its value
    a whole x_n-fibre, so multiplying two values multiplies the fibres.  The
    map is a ring map: sums and products of folded dicts are the folded sums
    and products, whatever sizes their slots reach on the way.
    """
    out: dict = {}
    get = out.get
    for key, num in packed.items():
        head, e = divmod(key, base)
        out[head] = get(head, 0) + (num << (width * e))
    return out


def _unfolded(folded: dict, base: int, width: int) -> dict:
    """The packed dict of a folded one whose every coefficient is below
    2**(width - 1) in absolute value: each slot is read as a balanced
    residue, lowest slot first.  Zero slots are left out.

    A run of zero slots is skipped in one shift, so a long fibre with few
    terms, such as the one term y^38000 of y^38 under y -> y^1000, costs
    one pass over the value per term, not one per slot.
    """
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = {}
    for head, value in folded.items():
        key = head * base
        while value:
            num = value & mask
            if not num:
                zeros = ((value & -value).bit_length() - 1) // width
                value >>= width * zeros
                key += zeros
                continue
            if num >= half:
                num -= mask + 1
            out[key] = num
            value = (value - num) >> width
            key += 1
    return out


def _slot_width(top: int, shared: int, packed: list, deg: int) -> int:
    """A slot width that holds every coefficient of a composition's
    numerator as a balanced residue.

    Each such coefficient is at most ``top * M**deg`` in absolute value,
    where top is the sum of the outer's absolute scaled numerators c'_v and
    M the larger of D (``shared``) and every component's sum of absolute
    numerators over D; two bits above that bound's length leave room for
    the sign.
    """
    norm = max([shared] + [sum(map(abs, g.values())) for g in packed])
    return (top * norm ** deg).bit_length() + 2


def _fold_width(scaled: dict, shared: int, packed: list, deg: int,
                inner_deg: int, base: int) -> int:
    """The slot width at which ``compose_terms`` folds x_n, or 0 to leave
    the packed keys as they are; ``scaled`` holds the outer's numerators
    c'_v.

    Folding pays when the fibres are long enough to hand C's bigint
    multiply real work (a result degree of at least 6), the terms of the
    components that the outer uses fill at least half of the slots that
    their fibres span, from x_n^0 to each fibre's top power, and the slots
    stay narrow (at most 400 bits).  A one-term component counts its slots
    but not its term: multiplying by it only shifts the other factor, so it
    gives C's multiply no fibre product to do.  The checks run cheapest
    first: sparse maps stop before the width's power is taken.
    """
    if deg * inner_deg < 6:
        return 0
    terms = spanned = 0
    for g, exponents in zip(packed, zip(*scaled)):
        if not any(exponents):  # a component the outer never uses
            continue
        tops: dict = {}
        for key in g:
            head, e = divmod(key, base)
            if e >= tops.get(head, 0):
                tops[head] = e + 1
        if len(g) > 1:
            terms += len(g)
        spanned += sum(tops.values())
    if 2 * terms < spanned:
        return 0
    width = _slot_width(sum(map(abs, scaled.values())), shared, packed, deg)
    return width if width <= 400 else 0


def mul_ints(a: dict, b: dict) -> dict:
    """Product of two {exponent tuple: integer} dicts, zeros dropped
    (schoolbook convolution on plain ints).

    Each exponent tuple is packed into one int, its digits in base
    ``deg(a) + deg(b) + 1``.  The base exceeds the product's total degree,
    hence every exponent of the product, so adding two packed keys never
    carries from one slot into the next and packed sums are exactly the
    packed exponent sums.  Keys are unpacked once at the end.  A one-term
    operand c x^e only scales and shifts the other's terms, so it is
    applied directly, with no packing.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):  # iterate the smaller operand outside
        a, b = b, a
    if len(a) == 1:
        (shift, c), = a.items()
        if not any(shift):
            return {mono: num * c for mono, num in b.items()}
        return {tuple(map(add, mono, shift)): num * c
                for mono, num in b.items()}
    n = len(next(iter(a)))
    base = _degree(a) + _degree(b) + 1
    return _unpacked(_convolve(_packed(b, base), _packed(a, base)), base, n)


def mul_terms(a: dict, b: dict) -> dict:
    """Return the term dict of a * b: ``mul_ints`` of the operands'
    integer numerators, each over the LCM of its own denominators, and one
    canonical Fraction per product term, over the product of those LCMs."""
    if not a or not b:
        return {}
    da, db = _denominator(a), _denominator(b)
    return terms_over(mul_ints(_numerators(a, da), _numerators(b, db)),
                      da * db)


def pow_ints(a: dict, k: int, n: int) -> dict:
    """a**k (k >= 0) for an {exponent tuple: integer} dict a in n
    variables.

    A one-term operand c x^e gives c**k x^(k e) directly.  Otherwise,
    iterated multiplication beats binary powering here: simplex-dense
    operands make big*small products cheaper than big*big squarings.  The
    operand is packed once, in base ``k * deg(a) + 1``, which exceeds the
    degree of every partial power.
    """
    if k < 0:
        raise ValueError("negative exponent")
    if k == 0:
        return {(0,) * n: 1}
    if not a:
        return {}
    if len(a) == 1:
        (mono, num), = a.items()
        return {tuple(k * e for e in mono): num ** k}
    base = k * _degree(a) + 1
    terms = _packed(a, base)
    out = terms
    for _ in range(k - 1):
        out = _convolve(out, terms)
    return _unpacked(out, base, n)


def pow_terms(a: dict, k: int, n: int) -> dict:
    """Return the term dict of a**k (k >= 0); n is the variable count:
    ``pow_ints`` of a's integer numerators over den, then one Fraction per
    term over den**k."""
    den = _denominator(a)
    return terms_over(pow_ints(_numerators(a, den), k, n), den ** k)


def _trie(monos) -> dict:
    """The trie of the monomials of monos: {node: [(child, i), ...]}.

    ``monos`` is a dict or set of exponent tuples of one length.  The parent
    of a monomial is the same monomial with its last nonzero exponent
    lowered by one, so child = node + e_i, and every monomial reaches the
    root (all zeros) through its parents.  Nodes without children have no
    entry; every such node is a monomial of monos.
    """
    children: dict = {}
    placed = set()
    for mono in monos:
        while mono not in placed and any(mono):
            placed.add(mono)
            last = max(i for i, e in enumerate(mono) if e)
            parent = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
            children.setdefault(parent, []).append((mono, last))
            mono = parent
    return children


def _products(monos, packed: list) -> Iterator[tuple[tuple, dict]]:
    """Yield (m, product of packed[i]**m[i]) for every monomial m of monos.

    The forward walk of ``_trie(monos)``, which segment moments use, since
    they need each monomial's own product: each product is its parent's
    product times one packed factor, a big*small convolution.  The trie is
    walked depth first with an explicit stack (a degree-1500 monomial must
    not recurse 1500 deep), and only the products on the path from the root
    are kept alive.  The caller's packing base must exceed every product's
    degree.  A yielded product may hold zero numerators and must not be
    mutated: its children are built from it.
    """
    children = _trie(monos)
    root = (0,) * len(packed)
    one = {0: 1}
    if root in monos:
        yield root, one
    stack = [(one, children[root])] if root in children else []
    while stack:
        product, todo = stack[-1]
        child, i = todo.pop()
        if not todo:  # the parent's last child: its product can go
            stack.pop()
        product = _convolve(product, packed[i])
        if child in monos:
            yield child, product
        kids = children.get(child)
        if kids:
            stack.append((product, kids))


def compose_terms(outer: dict, components: list, n: int) -> dict:
    """Term dict of outer with x_i replaced by components[i], expanded.

    ``components`` holds one term dict in n variables per variable of
    ``outer``.  The sum ``sum c * prod g_i**e_i`` is built in one Horner
    walk (a multivariate Horner scheme) on plain ints:

    * Every component is packed once, in base ``deg(outer) * deg(inner) + 1``
      (inner degree at least 1), which exceeds the degree of every partial
      sum, and scaled to an integer numerator ``G_i`` over ``D``, the LCM
      of all the components' denominators.
    * Each node v of ``_trie(outer)`` gets one int-keyed accumulator, the
      suffix sum ``T(v) = c'_v * D**(deg - |v|) + sum G_i * T(child)`` over
      its (child, i) pairs, where ``c'_v = c.numerator * (Q / c.denominator)``
      for an outer monomial v with coefficient c, and 0 for any other node;
      ``Q`` is the LCM of outer's denominators.  Then T(root) over
      ``Q * D**deg`` is the composition.
    * One variable can ride in the numerators (a one-variable Kronecker
      substitution): ``_folded`` maps x_n to 2**w, so each key keeps
      x_1..x_{n-1} and each value holds a whole x_n-fibre in signed slots
      of w bits, and multiplying two values, in C's bigint multiply, is
      the fibre product.  The walk runs unchanged on the folded dicts, and
      ``_unfolded`` reads the slots back before the keys are unpacked.  The
      width w (``_slot_width``) exceeds the bound ``top * M**deg`` on every
      coefficient of T(root) by two bits, with top the sum of the |c'_v|
      and M the larger of D and every sum of |G_i|'s numerators, so the
      balanced residues decode exactly; intermediate sums may overflow
      their slots, since x_n -> 2**w is a ring map.  ``_fold_width``
      decides from the inputs alone: it folds when the result degree
      ``deg * deg(inner)`` is at least 6, w is at most 400 bits and the
      terms of the components that the outer uses fill at least half of
      the slots their fibres span; sparse fibres and wide coefficients
      keep the plain keys.
    * The trie is walked in post-order with an explicit stack of (node
      accumulator, children left, edge factor) frames, so a degree-1500
      chain does not recurse.  A finished child's sum is convolved with its
      ``G_i`` straight into the parent's accumulator, and a childless node
      adds ``c' * G_i`` there without a frame.  Suffix sums shrink with
      depth, where the forward walk's products grow, so dense outers (shift
      maps) take far fewer multiply-adds.  Slots are unfolded, keys
      unpacked and Fractions built once at the end.
    """
    if not outer:
        return {}
    deg = _degree(outer)
    inner_deg = max((_degree(g) for g in components if g), default=0)
    base = deg * max(inner_deg, 1) + 1
    shared = lcm(*[c.denominator for g in components for c in g.values()])
    packed = [_packed(_numerators(g, shared), base) for g in components]
    q = lcm(*[coeff.denominator for coeff in outer.values()])
    shared_pows = [shared ** k for k in range(deg + 1)]
    scaled = {mono: coeff.numerator * (q // coeff.denominator)
              for mono, coeff in outer.items()}
    width = _fold_width(scaled, shared, packed, deg, inner_deg, base)
    if width:
        packed = [_folded(g, base, width) for g in packed]

    def own(mono):
        """A fresh accumulator holding c'_v * D**(deg - |v|)."""
        num = scaled.get(mono)
        if num is None:
            return {}
        return {0: num * shared_pows[deg - sum(mono)]}

    children = _trie(outer)
    root = (0,) * len(components)
    acc, todo, edge = own(root), children.get(root, []), None
    stack = []
    while True:
        if todo:
            child, i = todo.pop()
            kids = children.get(child)
            if kids:
                stack.append((acc, todo, edge))
                acc, todo, edge = own(child), kids, i
            else:
                _convolve(packed[i], own(child), acc)
        elif stack:
            done, i = acc, edge
            acc, todo, edge = stack.pop()
            _convolve(done, packed[i], acc)
        else:
            if width:
                acc = _unfolded(acc, base, width)
            return terms_over(_unpacked(acc, base, n), q * shared_pows[deg])


def det_terms(rows: list, n: int) -> dict:
    """Term dict of the determinant of a square matrix of term dicts.

    ``rows`` holds k rows of k term dicts in n variables.  A Laplace
    expansion down the rows, its minors memoised by column subset, runs on
    plain ints, and no polynomial is ever divided; a k x k determinant
    takes at most k * 2^(k-1) products of one entry with one minor:

    * Every entry is packed once, in base ``1 + (the sum of the row
      degrees)`` (at least 2), which exceeds the degree of every minor, and
      scaled to integer numerators over ``D``, the LCM of all the entries'
      denominators.
    * The minors of the last rows are keyed by the bit mask of their
      columns.  Each row above extends every nonzero minor by each unused
      column whose entry is nonzero: ``_convolve`` multiplies the minor by
      the entry, its cofactor sign folded in, and sums the product in place
      into the one int dict of the extended mask.  Zero numerators and
      empty minors are dropped after each row.
    * The full minor is unpacked once, over ``D**k``.
    """
    base = max(2, 1 + sum(max((_degree(p) for p in row if p), default=0)
                          for row in rows))
    den = lcm(*[c.denominator for row in rows for p in row
                for c in p.values()])
    packed = []
    for row in rows:
        entries = []
        for j, p in enumerate(row):
            if p:
                terms = _packed(_numerators(p, den), base)
                entries.append((1 << j, terms,
                                {key: -num for key, num in terms.items()}))
        packed.append(entries)

    minors = {bit: terms for bit, terms, _ in packed[-1]}
    for entries in reversed(packed[:-1]):
        sums: dict = {}
        for mask, minor in minors.items():
            for bit, plus, minus in entries:
                if mask & bit:
                    continue
                # the cofactor sign counts the used columns left of bit
                entry = minus if (mask & (bit - 1)).bit_count() & 1 else plus
                _convolve(minor, entry, sums.setdefault(mask | bit, {}))
        minors = {}
        for mask, acc in sums.items():
            acc = {key: num for key, num in acc.items() if num}
            if acc:
                minors[mask] = acc
    full = minors.get((1 << len(rows)) - 1, {})
    return terms_over(_unpacked(full, base, n), den ** len(rows))


def segment_moments(monos, start: tuple, end: tuple) -> tuple[dict, int]:
    """Integrals of monomials along the segment from start to end.

    Returns ``({m: numerator}, unit)`` where numerator / unit is the moment
    ``M(m) = integral over [0, 1] of prod_k (a_k + t(b_k - a_k))**m_k dt``
    for every monomial m of ``monos`` (a dict or set of exponent tuples,
    one slot per coordinate of the rational points start = a, end = b).
    All moments share the one unit ``lcm(1..d+1) * D**d``, where d is the
    largest degree among ``monos`` and D the LCM of the line's
    denominators.  The line's factors ``a_k + (b_k - a_k) t`` are scaled to
    integers over D; one trie walk (``_products``) builds each monomial's
    univariate product in t from its parent's, and ``c_j t^j`` integrates
    to ``c_j * (lcm(1..d+1) / (j+1))`` on ints.
    """
    if not monos:
        return {}, 1
    deg = _degree(monos)
    line = [{k: c for k, c in ((0, a), (1, b - a)) if c}
            for a, b in zip(start, end)]
    den = lcm(*[c.denominator for g in line for c in g.values()])
    # a univariate packed key is the exponent of t itself
    packed = [{k: c.numerator * (den // c.denominator) for k, c in g.items()}
              for g in line]
    unit_t = lcm(*range(1, deg + 2))
    weights = [unit_t // (j + 1) for j in range(deg + 1)]
    den_pows = [den ** k for k in range(deg + 1)]
    out = {}
    for mono, product in _products(monos, packed):
        total = sum(num * weights[j] for j, num in product.items())
        out[mono] = total * den_pows[deg - sum(mono)]
    return out, unit_t * den_pows[deg]


def lattice_values(terms: dict, points: list[tuple[int, ...]], unit: int
                   ) -> tuple[list[int], int]:
    """The term dict at every point X / unit, as integers over one
    denominator: the package's one exact real evaluator.

    With d the total degree and q the lcm of the denominators, each term
    c x^e is scaled to the integer c * q * unit^(d - |e|), so the sum at an
    integer point X is p(X / unit) * q * unit^d.  The caller bounds the
    scale unit^d.
    """
    degree = max(map(sum, terms), default=0)
    q = lcm(*[c.denominator for c in terms.values()])
    # a term keeps its nonzero exponents as (slot, exponent) pairs, so no
    # point pays for the x^0 factors
    scaled = [(c.numerator * (q // c.denominator)
               * unit ** (degree - sum(mono)),
               [(i, e) for i, e in enumerate(mono) if e])
              for mono, c in terms.items()]
    values = []
    for point in points:
        total = 0
        for c, factors in scaled:
            for i, e in factors:
                c *= point[i] ** e
            total += c
        values.append(total)
    return values, q * unit ** degree


def eval_terms(a: dict, point: tuple) -> Fraction:
    """Evaluate the term dict at a rational point (exact): lattice_values
    at the one point, over the lcm of its denominators."""
    unit = lcm(*[x.denominator for x in point])
    (value,), den = lattice_values(
        a, [tuple(x.numerator * (unit // x.denominator) for x in point)], unit)
    return Fraction(value, den)
