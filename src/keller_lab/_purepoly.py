"""Term-dict kernels: the package's one polynomial kernel, in pure python.

A term dict maps an exponent tuple (one non-negative int per variable) to a
nonzero Fraction coefficient.  The zero polynomial is the empty dict.  Every
kernel expects canonical inputs (no zero coefficients, keys of equal length)
and returns a canonical dict.  The hot loops run on plain ints: exponent
tuples packed into one int, coefficients as integer numerators over a
shared denominator, and one Fraction built per result term.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _packed(a: dict, base: int) -> tuple[dict, int]:
    """{packed exponent: integer numerator} over a's LCM denominator."""
    # lcm gets a list, never a generator: unpacking a generator into a call
    # builds its argument tuple by resizing, and every call then leaves one
    # more tuple on the interpreter's tuple free list, so memory crept up
    # with each compose
    den = lcm(*[coeff.denominator for coeff in a.values()])
    out = {}
    for mono, coeff in a.items():
        key = 0
        for e in mono:
            key = key * base + e
        out[key] = coeff.numerator * (den // coeff.denominator)
    return out, den


def _convolve(big: dict, small: dict) -> dict:
    """Product of two packed dicts; it may hold zero numerators.

    The caller's packing base must exceed the product's total degree, so
    that adding two keys never carries from one exponent slot into the next.
    """
    acc: dict = {}
    get = acc.get
    for key_s, num_s in small.items():
        for key_b, num_b in big.items():
            key = key_b + key_s
            acc[key] = get(key, 0) + num_b * num_s
    return acc


def _unpacked(packed: dict, base: int, n: int, den: int) -> dict:
    """Term dict of a packed dict over den, zeros dropped: one Fraction per
    term."""
    out: dict = {}
    for key, num in packed.items():
        if not num:
            continue
        mono = [0] * n
        for i in range(n - 1, -1, -1):
            key, mono[i] = divmod(key, base)
        out[tuple(mono)] = Fraction(num, den)
    return out


def mul_terms(a: dict, b: dict) -> dict:
    """Return the term dict of a * b (schoolbook convolution).

    The convolution runs on plain ints, with no Fraction built per
    multiply-add:

    * Packing: each exponent tuple becomes one int, its digits in base
      ``deg(a) + deg(b) + 1``.  The base exceeds the product's total degree,
      hence every exponent of the product, so adding two packed keys never
      carries from one slot into the next and packed sums are exactly the
      packed exponent sums.
    * Shared denominators: each operand is scaled to integer numerators over
      the LCM of its own denominators, ``da`` and ``db``.  Every coefficient
      of the product is then an integer sum divided by ``da * db``.

    Keys are unpacked once at the end, zero sums are dropped, and each
    coefficient is reduced to a canonical Fraction.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):  # iterate the smaller operand outside
        a, b = b, a
    n = len(next(iter(a)))
    base = _degree(a) + _degree(b) + 1
    terms_a, da = _packed(a, base)
    terms_b, db = _packed(b, base)
    return _unpacked(_convolve(terms_b, terms_a), base, n, da * db)


def pow_terms(a: dict, k: int, n: int) -> dict:
    """Return the term dict of a**k (k >= 0); n is the variable count.

    Iterated multiplication beats binary powering here: simplex-dense
    operands make big*small products cheaper than big*big squarings.  The
    operand is packed once, in base ``k * deg(a) + 1``, which exceeds the
    degree of every partial power.
    """
    if k < 0:
        raise ValueError("negative exponent")
    if k == 0:
        return {(0,) * n: Fraction(1)}
    if not a:
        return {}
    base = k * _degree(a) + 1
    terms, den = _packed(a, base)
    out = terms
    for _ in range(k - 1):
        out = _convolve(out, terms)
    return _unpacked(out, base, n, den ** k)


def compose_terms(outer: dict, components: list, n: int) -> dict:
    """Term dict of outer with x_i replaced by components[i], expanded.

    ``components`` holds one term dict in n variables per variable of
    ``outer``.  The sum ``sum c * prod g_i**e_i`` is built in one pass on
    plain ints:

    * Every component is packed once, in base ``deg(outer) * deg(inner) + 1``
      (inner degree at least 1), which exceeds the degree of every partial
      product, and scaled to integer numerators over ``D``, the LCM of all
      the components' denominators.
    * The outer monomials form a trie: the parent of a monomial is the same
      monomial with its last nonzero exponent lowered by one, so each
      product is its parent's product times one packed component, a
      big*small convolution.  The trie is walked depth first with an
      explicit stack (a degree-1500 outer must not recurse 1500 deep), and
      only the products on the path from the root are kept alive.
    * Each product is added, scaled by ``c.numerator * (Q / c.denominator)
      * D**(deg - |m|)``, into one int-keyed accumulator over the shared
      denominator ``Q * D**deg``, where ``Q`` is the LCM of outer's
      denominators.  Keys are unpacked and Fractions built once at the end.
    """
    if not outer:
        return {}
    deg = _degree(outer)
    inner_deg = max((_degree(g) for g in components if g), default=0)
    base = deg * max(inner_deg, 1) + 1
    packs = [_packed(g, base) for g in components]
    shared = lcm(*[den for _, den in packs])
    packed = [{key: num * (shared // den) for key, num in terms.items()}
              for terms, den in packs]
    q = lcm(*[coeff.denominator for coeff in outer.values()])
    shared_pows = [shared ** k for k in range(deg + 1)]

    # children[m]: (child, i) pairs with child = m + e_i in the trie
    children: dict = {}
    placed = set()
    for mono in outer:
        while mono not in placed and any(mono):
            placed.add(mono)
            last = max(i for i, e in enumerate(mono) if e)
            parent = mono[:last] + (mono[last] - 1,) + mono[last + 1:]
            children.setdefault(parent, []).append((mono, last))
            mono = parent

    acc: dict = {}
    get = acc.get

    def add(mono: tuple, product: dict) -> None:
        coeff = outer.get(mono)
        if coeff is None:
            return
        s = (coeff.numerator * (q // coeff.denominator)
             * shared_pows[deg - sum(mono)])
        for key, num in product.items():
            acc[key] = get(key, 0) + s * num

    root = (0,) * len(components)
    one = {0: 1}
    add(root, one)
    stack = [(one, children[root])] if root in children else []
    while stack:
        product, todo = stack[-1]
        child, i = todo.pop()
        if not todo:  # the parent's last child: its product can go
            stack.pop()
        product = _convolve(product, packed[i])
        add(child, product)
        kids = children.get(child)
        if kids:
            stack.append((product, kids))
    return _unpacked(acc, base, n, q * shared_pows[deg])


def eval_terms(a: dict, point: tuple) -> Fraction:
    """Evaluate the term dict at a point (exact).

    The sum is kept as one integer numerator over one integer denominator,
    reduced by their gcd after each term, and one Fraction is built at the
    end.  Each coordinate's powers are cached as (numerator**e,
    denominator**e) pairs.
    """
    caches: list[dict] = [{} for _ in point]
    acc_num, acc_den = 0, 1
    for mono, coeff in a.items():
        num, den = coeff.numerator, coeff.denominator
        for i, e in enumerate(mono):
            if e:
                cache = caches[i]
                pair = cache.get(e)
                if pair is None:
                    x = point[i]
                    pair = cache[e] = (x.numerator ** e, x.denominator ** e)
                num *= pair[0]
                den *= pair[1]
        acc_num = acc_num * den + num * acc_den
        acc_den *= den
        g = gcd(acc_num, acc_den)
        if g > 1:
            acc_num //= g
            acc_den //= g
    return Fraction(acc_num, acc_den)
