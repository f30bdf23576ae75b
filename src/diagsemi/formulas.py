"""Exact combinatorial counts and the closed-form monoid orders.

Everything is arbitrary-precision integer arithmetic; values like 2^144
must come out exact.
"""

import math
from functools import lru_cache


def factorial(n: int) -> int:
    _check_nonneg(n)
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    _check_nonneg(n)
    if k < 0 or k > n:
        raise ValueError(f"binomial requires 0 <= k <= n, got k={k}, n={n}")
    return math.comb(n, k)


def ballot(n: int, k: int) -> int:
    """C(n, k) - C(n, k-1): the TL_n half-diagrams with k cups, for
    0 <= k <= n // 2."""
    return binomial(n, k) - (binomial(n, k - 1) if k else 0)


def catalan(n: int) -> int:
    _check_nonneg(n)
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple:
    """(S(n, 0), ..., S(n, n)), built row by row from S(0, 0) = 1 with
    S(m, k) = k S(m-1, k) + S(m-1, k-1), so any degree is in reach."""
    _check_nonneg(n)
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m)] + [1]
    return tuple(row)


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind; S(n, k) = 0 for k > n."""
    _check_nonneg(k)
    row = _stirling2_row(n)
    return row[k] if k <= n else 0


def bell(n: int) -> int:
    return sum(_stirling2_row(n))


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1 * 3 * 5 * ... * (2n-1)."""
    _check_nonneg(n)
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


# Python refuses str() of an int past 4300 digits; chunks stay below that.
_DECIMAL_CHUNK_DIGITS = 4000


def decimal_string(n: int) -> str:
    """Exact decimal digits of a nonnegative int of any size, converted in
    chunks of 4000 digits so the interpreter-wide limit never applies."""
    base = 10**_DECIMAL_CHUNK_DIGITS
    chunks = []
    while n >= base:
        n, low = divmod(n, base)
        chunks.append(str(low).zfill(_DECIMAL_CHUNK_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _check_nonneg(n):
    if n < 0:
        raise ValueError(f"argument must be nonnegative, got {n}")


def family_order(family: str, n: int) -> int:
    """Closed-form order of the degree-n monoid of the given family."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if family == "PB":
        return 1 << ((2 * n) ** 2)
    if family == "B":
        return 1 << (n * n)
    if family == "P":
        return bell(2 * n)
    if family == "PT":
        return (n + 1) ** n
    if family == "IS":
        row = _stirling2_row(n)
        return sum(factorial(k) * row[k] ** 2 for k in range(1, n + 1))
    if family == "T":
        return n**n
    if family == "I":
        return sum(factorial(k) * binomial(n, k) ** 2 for k in range(0, n + 1))
    if family == "Br":
        return double_factorial_odd(n)
    if family == "S":
        return factorial(n)
    if family == "TL":
        return catalan(n)
    raise ValueError(f"unknown family {family!r}")
