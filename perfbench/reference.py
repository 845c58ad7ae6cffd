"""Independent checkers for the benchmark's task outputs.

Nothing here calls ``fpw``.  Words cross the boundary as text in the
``s^-1 t^2 s`` grammar and are handled as lists of signed generator numbers,
so a checker never shares code with the implementation it judges.
"""

from __future__ import annotations

from fractions import Fraction


def letters(text: str, names: tuple[str, ...]) -> list[int]:
    """Expand word text into freely reduced letters +-(generator index + 1)."""
    out: list[int] = []
    for token in text.split():
        name, _, exp = token.partition("^")
        code = names.index(name) + 1
        k = int(exp) if exp else 1
        out.extend([code if k > 0 else -code] * abs(k))
    return reduce(out)


def reduce(seq: list[int]) -> list[int]:
    return extend([], seq)


def extend(out: list[int], seq: list[int]) -> list[int]:
    """Append ``seq`` to the reduced word ``out`` in place, reducing as it goes."""
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def inverse(seq: list[int]) -> list[int]:
    return [-x for x in reversed(seq)]


def text(seq: list[int], names: tuple[str, ...]) -> str:
    """Render letters in the run-grouped grammar ``fpw`` prints."""
    parts: list[str] = []
    i = 0
    while i < len(seq):
        j = i
        while j < len(seq) and seq[j] == seq[i]:
            j += 1
        exp = (j - i) * (1 if seq[i] > 0 else -1)
        name = names[abs(seq[i]) - 1]
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def exponent_sums(seq: list[int], rank: int) -> list[int]:
    sums = [0] * rank
    for x in seq:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return sums


# --------------------------------------------------------------------------
# BS(2,3) = < s, t | s^-1 t^2 s t^-3 > over names ("s", "t")

S, T = 1, 2


def affine_bs23(seq: list[int]) -> tuple[int, Fraction]:
    """Image in Aff(Q) under t -> x+1, s -> (2/3)x, as (k, b): x -> (2/3)^k x + b.

    s^-1 t^2 s maps to x -> x+3, so this is a homomorphism from BS(2,3).  A
    word whose image is not the identity is nontrivial in BS(2,3).  The
    doubling map t -> t^2 conjugates the image by x -> 2x, so f^i(w) has
    identity image exactly when w has.
    """
    k, b = 0, Fraction(0)
    scale = Fraction(1)
    for x in seq:
        if x == T:
            b += scale
        elif x == -T:
            b -= scale
        elif x == S:
            k += 1
            scale *= Fraction(2, 3)
        else:
            k -= 1
            scale *= Fraction(3, 2)
    return k, b


def is_affine_identity(seq: list[int]) -> bool:
    return affine_bs23(seq) == (0, Fraction(0))


def double(seq: list[int], i: int) -> list[int]:
    """The i-fold doubling substitution s -> s, t -> t^(2^i), reduced."""
    out: list[int] = []
    for x in seq:
        out.extend([x] * (2**i) if abs(x) == T else [x])
    return reduce(out)


def syllables(normal_form: str) -> tuple[list[int], list[int]]:
    """Parse ``SyllableWord.format()`` text: ``t^a0 s^e1 t^a1 ...``."""
    runs: list[int] = []
    signs: list[int] = []
    for token in normal_form.split():
        name, _, exp = token.partition("^")
        (runs if name == "t" else signs).append(int(exp))
    return runs, signs


def has_pinch(runs: list[int], signs: list[int], m: int = 2, n: int = 3) -> bool:
    for i in range(len(signs) - 1):
        k = runs[i + 1]
        if signs[i] == -1 and signs[i + 1] == 1 and k % m == 0:
            return True
        if signs[i] == 1 and signs[i + 1] == -1 and k % n == 0:
            return True
    return False


def syllable_letters(runs: list[int], signs: list[int]) -> list[int]:
    out = [T if runs[0] > 0 else -T] * abs(runs[0])
    for e, a in zip(signs, runs[1:]):
        out.append(S * e)
        out.extend([T if a > 0 else -T] * abs(a))
    return reduce(out)


# --------------------------------------------------------------------------
# integer matrices


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(a: list[list[int]]) -> int:
    """Exact determinant by Fraction elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    result = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            result = -result
        result *= m[k][k]
        for i in range(k + 1, n):
            q = m[i][k] / m[k][k]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[k])]
    return int(result)


def rank(a: list[list[int]]) -> int:
    m = [[Fraction(x) for x in row] for row in a]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                q = m[i][c] / m[r][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def snf_error(a: list[list[int]], u: list[list[int]], d: list[list[int]], v: list[list[int]]) -> str | None:
    """Why (U, D, V) is not a Smith normal form of A, or None if it is."""
    if matmul(matmul(u, a), v) != d:
        return "U A V != D"
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return "U or V is not unimodular"
    rows, cols = len(d), len(d[0]) if d else 0
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        return "D is not diagonal"
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(x < 0 for x in diag):
        return "negative diagonal entry"
    if any(y and (not x or y % x) for x, y in zip(diag, diag[1:])):
        return "diagonal breaks the divisibility chain"
    return None
