"""The word walk: a monomial factored into the letters of its
presentation.

The library reads monomials directly (``ncforms._kahler_d``, the rotation
of ``CommutatorQuotient.rep``, ``Connection.nabla_d``); the tests keep
this letter-by-letter walk as the oracle those closed forms are checked
against.
"""


def word_of(A, m) -> list:
    """The canonical factorization of m into the monomials of
    ``A.letters``.

    A free word is its letters; an exponent vector repeats the i-th
    letter e_i times, and a negative laurent exponent repeats the formal
    inverse.  The unit monomial factors as the empty word.
    """
    letters = A.letters
    if A.kind == "free":
        return [letters[i] for i in m]
    return [letters[i if e > 0 else -1]
            for i, e in enumerate(m) for _ in range(abs(e))]

