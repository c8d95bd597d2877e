"""Free symbolic expansion oracle for the delta-power formulas.

Words are tuples of decorated atoms (name, i, j), each standing for
delta^i sigma^j applied to a formal symbol; the decoration is valid
because sigma and delta are assumed to commute.  Expressions are maps
from words to exact integer coefficients.  Expanding delta^n of a short
word from first principles (iterated two-term Leibniz) and collecting
terms gives an independent derivation of both the binomial product
formula and the carry-free trinomial coefficients, which the package
writes once, as ``skewder.binomial_terms`` and ``skewder.trinomial_terms``.
Neither the expansion nor ``delta_n_oracle`` shares code with those
builders or with ``skewder.evaluate``.
"""

from skewseries.skewder import binomial_terms, trinomial_terms


def word(*names) -> dict:
    """The expression consisting of the single undecorated word."""
    return {tuple((name, 0, 0) for name in names): 1}


def symbolic_delta(expr: dict) -> dict:
    """Apply delta across each word by the twisted Leibniz rule.

    delta(u1 u2 ... un) = sum_k sigma(u1)...sigma(u_{k-1}) delta(u_k)
    u_{k+1} ... un, with sigma and delta absorbed into decorations.
    """
    out: dict = {}
    for w, c in expr.items():
        for k in range(len(w)):
            head = tuple((name, i, j + 1) for name, i, j in w[:k])
            name, i, j = w[k]
            new_word = head + ((name, i + 1, j),) + w[k + 1 :]
            out[new_word] = out.get(new_word, 0) + c
    return {w: c for w, c in out.items() if c != 0}


def symbolic_delta_n(expr: dict, n: int) -> dict:
    for _ in range(n):
        expr = symbolic_delta(expr)
    return expr


def reduce_mod(expr: dict, p: int) -> dict:
    out = {w: c % p for w, c in expr.items()}
    return {w: c for w, c in out.items() if c != 0}


def delta_n_oracle(sd, e, n: int):
    """delta applied n times by direct iteration."""
    for _ in range(n):
        e = sd.delta(e)
    return e


def binomial_certify(n_max: int) -> bool:
    """delta^n(ab) collected over Z is exactly skewder.binomial_terms(n)."""
    return all(symbolic_delta_n(word("a", "b"), n) == binomial_terms(n) for n in range(n_max + 1))


def certify_alpha_table(p: int, n_max: int):
    """Expand delta^n(axb) mod p and certify skewder.trinomial_terms against it.

    Returns (table_text, ok); a mismatch raises with the offending
    (n, i, j, k) so a silent disagreement is impossible.
    """
    lines = [f"alpha table p={p} n_max={n_max}"]
    for n in range(n_max + 1):
        expr = reduce_mod(symbolic_delta_n(word("a", "x", "b"), n), p)
        expected = trinomial_terms(n, p)
        for w in sorted(set(expr) | set(expected)):
            if expr.get(w) != expected.get(w):
                (_, i, _), (_, j, k), _ = w
                raise AssertionError(
                    f"alpha certification failed at n={n}, (i,j,k)=({i},{j},{k}): "
                    f"symbolic {expr.get(w, 0)} vs closed form {expected.get(w, 0)}"
                )
        for ((_, i, _), (_, j, k), _), alpha in expected.items():
            lines.append(f"n={n} i={i} j={j} k={k} alpha={alpha}")
    return "\n".join(lines) + "\n", True
