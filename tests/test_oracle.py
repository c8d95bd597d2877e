import hashlib
import random

from skewseries.skewder import evaluate

from helpers import ddx_derivation
from oracle import (
    binomial_certify,
    certify_alpha_table,
    delta_n_oracle,
    reduce_mod,
    symbolic_delta,
    symbolic_delta_n,
    word,
)


def test_symbolic_delta_single_application():
    expr = symbolic_delta(word("a", "x", "b"))
    assert len(expr) == 3
    assert expr[(("a", 1, 0), ("x", 0, 0), ("b", 0, 0))] == 1
    assert expr[(("a", 0, 1), ("x", 1, 0), ("b", 0, 0))] == 1
    assert expr[(("a", 0, 1), ("x", 0, 1), ("b", 1, 0))] == 1


def test_symbolic_delta_collects_coefficients():
    expr = symbolic_delta_n(word("a", "b"), 2)
    assert expr[(("a", 1, 1), ("b", 1, 0))] == 2
    assert reduce_mod(expr, 2) == {
        (("a", 2, 0), ("b", 0, 0)): 1,
        (("a", 0, 2), ("b", 2, 0)): 1,
    }


def test_binomial_certify():
    assert binomial_certify(8)


def test_certify_alpha_table():
    for p in (2, 3):
        table, ok = certify_alpha_table(p, p**2)
        assert ok
        assert table.startswith(f"alpha table p={p}")


def test_alpha_table_text_deterministic():
    a, _ = certify_alpha_table(2, 6)
    b, _ = certify_alpha_table(2, 6)
    assert a == b


def test_alpha_table_text_is_pinned():
    # the certified table text is a fixed artefact: any change to the builders or the text shows here
    digests = {
        (2, 8): "50e1b992af12fe66469ce98e0065966840ff4ebc3c199b3f9e5d321f44cf9dfb",
        (3, 27): "1a505771cb17b158c77760576f694c30733546f5f34bb4bf86911541e06c054f",
    }
    for (p, n_max), digest in digests.items():
        table, ok = certify_alpha_table(p, n_max)
        assert ok and hashlib.sha256(table.encode()).hexdigest() == digest


def test_evaluation_homomorphism():
    rng = random.Random(0)
    A, sd = ddx_derivation(3, 3)
    for _ in range(100):
        a, b = A.random_element(rng), A.random_element(rng)
        n = rng.randrange(5)
        expr = symbolic_delta_n(word("a", "b"), n)
        value = evaluate(expr, sd, {"a": a, "b": b})
        assert value == delta_n_oracle(sd, A.mul(a, b), n)
