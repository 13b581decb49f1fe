import random

import pytest

from beadiag.words import (
    _MAX_WORD_LETTERS,
    BeadAlphabet,
    Word,
    alphabet_closure,
    alphabet_from_spec,
)


def test_mul_cancellation():
    x1 = Word.parse("x1")
    assert (x1 * x1.inverse()).is_identity


def test_mul_partial_cancellation():
    a = Word.parse("x1*x2")
    b = Word.parse("x2^-1*x3")
    assert a * b == Word.parse("x1*x3")


def test_identity_law():
    w = Word.parse("x2*x1^-1")
    assert Word() * w == w
    assert w * Word() == w


def test_inverse_examples():
    assert Word.parse("x1*x2").inverse() == Word.parse("x2^-1*x1^-1")
    assert Word().inverse() == Word()
    assert Word.parse("x1^-1").inverse() == Word.parse("x1")


def test_reduction_idempotent_and_constructor_reduces():
    w = Word([(1, 1), (1, -1), (2, 1)])
    assert w == Word.parse("x2")
    assert Word(w.letters) == w


def random_word(rng, rank=3, length=6):
    return Word([(rng.randint(1, rank), rng.choice((1, -1))) for _ in range(length)])


def test_group_laws_random():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (random_word(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a * b).inverse() == b.inverse() * a.inverse()
        assert (a * a.inverse()).is_identity


def test_roundtrip_parse_print():
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng)
        assert Word.parse(str(w)) == w
    assert str(Word()) == "1"
    assert Word.parse("1") == Word()
    assert str(Word.parse("x1^2*x2^-1")) == "x1^2*x2^-1"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Word.parse("y1")
    with pytest.raises(ValueError):
        Word.parse("x0")
    with pytest.raises(ValueError):
        Word.parse("x1**x2")


def test_parse_rejects_words_longer_than_the_bound():
    assert len(Word.parse("x1^%d" % _MAX_WORD_LETTERS)) == _MAX_WORD_LETTERS
    # the bound counts letters before free reduction
    for text in ("x1^%d" % (_MAX_WORD_LETTERS + 1), "x1^-99999999999",
                 "x1^%d*x1^-1" % _MAX_WORD_LETTERS):
        with pytest.raises(ValueError):
            Word.parse(text)


def test_alphabet_closure_examples():
    x1 = Word.parse("x1")
    a1 = alphabet_closure([x1], 1)
    assert sorted(str(w) for w in a1) == ["1", "x1", "x1^-1"]
    a2 = alphabet_closure([x1], 2)
    assert sorted(str(w) for w in a2) == ["1", "x1", "x1^-1", "x1^-2", "x1^2"]
    a0 = alphabet_closure([], 5)
    assert [str(w) for w in a0] == ["1"]


def test_alphabet_closure_monotone():
    x1, x2 = Word.parse("x1"), Word.parse("x2")
    for depth in range(3):
        small = set(alphabet_closure([x1, x2], depth).elements)
        big = set(alphabet_closure([x1, x2], depth + 1).elements)
        assert small <= big


def test_alphabet_symmetric_and_has_identity():
    a = alphabet_from_spec("gen:2:2")
    assert Word() in a
    for w in a:
        assert w.inverse() in a


def test_alphabet_spec_errors():
    with pytest.raises(ValueError):
        alphabet_from_spec("free:2")
    with pytest.raises(ValueError):
        BeadAlphabet([Word.parse("x1")])  # not symmetric


def test_alphabet_specs_are_bounded_by_their_letters():
    # the closure has 2n(2n-1)^(j-1) words of length j; a spec whose words
    # hold more than 100,000 letters in all is refused before it is built
    a = alphabet_from_spec("gen:1:315")
    assert len(a) == 631 and sum(len(w) for w in a.elements) == 99_540
    assert len(alphabet_from_spec("gen:2:8")) == 13_121
    assert alphabet_from_spec("gen:0:7").elements == ((),)
    for spec in ("gen:1:316", "gen:2:9"):
        with pytest.raises(ValueError, match="more than 100000 letters"):
            alphabet_from_spec(spec)


def test_word_total_order():
    ws = [Word.parse(s) for s in ("x2", "1", "x1^-1", "x1", "x1*x2")]
    assert [str(w) for w in sorted(ws)] == ["1", "x1^-1", "x1", "x2", "x1*x2"]
