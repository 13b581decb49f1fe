"""Reduced words in finitely generated free groups, and finite bead alphabets.

A word is a tuple of letters ``(generator_index, sign)`` with ``sign`` in
``{+1, -1}`` and ``generator_index >= 1``.  Words are kept fully reduced at
all times, so group elements compare equal exactly when their letter tuples
do.  The low-level functions operate on bare letter tuples; :class:`Word`
wraps them for the public API.
"""

from __future__ import annotations

import itertools
import re

Letters = tuple  # tuple of (int, int) pairs

IDENTITY: Letters = ()


def reduce_letters(letters) -> Letters:
    """Freely reduce a letter sequence (cancel adjacent inverse pairs)."""
    return mul_letters(IDENTITY, letters)


def mul_letters(a: Letters, b: Letters) -> Letters:
    """Product of a reduced word and any letter sequence; result is reduced."""
    out = list(a)
    for idx, sign in b:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


def inv_letters(a: Letters) -> Letters:
    """Inverse of a reduced word (reverse, flip signs)."""
    return tuple((idx, -sign) for idx, sign in reversed(a))


def word_key(a: Letters):
    """Sort key: by length, then lexicographic on (index, sign)."""
    return (len(a), a)


_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")
_MAX_WORD_LETTERS = 100_000  # bound on one parsed word, and on a gen:n:depth alphabet's words


def parse_letters(text: str) -> Letters:
    """Parse the textual word syntax, e.g. ``x1*x2^-1``; ``1`` is the identity."""
    text = text.strip()
    if text == "1":
        return IDENTITY
    letters = []
    for token in text.split("*"):
        m = _TOKEN.match(token.strip())
        if m is None:
            raise ValueError("cannot parse word token %r in %r" % (token, text))
        idx = int(m.group(1))
        if idx < 1:
            raise ValueError("generator index must be >= 1 in %r" % text)
        power = int(m.group(2)) if m.group(2) is not None else 1
        if len(letters) + abs(power) > _MAX_WORD_LETTERS:
            raise ValueError("word %r has more than %d letters" % (text, _MAX_WORD_LETTERS))
        letters.extend([(idx, 1 if power > 0 else -1)] * abs(power))
    return reduce_letters(letters)


def format_letters(a: Letters) -> str:
    """Print a reduced word in the ``x1*x2^-1`` syntax; identity prints as ``1``."""
    if not a:
        return "1"
    parts = []
    for (idx, sign), group in itertools.groupby(a):
        power = sign * len(list(group))
        parts.append("x%d" % idx if power == 1 else "x%d^%d" % (idx, power))
    return "*".join(parts)


class Word:
    """A reduced word in a free group; immutable and totally ordered."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        if isinstance(letters, Word):
            letters = letters.letters
        object.__setattr__(self, "letters", reduce_letters(tuple(letters)))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return (Word, (self.letters,))

    @classmethod
    def parse(cls, text: str) -> "Word":
        return cls(parse_letters(text))

    @classmethod
    def generator(cls, idx: int) -> "Word":
        return cls(((idx, 1),))

    def __mul__(self, other: "Word") -> "Word":
        return Word(mul_letters(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word(inv_letters(self.letters))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __lt__(self, other):
        return word_key(self.letters) < word_key(other.letters)

    def __le__(self, other):
        return word_key(self.letters) <= word_key(other.letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return format_letters(self.letters)

    def __repr__(self):
        return "Word(%r)" % (str(self),)


class BeadAlphabet:
    """A finite symmetric set of beads: reduced words closed under inversion.

    Always contains the identity.  ``rank`` is the ambient free-group rank,
    ``depth`` records how the set was built (0 for hand-made sets).
    """

    __slots__ = ("rank", "depth", "elements", "_members", "label")

    def __init__(self, words, rank=None, depth=0, label=None):
        elems = {Word(w).letters for w in words}
        elems.add(IDENTITY)
        for w in list(elems):
            if inv_letters(w) not in elems:
                raise ValueError(
                    "alphabet not symmetric: missing inverse of %s" % format_letters(w)
                )
        ordered = tuple(sorted(elems, key=word_key))
        max_gen = max((idx for w in ordered for idx, _ in w), default=0)
        if rank is None:
            rank = max_gen
        elif rank < max_gen:
            raise ValueError("rank %d too small for alphabet generators" % rank)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "elements", ordered)
        object.__setattr__(self, "_members", frozenset(ordered))
        object.__setattr__(self, "label", label or "custom")

    def __setattr__(self, name, value):
        raise AttributeError("BeadAlphabet is immutable")

    def __reduce__(self):
        return (BeadAlphabet, (self.elements, self.rank, self.depth, self.label))

    def __contains__(self, word):
        letters = word.letters if isinstance(word, Word) else tuple(word)
        return letters in self._members

    def __iter__(self):
        return (Word(w) for w in self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, BeadAlphabet)
            and self.elements == other.elements
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.rank, self.elements))

    def __repr__(self):
        return "BeadAlphabet(%s, rank=%d, size=%d)" % (self.label, self.rank, len(self))

    def letter_elements(self):
        """The elements as bare letter tuples, in canonical order."""
        return self.elements


def alphabet_closure(generators, depth: int, rank=None, label=None) -> BeadAlphabet:
    """All reduced products of at most ``depth`` factors from the generators
    and their inverses, plus the identity."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    gens = {Word(g).letters for g in generators}
    gens |= {inv_letters(g) for g in gens}
    current = {IDENTITY}
    for _ in range(depth):
        current |= {mul_letters(w, g) for w in current for g in gens}
    return BeadAlphabet(current, rank=rank, depth=depth, label=label)


TRIVIAL_ALPHABET = alphabet_closure((), 0, rank=0, label="trivial")

_GEN_SPEC = re.compile(r"^gen:(\d+):(\d+)$")


def alphabet_from_spec(spec: str) -> BeadAlphabet:
    """Parse the alphabet mini-language: ``trivial`` or ``gen:n:depth``.  A
    spec whose words would hold more than 100,000 letters in all is refused."""
    spec = spec.strip()
    if spec == "trivial":
        return TRIVIAL_ALPHABET
    m = _GEN_SPEC.match(spec)
    if m is None:
        raise ValueError("unknown alphabet spec %r (use 'trivial' or 'gen:n:depth')" % spec)
    n = int(m.group(1))
    depth = int(m.group(2)) if n else 0  # no generators: every depth gives {1}
    # the closure has 2n(2n-1)^(j-1) words of length j for each j <= depth
    totals = itertools.accumulate(j * 2 * n * (2 * n - 1) ** (j - 1) for j in range(1, depth + 1))
    if any(total > _MAX_WORD_LETTERS for total in totals):
        raise ValueError("alphabet %r has more than %d letters in its words"
                         % (spec, _MAX_WORD_LETTERS))
    gens = [Word.generator(i) for i in range(1, n + 1)] if depth else []
    return alphabet_closure(gens, depth, rank=n, label=spec)
