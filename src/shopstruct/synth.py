"""Deterministic synthetic catalogues for benchmarks and property tests.

Catalogues are a pure function of a spec: the same spec always yields the
same rules, brands and blocked brands, byte for byte.  Word frequencies are
skewed (rank r drawn with weight 1/(r+1)) so keywords share vocabulary the
way real catalogues do, which is what gives large erasers something to grab.

Words are spelled in rank order by default, so the most frequent words sort
first, a tie between spelling and frequency that real catalogues lack.
``shuffle_spellings`` hands the vocabulary's spellings to the ranks in a
seeded random order instead; every draw stays as it is, so the catalogue
keeps its shape and only its words' spellings move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .account import Money, Rule
from .errors import InputError
from .keywords import Keyword

_SYLLABLES = tuple(
    c + v for c in "bcdfgklmnprstvz" for v in "aeiou"
)


def _pseudoword(index: int) -> str:
    """Deterministic pronounceable token for ``index`` (distinct per index)."""
    base = len(_SYLLABLES)
    out = _SYLLABLES[index % base]
    index //= base
    while index:
        out += _SYLLABLES[index % base]
        index //= base
    return out


@dataclass(frozen=True)
class SyntheticSpec:
    n: int = 100
    vocab_size: int | None = None
    min_words: int = 2
    max_words: int = 4
    brand_count: int = 3
    non_brand_count: int = 2
    brand_fraction: float = 0.3
    item_pool: int | None = None
    seed: int = 0
    shuffle_spellings: bool = False

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("n must be non-negative")
        if self.min_words < 1 or self.max_words < self.min_words:
            raise InputError("need 1 <= min_words <= max_words")
        if not 0.0 <= self.brand_fraction <= 1.0:
            raise InputError("brand_fraction must lie in [0, 1]")
        if self.brand_count < 0 or self.non_brand_count < 0:
            raise InputError("brand counts must be non-negative")

    def effective_vocab(self) -> int:
        if self.vocab_size is not None:
            if self.vocab_size < self.max_words:
                raise InputError("vocab_size must be at least max_words")
            return self.vocab_size
        return max(8, self.max_words, self.n // 3)

    def effective_items(self) -> int:
        if self.item_pool is not None:
            if self.item_pool < 1:
                raise InputError("item_pool must be positive")
            return self.item_pool
        return max(4, self.n)


@dataclass(frozen=True)
class SyntheticCatalogue:
    rules: tuple[Rule, ...]
    brands: tuple[Keyword, ...]
    non_brands: tuple[Keyword, ...]


def generate(spec: SyntheticSpec) -> SyntheticCatalogue:
    rng = random.Random(spec.seed)
    vocab_size = spec.effective_vocab()

    stream = (_pseudoword(i) for i in range(vocab_size + spec.brand_count + spec.non_brand_count))
    vocab = [next(stream) for _ in range(vocab_size)]
    if spec.shuffle_spellings:
        random.Random(f"spellings:{spec.seed}").shuffle(vocab)
    brands = tuple(Keyword((next(stream),)) for _ in range(spec.brand_count))
    non_brands = tuple(Keyword((next(stream),)) for _ in range(spec.non_brand_count))

    weights = [1.0 / (r + 1) for r in range(vocab_size)]
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)

    def sample_tokens(count: int) -> list[str]:
        # Distinct tokens within one keyword, skew preserved.
        out: list[str] = []
        while len(out) < count:
            tok = rng.choices(vocab, cum_weights=cum, k=1)[0]
            if tok not in out:
                out.append(tok)
        return out

    seen: set[Keyword] = set()
    keywords: list[Keyword] = []
    forced = 0
    for _ in range(spec.n):
        kw: Keyword | None = None
        for _ in range(200):
            length = rng.randint(spec.min_words, spec.max_words)
            use_brand = spec.brand_count > 0 and rng.random() < spec.brand_fraction
            if use_brand:
                brand = rng.choice(brands)
                words = sample_tokens(length - 1) if length > 1 else []
                slot = rng.randint(0, len(words))
                words = words[:slot] + list(brand.words) + words[slot:]
            else:
                words = sample_tokens(length)
            candidate = Keyword(tuple(words))
            if candidate not in seen:
                kw = candidate
                break
        if kw is None:
            kw = Keyword(tuple(sample_tokens(spec.min_words)) + (f"uniq{forced}",))
            forced += 1
        seen.add(kw)
        keywords.append(kw)

    item_pool = spec.effective_items()
    rules = tuple(
        Rule(
            keyword=kw,
            cpc=Money(rng.randint(50_000, 5_000_000)),
            items=frozenset(
                f"item-{rng.randrange(item_pool):04d}"
                for _ in range(rng.randint(1, 3))
            ),
        )
        for kw in keywords
    )
    return SyntheticCatalogue(rules=rules, brands=brands, non_brands=non_brands)
