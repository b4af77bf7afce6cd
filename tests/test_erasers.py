from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopstruct import (
    Candidate,
    EraserGraph,
    ExactEraser,
    InfeasibleTargetError,
    InputError,
    Keyword,
    LargeEraser,
    build_graph,
    enumerate_candidates,
    erases,
    make_group_plan,
    matches,
    normalize,
    reduce_keywords,
    select_color_class,
    welsh_powell,
)
from shopstruct.erasers import MAX_WORDS
from conftest import GOLDEN_KEYWORDS
import oracles
from oracles import CandidateLimitError, exact_packing_oracle, expand, image
from oracles import make_group_plan as reference_group_plan

KW = [normalize(t) for t in GOLDEN_KEYWORDS]

# Candidate erasers over the eleven-keyword catalogue, in canonical order
# (image size descending, then word set), with their images.
EXPECTED_CANDIDATES = [
    ({"adidas"}, {"adidas running shoes", "adidas superstar", "adidas superstar sneaker"}),
    ({"nike"}, {"nike air max", "nike shoes", "nike soccer white"}),
    ({"shoes"}, {"adidas running shoes", "large superstar shoes", "nike shoes"}),
    ({"superstar"}, {"adidas superstar", "adidas superstar sneaker", "large superstar shoes"}),
    ({"adidas", "superstar"}, {"adidas superstar", "adidas superstar sneaker"}),
    ({"air"}, {"air max", "nike air max"}),
    ({"large"}, {"large superstar shoes", "large tee-shirt"}),
    ({"max"}, {"air max", "nike air max"}),
    ({"soccer"}, {"nike soccer white", "soccer colored mens"}),
]


def test_eraser_semantics():
    kw = normalize("adidas superstar sneaker")
    assert erases(LargeEraser(frozenset({"adidas", "sneaker"})), kw)
    assert not erases(LargeEraser(frozenset({"adidas", "shoes"})), kw)
    assert erases(ExactEraser(kw), kw)
    assert not erases(ExactEraser(normalize("adidas superstar")), kw)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_erases_is_the_reference_matcher(data):
    words = st.sampled_from(["nike", "air", "max", "shoes"])
    keywords = st.lists(words, min_size=1, max_size=4).map(lambda ws: Keyword(tuple(ws)))
    kw = data.draw(keywords)
    eraser = data.draw(
        st.one_of(
            st.frozensets(words, min_size=1, max_size=3).map(LargeEraser),
            st.one_of(st.just(kw), keywords).map(ExactEraser),
        )
    )
    assert erases(eraser, kw) == matches(kw, eraser.to_negative())


def test_large_eraser_rejects_empty_word_set():
    with pytest.raises(InputError):
        LargeEraser(frozenset())


def test_enumerate_candidates_golden():
    cands = enumerate_candidates(KW)
    got = [
        (set(c.eraser.words), {k.text for k in c.image}) for c in cands
    ]
    assert got == [(set(w), set(img)) for w, img in EXPECTED_CANDIDATES]


@pytest.mark.parametrize("max_image", [3, None])
def test_enumerate_candidates_stable_under_parameter_variants(max_image):
    cands = enumerate_candidates(KW, max_image=max_image)
    assert [set(c.eraser.words) for c in cands] == [
        set(w) for w, _ in EXPECTED_CANDIDATES
    ]


def test_enumeration_drops_redundant_supersets_keeps_informative_ones():
    words = [set(c.eraser.words) for c in enumerate_candidates(KW)]
    # {air, max} has the same image as {air} alone, so it is redundant;
    # {adidas, superstar} has a smaller image than either word alone.
    assert {"air", "max"} not in words
    assert {"adidas", "superstar"} in words


def test_conflict_graph_golden_shape():
    graph = build_graph(enumerate_candidates(KW))
    assert graph.node_count == 9
    assert graph.edge_count == 12
    degree = {
        "+".join(sorted(graph.nodes[i].eraser.words)): len(graph.adjacency[i])
        for i in range(graph.node_count)
    }
    assert degree == {
        "adidas": 3,
        "nike": 4,
        "shoes": 4,
        "superstar": 4,
        "adidas+superstar": 2,
        "air": 2,
        "large": 2,
        "max": 2,
        "soccer": 1,
    }


def test_coloring_golden():
    graph = build_graph(enumerate_candidates(KW))
    colors = welsh_powell(graph)
    assert colors == (0, 0, 2, 1, 2, 1, 0, 2, 1)
    selected = select_color_class(graph, colors)
    assert [sorted(c.eraser.words) for c in selected] == [
        ["adidas"],
        ["nike"],
        ["large"],
    ]
    assert sum(c.weight for c in selected) == 8


def _toy_graph(adjacency: list[set[int]]) -> EraserGraph:
    nodes = tuple(
        Candidate(
            LargeEraser(frozenset({f"w{i}"})),
            frozenset({Keyword((f"kw{i}",))}),
        )
        for i in range(len(adjacency))
    )
    return EraserGraph(nodes, tuple(frozenset(a) for a in adjacency))


def test_coloring_toy_graphs():
    assert welsh_powell(_toy_graph([set(), set(), set()])) == (0, 0, 0)
    assert welsh_powell(_toy_graph([{1, 2}, {0, 2}, {0, 1}])) == (0, 1, 2)
    # Path a-b-c: the endpoints share a color, the middle differs.
    assert welsh_powell(_toy_graph([{1}, {0, 2}, {1}])) == (0, 1, 0)


def test_coloring_is_proper():
    graph = build_graph(enumerate_candidates(KW))
    colors = welsh_powell(graph)
    for i, neighbors in enumerate(graph.adjacency):
        assert all(colors[i] != colors[j] for j in neighbors)


def test_select_color_class_picks_heaviest_then_lowest_color():
    graph = _toy_graph([set(), set(), set()])
    picked = select_color_class(graph, (0, 1, 1))
    assert [c.eraser.words for c in picked] == [frozenset({"w1"}), frozenset({"w2"})]
    tied = select_color_class(_toy_graph([set(), set()]), (1, 0))
    assert [c.eraser.words for c in tied] == [frozenset({"w1"})]
    assert select_color_class(_toy_graph([]), ()) == ()


def test_group_plan_golden():
    graph = build_graph(enumerate_candidates(KW))
    selected = select_color_class(graph, welsh_powell(graph))
    plan = make_group_plan(KW, selected)
    assert [sorted(k.text for k in g) for g in plan.groups] == [
        ["nike air max", "nike shoes", "nike soccer white", "soccer colored mens"],
        ["adidas running shoes", "adidas superstar", "adidas superstar sneaker"],
        ["air max", "garmin chronometer", "large superstar shoes", "large tee-shirt"],
    ]
    assert [[e.to_negative().describe() for e in ers] for ers in plan.erasers] == [
        ["[large] nike", "[exact] soccer colored mens"],
        ["[large] adidas"],
        ["[large] large", "[exact] air max", "[exact] garmin chronometer"],
    ]
    assert sum(len(g) for g in plan.groups) == 11


def test_group_plan_covers_every_keyword_exactly_once():
    graph = build_graph(enumerate_candidates(KW))
    selected = select_color_class(graph, welsh_powell(graph))
    plan = make_group_plan(KW, selected)
    seen = [kw for g in plan.groups for kw in g]
    assert len(seen) == len(set(seen)) == len(KW)
    for group, erasers in zip(plan.groups, plan.erasers):
        assert expand(erasers, KW) == group


def test_group_plan_infeasible_target():
    graph = build_graph(enumerate_candidates(KW))
    selected = select_color_class(graph, welsh_powell(graph))
    with pytest.raises(InfeasibleTargetError):
        make_group_plan(KW, selected, target_size=2)


def test_group_plan_rejects_overlapping_images():
    cands = enumerate_candidates(KW)
    overlapping = [c for c in cands if c.eraser.words & {"air", "max"}]
    assert len(overlapping) == 2
    with pytest.raises(InputError):
        make_group_plan(KW, overlapping)


def test_group_plan_without_selected_erasers():
    plan = make_group_plan(KW, (), target_size=4)
    assert sum(len(g) for g in plan.groups) == 11
    assert all(isinstance(e, ExactEraser) for ers in plan.erasers for e in ers)


def test_group_plan_empty_catalogue():
    plan = make_group_plan([], ())
    assert plan.groups == () and plan.erasers == ()


def test_reduce_reproduces_group_erasers():
    graph = build_graph(enumerate_candidates(KW))
    selected = select_color_class(graph, welsh_powell(graph))
    plan = make_group_plan(KW, selected)
    for group, erasers in zip(plan.groups, plan.erasers):
        reduced = reduce_keywords(group, KW)
        assert set(reduced) == set(erasers)
        assert expand(reduced, KW) == group


def test_reduce_over_grown_universe_golden():
    universe = KW + [normalize("nike large shoes")]
    cover = reduce_keywords(KW, universe)
    assert [e.to_negative().describe() for e in cover] == [
        "[large] adidas",
        "[large] air",
        "[large] soccer",
        "[exact] garmin chronometer",
        "[exact] large superstar shoes",
        "[exact] large tee-shirt",
        "[exact] nike shoes",
    ]
    assert expand(cover, universe) == frozenset(KW)


def test_reduce_requires_members_inside_universe():
    with pytest.raises(InputError):
        reduce_keywords([normalize("zz top")], KW)


def test_reduce_never_longer_than_members():
    members = KW[:5]
    assert len(reduce_keywords(members, KW)) <= len(members)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_reduce_expand_round_trip(data):
    texts = data.draw(
        st.lists(st.sampled_from(GOLDEN_KEYWORDS), min_size=1, max_size=8, unique=True)
    )
    members = [normalize(t) for t in texts]
    cover = reduce_keywords(members, KW)
    assert expand(cover, KW) == frozenset(members)


def test_packing_oracle_beats_or_ties_the_coloring_class():
    cands = enumerate_candidates(KW)
    graph = build_graph(cands)
    selected = select_color_class(graph, welsh_powell(graph))
    best, chosen = exact_packing_oracle(cands)
    assert best == 9
    assert sum(c.weight for c in selected) <= best
    seen = set()
    for c in chosen:
        assert not (c.image & seen)
        seen |= c.image
    assert len(seen) == best


def test_packing_oracle_limit():
    cands = enumerate_candidates(KW)
    with pytest.raises(CandidateLimitError):
        exact_packing_oracle(cands, limit=5)


# --- the packing against the original quadratic reference -----------------

_VOCAB = ["nike", "adidas", "shoes", "air", "max", "large", "red", "white"]


@st.composite
def _packing_inputs(draw):
    """A catalogue, disjoint selected candidates and a target size.

    Keywords hold up to five words, so an exact filler can share one, two,
    three or more words with the open groups and ties meet across those
    levels.  Some keywords use words of their own ("solo0", ...), so they
    share no word with any group; the selection is empty, the color class,
    or a random disjoint pick among the candidates."""
    texts = draw(
        st.lists(
            st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=5).map(" ".join),
            min_size=1,
            max_size=30,
            unique_by=lambda t: normalize(t),
        )
    )
    keywords = list(dict.fromkeys(normalize(t) for t in texts))
    solos = draw(st.integers(0, 4))
    for i in range(solos):
        at = draw(st.integers(0, len(keywords)))
        keywords.insert(at, normalize(f"solo{i}"))
    candidates = enumerate_candidates(keywords, max_image=len(keywords))
    how = draw(st.sampled_from(["none", "color", "random"]))
    if how == "none":
        selected: tuple[Candidate, ...] = ()
    elif how == "color":
        graph = build_graph(candidates)
        selected = select_color_class(graph, welsh_powell(graph))
    else:
        picks = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
        taken: set = set()
        chosen = []
        for cand in picks:
            if not cand.image & taken:
                chosen.append(cand)
                taken |= cand.image
        selected = tuple(chosen)
    heaviest = max((c.weight for c in selected), default=1)
    target = draw(st.one_of(st.none(), st.integers(heaviest, len(keywords) + 1)))
    return keywords, selected, target


@settings(max_examples=300, deadline=None)
@given(_packing_inputs())
def test_group_plan_matches_reference(inputs):
    keywords, selected, target = inputs

    def outcome(plan_fn):
        try:
            return plan_fn(keywords, selected, target_size=target)
        except InfeasibleTargetError as exc:  # the default target can be too small
            return type(exc)

    assert outcome(make_group_plan) == outcome(reference_group_plan)


def test_group_plan_matches_reference_when_nothing_is_shared():
    # No selected erasers and no shared words: every keyword takes the
    # lightest-group fallback.
    keywords = [normalize(f"w{i} v{i}") for i in range(17)]
    for target in (1, 3, 4, 17):
        assert make_group_plan(keywords, (), target_size=target) == reference_group_plan(
            keywords, (), target_size=target
        )


def test_group_plan_matches_reference_with_full_groups_after_the_erasers():
    # Three images of two over target 3 overflow one group and fill the
    # other, so the uncovered keywords meet full groups first.  (Every group
    # full while a keyword is left cannot happen: fewer than n <= k * target
    # keywords are placed before each one.)
    texts = ["a x", "a y", "b x", "b y", "c x", "c y", "d", "e z", "f z"]
    keywords = [normalize(t) for t in texts]
    selected = [
        Candidate(LargeEraser(frozenset({w})), image(LargeEraser(frozenset({w})), keywords))
        for w in ("a", "b", "c")
    ]
    plan = make_group_plan(keywords, selected, target_size=3)
    assert sorted(len(g) for g in plan.groups) == [3, 3, 3]
    assert plan == reference_group_plan(keywords, selected, target_size=3)


def _seeded_plan(seeds, probe, pads, target):
    """The plan of one large eraser per seed word, each imaging the
    keywords of its seed, then the filler ``probe``, then ``pads`` fillers
    that share no word; with where the probe landed, named by the seed word
    of its group's eraser."""
    keywords = [normalize(t) for kws in seeds.values() for t in kws]
    keywords += [normalize(probe)] + [normalize(f"pad{i}") for i in range(pads)]
    selected = [
        Candidate(LargeEraser(frozenset({w})), image(LargeEraser(frozenset({w})), keywords))
        for w in seeds
    ]
    assert [c.weight for c in selected] == [len(kws) for kws in seeds.values()]
    plan = make_group_plan(keywords, selected, target_size=target)
    assert len(plan.groups) == len(seeds)
    assert plan == reference_group_plan(keywords, selected, target_size=target)
    [landed] = [g for g in plan.erasers if ExactEraser(normalize(probe)) in g]
    return next(w for e in landed if isinstance(e, LargeEraser) for w in e.words)


@pytest.mark.parametrize(
    "seeds, probe, pads, target, expected",
    [
        # "a b c" shares one word with p's group, two with q's, three with
        # r's; equal sizes.
        ({"p": ["p a", "p x"], "q": ["q a b", "q y"], "r": ["r a b c", "r z"]}, "a b c", 0, 3, "r"),
        # The same levels with r's group the heaviest: the level decides.
        (
            {"p": ["p a", "p x"], "q": ["q a b", "q y"], "r": ["r a b c", "r z", "r w"]},
            "a b c",
            1,
            4,
            "r",
        ),
        # ... and with p's group, sharing one word, the lightest.
        (
            {"p": ["p a"], "q": ["q a b", "q y"], "r": ["r a b c", "r z", "r w"]},
            "a b c",
            2,
            4,
            "r",
        ),
        # q's and s's groups share two words: the lighter one, s's, takes it.
        (
            {"q": ["q a b", "q y", "q v"], "s": ["s a b", "s u"], "p": ["p a", "p x"]},
            "a b c",
            1,
            4,
            "s",
        ),
        # Two words each at equal sizes: the lower index, q's group.
        ({"q": ["q a b", "q y"], "s": ["s a b", "s u"], "p": ["p a", "p x"]}, "a b c", 0, 3, "q"),
        # Three words each, the heavier first in index: the lighter one.
        (
            {"q": ["q a b c", "q y", "q v"], "s": ["s a b c", "s u"], "p": ["p a b", "p x"]},
            "a b c d e",
            1,
            4,
            "s",
        ),
    ],
)
def test_filler_goes_to_the_lightest_group_sharing_the_most_words(
    seeds, probe, pads, target, expected
):
    assert _seeded_plan(seeds, probe, pads, target) == expected


# --- indexed enumeration and covers against the scanning originals ---------


@st.composite
def _texts(draw, max_size):
    return draw(
        st.lists(
            st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4).map(" ".join),
            max_size=max_size,
        )
    )


@st.composite
def _cover_inputs(draw):
    """A catalogue with shared words and lone-word keywords, a member subset
    of it, a universe holding the catalogue plus extra keywords, and the
    enumeration's image cap."""
    catalogue = list(dict.fromkeys(normalize(t) for t in draw(_texts(25))))
    for i in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(catalogue)))
        catalogue.insert(at, normalize(f"solo{i}"))
    members = draw(st.lists(st.sampled_from(catalogue), unique=True)) if catalogue else []
    extras = [normalize(t) for t in draw(_texts(8))]
    if draw(st.booleans()):
        extras.append(normalize("solo9"))
    universe = draw(st.permutations(list(dict.fromkeys(catalogue + extras))))
    max_image = draw(st.one_of(st.none(), st.integers(1, len(catalogue) + 1)))
    return catalogue, members, universe, max_image


@settings(max_examples=200, deadline=None)
@given(_cover_inputs())
def test_enumerate_candidates_matches_reference(inputs):
    catalogue, _, _, max_image = inputs
    got = enumerate_candidates(catalogue, max_image=max_image)
    want = oracles.enumerate_candidates(catalogue, max_words=MAX_WORDS, max_image=max_image)
    assert got == want  # ordered candidates, each with its image


@settings(max_examples=200, deadline=None)
@given(_cover_inputs())
def test_reduce_keywords_matches_reference(inputs):
    _, members, universe, _ = inputs

    def cover(erasers):
        return [(e, image(e, universe)) for e in erasers]

    assert cover(reduce_keywords(members, universe)) == cover(
        oracles.reduce_keywords(members, universe, max_words=MAX_WORDS)
    )


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(
        st.one_of(
            st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4).map(" ".join),
            st.sampled_from(["nike nike shoes", "air max air", "red red"]),
        ),
        max_size=12,
    ),
)
def test_subset_images_meets_its_definition(texts):
    from shopstruct.erasers import all_subset_images

    keywords = [normalize(t) for t in texts]
    # Each sorted subset of up to MAX_WORDS of a keyword's distinct words,
    # with the keywords that hold all its words.
    subsets = {
        combo
        for kw in keywords
        for r in range(1, MAX_WORDS + 1)
        for combo in itertools.combinations(sorted(set(kw.words)), r)
    }
    image_of = {ws: {kw for kw in keywords if set(ws) <= set(kw.words)} for ws in subsets}
    # The filing keeps every subset, singletons too.
    assert all_subset_images(keywords) == image_of


@settings(max_examples=200, deadline=None)
@given(
    old=st.lists(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4), max_size=10),
    new=st.lists(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4), max_size=10),
)
def test_refiled_subset_images_equal_a_fresh_filing(old, new):
    from shopstruct.erasers import all_subset_images, rank_subset_images, refile_subset_images

    old = frozenset(normalize(" ".join(w)) for w in old)
    new = frozenset(normalize(" ".join(w)) for w in new) | set(sorted(old)[: len(old) // 2])
    images = all_subset_images(old)
    kept = dict(images)
    refiled, _ = refile_subset_images(images, rank_subset_images(images), old, new)
    assert refiled == all_subset_images(new)
    assert images == kept


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(
        st.one_of(
            st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4).map(" ".join),
            st.sampled_from(_VOCAB),
        ),
        max_size=14,
    ),
    steps=st.lists(st.tuples(st.sets(st.integers(0, 13)), st.sets(st.integers(0, 13))), max_size=4),
)
def test_refiled_ranking_equals_a_fresh_ranking(texts, steps):
    """Each step of a chain removes some keywords of the drawn pool and adds
    others, removed ones among them, and refiles from the step before.  The
    small vocabulary makes shared words and one-word keywords common."""
    from shopstruct.erasers import all_subset_images, rank_subset_images, refile_subset_images

    pool = list(dict.fromkeys(normalize(t) for t in texts))
    keywords = frozenset(pool[: len(pool) // 2])
    images = all_subset_images(keywords)
    ranking = rank_subset_images(images)
    for gone, came in steps:
        new = keywords - {pool[i] for i in gone if i < len(pool)}
        new |= {pool[i] for i in came if i < len(pool)}
        kept_images, kept_ranking = dict(images), list(ranking)
        refiled, reranked = refile_subset_images(images, ranking, keywords, new)
        assert refiled == all_subset_images(new)
        assert reranked == rank_subset_images(all_subset_images(new))
        assert images == kept_images and ranking == kept_ranking
        keywords, images, ranking = new, refiled, reranked


@settings(max_examples=200, deadline=None)
@given(_cover_inputs(), st.data())
def test_cover_beside_equals_reduce_keywords(inputs, data):
    from shopstruct.erasers import all_subset_images, cover_beside, rank_subset_images

    catalogue, _, universe, _ = inputs
    members = frozenset(catalogue)
    newcomer = data.draw(st.sampled_from([kw for kw in universe if kw not in members] or [None]))
    if newcomer is not None:
        got = cover_beside(rank_subset_images(all_subset_images(members)), members, newcomer)
        assert got == reduce_keywords(members, members | {newcomer})
