import pytest

from clinrel.corpus import (
    DependencyEdge,
    Document,
    EntityMention,
    Sentence,
    Token,
)
from clinrel.features import (
    ALIASES,
    DEFAULT_WINDOW,
    VALID_SETS,
    DepPath,
    FeatureConfig,
    build_index,
    build_matrix,
    dependency_path,
    extract,
    feature_set,
    vectorize,
)
from clinrel.pairing import EntityPair, generate_pairs, labeled_instances
from clinrel.schema import EntityType

from _oracles import assert_same_csr, loop_vectorize


def extract_one(pair, doc, cfg):
    """The vector of one pair, extracted alone."""
    (vec,) = extract(doc, [pair], cfg)
    return vec


def build_doc(words, entities, deps=(), pos=None, roots=None):
    tokens = []
    start = 0
    for i, w in enumerate(words):
        p = pos[i] if pos else "NN"
        r = roots[i] if roots else w.lower()
        tokens.append(Token(start, start + len(w), w, p, r))
        start += len(w) + 1
    mentions = tuple(EntityMention(*e) for e in entities)
    edges = tuple(DependencyEdge(*d) for d in deps)
    return Document(
        "d",
        " ".join(words),
        tuple(tokens),
        (Sentence(0, len(words) - 1),),
        mentions,
        (),
        edges,
    )


@pytest.fixture(scope="module")
def scan_doc():
    # Ultrasound scanning which shows hydronephrosis .
    #     0          1      2     3          4       5
    return build_doc(
        ["Ultrasound", "scanning", "which", "shows", "hydronephrosis", "."],
        [
            ("scan", EntityType.INVESTIGATION, 0, 1),
            ("hydro", EntityType.CONDITION, 4, 4),
        ],
        deps=[(1, 2, "l12"), (2, 3, "l23"), (3, 4, "l34")],
        pos=["NNP", "VBG", "WDT", "VBZ", "NN", "."],
        roots=["ultrasound", "scan", "which", "show", "hydronephrosis", "."],
    )


def scan_pair():
    return EntityPair("d", "scan", "hydro")


GOLDEN = {
    "tokN:a1:+1:str=which": 1.0,
    "tokN:a1:+1:pos=WDT": 1.0,
    "tokN:a1:+2:str=shows": 1.0,
    "tokN:a1:+2:pos=VBZ": 1.0,
    "tokN:a2:-2:str=which": 1.0,
    "tokN:a2:-2:pos=WDT": 1.0,
    "tokN:a2:-1:str=shows": 1.0,
    "tokN:a2:-1:pos=VBZ": 1.0,
    "tokN:a2:+1:str=.": 1.0,
    "tokN:a2:+1:pos=.": 1.0,
    "gentokN:a1:+1:root=which": 1.0,
    "gentokN:a1:+1:genpos=WD": 1.0,
    "gentokN:a1:+2:root=show": 1.0,
    "gentokN:a1:+2:genpos=VB": 1.0,
    "gentokN:a2:-2:root=which": 1.0,
    "gentokN:a2:-2:genpos=WD": 1.0,
    "gentokN:a2:-1:root=show": 1.0,
    "gentokN:a2:-1:genpos=VB": 1.0,
    "gentokN:a2:+1:root=.": 1.0,
    "gentokN:a2:+1:genpos=.": 1.0,
    "atype=Investigation-Condition": 1.0,
    "dir=fwd": 1.0,
    "str:a1=Ultrasound": 1.0,
    "str:a1=scanning": 1.0,
    "str:a2=hydronephrosis": 1.0,
    "str:hm1=scanning": 1.0,
    "str:hm2=hydronephrosis": 1.0,
    "str:hm12=scanning_hydronephrosis": 1.0,
    "str:fb=which": 1.0,
    "str:lb=shows": 1.0,
    "str:bo=which": 1.0,
    "str:bo=shows": 1.0,
    "str:ar:+1=.": 1.0,
    "pos:a1=NNP": 1.0,
    "pos:a1=VBG": 1.0,
    "pos:a2=NN": 1.0,
    "pos:hm1=VBG": 1.0,
    "pos:hm2=NN": 1.0,
    "pos:hm12=VBG_NN": 1.0,
    "pos:fb=WDT": 1.0,
    "pos:lb=VBZ": 1.0,
    "pos:bo=WDT": 1.0,
    "pos:bo=VBZ": 1.0,
    "pos:ar:+1=.": 1.0,
    "root:a1=ultrasound": 1.0,
    "root:a1=scan": 1.0,
    "root:a2=hydronephrosis": 1.0,
    "root:hm1=scan": 1.0,
    "root:hm2=hydronephrosis": 1.0,
    "root:hm12=scan_hydronephrosis": 1.0,
    "root:fb=which": 1.0,
    "root:lb=show": 1.0,
    "root:bo=which": 1.0,
    "root:bo=show": 1.0,
    "root:ar:+1=.": 1.0,
    "genpos:a1=NN": 1.0,
    "genpos:a1=VB": 1.0,
    "genpos:a2=NN": 1.0,
    "genpos:hm1=VB": 1.0,
    "genpos:hm2=NN": 1.0,
    "genpos:hm12=VB_NN": 1.0,
    "genpos:fb=WD": 1.0,
    "genpos:lb=VB": 1.0,
    "genpos:bo=WD": 1.0,
    "genpos:bo=VB": 1.0,
    "genpos:ar:+1=.": 1.0,
    "event:args=EN": 1.0,
    "dep:path=l12<_l23<_l34<": 1.0,
    "dep:tok=scan": 1.0,
    "dep:tok=which": 1.0,
    "dep:tok=show": 1.0,
    "dep:tok=hydronephrosis": 1.0,
    "syndist:tokens": 2.0,
    "syndist:deplinks": 3.0,
}


def test_golden_full_vector(scan_doc):
    cfg = FeatureConfig(window=2)
    got = extract_one(scan_pair(), scan_doc, cfg)
    assert got == GOLDEN


def test_golden_file_rendering(scan_doc):
    cfg = FeatureConfig(window=2)
    got = extract_one(scan_pair(), scan_doc, cfg)
    lines = [f"{k}\t{v}" for k, v in sorted(got.items())]
    expected = [f"{k}\t{v}" for k, v in sorted(GOLDEN.items())]
    assert lines == expected
    assert "syndist:tokens\t2.0" in lines


def test_between_bag_covers_every_gap_token(scan_doc):
    got = extract_one(scan_pair(), scan_doc, FeatureConfig.of("str"))
    assert got["str:bo=which"] == 1.0
    assert got["str:bo=shows"] == 1.0
    assert got["str:fb=which"] == 1.0
    assert got["str:lb=shows"] == 1.0


def test_each_set_extracts_own_keys_only(scan_doc):
    pair = scan_pair()
    for name in VALID_SETS:
        got = extract_one(pair, scan_doc, FeatureConfig.of(name, window=2))
        if name == "inter":
            assert got == {}
            continue
        assert got, name
        assert {feature_set(k) for k in got} == {name}
    union = {}
    for name in VALID_SETS:
        union.update(extract_one(pair, scan_doc, FeatureConfig.of(name, window=2)))
    assert union == GOLDEN


def test_config_superset_means_key_superset(scan_doc):
    pair = scan_pair()
    small = extract_one(pair, scan_doc, FeatureConfig.of("atype", "dir"))
    big = extract_one(pair, scan_doc, FeatureConfig.of("atype", "dir", "str", "dep"))
    assert set(small) <= set(big)
    for k, v in small.items():
        assert big[k] == v


def test_window_size_limits_offsets(scan_doc):
    got = extract_one(scan_pair(), scan_doc, FeatureConfig.of("tok1"))
    offsets = {k.split(":")[2] for k in got}
    assert offsets == {"+1", "-1"}


def test_window_skips_other_argument_and_doc_edges():
    # lung biopsy . : a1 window positions falling inside a2 are suppressed
    doc = build_doc(
        ["lung", "biopsy", "."],
        [
            ("loc", EntityType.LOCUS, 0, 0),
            ("int", EntityType.INTERVENTION, 1, 1),
        ],
    )
    got = extract_one(EntityPair("d", "int", "loc"), doc, FeatureConfig.of("tok2"))
    # a1=biopsy: -1 hits the other argument, -2 leaves the document
    assert not any(k.startswith("tokN:a1:-") for k in got)
    assert got["tokN:a1:+1:str=."] == 1.0
    # a2=lung: -1/-2 leave the document, +1 hits the other argument
    assert got["tokN:a2:+2:str=."] == 1.0
    assert "tokN:a2:+1:str=biopsy" not in got


def test_window_wider_than_document_visits_only_its_tokens(scan_doc):
    # a model file may carry any window; offsets past the edges are never visited
    n = len(scan_doc.tokens)
    whole = extract_one(scan_pair(), scan_doc, FeatureConfig(window=n))
    huge = extract_one(scan_pair(), scan_doc, FeatureConfig(window=10**15))
    assert list(huge.items()) == list(whole.items())


def test_direction_reflects_text_order():
    doc = build_doc(
        ["pain", "in", "arm", "."],
        [
            ("cond", EntityType.CONDITION, 0, 0),
            ("loc", EntityType.LOCUS, 2, 2),
        ],
    )
    fwd = extract_one(EntityPair("d", "cond", "loc"), doc, FeatureConfig.of("dir", "atype"))
    assert fwd["dir=fwd"] == 1.0
    assert fwd["atype=Condition-Locus"] == 1.0
    doc2 = build_doc(
        ["arm", "showed", "pain", "."],
        [
            ("loc", EntityType.LOCUS, 0, 0),
            ("cond", EntityType.CONDITION, 2, 2),
        ],
    )
    bwd = extract_one(EntityPair("d", "cond", "loc"), doc2, FeatureConfig.of("dir", "atype"))
    assert bwd["dir=bwd"] == 1.0
    assert bwd["atype=Condition-Locus"] == 1.0


def test_adjacent_arguments_have_no_between_features():
    doc = build_doc(
        ["the", "left", "lung", "biopsy", "showed", "inflammation", "."],
        [
            ("lat", EntityType.LATERALITY_SIGNAL, 1, 1),
            ("loc", EntityType.LOCUS, 2, 2),
            ("int", EntityType.INTERVENTION, 3, 3),
            ("cond", EntityType.CONDITION, 5, 5),
        ],
    )
    got = extract_one(EntityPair("d", "int", "loc"), doc, FeatureConfig(window=2))
    assert not any(":fb=" in k or ":lb=" in k or ":bo=" in k for k in got)
    assert "syndist:tokens" not in got
    assert got["dir=bwd"] == 1.0
    assert got["str:bl:-1=left"] == 1.0
    assert got["str:bl:-2=the"] == 1.0
    assert got["str:ar:+1=showed"] == 1.0
    assert got["str:ar:+2=inflammation"] == 1.0


def test_intervening_nonevent_mention():
    doc = build_doc(
        ["the", "left", "lung", "biopsy", "showed", "inflammation", "."],
        [
            ("lat", EntityType.LATERALITY_SIGNAL, 1, 1),
            ("loc", EntityType.LOCUS, 2, 2),
            ("int", EntityType.INTERVENTION, 3, 3),
            ("cond", EntityType.CONDITION, 5, 5),
        ],
    )
    got = extract_one(EntityPair("d", "lat", "int"), doc, FeatureConfig.of("inter", "event"))
    assert got["inter:count"] == 1.0
    assert got["inter:type:Locus"] == 1.0
    assert got["inter:has:Locus"] == 1.0
    assert got["event:args=NE"] == 1.0
    assert got["event:inter_nonevent"] == 1.0
    assert "event:inter_event" not in got


def test_intervening_event_mention_and_counts():
    doc = build_doc(
        ["CT", "scan", "and", "biopsy", "confirmed", "cancer", "."],
        [
            ("inv", EntityType.INVESTIGATION, 0, 1),
            ("int", EntityType.INTERVENTION, 3, 3),
            ("cond", EntityType.CONDITION, 5, 5),
        ],
    )
    got = extract_one(EntityPair("d", "inv", "cond"), doc, FeatureConfig.of("inter", "event"))
    assert got["inter:count"] == 1.0
    assert got["inter:type:Intervention"] == 1.0
    assert got["event:args=EN"] == 1.0
    assert got["event:inter_event"] == 1.0
    assert "event:inter_nonevent" not in got


def test_no_intervening_mentions_no_inter_keys(scan_doc):
    got = extract_one(scan_pair(), scan_doc, FeatureConfig.of("inter"))
    assert got == {}


def test_zero_valued_numeric_keys_never_stored(scan_doc, corpus40):
    for doc in corpus40.documents[:5]:
        for pair in generate_pairs(doc):
            got = extract_one(pair, doc, FeatureConfig())
            assert all(v != 0.0 for v in got.values())


def test_alias_expansion():
    allgen = FeatureConfig.of("allgen")
    assert allgen.sets == frozenset(
        ("gentokN", "atype", "dir", "root", "genpos", "inter", "event")
    )
    notok = FeatureConfig.of("notok")
    assert notok.sets == frozenset(("atype", "dir", "str", "pos", "inter", "event"))
    assert "tokN" not in allgen.sets
    assert "tokN" not in notok.sets
    assert set(ALIASES) == {"allgen", "notok"}


def test_sized_tok_names_set_window():
    cfg = FeatureConfig.of("tok4", "atype")
    assert cfg.window == 4
    assert cfg.sets == frozenset(("tokN", "atype"))
    cfg = FeatureConfig.of("gentok3")
    assert cfg.window == 3
    assert cfg.sets == frozenset(("gentokN",))


def test_default_config_enables_everything():
    cfg = FeatureConfig()
    assert cfg.sets == frozenset(VALID_SETS)
    assert cfg.window == DEFAULT_WINDOW


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        FeatureConfig.of("typo")
    with pytest.raises(ValueError):
        FeatureConfig(window=0)


def test_feature_set_of_a_key():
    assert feature_set("tokN:a1:+1:str=which") == "tokN"
    assert feature_set("syndist:tokens") == "syndist"
    assert feature_set("dir=fwd") == "dir"
    assert feature_set("inter:type:Locus") == "inter"
    assert feature_set("str:bo=which") == "str"
    assert feature_set("atype=Investigation-Condition") == "atype"
    assert feature_set("syndist:deplinks") == "syndist"


def test_dep_path_on_chain(scan_doc):
    m1 = scan_doc.entity("scan")
    m2 = scan_doc.entity("hydro")
    path = dependency_path(scan_doc, m1, m2)
    assert path is not None
    assert path.nodes == (1, 2, 3, 4)
    assert path.steps == ("l12<", "l23<", "l34<")
    # reversed arguments flip every step direction
    back = dependency_path(scan_doc, m2, m1)
    assert back.nodes == (4, 3, 2, 1)
    assert back.steps == ("l34>", "l23>", "l12>")


def test_dep_path_without_edges_or_connection():
    doc = build_doc(
        ["a", "b", "c", "d"],
        [
            ("x", EntityType.INVESTIGATION, 0, 0),
            ("y", EntityType.LOCUS, 3, 3),
        ],
    )
    assert dependency_path(doc, doc.entity("x"), doc.entity("y")) is None
    doc2 = build_doc(
        ["a", "b", "c", "d"],
        [
            ("x", EntityType.INVESTIGATION, 0, 0),
            ("y", EntityType.LOCUS, 3, 3),
        ],
        deps=[(1, 0, "n")],
    )
    assert dependency_path(doc2, doc2.entity("x"), doc2.entity("y")) is None
    got = extract_one(EntityPair("d", "x", "y"), doc2, FeatureConfig.of("dep", "syndist"))
    assert not any(k.startswith("dep:") for k in got)
    assert got == {"syndist:tokens": 2.0}


def test_dep_path_same_head_token():
    # nested mentions sharing a last token give an empty path
    doc = build_doc(
        ["left", "lung", "."],
        [
            ("outer", EntityType.LOCUS, 0, 1),
            ("inner", EntityType.LOCUS, 1, 1),
        ],
        deps=[(1, 0, "amod")],
    )
    path = dependency_path(doc, doc.entity("outer"), doc.entity("inner"))
    assert path == DepPath((), (1,))
    got = extract_one(EntityPair("d", "outer", "inner"), doc, FeatureConfig.of("dep", "syndist"))
    assert got == {}


def _all_shortest_rendered(doc, source, target):
    """Brute force: enumerate simple undirected paths, keep the shortest."""
    adjacency = {}
    for e in doc.deps:
        adjacency.setdefault(e.head, []).append((e.dependent, e.label + "<"))
        adjacency.setdefault(e.dependent, []).append((e.head, e.label + ">"))
    found = []

    def walk(node, seen, steps):
        if node == target:
            found.append(tuple(steps))
            return
        for nxt, rendered in adjacency.get(node, ()):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, steps + [rendered])

    walk(source, {source}, [])
    if not found:
        return None
    shortest = min(len(s) for s in found)
    return sorted(s for s in found if len(s) == shortest)


def test_dep_path_diamond_tie_break():
    # two shortest routes; the lexicographically smaller step sequence wins
    entities = [
        ("x", EntityType.INVESTIGATION, 0, 0),
        ("y", EntityType.LOCUS, 3, 3),
    ]
    doc = build_doc(
        ["w0", "w1", "w2", "w3"],
        entities,
        deps=[(1, 0, "a"), (3, 1, "b"), (0, 2, "c"), (2, 3, "d")],
    )
    path = dependency_path(doc, doc.entity("x"), doc.entity("y"))
    assert path.steps == ("a>", "b>")
    assert path.nodes == (0, 1, 3)
    assert list(path.steps) == list(_all_shortest_rendered(doc, 0, 3)[0])

    # relabeling the upper route makes the lower one smaller
    doc2 = build_doc(
        ["w0", "w1", "w2", "w3"],
        entities,
        deps=[(1, 0, "z"), (3, 1, "z"), (0, 2, "c"), (2, 3, "d")],
    )
    path2 = dependency_path(doc2, doc2.entity("x"), doc2.entity("y"))
    assert path2.steps == ("c<", "d<")
    assert path2.nodes == (0, 2, 3)
    assert list(path2.steps) == list(_all_shortest_rendered(doc2, 0, 3)[0])


def test_dep_adjacency_is_built_once_per_document():
    doc = build_doc(["w0", "w1", "w2"], [("x", EntityType.INVESTIGATION, 0, 0)], deps=[(1, 0, "a"), (1, 2, "b")])
    assert doc.dep_adjacency == {0: ((1, "a", True),), 1: ((0, "a", False), (2, "b", False)), 2: ((1, "b", True),)}
    assert doc.dep_adjacency is doc.dep_adjacency


def test_dep_path_matches_brute_force_on_corpus(corpus40):
    checked = 0
    for doc in corpus40.documents[:8]:
        for pair in generate_pairs(doc):
            m1 = doc.entity(pair.arg1)
            m2 = doc.entity(pair.arg2)
            path = dependency_path(doc, m1, m2)
            oracle = (
                _all_shortest_rendered(doc, m1.last_token, m2.last_token)
                if doc.deps and m1.last_token != m2.last_token
                else None
            )
            if path is None or not path.steps:
                assert oracle is None or m1.last_token == m2.last_token
                continue
            assert list(path.steps) == list(oracle[0])
            checked += 1
    assert checked > 20


def test_build_index_and_vectorize(scan_doc):
    cfg = FeatureConfig(window=2)
    vec = extract_one(scan_pair(), scan_doc, cfg)
    index = build_index([vec])
    assert index == {key: i for i, key in enumerate(sorted(GOLDEN))}
    x = vectorize([vec, {}], index)
    assert x.shape == (2, len(GOLDEN))
    assert x[0].nnz == len(GOLDEN)
    assert x[1].nnz == 0
    dense = x.toarray()
    for key, value in GOLDEN.items():
        assert dense[0, index[key]] == value


def test_vectorize_drops_unseen_keys():
    index = build_index([{"dir=fwd": 1.0}])
    x = vectorize([{"dir=fwd": 1.0, "dir=bwd": 1.0}], index)
    assert x.shape == (1, 1)
    assert x.toarray().tolist() == [[1.0]]
    assert "dir=bwd" not in index


def test_vectorize_rows_are_sorted_csr():
    vecs = [{"b": 2.0, "a": 1.0, "c": 3.0}, {"c": 5.0}]
    index = build_index(vecs)
    x = vectorize(vecs, index)
    assert x.indices.tolist() == [0, 1, 2, 2]
    assert x.data.tolist() == [1.0, 2.0, 3.0, 5.0]
    assert x.indptr.tolist() == [0, 3, 4]


def test_vectorize_equals_loop_form_on_corpus(corpus40):
    def vectors(docs):
        return [
            vec for doc in docs for vec in extract(doc, [i.pair for i in labeled_instances(doc, 1)[0]], FeatureConfig())
        ]

    index = build_index(vectors(corpus40.documents[:8]))
    vecs = vectors(corpus40.documents[8:16])
    assert any(key not in index for vec in vecs for key in vec)  # unknown keys
    assert any(value != 1.0 for vec in vecs for value in vec.values())
    vecs[3:3] = [{}, {}]
    vecs.append({})
    assert_same_csr(vectorize(vecs, index), loop_vectorize(vecs, index))


@pytest.mark.parametrize(
    "vecs",
    [
        [],
        [{}],
        [{}, {}, {}],
        [{"zz": 1.0}, {"yy": 2.0, "zz": 3.0}],
        [{"c": -1.5, "x": 4.0, "a": 0.25}, {}, {"b": 1e300, "q": 1.0}, {"a": 2.0}],
        [{"b": 7.0, "a": 3.0}, {"c": 0.5, "b": -2.0, "a": 1.0}],
    ],
)
@pytest.mark.parametrize("keys", [(), ("a", "b", "c"), ("a", "c")])
def test_vectorize_equals_loop_form(vecs, keys):
    index = {key: i for i, key in enumerate(keys)}
    assert_same_csr(vectorize(vecs, index), loop_vectorize(vecs, index))


def test_build_matrix_equals_index_then_vectorize(corpus40):
    vecs = [
        vec
        for doc in corpus40.documents[:8]
        for vec in extract(doc, [i.pair for i in labeled_instances(doc, 1)[0]], FeatureConfig())
    ]
    x, keys = build_matrix(iter(vecs))
    index = build_index(vecs)
    assert keys == tuple(index)
    assert_same_csr(x, vectorize(vecs, index))
    assert x.has_sorted_indices


def test_build_matrix_remaps_first_seen_columns():
    vecs = [{"c": 3.0, "a": 1.0}, {}, {"b": 2.0, "c": 5.0}]
    x, keys = build_matrix(vecs)
    assert keys == ("a", "b", "c")
    assert_same_csr(x, vectorize(vecs, build_index(vecs)))
    assert x.toarray().tolist() == [[1.0, 0.0, 3.0], [0.0, 0.0, 0.0], [0.0, 2.0, 5.0]]


def test_build_matrix_of_nothing():
    x, keys = build_matrix([])
    assert keys == ()
    assert_same_csr(x, vectorize([], build_index([])))


def test_extraction_is_deterministic(corpus40):
    cfg = FeatureConfig()
    doc = corpus40.documents[0]
    pairs = generate_pairs(doc)
    first = extract(doc, pairs, cfg)
    second = extract(doc, pairs, cfg)
    assert first == second
    assert first == [extract_one(p, doc, cfg) for p in pairs]
