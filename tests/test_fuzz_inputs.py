"""Malformed corpora and model files exit with 1 or 2 through ``cli.main``, never 3.

Each example takes a valid corpus line or model record, replaces one value
somewhere in its JSON tree (or deletes a key, or swaps in raw text), and runs
the command that reads it.  Exit code 3 means an input error escaped as an
internal error.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clinrel.cli import main
from clinrel.learners import LEARNERS

FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def _mutate(data, value):
    """``value`` with one node replaced by a drawn JSON value, or one key removed."""
    if isinstance(value, dict) and value:
        key = data.draw(st.sampled_from(sorted(value)))
        choice = data.draw(st.sampled_from(["replace", "descend", "delete"]))
    elif isinstance(value, list) and value:
        key = data.draw(st.integers(0, len(value) - 1))
        choice = data.draw(st.sampled_from(["replace", "descend"]))
    else:
        return data.draw(json_values)
    if choice == "replace" and data.draw(st.booleans()):
        return data.draw(json_values)
    copy = dict(value) if isinstance(value, dict) else list(value)
    if choice == "delete":
        del copy[key]
    elif choice == "replace":
        copy[key] = data.draw(json_values)
    else:
        copy[key] = _mutate(data, copy[key])
    return copy


def _text(data, record) -> str:
    if data.draw(st.integers(0, 9)) == 0:
        return data.draw(st.text(max_size=40))
    return json.dumps(_mutate(data, record))


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
    assert main(["generate", "--out", str(path), "--docs", "3", "--seed", "5"]) == 0
    return path


@pytest.fixture(scope="module")
def model_records(corpus_path):
    records = {}
    for algorithm in LEARNERS:
        path = corpus_path.parent / f"{algorithm}.json"
        rc = main(["train", "--corpus", str(corpus_path), "--algorithm", algorithm, "--model", str(path)])
        assert rc == 0
        records[algorithm] = json.loads(path.read_text(encoding="utf-8"))
    return records


@FUZZ
@given(data=st.data())
def test_malformed_corpus_never_exits_3(corpus_path, tmp_path, data):
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    which = data.draw(st.integers(0, len(lines) - 1))
    lines[which] = _text(data, json.loads(lines[which]))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["evaluate", "--corpus", str(bad), "--response", str(bad)])
    assert rc in (0, 1, 2)


@pytest.mark.parametrize("algorithm", tuple(LEARNERS))
@FUZZ
@given(data=st.data())
def test_malformed_model_never_exits_3(corpus_path, model_records, tmp_path, algorithm, data):
    bad = tmp_path / "model.json"
    bad.write_text(_text(data, model_records[algorithm]), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    rc = main(["predict", "--corpus", str(corpus_path), "--model", str(bad), "--out", str(out)])
    assert rc in (0, 1, 2)


def _chain_tree(depth: int) -> str:
    """A C4.5 root whose low branch nests ``depth`` splits deep, as JSON text."""
    leaf = '{"leaf":{"label":"-1","n":1,"errors":0}}'
    split = '{"split":{"attribute":0,"threshold":0.5,"majority":"-1","n":1,"errors":0},"high":' + leaf + ',"low":'
    return split * depth + leaf + "}" * depth


def _with_c45_root(record: dict, root: str) -> str:
    record = dict(record, models=list(record["models"]))
    fitted = next(i for i, m in enumerate(record["models"]) if m["kind"] == "c45")
    record["models"][fitted] = "ROOT"
    return json.dumps(record).replace('"ROOT"', '{"kind":"c45","classes":["+1","-1"],"root":' + root + "}")


def test_deeply_nested_corpus_line_is_data_error(corpus_path, tmp_path, capsys):
    bad = tmp_path / "deep.jsonl"
    bad.write_text(corpus_path.read_text(encoding="utf-8") + "[" * 100_000 + "\n", encoding="utf-8")
    assert main(["evaluate", "--corpus", str(bad), "--response", str(bad)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("depth, expected", [(500, 0), (985, 2), (100_000, 2)])
def test_deeply_nested_c45_tree_loads_or_is_data_error(corpus_path, model_records, tmp_path, depth, expected):
    bad = tmp_path / "deep.json"
    bad.write_text(_with_c45_root(model_records["c45"], _chain_tree(depth)), encoding="utf-8")
    rc = main(["predict", "--corpus", str(corpus_path), "--model", str(bad), "--out", str(tmp_path / "out.jsonl")])
    assert rc == expected


def test_deeply_nested_model_file_is_data_error(corpus_path, tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000, encoding="utf-8")
    rc = main(["predict", "--corpus", str(corpus_path), "--model", str(bad), "--out", str(tmp_path / "out.jsonl")])
    assert rc == 2
    assert "nested too deeply" in capsys.readouterr().err
