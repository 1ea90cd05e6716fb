import hashlib
import json
import subprocess
import sys
import time

import pytest

import oracles
from cmgraph.cli import main
from cmgraph.complexes import format_complex, independence_complex, is_shelling_order
from cmgraph.fixtures import fig1_graph, fixture_text
from cmgraph.graphs import MAX_PARSE_N, Graph, format_graph


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.edges"
    path.write_text(fixture_text("fig1"))
    return str(path)


def write_graph(tmp_path, g, name="g.edges"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# happy paths


def test_cm_profile(capsys, fig1_file):
    code, out, err = run_cli(capsys, ["cm", fig1_file, "--char", "0", "--char", "2"])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "profile": [
            {"characteristic": 0, "is_cm": True, "witness": None},
            {
                "characteristic": 2,
                "is_cm": False,
                "witness": {"face": [], "index": 1},
            },
        ]
    }


def test_unmixed_exit_codes(capsys, tmp_path, fig1_file):
    code, out, _ = run_cli(capsys, ["unmixed", fig1_file])
    assert code == 0 and json.loads(out) == {"unmixed": True}
    p3 = write_graph(tmp_path, oracles.path_graph(3))
    code, out, _ = run_cli(capsys, ["unmixed", p3])
    assert code == 1 and json.loads(out) == {"unmixed": False}


def test_perfect_exit_codes(capsys, tmp_path):
    c5 = write_graph(tmp_path, oracles.cycle_graph(5))
    code, out, _ = run_cli(capsys, ["perfect", c5])
    assert code == 1 and json.loads(out) == {"perfect": False}


def test_perfect_on_a_40_vertex_path(capsys, tmp_path):
    p40 = write_graph(tmp_path, oracles.path_graph(40))
    code, out, _ = run_cli(capsys, ["perfect", p40])
    assert code == 0 and json.loads(out) == {"perfect": True}


def test_shellable(capsys, tmp_path):
    tri = tmp_path / "tri.cx"
    tri.write_text("3 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(capsys, ["shellable", str(tri)])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "shellable"
    assert sorted(map(tuple, data["order"])) == [(1, 2), (1, 3), (2, 3)]

    pair = tmp_path / "pair.cx"
    pair.write_text("4 2\n1 2\n3 4\n")
    code, out, _ = run_cli(capsys, ["shellable", str(pair)])
    assert code == 1
    assert json.loads(out)["status"] == "not_shellable"


def test_shellable_budget_flag(capsys, tmp_path):
    sphere = tmp_path / "sphere.cx"
    sphere.write_text("4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
    code, out, _ = run_cli(capsys, ["shellable", str(sphere), "--budget", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "budget_exhausted" and data["order"] is None


def test_shellable_long_path_exits_0(capsys, tmp_path):
    path = tmp_path / "path.cx"
    path.write_text("1101 1100\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 1101)))
    code, out, err = run_cli(capsys, ["shellable", str(path)])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["status"] == "shellable"
    assert len(data["order"]) == 1100
    assert is_shelling_order(map(tuple, data["order"]))


def test_shellable_fig1_complex_exits_1(capsys, tmp_path):
    cx = tmp_path / "fig1.cx"
    cx.write_text(format_complex(independence_complex(fig1_graph())))
    code, out, err = run_cli(capsys, ["shellable", str(cx)])
    assert code == 1 and err == ""
    assert json.loads(out) == {"status": "not_shellable", "order": None, "steps": 32_936}


def test_homology(capsys, tmp_path):
    tri = tmp_path / "tri.cx"
    tri.write_text("3 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(capsys, ["homology", str(tri), "--char", "0", "--char", "2"])
    assert code == 0
    assert json.loads(out) == {
        "dimension": 1,
        "f_vector": [1, 3, 3],
        "betti": {"0": [0, 0, 1], "2": [0, 0, 1]},
    }


def test_homology_of_a_complex_with_thousands_of_faces(capsys, tmp_path):
    # Ind(whiskered P8) has 3,344 faces, so each default characteristic
    # (0, 2 and 3) reduces boundary maps with up to 976 columns
    cx = independence_complex(oracles.whiskered_path(8))
    path = tmp_path / "wp8.cx"
    path.write_text(format_complex(cx))
    code, out, _ = run_cli(capsys, ["homology", str(path)])
    assert code == 0
    result = json.loads(out)
    assert sum(result["f_vector"]) == 3344
    assert result["betti"] == {c: [0] * 9 for c in ("0", "2", "3")}


def test_matchings(capsys, tmp_path):
    c6 = write_graph(tmp_path, oracles.cycle_graph(6))
    code, out, _ = run_cli(capsys, ["matchings", c6, "--r", "2"])
    assert code == 0
    assert json.loads(out) == {
        "r": 2,
        "matchings": [[[1, 2], [3, 4], [5, 6]], [[1, 6], [2, 3], [4, 5]]],
    }


def test_matchings_on_two_odd_cliques_end_at_once(capsys, tmp_path):
    # backtracking with no feasibility test would take minutes here
    k19 = [(u, v) for u in range(1, 20) for v in range(u + 1, 20)]
    g = Graph(38, k19 + [(u + 19, v + 19) for u, v in k19])
    path = write_graph(tmp_path, g)
    start = time.process_time()
    code, out, _ = run_cli(capsys, ["matchings", path, "--r", "2"])
    assert time.process_time() - start < 1.0
    assert code == 0
    assert json.loads(out) == {"r": 2, "matchings": []}


def test_cm_on_a_whiskered_path_at_the_parse_cap_ends_at_once(capsys, tmp_path):
    # Ind of the whiskered P256 has about 10^53 facets; the certificate
    # decides it on the graph's vertex masks without listing them
    path = write_graph(tmp_path, oracles.whiskered_path(256))
    start = time.process_time()
    code, out, _ = run_cli(capsys, ["cm", path])
    assert time.process_time() - start < 1.0
    assert code == 0
    assert json.loads(out) == {
        "profile": [{"characteristic": c, "is_cm": True, "witness": None} for c in (0, 2, 3)]
    }


def test_cm_on_c4_beside_a_whiskered_p8_keeps_its_bytes_and_ends_at_once(capsys, tmp_path):
    # the certificate fails on C4, so the scan reduces links of up to 18
    # vertices; strong-collapsed first, they take well under the bound
    path = write_graph(tmp_path, oracles.c4_beside_whiskered_path(8))
    start = time.process_time()
    code, out, _ = run_cli(capsys, ["cm", path])
    assert time.process_time() - start < 0.5
    assert code == 0
    witness = '"witness":{"face":[13,15,17,19],"index":4}'
    assert out == (
        '{"profile":['
        + ",".join(f'{{"characteristic":{c},"is_cm":false,{witness}}}' for c in (0, 2, 3))
        + "]}\n"
    )


def test_matchings_on_a_bipartite_graph_without_a_perfect_matching_end_at_once(
    capsys, tmp_path
):
    # every component the search leaves is even, so only a matching test of
    # the bipartite rest cuts the subtrees: without it, minutes
    path = write_graph(tmp_path, oracles.hall_violator(14))
    start = time.process_time()
    code, out, _ = run_cli(capsys, ["matchings", path, "--r", "2"])
    assert time.process_time() - start < 1.0
    assert code == 0
    assert json.loads(out) == {"r": 2, "matchings": []}


def test_cover(capsys, tmp_path):
    p3 = write_graph(tmp_path, oracles.path_graph(3))
    cov = tmp_path / "cover.json"
    cov.write_text("[[1, 2], [2, 3]]")
    code, out, _ = run_cli(capsys, ["cover", p3, str(cov)])
    assert code == 0
    assert json.loads(out) == {"cliques": [[1, 2], [3]], "dropped": []}


def test_cover_accepts_only_a_list_of_integer_lists(capsys, tmp_path):
    # int() would read each of these as the cover [[1, 2], [3]]
    p3 = write_graph(tmp_path, oracles.path_graph(3))
    cov = tmp_path / "cover.json"
    for text in ('[[1.9, 2], [3]]', '["12", "3"]', '{"12": 0, "3": 1}', '[[true, 2], [3]]'):
        cov.write_text(text)
        code, out, err = run_cli(capsys, ["cover", p3, str(cov)])
        assert (code, out) == (2, ""), text
        assert err.startswith("cmgraph: error:"), text


def test_classg_exit_codes(capsys, tmp_path):
    k3 = write_graph(tmp_path, oracles.complete_graph(3), "k3.edges")
    code, out, _ = run_cli(capsys, ["classg", k3])
    assert code == 0 and json.loads(out) == {"in_class": True, "cover": [[1, 2, 3]]}
    c5 = write_graph(tmp_path, oracles.cycle_graph(5), "c5.edges")
    code, out, _ = run_cli(capsys, ["classg", c5])
    assert code == 1 and json.loads(out) == {"in_class": False, "cover": None}


TWELVE_TRIANGLES = [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(12)]


@pytest.mark.parametrize(
    "command, expected",
    [("unmixed", {"unmixed": True}), ("classg", {"in_class": True, "cover": TWELVE_TRIANGLES})],
)
def test_unmixed_and_classg_on_twelve_disjoint_triangles_end_at_once(
    capsys, tmp_path, command, expected
):
    # each component is searched alone: the whole graph has 3^12 maximal
    # independent sets
    path = write_graph(tmp_path, oracles.disjoint_triangles(12))
    start = time.process_time()
    code, out, _ = run_cli(capsys, [command, path])
    assert time.process_time() - start < 0.25
    assert code == 0 and json.loads(out) == expected


def test_classg_on_a_chain_of_fourteen_triangles_ends_at_once(capsys, tmp_path):
    # one component with exponentially many maximal independent sets, so
    # the component split does not help; the independence number comes from
    # a maximum-clique search of the complement
    path = write_graph(tmp_path, oracles.triangle_chain(14))
    start = time.process_time()
    code, out, _ = run_cli(capsys, ["classg", path])
    assert time.process_time() - start < 0.25
    cover = [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(14)]
    assert code == 0 and json.loads(out) == {"in_class": True, "cover": cover}


def test_harness_subcommand(capsys, tmp_path):
    report = tmp_path / "report.jsonl"
    code, out, _ = run_cli(
        capsys, ["harness", "--n-max", "5", "--r", "2", "-o", str(report)]
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["violations_total"] == 0
    assert summary["report_path"] == str(report)
    assert len(report.read_text().splitlines()) == summary["graphs_checked"]


def test_fixtures_writes_exact_text(capsys, tmp_path):
    target = tmp_path / "out.edges"
    code, out, _ = run_cli(capsys, ["fixtures", "fig1", "-o", str(target)])
    assert code == 0
    assert json.loads(out) == {"fixture": "fig1", "written": str(target)}
    assert target.read_text() == fixture_text("fig1")


def test_fixtures_to_stdout(capsys):
    code, out, _ = run_cli(capsys, ["fixtures", "fig1"])
    assert code == 0
    assert json.loads(out)["text"] == fixture_text("fig1")


# ---------------------------------------------------------------------------
# output discipline


def test_output_is_byte_identical_across_runs(capsys, fig1_file):
    _, first, _ = run_cli(capsys, ["cm", fig1_file])
    _, second, _ = run_cli(capsys, ["cm", fig1_file])
    assert first == second


def test_pretty_flag_changes_layout_not_content(capsys, fig1_file):
    _, compact, _ = run_cli(capsys, ["cm", fig1_file])
    _, pretty, _ = run_cli(capsys, ["cm", fig1_file, "--pretty"])
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


# ---------------------------------------------------------------------------
# error handling


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, ["cm", "/nonexistent.edges"])
    assert code == 2 and out == ""
    assert err.startswith("cmgraph: error:")


@pytest.mark.parametrize("which", ["graph", "cover"])
def test_non_utf8_input_file_exits_2_naming_the_file(capsys, tmp_path, which):
    p3 = write_graph(tmp_path, oracles.path_graph(3))
    bad = tmp_path / f"bad-{which}.txt"
    bad.write_bytes(b"\xff3 2\n1 2\n2 3\n")
    args = ["cm", str(bad)] if which == "graph" else ["cover", p3, str(bad)]
    code, out, err = run_cli(capsys, args)
    assert code == 2 and out == ""
    assert err.startswith(f"cmgraph: error: cannot read {bad}: ") and "utf-8" in err


def test_malformed_graph_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 1\n1 9\n")
    code, out, err = run_cli(capsys, ["cm", str(bad)])
    assert code == 2 and "out of range" in err


def test_huge_header_vertex_count_exits_2_without_allocating(capsys, tmp_path, monkeypatch):
    """A header n above MAX_PARSE_N is rejected before Graph sees it; the
    guard fails the test instead of building a billion-vertex graph."""
    real_init = Graph.__init__

    def guarded_init(self, n, edges=()):
        assert n <= MAX_PARSE_N, f"Graph({n}) built from an untrusted header"
        real_init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", guarded_init)
    huge = tmp_path / "huge.edges"
    huge.write_text("1000000000 0\n")
    code, out, err = run_cli(capsys, ["cm", str(huge)])
    assert code == 2 and out == ""
    assert err.startswith("cmgraph: error:") and f"limit of {MAX_PARSE_N} vertices" in err


def test_unknown_fixture(capsys):
    code, out, err = run_cli(capsys, ["fixtures", "nope"])
    assert code == 2 and "unknown fixture" in err


def test_malformed_json_cover_exits_2(capsys, tmp_path):
    p3 = write_graph(tmp_path, oracles.path_graph(3))
    cov = tmp_path / "cover.json"
    cov.write_text("[[1, 2], [3]")
    code, out, err = run_cli(capsys, ["cover", p3, str(cov)])
    assert code == 2 and out == ""
    assert err.startswith(f"cmgraph: error: {cov}: expected a JSON list of cliques: ")
    assert err.count("\n") == 1


def test_fixture_to_an_unwritable_path_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "fig1.edges"
    code, out, err = run_cli(capsys, ["fixtures", "fig1", "-o", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"cmgraph: error: cannot write {target}: ")
    assert err.count("\n") == 1 and not target.parent.exists()


def test_bad_characteristic(capsys, fig1_file):
    code, out, err = run_cli(capsys, ["cm", fig1_file, "--char", "4"])
    assert code == 2 and err.startswith("cmgraph: error:")


def test_shellable_nonpositive_budget_exits_2(capsys, tmp_path):
    tri = tmp_path / "tri.cx"
    tri.write_text("3 3\n1 2\n1 3\n2 3\n")
    code, out, err = run_cli(capsys, ["shellable", str(tri), "--budget", "0"])
    assert code == 2 and out == ""
    assert err.startswith("cmgraph: error:") and "budget must be positive" in err


def test_shellable_nonpure_complex_exits_2(capsys, tmp_path):
    mixed = tmp_path / "mixed.cx"
    mixed.write_text("3 2\n1 2\n3\n")
    code, out, err = run_cli(capsys, ["shellable", str(mixed)])
    assert code == 2 and out == ""
    assert err.startswith("cmgraph: error:") and "requires a pure complex" in err


@pytest.mark.parametrize(
    "n_max, message",
    [("0", "n must be at least 1"), ("10", "enumeration supports at most n = 9")],
)
def test_harness_vertex_bound_out_of_range_exits_2(capsys, n_max, message):
    # the bound is checked by run_battery alone, from MAX_CANONICAL_N
    code, out, err = run_cli(capsys, ["harness", "--n-max", n_max])
    assert code == 2 and out == ""
    assert err == f"cmgraph: error: {message}\n"


def test_harness_unwritable_report_exits_2_before_enumerating(capsys, tmp_path, monkeypatch):
    # the report is opened first, so a bad path costs no sweep
    from cmgraph import harness

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the report was opened")

    monkeypatch.setattr(harness, "_scan", no_sweep)
    target = tmp_path / "missing" / "report.jsonl"
    code, out, err = run_cli(capsys, ["harness", "--n-max", "3", "-o", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"cmgraph: error: cannot write {target}: ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert not target.parent.exists()


def test_harness_has_no_jobs_option(capsys):
    code, out, err = run_cli(capsys, ["harness", "--n-max", "3", "--jobs", "2"])
    assert code == 2 and out == ""
    assert "--jobs" in err
    code, out, _ = run_cli(capsys, ["harness", "--help"])
    assert code == 0 and "--n-max" in out and "--jobs" not in out


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_module_entry_point(fig1_file):
    proc = subprocess.run(
        [sys.executable, "-m", "cmgraph.cli", "unmixed", fig1_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"unmixed": True}


# ---------------------------------------------------------------------------
# pinned bytes: every subcommand's stdout (by sha256) and exit code, and the
# stderr of malformed inputs, compact and --pretty

_PINNED_INPUTS = {
    "fig1.edges": fixture_text("fig1"),
    "c6.edges": "6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n",
    "tri.cx": "3 3\n1 2\n1 3\n2 3\n",
    "cover.json": "[[1, 4, 8], [2, 5, 10], [5, 9, 11], [3, 6], [7, 11]]",
    "bad.edges": "3 1\n1 9\n",
    "bad.cx": "3 2\n1 2\n",
    "bad.json": "[[1, 4], [3]",
}

_PINNED_STDOUT = [
    (["cm", "fig1.edges"], 0,
     "91cfed23e3ba8ca3b48045700b07f795c57d594e60a02a37262ba41b666efd3c",
     "d65d9833352bc988ed0f57628afe9c63f0bf6201ba8fbc21e50bb42d5ebc7bd8"),
    (["unmixed", "fig1.edges"], 0,
     "b821bc6f24f01c629a0ca514298ba4853d41df0e8746bff165af579a9c24a895",
     "2e6a08b4411a0cf431fa12d4e65894465604345dc488e62abf9e4226b00d7832"),
    (["perfect", "fig1.edges"], 1,
     "850bc512ce58f4492650f242039efa3d359506ef41a309b750b8239c0f14bbc4",
     "094274216be92fd9dfe4c58bdd22e0295e174eed6e50830f3c47d8d6e8e18a10"),
    (["shellable", "tri.cx"], 0,
     "1468b70f16a87777930f9ffa9b0fead5b6bc855c25f93cfd94f5a4eef511a7a4",
     "00343ddb6ab87c8696d5c04a12785f229d8bcbfeb7d979eb684bda8c259dc00b"),
    (["homology", "tri.cx"], 0,
     "9cc02a17e8da1f096a7192635e7a1a30e041549fd4e3d093571d7a821bcb0acc",
     "f8630207794ef5b22e61ef5c096f7c32cc0e8fd78b9f1b5949da76a6c126ccd2"),
    (["matchings", "c6.edges", "--r", "2"], 0,
     "183ae2a4f976e0106e20f20ce041d7d1e7eb422a46e0e32f6bc33bb978ace702",
     "2cd7db4ab4d7695f24cdee444585f3d80a37022b96df7a8d1833dd8e7934ef3f"),
    (["cover", "fig1.edges", "cover.json"], 0,
     "7c8cf8126cc15c08fe03cddf5976c7df896e0e28e90b4b36e072c816a1be337f",
     "1d2ab36c5b9af244cee5f0a12322be25b0f5e6b8e53b6e4131906dd6a07579b6"),
    (["classg", "fig1.edges"], 1,
     "2745134a03d5b2a866632171fd864751d5b3dc8cb2ed76953f52a326ea357b83",
     "cf383fb8186656b5704bf486b3788d4ef8c6946e426543774bdf13f2b1f53179"),
    (["classg", "c6.edges"], 0,
     "ff2ac7384bb772c826122f20e88b405b6dda73616487b7a8ca5283bc9a6365e2",
     "ba32e3cf267d31a4eed297a1786f659bb01b49230c06463c432977f637b7b1b4"),
    (["harness", "--n-max", "4"], 0,
     "060ca5f9773bdf4c198847b8fe2c7702624b9736635b9ac61ba04b38092e33ed",
     "c15b367a33d3db0d341976105013fdb4887d4f731ed4efcaa091f2f9d99b778b"),
    (["fixtures", "fig1"], 0,
     "90ebb9302b7b61760cb5c4f3eac0a74a412b1e3ea9886fea1af06e7ed2649298",
     "f57b8aacadf6d33bb832e9377b90543dc80cd9627867052095aaaee2e9343a30"),
]

_PINNED_STDERR = [
    (["cm", "bad.edges"], "{dir}/bad.edges: line 2: vertex out of range 1..3"),
    (["shellable", "bad.cx"], "{dir}/bad.cx: expected 2 facet lines, found 1"),
    (
        ["cover", "fig1.edges", "bad.json"],
        "{dir}/bad.json: expected a JSON list of cliques: "
        "Expecting ',' delimiter: line 1 column 13 (char 12)",
    ),
]


def _pinned_argv(tmp_path, argv):
    for name, text in _PINNED_INPUTS.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a) if a in _PINNED_INPUTS else a for a in argv]


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize(
    "argv, code, compact, indented",
    _PINNED_STDOUT,
    ids=[f"{argv[0]}-{argv[1]}" for argv, *_ in _PINNED_STDOUT],
)
def test_every_subcommand_keeps_its_bytes(capsys, tmp_path, argv, code, compact, indented, pretty):
    argv = _pinned_argv(tmp_path, argv) + (["--pretty"] if pretty else [])
    got, out, err = run_cli(capsys, argv)
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (indented if pretty else compact)


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("argv, message", _PINNED_STDERR, ids=["graph", "complex", "cover"])
def test_malformed_inputs_keep_their_messages(capsys, tmp_path, argv, message, pretty):
    argv = _pinned_argv(tmp_path, argv) + (["--pretty"] if pretty else [])
    assert run_cli(capsys, argv) == (2, "", f"cmgraph: error: {message.format(dir=tmp_path)}\n")
