"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core import ALGORITHMS


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    net = base / "net.net"
    obj = base / "obj.obj"
    code = main(
        [
            "generate",
            "--nodes", "200",
            "--seed", "3",
            "--out", str(net),
            "--objects", str(obj),
            "--omega", "0.4",
        ]
    )
    assert code == 0
    return net, obj


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_algorithms_exposed(self):
        assert set(ALGORITHMS) == {"CE", "EDC", "LBC", "LBC-lazy", "naive"}


class TestGenerate:
    def test_generate_preset(self, tmp_path, capsys):
        out = tmp_path / "ca.net"
        code = main(
            ["generate", "--preset", "CA", "--scale", "0.05", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "junctions" in capsys.readouterr().out

    def test_generate_without_source_fails(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "x.net")])
        assert code == 2
        assert "preset or --nodes" in capsys.readouterr().err

    def test_generated_files_load(self, dataset):
        from repro.datasets import load_network, load_objects

        net_path, obj_path = dataset
        network = load_network(net_path)
        objects = load_objects(network, obj_path)
        assert network.node_count == 200
        assert len(objects) == round(0.4 * network.edge_count)


class TestInfo:
    def test_info_output(self, dataset, capsys):
        net_path, _ = dataset
        assert main(["info", str(net_path)]) == 0
        out = capsys.readouterr().out
        assert "junctions:      200" in out
        assert "total length:" in out
        assert "density:" in out
        assert "connected:      True" in out


class TestQuery:
    def test_query_with_random_queries(self, dataset, capsys):
        net_path, obj_path = dataset
        code = main(
            [
                "query", str(net_path), str(obj_path),
                "--random-queries", "3", "--seed", "9", "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skyline points (LBC)" in out
        assert "candidates=" in out
        # The query's span tree follows the stats rows: its root, then
        # the LBC phases one level down.
        lines = out.splitlines()
        root = next(
            i for i, line in enumerate(lines) if line.startswith("query.LBC ")
        )
        assert lines[root - 1].startswith("trace ")
        assert any(line.startswith("  lbc.") for line in lines[root + 1:])

    def test_query_with_explicit_nodes(self, dataset, capsys):
        net_path, obj_path = dataset
        code = main(
            [
                "query", str(net_path), str(obj_path),
                "--query-nodes", "1", "17", "--algorithm", "CE",
            ]
        )
        assert code == 0
        assert "(CE)" in capsys.readouterr().out

    def test_query_unknown_node_fails(self, dataset, capsys):
        net_path, obj_path = dataset
        code = main(
            ["query", str(net_path), str(obj_path), "--query-nodes", "99999"]
        )
        assert code == 2
        assert "unknown junction" in capsys.readouterr().err

    def test_all_algorithms_agree_via_cli(self, dataset, capsys):
        net_path, obj_path = dataset
        answers = {}
        for name in ("CE", "EDC", "LBC", "naive"):
            main(
                [
                    "query", str(net_path), str(obj_path),
                    "--query-nodes", "5", "40", "90",
                    "--algorithm", name,
                ]
            )
            out = capsys.readouterr().out
            ids = sorted(
                int(line.split()[0])
                for line in out.splitlines()
                if line.strip() and line.split()[0].isdigit()
            )
            answers[name] = ids
        assert len({tuple(v) for v in answers.values()}) == 1


class TestOracle:
    def test_verify_passes_on_a_matching_index(self, dataset, tmp_path, capsys):
        net_path, _ = dataset
        index = tmp_path / "net.oracle"
        assert main(["oracle", "build", str(net_path), "--out", str(index)]) == 0
        capsys.readouterr()
        code = main(
            ["oracle", "verify", str(net_path), str(index), "--samples", "32"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "verified 32 sampled pairs (hublabel)"
        assert lines[1].startswith("max relative error: ")
        assert lines[-1] == "OK"

    def test_verify_rejects_a_signature_mismatch(self, dataset, tmp_path, capsys):
        net_path, _ = dataset
        other = tmp_path / "other.net"
        index = tmp_path / "other.oracle"
        code = main(["generate", "--nodes", "60", "--seed", "4", "--out", str(other)])
        assert code == 0
        assert main(["oracle", "build", str(other), "--out", str(index)]) == 0
        capsys.readouterr()
        assert main(["oracle", "verify", str(net_path), str(index)]) == 1
        captured = capsys.readouterr()
        assert "signature mismatch" in captured.err
        assert "OK" not in captured.out


class TestJSONOutput:
    def test_query_writes_json(self, dataset, tmp_path, capsys):
        import json

        net_path, obj_path = dataset
        out = tmp_path / "result.json"
        code = main(
            [
                "query", str(net_path), str(obj_path),
                "--query-nodes", "5", "40",
                "--json", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["algorithm"] == "LBC"
        assert len(payload["query_points"]) == 2
        assert payload["skyline"]
        for point in payload["skyline"]:
            assert len(point["vector"]) == 2
        assert payload["stats"]["|Q|"] == 2
        trace = payload["trace"]
        assert trace["name"] == "query.LBC"
        assert trace["attributes"]["skyline_count"] == len(payload["skyline"])
        assert {child["name"] for child in trace["children"]} <= {
            "lbc.stream", "lbc.resolve"
        }
