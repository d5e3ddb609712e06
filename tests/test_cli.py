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


def _write_trace_file(directory, name="trace-0001.json"):
    import json

    from repro.obs import tracing

    with tracing.span("request.cli-test") as root:
        with tracing.span("query.lbc") as child:
            child.record("nodes_settled", 4.0)
    path = directory / name
    path.write_text(json.dumps(root.to_dict()))
    return path


def _write_flight_record(directory):
    from repro.obs import Completion, FlightRecorder, tracing

    recorder = FlightRecorder(dump_dir=str(directory))
    with tracing.span("request.cli-test") as root:
        root.record("nodes_settled", 2.0)
    recorder.record(
        Completion(
            request_id=1,
            algorithm="LBC",
            outcome="completed",
            latency_s=0.01,
            span=root,
        )
    )
    path = recorder.dump("manual", force=True)
    assert path is not None
    return path


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


class TestTraceLast:
    def test_renders_newest_trace_export(self, tmp_path, capsys):
        _write_trace_file(tmp_path)
        code = main(["trace", "--last", "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace-0001.json:" in out
        assert "request.cli-test" in out
        assert "query.lbc" in out

    def test_prefers_the_most_recent_file(self, tmp_path, capsys):
        import os

        old = _write_trace_file(tmp_path, "trace-old.json")
        os.utime(old, (1, 1))
        _write_flight_record(tmp_path)
        code = main(["trace", "--last", "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "flightrecord-" in out
        assert "recent completed traces" in out

    def test_last_without_trace_dir_is_an_error(self, capsys):
        assert main(["trace", "--last"]) == 2
        assert "--trace-dir" in capsys.readouterr().err

    def test_empty_trace_dir_is_an_error(self, tmp_path, capsys):
        assert main(["trace", "--last", "--trace-dir", str(tmp_path)]) == 2
        assert "no trace-" in capsys.readouterr().err

    def test_trace_without_inputs_or_last_is_an_error(self, capsys):
        assert main(["trace"]) == 2
        assert "unless --last" in capsys.readouterr().err


class TestBlackbox:
    def test_renders_a_dump_by_path(self, tmp_path, capsys):
        path = _write_flight_record(tmp_path)
        code = main(["blackbox", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "flight record" in out
        assert "request.cli-test" in out
        assert "thread stacks" in out

    def test_dir_mode_picks_latest_and_no_threads(self, tmp_path, capsys):
        _write_flight_record(tmp_path)
        code = main(["blackbox", "--dir", str(tmp_path), "--no-threads"])
        assert code == 0
        out = capsys.readouterr().out
        assert "request.cli-test" in out
        assert "thread stacks" not in out

    def test_without_path_or_dir_is_an_error(self, capsys):
        assert main(["blackbox"]) == 2
        assert "--dir" in capsys.readouterr().err

    def test_empty_dir_is_an_error(self, tmp_path, capsys):
        assert main(["blackbox", "--dir", str(tmp_path)]) == 2
        assert "no flightrecord-" in capsys.readouterr().err

    def test_non_flight_record_json_is_an_error(self, tmp_path, capsys):
        trace = _write_trace_file(tmp_path)
        assert main(["blackbox", str(trace)]) == 2
        assert "error:" in capsys.readouterr().err


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
