import gc
import itertools
import json
import types
import weakref

import pytest

from stencilpipe import bench, kernel
from stencilpipe.bench import (COLUMNS, BenchResult, cli_main, report)
from stencilpipe.grid import GridDims
from stencilpipe.pipeline import PipelineConfig, PipelineError


def _result(**kw):
    defaults = dict(variant="naive", dims=GridDims(8, 8, 8),
                    cfg=PipelineConfig(), sweeps=2, seconds=0.5,
                    updates=1024, verified="yes")
    defaults.update(kw)
    return BenchResult(**defaults)


def test_mlups_arithmetic():
    r = _result(updates=2_000_000, seconds=2.0)
    assert r.mlups == 1.0


def test_report_csv_shape():
    text = report([_result()])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 2
    row = dict(zip(COLUMNS, lines[1].split(",")))
    assert row["variant"] == "naive"
    assert row["nx"] == "8" and row["sweeps"] == "2"
    assert row["verified"] == "yes"


def test_report_json_round_trip():
    rows = json.loads(report([_result(), _result(variant="blocked")],
                             fmt="json"))
    assert [r["variant"] for r in rows] == ["naive", "blocked"]
    assert set(rows[0]) == set(COLUMNS)


def test_report_empty():
    assert report([]).strip() == ",".join(COLUMNS)


def test_cli_verify_ok(capsys):
    rc = cli_main(["verify", "--size", "12", "--teams", "1",
                   "--team-size", "2", "-T", "2", "--sweeps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "bitwise" in out


def test_cli_verify_names_the_build(capsys, backends, monkeypatch):
    # The loaded library's flags follow the backend, so a fallback from
    # the native build shows; under numpy there are none.
    for backend in backends:
        flags = kernel.BUILD_FLAGS if backend == "c" else None
        monkeypatch.setattr(bench, "BACKEND", backend)
        monkeypatch.setattr(bench, "BUILD_FLAGS", flags)
        assert cli_main(["verify", "--size", "8", "--sweeps", "1"]) == 0
        build = "" if flags is None else f" ({' '.join(flags)})"
        assert f" backend={backend}{build}: PASS" in capsys.readouterr().out


def test_cli_bench_reports_updates(capsys):
    rc = cli_main(["bench", "--size", "16", "--variant", "naive",
                   "--sweeps", "1", "--reps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    row = dict(zip(COLUMNS, lines[1].split(",")))
    # 16^3 updates per sweep; mlups = updates / seconds / 1e6
    assert row["verified"] == "yes"
    assert float(row["mlups"]) > 0
    assert float(row["seconds"]) > 0
    assert int(row["nx"]) ** 3 == 4096


def test_cli_bench_all_variants(capsys):
    rc = cli_main(["bench", "--size", "16", "--variant", "naive",
                   "--variant", "blocked", "--variant", "pipeline",
                   "--teams", "1", "--team-size", "2", "-T", "1",
                   "--sweeps", "1", "--reps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert [l.split(",")[0] for l in lines[1:]] == \
        ["naive", "blocked", "pipeline"]
    for line in lines[1:]:
        assert line.split(",")[-1] == "yes"


def test_cli_bench_compressed_pipeline(capsys):
    # warmup plus an odd number of timed sweeps: with one node sweep of
    # slack the origin must alternate down and up
    rc = cli_main(["bench", "--size", "16", "--variant", "pipeline",
                   "--storage", "compressed", "--teams", "1",
                   "--team-size", "2", "-T", "1", "--block", "16x8x8",
                   "--sweeps", "3", "--reps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().split("\n")[1].split(",")[-1] == "yes"


def test_cli_model_speedup(capsys):
    rc = cli_main(["model", "--speedup", "--t", "4", "--T", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "t,T,speedup"
    assert "4,1,1.45454545455" in out  # 16/11


def test_cli_model_multihalo(capsys):
    rc = cli_main(["model", "--multihalo", "--L", "64", "--h", "2", "32"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,h,bulk_s,face_s,comm_s,ratio,efficiency"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:2] == ["64", "2"]
    assert float(first[5]) < 1.0  # frozen table: ratio(64, 2) = 0.986


def test_cli_dist(capsys):
    rc = cli_main(["dist", "--size", "12", "--layout", "2x1x1",
                   "--teams", "1", "--team-size", "2", "-T", "1",
                   "--outer-steps", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_cli_rejects_bad_triple():
    with pytest.raises(SystemExit):
        cli_main(["bench", "--dims", "12x12"])


@pytest.mark.parametrize("argv", [
    ["dist", "--size", "12", "--storage", "compressed"],
    ["verify", "--size", "8", "--dl", "0"],
    ["bench", "--size", "8", "--block", "9x8x8", "--variant", "blocked"],
    ["model", "--speedup", "--t", "0"],
    ["bench", "--size", "8", "--reps", "0"],
    ["bench", "--size", "8", "--sweeps", "-1"],
    ["dist", "--size", "12", "--team-size", "1", "--outer-steps", "0"],
    ["bench", "--size", "8", "--variant", "naive", "--variant", "blocked",
     "--dump", "field.txt"],
], ids=["dist-compressed", "dl-0", "block-too-big", "model-t-0", "reps-0",
        "sweeps-negative", "outer-steps-0", "dump-two-variants"])
def test_cli_input_error_is_a_usage_error(argv, monkeypatch, tmp_path,
                                          capsys):
    # Exit 2 with a message and no output, never a traceback or exit 1,
    # which means a failed verification.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == "" and "error:" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_thread_failure_keeps_its_traceback(monkeypatch):
    def fail(*args, **kwargs):
        raise PipelineError("pipe 1 failed: ValueError()")

    monkeypatch.setattr(bench, "run_node_sweeps", fail)
    with pytest.raises(PipelineError):
        cli_main(["verify", "--size", "8"])


def test_cli_bench_keeps_one_grid_per_variant(monkeypatch, capsys):
    # Every rep computes the same field, so no earlier rep's grid, nor an
    # earlier variant's, may still be alive when the next one allocates.
    allocate, grids, alive = bench.allocate, [], []

    def tracked(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in grids))
        grid = allocate(*args, **kwargs)
        grids.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(bench, "allocate", tracked)
    rc = cli_main(["bench", "--size", "8", "--variant", "naive",
                   "--variant", "pipeline", "--reps", "3", "--sweeps", "1"])
    capsys.readouterr()
    assert rc == 0
    assert alive == [0] * 6


def test_cli_bench_median_of_equal_times(monkeypatch, capsys):
    # A clock that ticks once per reading gives every rep the same
    # seconds, so picking the median must not compare the reps' grids.
    ticks = itertools.count()
    monkeypatch.setattr(bench, "time",
                        types.SimpleNamespace(monotonic=lambda: next(ticks)))
    rc = cli_main(["bench", "--size", "8", "--variant", "naive",
                   "--reps", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    row = dict(zip(COLUMNS, out.strip().split("\n")[1].split(",")))
    assert float(row["seconds"]) == 1.0
    assert row["verified"] == "yes"
