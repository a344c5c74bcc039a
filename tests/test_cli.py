"""Tests for the command-line interface."""

import errno
import os

import pytest

from repro.cli import main

from tests import fault_injection as injection


class TestScenesAndCosts:
    def test_scenes_lists_all(self, capsys):
        assert main(["scenes"]) == 0
        out = capsys.readouterr().out
        for name in ("flight", "town", "guitar", "goblet"):
            assert name in out

    def test_costs_table(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "trilinear interpolation" in out
        assert "per-fragment total" in out

    def test_costs_layout_choice(self, capsys):
        assert main(["costs", "--layout", "nonblocked"]) == 0
        assert "nonblocked" in capsys.readouterr().out


class TestRender:
    def test_render_stats_only(self, capsys):
        assert main(["render", "goblet", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "goblet" in out
        assert "texel fetches" in out

    def test_render_png(self, tmp_path, capsys):
        out_path = os.path.join(tmp_path, "frame.png")
        assert main(["render", "goblet", "--scale", "0.1",
                     "--out", out_path]) == 0
        with open(out_path, "rb") as handle:
            assert handle.read(4) == b"\x89PNG"

    def test_render_ppm(self, tmp_path):
        out_path = os.path.join(tmp_path, "frame.ppm")
        assert main(["render", "goblet", "--scale", "0.1",
                     "--out", out_path]) == 0
        with open(out_path, "rb") as handle:
            assert handle.read(2) == b"P6"

    def test_save_trace_writes_the_path_given(self, tmp_path, capsys):
        from repro.pipeline.trace import TexelTrace

        path = tmp_path / "frame.trace"
        assert main(["render", "goblet", "--scale", "0.05",
                     "--save-trace", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        assert sorted(tmp_path.iterdir()) == [path]
        assert TexelTrace.load(str(path)).n_accesses > 0

    def test_render_orders(self, capsys):
        for order in ("horizontal", "vertical", "tiled", "hilbert"):
            assert main(["render", "goblet", "--scale", "0.1",
                         "--order", order]) == 0

    def test_unknown_scene_rejected(self):
        with pytest.raises(SystemExit):
            main(["render", "teapot"])


class TestSimulate:
    def test_simulate_reports_breakdown(self, capsys):
        assert main(["simulate", "goblet", "--scale", "0.1",
                     "--cache-size", "8192", "--line-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "miss rate" in out
        assert "conflict misses" in out
        assert "MB/s" in out

    def test_simulate_fully_associative(self, capsys):
        assert main(["simulate", "goblet", "--scale", "0.1",
                     "--assoc", "0"]) == 0
        assert "full" in capsys.readouterr().out

    def test_simulate_layouts(self, capsys):
        for layout in ("nonblocked", "blocked", "padded", "blocked6d",
                       "williams"):
            assert main(["simulate", "goblet", "--scale", "0.1",
                         "--layout", layout]) == 0

    def test_warm_simulate_reads_the_stored_profiles(self, capsys,
                                                     monkeypatch):
        # An in-RAM simulate stores both profiles it reads; a second
        # run must classify off them without a per-set distance pass.
        args = ["simulate", "town", "--scale", "0.05", "--layout",
                "blocked", "--block", "8", "--cache-size", "4096",
                "--line-size", "32", "--assoc", "2"]
        assert main(args) == 0
        cold = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("the warm run recomputed a profile")

        monkeypatch.setattr("repro.core.kernels.set_distance_histogram",
                            refuse)
        assert main(args) == 0
        assert capsys.readouterr().out == cold

    def test_stream_workers_reject_reference_kernel(self, capsys):
        # --stream-workers (any count) requests streaming; the reference
        # simulator cannot stream, so the CLI refuses instead of
        # silently dropping the flag.
        for args in (["simulate"], ["sweep", "--axis", "cache"]):
            assert main([args[0], "goblet", "--scale", "0.1",
                         *args[1:], "--stream-workers", "1",
                         "--kernel", "reference"]) == 2
            assert "vectorized" in capsys.readouterr().err


class TestStoreRecoveryNote:
    @pytest.mark.parametrize("command", ["render", "simulate", "sweep",
                                         "timing", "hierarchy", "parallel"])
    def test_command_reports_store_degradation(self, tmp_path, monkeypatch,
                                               capsys, command):
        # A disk that cannot keep the run's artifacts demotes the store;
        # every command that reads the store says so instead of hiding
        # that nothing was stored.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        with injection.disk_full(errno.ENOSPC), \
                pytest.warns(RuntimeWarning, match="unavailable"):
            assert main([command, "goblet", "--scale", "0.05"]) == 0
        assert "artifact store degraded" in capsys.readouterr().out


class TestSweep:
    def test_cache_axis(self, capsys):
        assert main(["sweep", "goblet", "--scale", "0.1",
                     "--axis", "cache"]) == 0
        out = capsys.readouterr().out
        assert "32KB" in out

    def test_line_axis(self, capsys):
        assert main(["sweep", "goblet", "--scale", "0.1",
                     "--axis", "line"]) == 0
        assert "256B" in capsys.readouterr().out

    def test_assoc_axis(self, capsys):
        assert main(["sweep", "goblet", "--scale", "0.1",
                     "--axis", "assoc"]) == 0
        out = capsys.readouterr().out
        assert "2-way" in out
        assert "full" in out

    @pytest.mark.parametrize("flags", [
        ["--chunk-size", "0"],
        ["--chunk-size", "-4096"],
        ["--stream-workers", "-2"],
        ["--chunk-size", "4096", "--audit-parts", "-1"],
    ], ids=["chunk_zero", "chunk_negative", "workers_negative",
            "audit_negative"])
    def test_out_of_range_streaming_values_are_usage_errors(self, capsys,
                                                            flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "goblet", "--scale", "0.05", "--axis", "assoc",
                  "--cache-size", "1024", "--line-size", "128", *flags])
        assert exit_info.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_audit_parts_reports_the_audit(self, capsys):
        assert main(["sweep", "goblet", "--scale", "0.05",
                     "--chunk-size", "4096", "--audit-parts", "1"]) == 0
        audits = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("audit: ")]
        assert len(audits) == 1
        assert "parts vs the sequential oracle" in audits[0]
        assert audits[0].endswith("accesses checked -- OK")


class TestParallelAndHierarchy:
    def test_parallel_subcommand(self, capsys):
        assert main(["parallel", "goblet", "--scale", "0.1",
                     "--generators", "2"]) == 0
        out = capsys.readouterr().out
        assert "scanline-interleave" in out
        assert "strip-split" in out
        assert "MB/s" in out

    def test_hierarchy_subcommand(self, capsys):
        assert main(["hierarchy", "goblet", "--scale", "0.1",
                     "--l1-size", "2048", "--l2-size", "8192"]) == 0
        out = capsys.readouterr().out
        assert "L1" in out and "L2" in out
        assert "memory miss rate" in out


class TestTiming:
    def test_single_config(self, capsys):
        assert main(["timing", "goblet", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "fragment FIFO" in out
        assert "total cycles" in out

    def test_sweep_table(self, capsys):
        assert main(["timing", "goblet", "--scale", "0.1",
                     "--depths", "0,32", "--latencies", "10,100",
                     "--dram-services"]) == 0
        out = capsys.readouterr().out
        assert "Latency tolerance" in out
        assert "efficiency" in out

    def test_reference_kernel(self, capsys):
        assert main(["timing", "goblet", "--scale", "0.1",
                     "--kernel", "reference"]) == 0
        assert "total cycles" in capsys.readouterr().out


class TestFilteringFlags:
    def test_aniso_flag(self, capsys):
        assert main(["simulate", "flight", "--scale", "0.1",
                     "--aniso", "4"]) == 0
        assert "miss rate" in capsys.readouterr().out

    def test_lod_bias_flag(self, capsys):
        assert main(["render", "goblet", "--scale", "0.1",
                     "--lod-bias", "1.0"]) == 0

    def test_no_mipmaps_flag(self, capsys):
        assert main(["simulate", "flight", "--scale", "0.1",
                     "--no-mipmaps"]) == 0
