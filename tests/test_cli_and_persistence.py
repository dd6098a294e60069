"""Tests for the command-line interface and the tree persistence format."""

import struct

import pytest

from repro.cbb.clip_point import ClipPoint
from repro.bench.registry import experiment_ids
from repro.cli import build_parser, main
from repro.geometry.rect import Rect
from repro.query.range_query import brute_force_range
from repro.rtree.clipped import ClippedRTree
from repro.rtree.registry import VARIANT_NAMES, build_rtree
from repro.storage.persistence import _MAGIC, load_tree, save_tree
from tests.conftest import make_random_objects


class TestPersistence:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_roundtrip_plain_tree(self, variant, tmp_path, medium_objects_2d):
        tree = build_rtree(variant, medium_objects_2d, max_entries=10)
        path = tmp_path / "index.cbbr"
        save_tree(tree, path)
        loaded, clipped = load_tree(path)
        assert clipped is None
        assert len(loaded) == len(tree)
        assert loaded.height == tree.height
        assert loaded.max_entries == tree.max_entries
        loaded.check_invariants()
        query = Rect((10, 10), (40, 40))
        expected = {o.oid for o in brute_force_range(medium_objects_2d, query)}
        assert {o.oid for o in loaded.range_query(query)} == expected

    def test_roundtrip_clipped_tree(self, tmp_path, medium_objects_2d):
        tree = build_rtree("rstar", medium_objects_2d, max_entries=10)
        clipped = ClippedRTree.wrap(tree, method="stairline")
        path = tmp_path / "clipped.cbbr"
        save_tree(clipped, path)
        loaded_tree, loaded_clipped = load_tree(path)
        assert loaded_clipped is not None
        assert loaded_clipped.store.total_clip_points() == clipped.store.total_clip_points()
        loaded_clipped.check_clip_invariants()
        query = Rect((0, 0), (50, 50))
        expected = {o.oid for o in brute_force_range(medium_objects_2d, query)}
        assert {o.oid for o in loaded_clipped.range_query(query)} == expected

    def test_roundtrip_3d(self, tmp_path, small_objects_3d):
        tree = build_rtree("quadratic", small_objects_3d, max_entries=8)
        clipped = ClippedRTree.wrap(tree)
        path = tmp_path / "tree3d.cbbr"
        save_tree(clipped, path)
        loaded_tree, loaded_clipped = load_tree(path)
        assert loaded_tree.dims == 3
        loaded_tree.check_invariants()
        assert loaded_clipped is not None

    def test_loaded_tree_supports_updates(self, tmp_path, small_objects_2d):
        tree = build_rtree("rstar", small_objects_2d, max_entries=8)
        path = tmp_path / "tree.cbbr"
        save_tree(tree, path)
        loaded, _ = load_tree(path)
        extra = make_random_objects(40, seed=77)
        for obj in extra:
            loaded.insert(obj)
        loaded.check_invariants()
        assert len(loaded) == len(small_objects_2d) + 40

    def test_rejects_non_tree_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not an index")
        with pytest.raises(ValueError):
            load_tree(path)

    def test_rejects_unknown_version(self, tmp_path, small_objects_2d):
        tree = build_rtree("quadratic", small_objects_2d, max_entries=8)
        path = tmp_path / "future.cbbr"
        save_tree(tree, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, len(_MAGIC), 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            load_tree(path)

    def test_roundtrip_8d_clipped_tree(self, tmp_path):
        """Regression: the v1 32-bit mask field was too narrow for high d."""
        objects = make_random_objects(40, dims=8, seed=9)
        tree = build_rtree("quadratic", objects, max_entries=8)
        clipped = ClippedRTree.wrap(tree, method="stairline", k=4)
        path = tmp_path / "tree8d.cbbr"
        save_tree(clipped, path)
        loaded_tree, loaded_clipped = load_tree(path)
        assert loaded_tree.dims == 8
        assert loaded_clipped is not None
        assert dict(loaded_clipped.store.items()) == dict(clipped.store.items())
        loaded_clipped.check_clip_invariants()

    def test_roundtrip_mask_beyond_32_bits(self, tmp_path):
        """Masks with bits past position 31 survive the v2 ``<Q`` field.

        Organically clipping a >32-dimensional tree is infeasible (corner
        enumeration is exponential), so the wide mask is planted directly.
        """
        dims = 40
        objects = make_random_objects(12, dims=dims, seed=10)
        tree = build_rtree("quadratic", objects, max_entries=8)
        clipped = ClippedRTree(tree)
        wide_mask = (1 << 33) + 5
        coord = tuple(50.0 for _ in range(dims))
        clipped.store.put(tree.root_id, [ClipPoint(coord, wide_mask, score=1.0)])
        path = tmp_path / "wide.cbbr"
        save_tree(clipped, path)
        _, loaded_clipped = load_tree(path)
        (clip,) = loaded_clipped.store.get(tree.root_id)
        assert clip.mask == wide_mask
        assert clip.coord == coord

    def test_rejects_v1_files(self, tmp_path, small_objects_2d):
        """A well-formed file in the 32-bit-mask format is refused, not misread."""
        tree = build_rtree("quadratic", small_objects_2d, max_entries=8)
        clipped = ClippedRTree.wrap(tree, method="stairline")
        path = tmp_path / "legacy.cbbr"
        self._save_v1(clipped, path)
        with pytest.raises(ValueError, match="unsupported file version 1"):
            load_tree(path)

    @staticmethod
    def _save_v1(clipped, path):
        """Write ``clipped`` exactly as the version-1 format did."""
        tree = clipped.tree
        with path.open("wb") as out:
            out.write(_MAGIC)
            out.write(
                struct.pack(
                    "<HHIIIqI", 1, 1, tree.dims, tree.max_entries,
                    tree.min_entries, tree.root_id, len(tree),
                )
            )
            nodes = list(tree.nodes())
            out.write(struct.pack("<I", len(nodes)))
            for node in nodes:
                out.write(struct.pack("<qII", node.node_id, node.level, len(node.entries)))
                for entry in node.entries:
                    for value in entry.rect.low + entry.rect.high:
                        out.write(struct.pack("<d", value))
                    child = entry.child if entry.is_node_pointer else entry.child.oid
                    out.write(struct.pack("<q", child))
            clip_entries = list(clipped.store.items())
            out.write(struct.pack("<I", len(clip_entries)))
            for node_id, clips in clip_entries:
                out.write(struct.pack("<qI", node_id, len(clips)))
                for clip in clips:
                    out.write(struct.pack("<Id", clip.mask, clip.score))
                    for value in clip.coord:
                        out.write(struct.pack("<d", value))


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        output = capsys.readouterr().out
        for name in experiment_ids():
            assert name in output

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "axo03" in output and "rea02" in output

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fig08(self, capsys):
        assert main(["run", "fig08"]) == 0
        output = capsys.readouterr().out
        assert "CBBSTA" in output

    def test_run_small_experiment_with_overrides(self, capsys):
        assert main(["run", "fig13", "--size", "300", "--max-entries", "16", "--queries", "5"]) == 0
        output = capsys.readouterr().out
        assert "CSKY" in output and "CSTA" in output

    def test_build_info(self, capsys):
        assert main(["build-info", "par02", "rstar", "--size", "300", "--max-entries", "16"]) == 0
        output = capsys.readouterr().out
        assert "dead space" in output
        assert "stairline" in output

    def test_build_info_rejects_unknown_names(self, capsys):
        assert main(["build-info", "nope", "rstar"]) == 2
        assert main(["build-info", "par02", "kd-tree"]) == 2

    @pytest.mark.parametrize(
        "flag", ["--engine", "--build-engine", "--join-engine", "--update-engine"]
    )
    def test_engine_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "updates", flag, "scalar"])

    def test_run_updates_experiment(self, capsys):
        assert main([
            "run", "updates", "--size", "150", "--queries", "4",
            "--max-entries", "8",
        ]) == 0
        output = capsys.readouterr().out
        assert "refreeze_ms_per_update" in output
        assert "delta_ms_per_update" in output

    def test_serve_command_runs_chaos_scenario(self, capsys):
        assert main([
            "serve", "--size", "500", "--requests", "60",
            "--max-entries", "16", "--chaos-seed", "11",
        ]) == 0
        output = capsys.readouterr().out
        # the robustness report surfaces the gated counters and the
        # explicit-response accounting line
        assert "chaos serving over rstar/par02" in output
        assert "breaker_opens" in output and "faults_injected" in output
        assert "explicit (ok/shed), 0 errors" in output

    def test_serve_command_rejects_unknown_dataset(self, capsys):
        assert main(["serve", "--dataset", "nope"]) == 2
        assert "unknown dataset" in capsys.readouterr().err
