"""Config parsing, mode artifacts, exit codes, output reproducibility."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import klconst.unitary
from klconst import default_library, load_constellation, load_unitary, welch_limit
from klconst.cli import ConfigError, _build_library, main, parse_config


def write_config(tmp_path, name="run.cfg", **fields):
    lines = [f"{key} = {value}" for key, value in fields.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def design_cfg(tmp_path):
    return write_config(
        tmp_path,
        K=2,
        l_s=2,
        snr_db_list="0, 10, 20",
        seed=5,
        output_path=tmp_path / "out" / "design.csv",
    )


class TestParseConfig:
    def test_happy_path_with_library_keys(self, tmp_path):
        book = tmp_path / "book.txt"
        book.write_text("2 1\n1 0 0 0\n")
        path = write_config(
            tmp_path,
            K=2,
            l_s=1,
            snr_db_list="0",
            seed=1,
            output_path="x.csv",
            unitary_library_0=book,
        )
        cfg = parse_config(path, "design")
        assert cfg.K == 2
        assert cfg.snr_db_list == [0.0]
        assert cfg.unitary_library_paths == {0: str(book)}

    def test_missing_required_field_is_named(self, tmp_path):
        path = write_config(tmp_path, K=2, M=4, l_s=2, snr_db_list="0", seed=1,
                            output_path="x.csv")
        with pytest.raises(ConfigError, match="trials"):
            parse_config(path, "ser-sweep")

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path, K=2, l_s=2, snr_db_list="0", seed=1,
                            output_path="x.csv", bogus=3)
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path, "design")

    def test_mode_disagreement_rejected(self, tmp_path):
        path = write_config(tmp_path, mode="kl-check", K=2, l_s=2,
                            snr_db_list="0", seed=1, output_path="x.csv")
        with pytest.raises(ConfigError, match="mode"):
            parse_config(path, "design")

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("K = 2\nK = 3\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path, "design")

    def test_bad_integer_and_range(self, tmp_path):
        path = write_config(tmp_path, K="two", l_s=2, snr_db_list="0", seed=1,
                            output_path="x.csv")
        with pytest.raises(ConfigError, match="'K'"):
            parse_config(path, "design")
        path = write_config(tmp_path, K=2, l_s=2, snr_db_list="0", seed=-1,
                            output_path="x.csv")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path, "design")

    def test_missing_library_file_rejected(self, tmp_path):
        path = write_config(
            tmp_path, K=2, l_s=1, snr_db_list="0", seed=1, output_path="x.csv",
            unitary_library_1=tmp_path / "absent.txt",
        )
        with pytest.raises(ConfigError, match="unitary_library_1"):
            parse_config(path, "design")

    def test_overrides_replace_file_values(self, tmp_path, design_cfg):
        cfg = parse_config(design_cfg, "design", seed_override=99,
                           out_override=tmp_path / "other.csv")
        assert cfg.seed == 99
        assert cfg.output_path.endswith("other.csv")


# minimal valid configs, and a valid value for each field some mode reads
BASE_FIELDS = {
    "design": dict(K=2, l_s=1, snr_db_list="0", seed=1),
    "ser-sweep": dict(K=2, M=4, l_s=1, snr_db_list="0", trials=10, seed=1),
    "kl-check": dict(K=2, M=4, snr_db_list="0", trials=10, seed=1),
    "pack-unitary": dict(K=2, l_s=1, seed=1),
}
FIELD_VALUES = dict(M=4, l_s=1, snr_db_list="0", trials=10, schemes="unitary",
                    pairs=2, restarts=2, iterations=5, smoothing=8.0)
UNREAD = [
    ("design", "M"), ("design", "trials"), ("design", "schemes"),
    ("design", "pairs"), ("design", "restarts"), ("design", "iterations"),
    ("design", "smoothing"),
    ("ser-sweep", "pairs"), ("ser-sweep", "restarts"), ("ser-sweep", "iterations"),
    ("ser-sweep", "smoothing"),
    ("kl-check", "l_s"), ("kl-check", "schemes"), ("kl-check", "restarts"),
    ("kl-check", "iterations"), ("kl-check", "smoothing"),
    ("kl-check", "unitary_library_1"),
    ("pack-unitary", "M"), ("pack-unitary", "snr_db_list"), ("pack-unitary", "trials"),
    ("pack-unitary", "schemes"), ("pack-unitary", "pairs"),
    ("pack-unitary", "unitary_library_1"),
]


class TestFieldsPerMode:
    """Each mode accepts `mode` and the fields it reads, nothing else."""

    @pytest.mark.parametrize("mode,key", UNREAD, ids=[f"{m}-{k}" for m, k in UNREAD])
    def test_unread_field_exits_2(self, tmp_path, capsys, mode, key):
        book = tmp_path / "u1.txt"
        book.write_text("2 2\n1 0 0 0\n0 0 1 0\n")
        value = book if key == "unitary_library_1" else FIELD_VALUES[key]
        cfg = write_config(tmp_path, mode=mode, output_path=tmp_path / "out.txt",
                           **BASE_FIELDS[mode], **{key: value})
        with pytest.raises(ConfigError, match=f"'{key}'.*{mode}"):
            parse_config(cfg, mode)
        assert main([mode, "--config", str(cfg)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("mode", list(BASE_FIELDS))
    def test_base_configs_are_complete(self, tmp_path, mode):
        cfg = write_config(tmp_path, output_path="x", **BASE_FIELDS[mode])
        assert parse_config(cfg, mode).mode == mode
        for key in BASE_FIELDS[mode]:
            fields = {k: v for k, v in BASE_FIELDS[mode].items() if k != key}
            cfg = write_config(tmp_path, output_path="x", **fields)
            with pytest.raises(ConfigError, match=f"missing required field '{key}'"):
                parse_config(cfg, mode)

    def test_mode_disagreement_is_reported_before_unread_fields(self, tmp_path):
        cfg = write_config(tmp_path, mode="kl-check", output_path="x",
                           **BASE_FIELDS["kl-check"])
        with pytest.raises(ConfigError, match="field 'mode' says 'kl-check'"):
            parse_config(cfg, "design")

    def test_pack_unitary_knobs_default_to_the_packer_defaults(self, tmp_path):
        bare = write_config(tmp_path, "bare.cfg", K=2, l_s=1, seed=4,
                            output_path=tmp_path / "bare.txt")
        explicit = write_config(
            tmp_path, "explicit.cfg", K=2, l_s=1, seed=4,
            restarts=klconst.unitary.DEFAULT_RESTARTS,
            iterations=klconst.unitary.DEFAULT_ITERATIONS,
            smoothing=klconst.unitary.DEFAULT_SMOOTHING,
            output_path=tmp_path / "explicit.txt",
        )
        assert main(["pack-unitary", "--config", str(bare)]) == 0
        assert main(["pack-unitary", "--config", str(explicit)]) == 0
        assert (tmp_path / "bare.txt").read_bytes() == (
            tmp_path / "explicit.txt"
        ).read_bytes()

    def test_readme_examples_parse(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        modes = []
        for i, block in enumerate(blocks):
            mode = re.search(r"^mode = (\S+)$", block, flags=re.M).group(1)
            path = tmp_path / f"readme{i}.cfg"
            path.write_text(block)
            assert parse_config(path, mode).mode == mode
            modes.append(mode)
        assert sorted(modes) == sorted(BASE_FIELDS)


class TestDesignMode:
    def test_emits_summary_table_and_constellations(self, tmp_path, design_cfg):
        assert main(["design", "--config", str(design_cfg)]) == 0
        out = tmp_path / "out"
        summary = (out / "design.csv").read_text().splitlines()
        assert summary[0] == "snr_db,l_alpha,min_kl,r0,alpha0"
        assert len(summary) == 4
        # high-SNR rows allocate every bit to directions
        assert summary[-1].split(",")[1] == "0"
        table = (out / "design_point00_table.csv").read_text().splitlines()
        assert table[0] == "l_alpha,min_kl,r0,alpha0"
        assert len(table) == 4  # l_alpha = 0, 1, 2
        c = load_constellation(out / "design_point00_constellation.txt")
        assert c.size == 4

    def test_high_snr_point_finishes(self, tmp_path):
        # at 50 dB the level ratio is about 1e5; run in a child process so
        # that a bisection which never settles fails on the timeout
        cfg = write_config(tmp_path, K=2, l_s=2, snr_db_list="50", seed=5,
                           output_path=tmp_path / "high.csv")
        src = str(Path(klconst.unitary.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "klconst.cli", "design", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "high.csv").read_text().splitlines()[1].startswith("50,")

    def test_rerun_is_byte_identical(self, tmp_path, design_cfg):
        main(["design", "--config", str(design_cfg)])
        first = (tmp_path / "out" / "design.csv").read_bytes()
        main(["design", "--config", str(design_cfg)])
        assert (tmp_path / "out" / "design.csv").read_bytes() == first


class TestLazyLibrary:
    @pytest.fixture()
    def pack_calls(self, monkeypatch):
        calls = []
        real = klconst.unitary.optimize_unitary

        def counting(cfg):
            calls.append(cfg.cardinality)
            return real(cfg)

        monkeypatch.setattr(klconst.unitary, "optimize_unitary", counting)
        return calls

    def test_supplied_sizes_are_not_packed(self, tmp_path, pack_calls):
        lib = default_library(2, 2, seed=0, restarts=2, iterations=50)
        books = {}
        for l_v in (1, 2):
            books[f"unitary_library_{l_v}"] = tmp_path / f"u{l_v}.txt"
            klconst.unitary.save_unitary(lib[l_v], books[f"unitary_library_{l_v}"])
        pack_calls.clear()
        cfg = write_config(tmp_path, K=2, l_s=2, snr_db_list="0, 10", seed=5,
                           output_path=tmp_path / "design.csv", **books)
        assert main(["design", "--config", str(cfg)]) == 0
        assert pack_calls == []

    def test_pilot_only_sweep_packs_nothing(self, tmp_path, pack_calls):
        cfg = write_config(tmp_path, K=2, M=4, l_s=2, snr_db_list="0", trials=100,
                           seed=3, schemes="pilot-qam", output_path=tmp_path / "s.csv")
        assert main(["ser-sweep", "--config", str(cfg)]) == 0
        assert pack_calls == []

    def test_packed_sizes_match_the_default_library(self, tmp_path, pack_calls):
        book = tmp_path / "u1.txt"
        book.write_text("2 2\n1 0 0 0\n0 0 1 0\n")
        path = write_config(tmp_path, K=2, l_s=2, snr_db_list="0", seed=7,
                            output_path="x.csv", unitary_library_1=book)
        lib = _build_library(parse_config(path, "design"), range(3))
        assert pack_calls == [4]
        reference = default_library(2, 2, seed=7)
        np.testing.assert_array_equal(lib[2].vectors, reference[2].vectors)
        np.testing.assert_array_equal(lib[0].vectors, reference[0].vectors)
        np.testing.assert_array_equal(lib[1].vectors, np.eye(2))

    def test_bad_file_is_rejected_before_packing(self, tmp_path, pack_calls):
        book = tmp_path / "u3.txt"
        book.write_text("2 1\n1 0 0 0\n")
        path = write_config(tmp_path, K=2, l_s=2, snr_db_list="0", seed=1,
                            output_path="x.csv", unitary_library_3=book)
        with pytest.raises(ConfigError, match="exceeds l_s"):
            _build_library(parse_config(path, "design"), range(3))
        assert pack_calls == []


class TestSerSweepMode:
    def test_rows_per_scheme_and_snr(self, tmp_path):
        cfg = write_config(
            tmp_path,
            K=2, M=4, l_s=2, snr_db_list="0, 8", trials=400, seed=3,
            output_path=tmp_path / "ser.csv",
        )
        assert main(["ser-sweep", "--config", str(cfg)]) == 0
        lines = (tmp_path / "ser.csv").read_text().splitlines()
        assert lines[0] == (
            "scheme,K,M,l_s,l_alpha,snr_db,ser,ci_low,ci_high,trials,seed"
        )
        assert len(lines) == 1 + 2 * 3
        schemes = [row.split(",")[0] for row in lines[1:]]
        assert schemes == ["multilevel", "unitary", "pilot-qam"] * 2

    def test_scheme_subset_and_seed_override(self, tmp_path):
        cfg = write_config(
            tmp_path,
            K=2, M=4, l_s=2, snr_db_list="5", trials=400, seed=3,
            schemes="unitary", output_path=tmp_path / "ser.csv",
        )
        main(["ser-sweep", "--config", str(cfg)])
        base = (tmp_path / "ser.csv").read_text()
        assert len(base.splitlines()) == 2
        main(["ser-sweep", "--config", str(cfg), "--seed", "77"])
        reseeded = (tmp_path / "ser.csv").read_text()
        assert reseeded != base
        assert reseeded.splitlines()[1].endswith(",77")

    def test_odd_split_with_pilot_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            K=4, M=4, l_s=4, snr_db_list="0", trials=100, seed=3,
            output_path=tmp_path / "ser.csv",
        )
        assert main(["ser-sweep", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err


class TestKlCheckMode:
    def test_emits_comparison_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            K=2, M=4, snr_db_list="3", trials=20000, pairs=3, seed=3,
            output_path=tmp_path / "kl.csv",
        )
        assert main(["kl-check", "--config", str(cfg)]) == 0
        lines = (tmp_path / "kl.csv").read_text().splitlines()
        assert lines[0] == (
            "pair,K,M,snr_db,kl_closed,kl_mc,std_error,z_score,samples,seed"
        )
        assert len(lines) == 4
        for row in lines[1:]:
            cells = row.split(",")
            assert float(cells[6]) > 0.0
            assert abs(float(cells[7])) < 6.0


class TestPackUnitaryMode:
    def test_writes_a_loadable_codebook(self, tmp_path):
        cfg = write_config(
            tmp_path,
            K=2, l_s=2, seed=0, restarts=2, iterations=200,
            output_path=tmp_path / "book.txt",
        )
        assert main(["pack-unitary", "--config", str(cfg)]) == 0
        book = load_unitary(tmp_path / "book.txt")
        assert book.size == 4 and book.K == 2
        assert 0.0 < book.min_sq_dist <= welch_limit(2, 4) + 1e-12

    def test_creates_the_output_directory(self, tmp_path):
        cfg = write_config(
            tmp_path,
            K=2, l_s=1, seed=0, restarts=1, iterations=20,
            output_path=tmp_path / "books" / "u1.txt",
        )
        assert main(["pack-unitary", "--config", str(cfg)]) == 0
        assert (tmp_path / "books" / "u1.txt").is_file()

    def test_codebook_feeds_back_into_design(self, tmp_path):
        book_cfg = write_config(
            tmp_path, "pack.cfg",
            K=2, l_s=1, seed=0, restarts=2, iterations=200,
            output_path=tmp_path / "book1.txt",
        )
        main(["pack-unitary", "--config", str(book_cfg)])
        design_cfg = write_config(
            tmp_path, "design.cfg",
            K=2, l_s=1, snr_db_list="0", seed=1,
            unitary_library_1=tmp_path / "book1.txt",
            output_path=tmp_path / "design.csv",
        )
        assert main(["design", "--config", str(design_cfg)]) == 0


class TestSingleAntenna:
    """C^1 holds one direction, so K = 1 is a config error wherever a run
    packs direction codebooks."""

    def expect_k_error(self, mode, cfg, capsys):
        assert main([mode, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'K'" in err

    def test_design(self, tmp_path, capsys):
        cfg = write_config(tmp_path, K=1, l_s=2, snr_db_list="0", seed=1,
                           output_path=tmp_path / "d.csv")
        with pytest.raises(ConfigError, match="'K'"):
            parse_config(cfg, "design")
        self.expect_k_error("design", cfg, capsys)

    @pytest.mark.parametrize("schemes", ["multilevel", "unitary", "unitary, pilot-qam"])
    def test_ser_sweep_with_a_packed_scheme(self, tmp_path, capsys, schemes):
        cfg = write_config(tmp_path, K=1, M=4, l_s=2, snr_db_list="0", trials=10,
                           seed=1, schemes=schemes, output_path=tmp_path / "s.csv")
        with pytest.raises(ConfigError, match="'K'"):
            parse_config(cfg, "ser-sweep")
        self.expect_k_error("ser-sweep", cfg, capsys)

    def test_pack_unitary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, K=1, l_s=1, seed=0, restarts=1, iterations=5,
                           output_path=tmp_path / "u.txt")
        with pytest.raises(ConfigError, match="'K'"):
            parse_config(cfg, "pack-unitary")
        self.expect_k_error("pack-unitary", cfg, capsys)
        assert not (tmp_path / "u.txt").exists()

    def test_kl_check_still_accepts_k1(self, tmp_path):
        cfg = write_config(tmp_path, K=1, M=2, snr_db_list="0", trials=100, pairs=1,
                           seed=1, output_path=tmp_path / "kl.csv")
        assert parse_config(cfg, "kl-check").K == 1


class TestExitCodes:
    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code = main(["design", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        import klconst.cli as cli_mod

        def boom(cfg):
            raise ArithmeticError("bracket collapsed")

        monkeypatch.setitem(cli_mod._RUNNERS, "design", boom)
        cfg = write_config(
            tmp_path, K=2, l_s=2, snr_db_list="0", seed=1,
            output_path=tmp_path / "x.csv",
        )
        assert main(["design", "--config", str(cfg)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_domain_value_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # a ValueError that is not a ConfigError comes from the library's
        # own checks on computed values, not from the config
        import klconst.cli as cli_mod

        def off_power(cfg):
            raise ValueError("mean squared amplitude violates the unit power constraint")

        monkeypatch.setitem(cli_mod._RUNNERS, "design", off_power)
        cfg = write_config(
            tmp_path, K=2, l_s=2, snr_db_list="0", seed=1,
            output_path=tmp_path / "x.csv",
        )
        assert main(["design", "--config", str(cfg)]) == 3
        assert "numeric failure" in capsys.readouterr().err
