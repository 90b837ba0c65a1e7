"""Config parsing, mode artifacts, exit codes, output reproducibility."""

import importlib
import importlib.util
import re
import time
from pathlib import Path

import numpy as np
import pytest

import klconst.cli
import klconst.core
import klconst.unitary
from klconst import library_codebooks, load_constellation, load_unitary, packing_limit
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

    def test_library_keys_naming_one_size_rejected(self, tmp_path, capsys):
        book = tmp_path / "book.txt"
        book.write_text("2 2\n1 0 0 0\n0 0 1 0\n")
        for other in ("unitary_library_01", "unitary_library_+1"):
            path = write_config(tmp_path, K=2, l_s=1, snr_db_list="0", seed=1,
                                output_path=tmp_path / "x.csv", unitary_library_1=book,
                                **{other: book})
            assert main(["design", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"fields 'unitary_library_1' and '{other}' both name l_v = 1" in err
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "mode,other", [("design", "M"), ("ser-sweep", "pairs"), ("kl-check", "l_s"),
                       ("pack-unitary", "trials")],
    )
    def test_config_holds_only_its_modes_fields(self, tmp_path, mode, other):
        # a mode's config carries `mode` and the fields the mode reads, so a
        # runner reading another mode's field fails instead of reading 0
        path = write_config(tmp_path, output_path="x", **BASE_FIELDS[mode])
        cfg = parse_config(path, mode)
        expected = {"mode"} | {
            key for key, (_, modes, _) in klconst.cli._FIELDS.items()
            if mode in modes and key != klconst.cli._LIBRARY_KEY
        }
        if mode in ("design", "ser-sweep"):
            expected.add("unitary_library_paths")
        assert set(vars(cfg)) == expected
        with pytest.raises(AttributeError, match=other):
            getattr(cfg, other)

    @pytest.mark.parametrize("flag", ["--seed", "--out"])
    def test_config_values_have_no_command_line_flag(self, tmp_path, design_cfg,
                                                     flag):
        # the seed and the output path come from the config file only
        value = "1" if flag == "--seed" else str(tmp_path / "other.csv")
        with pytest.raises(SystemExit) as exc:
            main(["design", "--config", str(design_cfg), flag, value])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "other.csv").exists()


# minimal valid configs, and a valid value for each field some mode reads
BASE_FIELDS = {
    "design": dict(K=2, l_s=1, snr_db_list="0", seed=1),
    "ser-sweep": dict(K=2, M=4, l_s=1, snr_db_list="0", trials=10, seed=1),
    "kl-check": dict(K=2, M=4, snr_db_list="0", trials=10, seed=1),
    "pack-unitary": dict(K=2, l_s=1, seed=1),
}
FIELD_VALUES = dict(M=4, l_s=1, snr_db_list="0", trials=10, schemes="unitary",
                    pairs=2, restarts=2, iterations=5)
UNREAD = [
    ("design", "M"), ("design", "trials"), ("design", "schemes"),
    ("design", "pairs"), ("design", "restarts"), ("design", "iterations"),
    ("ser-sweep", "pairs"), ("ser-sweep", "restarts"), ("ser-sweep", "iterations"),
    ("kl-check", "l_s"), ("kl-check", "schemes"), ("kl-check", "restarts"),
    ("kl-check", "iterations"),
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
    def test_smoothing_is_an_unknown_field(self, tmp_path, capsys, mode):
        # the packer's soft-min start is a constant, not a config field
        cfg = write_config(tmp_path, mode=mode, output_path=tmp_path / "out.txt",
                           **BASE_FIELDS[mode], smoothing=8.0)
        with pytest.raises(ConfigError, match="unknown field 'smoothing'"):
            parse_config(cfg, mode)
        assert main([mode, "--config", str(cfg)]) == 2
        assert "'smoothing'" in capsys.readouterr().err
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

    @pytest.mark.parametrize("mode", list(BASE_FIELDS))
    def test_missing_output_directory_is_created(self, tmp_path, mode):
        out = tmp_path / "new" / "dir" / "out.txt"
        cfg = write_config(tmp_path, output_path=out, **BASE_FIELDS[mode])
        assert main([mode, "--config", str(cfg)]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("mode", ["design", "ser-sweep", "pack-unitary"])
    def test_l_s_is_bounded(self, tmp_path, capsys, mode):
        # at l_s = 10 packing's per-step (N, N) array holds 2^20 entries
        fields = dict(BASE_FIELDS[mode], output_path=tmp_path / "out.txt")
        cfg = write_config(tmp_path, **dict(fields, l_s=10))
        assert parse_config(cfg, mode).l_s == 10
        cfg = write_config(tmp_path, **dict(fields, l_s=11))
        start = time.monotonic()
        assert main([mode, "--config", str(cfg)]) == 2
        assert time.monotonic() - start < 1.0
        assert "field 'l_s' must be < 11" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("mode", list(BASE_FIELDS))
    def test_k_is_bounded(self, tmp_path, capsys, mode):
        # at K = 22 the SER path's per-substream (2048, K, K) arrays hold at
        # most 2^20 entries
        fields = dict(BASE_FIELDS[mode], output_path=tmp_path / "out.txt")
        cfg = write_config(tmp_path, **dict(fields, K=22))
        assert parse_config(cfg, mode).K == 22
        cfg = write_config(tmp_path, **dict(fields, K=23))
        start = time.monotonic()
        assert main([mode, "--config", str(cfg)]) == 2
        assert time.monotonic() - start < 1.0
        assert "field 'K' must be < 23" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_mode_disagreement_is_reported_before_unread_fields(self, tmp_path):
        cfg = write_config(tmp_path, mode="kl-check", output_path="x",
                           **BASE_FIELDS["kl-check"])
        with pytest.raises(ConfigError, match="field 'mode' says 'kl-check'"):
            parse_config(cfg, "design")

    def test_pack_unitary_knobs_default_to_the_packer_defaults(self, tmp_path):
        defaults = dict(restarts=klconst.unitary.DEFAULT_RESTARTS,
                        iterations=klconst.unitary.DEFAULT_ITERATIONS)
        # at K = 2 a layout up to N = 64 is final and one start is packed, so
        # restarts and iterations leave the N = 32 codebook as the defaults
        # write it
        for K, l_s, knobs in ((2, 1, defaults), (3, 1, defaults),
                              (2, 5, dict(restarts=3, iterations=20))):
            books = []
            for name, fields in (("bare", {}), ("explicit", knobs)):
                out = tmp_path / f"{name}{K}_{l_s}.txt"
                cfg = write_config(tmp_path, K=K, l_s=l_s, seed=4, output_path=out, **fields)
                assert main(["pack-unitary", "--config", str(cfg)]) == 0
                books.append(out.read_bytes())
            assert books[0] == books[1]

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

    def test_readme_python_blocks_run(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})


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

    def test_high_snr_point_finishes(self, tmp_path, run_python):
        # at 50 dB the level ratio is about 1e5; run in a child process so
        # that a bisection which never settles fails on the timeout.  At
        # 200 dB the energy term's x - 1 rounded to -1 at the ratio ceiling,
        # and log1p(-1) made the design exit 3.  At -200 dB it rounded to 0
        # (sigma2 = 5e19 swallowed the energies), the ratio bracket had no
        # sign change, and the design exited 3 as well.
        cfg = write_config(tmp_path, K=2, l_s=2, snr_db_list="50, 200, -200", seed=5,
                           output_path=tmp_path / "high.csv")
        proc = run_python(["-m", "klconst.cli", "design", "--config", str(cfg)])
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "high.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["50", "200", "-200"]

    def test_far_below_0_db_holds_unit_power(self, tmp_path):
        # below -67.5 dB the base amplitude and the ratio ceiling cancelled
        # to errors of order eps * sigma2, and this design exited 3
        cfg = write_config(tmp_path, K=2, l_s=2, snr_db_list="-100, -80", seed=0,
                           output_path=tmp_path / "low.csv")
        assert main(["design", "--config", str(cfg)]) == 0
        summary = (tmp_path / "low.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["-100", "-80"]
        for idx in range(2):
            c = load_constellation(tmp_path / f"low_point{idx:02d}_constellation.txt")
            assert abs(np.mean(c.amplitudes**2) - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "snr_db,code", [(1600, 3), (-1600, 3), (1530, 0), (-1540, 0), (200, 0), (-200, 0)]
    )
    def test_ends_of_the_snr_axis(self, tmp_path, capsys, library_k2_ls6, snr_db,
                                  code):
        # designs hold from -1540 dB to 1530 dB; past 1540 dB the level-energy
        # sum overflows and below -1550 dB the KL distances underflow, and
        # either end is a numeric failure, not a crash or a silent inf
        books = {}
        for l_v, uset in library_k2_ls6.items():
            books[f"unitary_library_{l_v}"] = tmp_path / f"u{l_v}.txt"
            klconst.unitary.save_unitary(uset, books[f"unitary_library_{l_v}"])
        cfg = write_config(tmp_path, K=2, l_s=6, snr_db_list=snr_db, seed=0,
                           output_path=tmp_path / "end.csv", **books)
        assert main(["design", "--config", str(cfg)]) == code
        if code:
            assert "numeric failure" in capsys.readouterr().err
        else:
            rows = (tmp_path / "end.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in rows[1:]] == [str(snr_db)]

    def test_rerun_is_byte_identical(self, tmp_path):
        # two runs, each into a directory of its own, write the same summary
        # and the same table and constellation for every point; the 41-point
        # grid (-15 ... -5 dB in 0.25 dB steps) is designed in one pass
        grid = ", ".join(f"{-15 + 0.25 * i:g}" for i in range(41))
        for name, fields, points in (
            ("design", dict(K=2, l_s=2, snr_db_list="0, 10, 20", seed=5), 3),
            ("grid", dict(K=2, l_s=6, snr_db_list=grid, seed=0), 41),
        ):
            dirs = [tmp_path / f"{name}{run}" for run in range(2)]
            for out in dirs:
                cfg = write_config(tmp_path, output_path=out / f"{name}.csv", **fields)
                assert main(["design", "--config", str(cfg)]) == 0
            files = sorted(p.name for p in dirs[0].iterdir())
            assert len(files) == 1 + 2 * points
            assert len((dirs[0] / f"{name}.csv").read_text().splitlines()) == 1 + points
            assert sorted(p.name for p in dirs[1].iterdir()) == files
            for f in files:
                assert (dirs[1] / f).read_bytes() == (dirs[0] / f).read_bytes(), f

    def test_codebook_lines_are_formatted_once(self, tmp_path, monkeypatch,
                                               library_k2_ls6, per_element_layout):
        # every point of a grid pairs its level set with one of the l_s + 1
        # codebooks, so each codebook's vector lines are formatted once
        # however many constellation files share it
        books = {}
        for l_v, uset in library_k2_ls6.items():
            books[f"unitary_library_{l_v}"] = tmp_path / f"u{l_v}.txt"
            klconst.unitary.save_unitary(uset, books[f"unitary_library_{l_v}"])
        formatted, saved = [], []
        format_vectors = klconst.core._format_vectors
        save_constellation = klconst.cli.save_constellation

        def counting_format(V):
            formatted.append(V)
            return format_vectors(V)

        def recording_save(c, path):
            saved.append((c, path))
            save_constellation(c, path)

        monkeypatch.setattr(klconst.core, "_format_vectors", counting_format)
        monkeypatch.setattr(klconst.cli, "save_constellation", recording_save)
        snrs = ", ".join(f"{-20 + 0.5 * i:g}" for i in range(61))
        cfg = write_config(tmp_path, K=2, l_s=6, snr_db_list=snrs, seed=0,
                           output_path=tmp_path / "grid.csv", **books)
        assert main(["design", "--config", str(cfg)]) == 0
        assert len(saved) == 61
        codebooks = {id(c.directions) for c, _ in saved}
        assert len(codebooks) >= 2
        assert len(formatted) == len(codebooks)
        for c, path in saved:
            header = f"{c.K} {c.amplitudes.size} {c.directions.size} {c.sigma2_design:.17g}"
            assert Path(path).read_text() == per_element_layout(
                header, c.amplitudes, c.directions.vectors
            )


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
        lib = library_codebooks(2, range(3), seed=0)
        books = {}
        for l_v in (1, 2):
            books[f"unitary_library_{l_v}"] = tmp_path / f"u{l_v}.txt"
            klconst.unitary.save_unitary(lib[l_v], books[f"unitary_library_{l_v}"])
        pack_calls.clear()
        cfg = write_config(tmp_path, K=2, l_s=2, snr_db_list="0, 10", seed=5,
                           output_path=tmp_path / "design.csv", **books)
        assert main(["design", "--config", str(cfg)]) == 0
        # only the unsupplied l_v = 0 entry, the canonical single vector
        assert pack_calls == [1]

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
        assert pack_calls == [1, 4]
        reference = library_codebooks(2, range(3), seed=7)
        np.testing.assert_array_equal(lib[2].vectors, reference[2].vectors)
        np.testing.assert_array_equal(lib[0].vectors, reference[0].vectors)
        np.testing.assert_array_equal(lib[1].vectors, np.eye(2))

    @pytest.mark.parametrize("l_s", [1, 2])
    def test_repeated_direction_exits_2(self, tmp_path, capsys, pack_calls, l_s):
        # as the l_v = l_s book (l_s = 1) or inside a split (l_s = 2), a
        # codebook with two equal lines is a config problem, found before
        # any packing and before any output
        book = tmp_path / "u1.txt"
        book.write_text("2 2\n1 0 0 0\n1 0 0 0\n")
        cfg = write_config(tmp_path, K=2, l_s=l_s, snr_db_list="0", seed=1,
                           output_path=tmp_path / "d.csv", unitary_library_1=book)
        assert main(["design", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'unitary_library_1'" in err
        assert "repeats a direction" in err
        assert pack_calls == []
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("mode", ["design", "ser-sweep"])
    def test_nan_codebook_exits_2(self, tmp_path, capsys, pack_calls, mode):
        # a NaN decimal gives a NaN norm, which the loader's norm check
        # rejects: no NaN min_kl, no NaN constellation, no SER
        book = tmp_path / "u1.txt"
        book.write_text("2 2\n1 0 0 0\n0 nan 1 0\n")
        fields = dict(BASE_FIELDS[mode], output_path=tmp_path / "d.csv", unitary_library_1=book)
        if mode == "ser-sweep":
            fields["schemes"] = "unitary"
        cfg = write_config(tmp_path, **fields)
        assert main([mode, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'unitary_library_1'" in err and "u1.txt:3" in err
        assert pack_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "u1.txt"]

    def test_bad_file_is_rejected_before_packing(self, tmp_path, pack_calls):
        book = tmp_path / "u3.txt"
        book.write_text("2 1\n1 0 0 0\n")
        path = write_config(tmp_path, K=2, l_s=2, snr_db_list="0", seed=1,
                            output_path="x.csv", unitary_library_3=book)
        with pytest.raises(ConfigError, match="exceeds l_s"):
            _build_library(parse_config(path, "design"), range(3))
        assert pack_calls == []

    @pytest.mark.parametrize("mode", ["design", "kl-check", "pack-unitary"])
    def test_no_mode_imports_multiprocessing(self, tmp_path, run_python, mode):
        # packing climbs in this process, so no mode pays for importing
        # multiprocessing or forking: not the runs that climb nothing
        # (design with every size supplied, kl-check), nor a K = 3 packing
        # of 8 restarts at N = 64
        if mode == "design":
            books = {f"unitary_library_{l_v}": tmp_path / f"u{l_v}.txt" for l_v in (1, 2)}
            books["unitary_library_1"].write_text("2 2\n1 0 0 0\n0 0 1 0\n")
            klconst.unitary.save_unitary(
                library_codebooks(2, [2])[2],
                books["unitary_library_2"],
            )
            cfg = write_config(tmp_path, K=2, l_s=2, snr_db_list="0", seed=5,
                               output_path=tmp_path / "d.csv", **books)
        elif mode == "kl-check":
            cfg = write_config(tmp_path, K=2, M=4, snr_db_list="0", trials=200,
                               pairs=2, seed=1, output_path=tmp_path / "kl.csv")
        else:
            cfg = write_config(tmp_path, K=3, l_s=6, seed=0, iterations=60,
                               output_path=tmp_path / "u6.txt")
        script = (
            "import sys; from klconst.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'multiprocessing' in sys.modules)"
        )
        proc = run_python(["-c", script, mode, "--config", str(cfg)])
        lines = proc.stdout.splitlines()
        # pack-unitary prints its summary line first
        assert len(lines) == (2 if mode == "pack-unitary" else 1), proc.stderr
        assert lines[-1].split() == ["0", "False"], proc.stderr


class TestSerSweepMode:
    def test_pilot_qam_does_not_import_numpy_ma(self, tmp_path, run_python):
        # the QAM slicer's levels are sorted and deduplicated by hand, since
        # np.unique imports numpy.ma
        cfg = write_config(tmp_path, K=2, M=4, l_s=2, snr_db_list="0", trials=200,
                           seed=1, schemes="pilot-qam", output_path=tmp_path / "ser.csv")
        script = (
            "import sys; from klconst.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        proc = run_python(["-c", script, "ser-sweep", "--config", str(cfg)])
        assert proc.stdout.split() == ["0", "False"], proc.stderr
        assert len((tmp_path / "ser.csv").read_text().splitlines()) == 2

    def test_rows_per_scheme_and_snr(self, tmp_path):
        # 200 dB also runs the level design where x - 1 rounds to -1
        for snrs in ("0, 8", "0, 200"):
            cfg = write_config(
                tmp_path,
                K=2, M=4, l_s=2, snr_db_list=snrs, trials=400, seed=3,
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
        fields = dict(K=2, M=4, l_s=2, snr_db_list="5", trials=400,
                      schemes="unitary")
        cfg = write_config(tmp_path, seed=3, output_path=tmp_path / "ser.csv",
                           **fields)
        assert main(["ser-sweep", "--config", str(cfg)]) == 0
        base = (tmp_path / "ser.csv").read_text()
        assert len(base.splitlines()) == 2
        # another seed is another config file
        cfg77 = write_config(tmp_path, "run77.cfg", seed=77,
                             output_path=tmp_path / "ser77.csv", **fields)
        assert main(["ser-sweep", "--config", str(cfg77)]) == 0
        reseeded = (tmp_path / "ser77.csv").read_text()
        assert reseeded != base
        assert reseeded.splitlines()[1].endswith(",77")
        assert (tmp_path / "ser.csv").read_text() == base

    def test_each_direction_row_is_one_estimate_ser_call(self, tmp_path, monkeypatch):
        # perfbench's SER check pairs every multilevel or unitary row, in
        # row order, with one recorded estimate_ser call and re-simulates
        # the constellation that call was handed
        calls = []
        real = klconst.cli.estimate_ser

        def recording(c, params, trials, seed):
            calls.append((c, params, trials))
            return real(c, params, trials, seed)

        monkeypatch.setattr(klconst.cli, "estimate_ser", recording)
        cfg = write_config(tmp_path, K=2, M=4, l_s=2, snr_db_list="0, 8", trials=300,
                           seed=3, output_path=tmp_path / "ser.csv")
        assert main(["ser-sweep", "--config", str(cfg)]) == 0
        rows = [line.split(",") for line in (tmp_path / "ser.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[5]) for r in rows] == [
            (scheme, snr) for snr in ("0", "8") for scheme in ("multilevel", "unitary", "pilot-qam")
        ]
        rows = [r for r in rows if r[0] != "pilot-qam"]
        assert len(calls) == len(rows)
        for row, (c, params, trials) in zip(rows, calls):
            assert (trials, params.M) == (int(row[9]), int(row[2]))
            assert params.sigma2 == klconst.core._sigma2_at(2, float(row[5]))
            assert c.size == 2**2 and c.amplitudes.size == 2 ** int(row[4])

    def test_snr_list_is_designed_in_one_call(self, tmp_path, monkeypatch):
        calls = []
        real = klconst.cli.allocate_bits

        def counting(l_s, sigma2, unitary_library):
            calls.append(len(sigma2))
            return real(l_s, sigma2, unitary_library)

        monkeypatch.setattr(klconst.cli, "allocate_bits", counting)
        cfg = write_config(tmp_path, K=2, M=4, l_s=2, snr_db_list="0, 4, 8",
                           trials=200, seed=3, output_path=tmp_path / "ser.csv")
        assert main(["ser-sweep", "--config", str(cfg)]) == 0
        assert calls == [3]

    def test_failing_design_point_exits_before_any_trial(self, tmp_path, capsys,
                                                         monkeypatch):
        # at 1600 dB the level-energy sum overflows; the 0 dB point is never
        # simulated and no CSV is written
        calls = []

        def no_trials(*args):
            calls.append(args)
            raise AssertionError("estimate_ser ran before the design failed")

        monkeypatch.setattr(klconst.cli, "estimate_ser", no_trials)
        out = tmp_path / "ser.csv"
        cfg = write_config(tmp_path, K=2, M=4, l_s=2, snr_db_list="0, 1600",
                           trials=200, seed=3, output_path=out)
        assert main(["ser-sweep", "--config", str(cfg)]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert calls == [] and not out.exists()

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
        assert 0.0 < book.min_sq_dist <= packing_limit(2, 4) + 1e-12

    def test_creates_the_output_directory(self, tmp_path):
        cfg = write_config(
            tmp_path,
            K=2, l_s=1, seed=0, restarts=1, iterations=20,
            output_path=tmp_path / "books" / "u1.txt",
        )
        assert main(["pack-unitary", "--config", str(cfg)]) == 0
        assert (tmp_path / "books" / "u1.txt").is_file()

    def test_rerun_writes_the_same_k3_codebook(self, tmp_path):
        # one config and seed give one codebook to the bit: the K = 3, N = 64
        # packing (8 climbed restarts) twice writes the same file
        books = []
        for run in range(2):
            out = tmp_path / f"u6_{run}.txt"
            cfg = write_config(tmp_path, K=3, l_s=6, seed=0, iterations=100, output_path=out)
            assert main(["pack-unitary", "--config", str(cfg)]) == 0
            books.append(out.read_bytes())
        assert books[0] == books[1]

    def test_k2_seeds_print_one_min_sq_dist(self, tmp_path, capsys):
        # at K = 2 the seed picks only the orientation of the codebook, so
        # seeds 0 and 1 write two N = 64 files at one distance
        dists, books = [], []
        for seed in (0, 1):
            out = tmp_path / f"k2_{seed}.txt"
            cfg = write_config(tmp_path, K=2, l_s=6, seed=seed, output_path=out)
            assert main(["pack-unitary", "--config", str(cfg)]) == 0
            dists += re.findall(r"min_sq_dist=[^,]*", capsys.readouterr().out)
            books.append(out.read_bytes())
        assert len(dists) == 2 and dists[0] == dists[1]
        assert books[0] != books[1]

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
        # the log-ratio's matrix H is a scalar, so one of the two eigenvalues
        # that weight each sample's gammas is 0: a header and 2 SNRs x 3 pairs
        cfg = write_config(tmp_path, K=1, M=2, snr_db_list="0, 6", trials=500, pairs=3,
                           seed=0, output_path=tmp_path / "kl.csv")
        assert parse_config(cfg, "kl-check").K == 1
        assert main(["kl-check", "--config", str(cfg)]) == 0
        assert len((tmp_path / "kl.csv").read_text().splitlines()) == 7


class TestExitCodes:
    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code = main(["design", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", list(BASE_FIELDS))
    @pytest.mark.parametrize("below", [None, "out.csv", "sub/out.csv"],
                             ids=["directory", "file-parent", "file-grandparent"])
    def test_unwritable_output_path_exits_2(self, tmp_path, capsys, below, mode):
        # an output path that names a directory, or one below a regular file,
        # is a config problem found before any file is written
        taken = tmp_path / "taken"
        if below is None:
            taken.mkdir()
        else:
            taken.write_text("")
        cfg = write_config(tmp_path, output_path=taken / (below or ""), **BASE_FIELDS[mode])
        assert main([mode, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'output_path'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "taken"]

    @pytest.mark.parametrize("point_file", ["d_point00_table.csv", "d_point01_constellation.txt"])
    def test_point_file_naming_a_directory_exits_2(self, tmp_path, capsys, point_file):
        # a design writes a table and a constellation file per point next to
        # output_path; each is checked before the first file is written
        (tmp_path / point_file).mkdir()
        cfg = write_config(tmp_path, K=2, l_s=2, snr_db_list="0, 10", seed=1,
                           output_path=tmp_path / "d.csv")
        assert main(["design", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'output_path'" in err and point_file in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.cfg", point_file])

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

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # numpy's _ArrayMemoryError is a MemoryError; raised here without
        # allocating anything
        import klconst.cli as cli_mod

        def out_of_memory(cfg):
            raise MemoryError("Unable to allocate 768. MiB for an array")

        monkeypatch.setitem(cli_mod._RUNNERS, "pack-unitary", out_of_memory)
        cfg = write_config(
            tmp_path, K=3, l_s=2, seed=1, output_path=tmp_path / "u.txt",
        )
        assert main(["pack-unitary", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("klconst: numeric failure: Unable to allocate")
        assert err.count("\n") == 1


class TestBlasThreads:
    def test_one_thread_and_two_write_the_same_files(self, tmp_path, run_python):
        # BLAS may split a matrix product differently across threads, and it
        # reads its thread count when it loads, so each count runs in a child:
        # - kl-check: a substream's KL samples are one (n, 2) @ (2,) product
        #   of gammas with the eigenvalues of H
        # - ser-sweep at K = 3: the direction scores are one real matrix
        #   product of inner dimension K^2 = 9
        # - ser-sweep through a supplied K = 2, l_s = 8 codebook: 256
        #   directions are scored 256 trials at a time (2^16 scores a
        #   block), 8 blocks a substream
        # - pack-unitary at K = 2, l_s = 6: N = 64 turns the tabulated
        #   climbed lattice
        book = tmp_path / "u8.txt"
        cfg = write_config(tmp_path, "u8.cfg", K=2, l_s=8, seed=0, restarts=1,
                           iterations=20, output_path=book)
        assert main(["pack-unitary", "--config", str(cfg)]) == 0
        runs = {
            "kl.csv": ("kl-check", dict(K=2, M=4, snr_db_list="0, 6", trials=62500,
                                        pairs=4, seed=0), 9),
            "ser.csv": ("ser-sweep", dict(K=3, M=8, l_s=4, snr_db_list="0, 6",
                                          trials=4096, seed=0), 7),
            "ser8.csv": ("ser-sweep", dict(K=2, M=8, l_s=8, snr_db_list="10, 20",
                                           trials=4096, seed=0, schemes="unitary",
                                           unitary_library_8=book), 3),
            "k2.txt": ("pack-unitary", dict(K=2, l_s=6, seed=0), 65),
        }
        script = (
            "import sys; from klconst.cli import main; "
            "sys.exit(max([main(sys.argv[i:i + 3]) for i in range(1, len(sys.argv), 3)]))"
        )
        for threads in (1, 2):
            argv = []
            for name, (mode, fields, _) in runs.items():
                cfg = write_config(tmp_path, f"{name}.{threads}.cfg",
                                   output_path=tmp_path / f"t{threads}" / name, **fields)
                argv += [mode, "--config", str(cfg)]
            proc = run_python(["-c", script, *argv], OPENBLAS_NUM_THREADS=str(threads))
            assert proc.returncode == 0, proc.stderr
        for name, (*_, lines) in runs.items():
            first = (tmp_path / "t1" / name).read_bytes()
            assert len(first.splitlines()) == lines
            assert (tmp_path / "t2" / name).read_bytes() == first, name


class TestBenchmarkHooks:
    def test_traced_names_exist(self):
        # perfbench/run.py --trace 1 wraps each (module, name) found by getattr
        path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
        spec = importlib.util.spec_from_file_location("perfbench_child", path)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        assert child.TRACED
        for module, name in child.TRACED:
            fn = getattr(importlib.import_module(f"klconst.{module}"), name, None)
            assert callable(fn), f"klconst.{module}.{name}"
