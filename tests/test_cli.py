"""Console entry points: gen, solve, check, bench."""

import json
import subprocess
import sys

import numpy as np
import pytest

from sylvenc import GenSpec, dump_json, generate, load_json, system_to_dict
from sylvenc.cli import main


def _gen_file(tmp_path, name, family="kyc31", m=3, alpha=1e-6, seed=0):
    path = tmp_path / name
    rc = main(
        [
            "gen",
            "--family",
            family,
            "--m",
            str(m),
            "--alpha",
            str(alpha),
            "--seed",
            str(seed),
            "--output",
            str(path),
        ]
    )
    assert rc == 0
    return path


class TestGen:
    def test_matches_library_generator(self, tmp_path):
        path = _gen_file(tmp_path, "sys.json", m=4, seed=3)
        on_disk = path.read_text().strip()
        direct = dump_json(system_to_dict(generate(GenSpec(family="kyc31", m=4, seed=3))))
        assert on_disk == direct

    def test_stdout_default(self, capsys):
        rc = main(["gen", "--family", "sylvester32", "--m", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"A", "B", "C", "D", "F"}

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["gen", "--family", "doesnotexist", "--m", "2"])


class TestSolve:
    @pytest.mark.parametrize("method", ["mkw", "itr", "ver", "blk"])
    def test_each_method_verifies_small_system(self, tmp_path, method):
        sys_path = _gen_file(tmp_path, "sys.json", m=3, seed=1)
        out = tmp_path / f"enc_{method}.json"
        rc = main(
            ["solve", "--input", str(sys_path), "--method", method, "--output", str(out)]
        )
        assert rc == 0
        doc = load_json(out.read_text())
        assert doc["verified"] is True
        assert doc["method"] == method
        assert doc["evaluated"] is not None

    def test_failed_verification_exits_2(self, tmp_path, capsys):
        sys_path = _gen_file(tmp_path, "hard.json", family="gallery33", m=2, alpha=1e-2)
        out = tmp_path / "enc.json"
        rc = main(["solve", "--input", str(sys_path), "--output", str(out)])
        assert rc == 2
        doc = load_json(out.read_text())
        assert doc["verified"] is False and doc["evaluated"] is None


class TestCheck:
    def test_all_contained(self, tmp_path, capsys):
        sys_path = _gen_file(tmp_path, "sys.json", m=3, seed=2)
        enc_path = tmp_path / "enc.json"
        main(["solve", "--input", str(sys_path), "--output", str(enc_path)])
        capsys.readouterr()
        rc = main(
            ["check", "--input", str(sys_path), "--enclosure", str(enc_path), "--samples", "50"]
        )
        assert rc == 0
        assert "contained 50/50 sampled member solutions" in capsys.readouterr().out

    def test_escape_from_verified_box_exits_3(self, tmp_path, capsys):
        sys_path = _gen_file(tmp_path, "sys.json", m=3, seed=2)
        enc_path = tmp_path / "enc.json"
        main(["solve", "--input", str(sys_path), "--output", str(enc_path)])
        doc = load_json(enc_path.read_text())
        # tamper: collapse the reported box so sampled solutions fall outside
        doc["evaluated"]["rad"] = (np.zeros((3, 3))).tolist()
        doc["evaluated"]["mid_re"] = (np.asarray(doc["evaluated"]["mid_re"]) + 10.0).tolist()
        enc_path.write_text(dump_json(doc))
        capsys.readouterr()
        rc = main(
            ["check", "--input", str(sys_path), "--enclosure", str(enc_path), "--samples", "20"]
        )
        assert rc == 3
        assert "contained 0/20" in capsys.readouterr().out

    def test_unverified_enclosure_exits_2(self, tmp_path, capsys):
        sys_path = _gen_file(tmp_path, "hard.json", family="gallery33", m=2, alpha=1e-2)
        enc_path = tmp_path / "enc.json"
        main(["solve", "--input", str(sys_path), "--output", str(enc_path)])
        capsys.readouterr()
        rc = main(["check", "--input", str(sys_path), "--enclosure", str(enc_path)])
        assert rc == 2
        assert "not verified" in capsys.readouterr().out

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        small, sys_path = _gen_file(tmp_path, "m4.json", m=4), _gen_file(tmp_path, "m5.json", m=5)
        enc_path = tmp_path / "enc.json"
        main(["solve", "--input", str(small), "--output", str(enc_path)])
        capsys.readouterr()
        rc = main(["check", "--input", str(sys_path), "--enclosure", str(enc_path)])
        assert rc == 2
        out = capsys.readouterr()
        assert "contained" not in out.out
        assert out.err == "error: the enclosure is 4 x 4, the system's solution 5 x 5\n"

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_no_samples_is_no_pass(self, tmp_path, capsys, count):
        sys_path = _gen_file(tmp_path, "sys.json", m=3, seed=2)
        enc_path = tmp_path / "enc.json"
        main(["solve", "--input", str(sys_path), "--output", str(enc_path)])
        capsys.readouterr()
        rc = main(
            ["check", "--input", str(sys_path), "--enclosure", str(enc_path), "--samples", count]
        )
        assert rc == 2
        out = capsys.readouterr()
        assert "contained" not in out.out
        assert "--samples must be at least 1" in out.err

    def test_all_members_singular_exits_2(self, tmp_path, capsys):
        sys_path = _gen_file(tmp_path, "sys.json", m=1, seed=2)
        enc_path = tmp_path / "enc.json"
        main(["solve", "--input", str(sys_path), "--output", str(enc_path)])
        # same shape, every member a X b + c X d with a = c = 0: nothing to check
        doc = load_json(sys_path.read_text())
        for name in ("A", "C"):
            doc[name]["mid_re"] = [[0.0]]
            doc[name]["rad"] = [[0.0]]
        sys_path.write_text(dump_json(doc))
        capsys.readouterr()
        with pytest.warns(RuntimeWarning, match="singular member"):
            rc = main(
                ["check", "--input", str(sys_path), "--enclosure", str(enc_path), "--samples", "3"]
            )
        assert rc == 2
        out = capsys.readouterr()
        assert "contained" not in out.out
        assert "no member solution to check" in out.err


class TestBench:
    def test_csv_layout(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                "--family",
                "kyc31",
                "--sizes",
                "3,5",
                "--methods",
                "mkw,itr",
                "--samples",
                "20",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        for col in ("family", "m", "n", "time_mkw", "ratio_itr", "verified_mkw"):
            assert col in header
        assert lines[1].split(",")[1] == "3" and lines[2].split(",")[1] == "5"

    def test_jsonl_parses(self, tmp_path):
        out = tmp_path / "bench.jsonl"
        rc = main(
            [
                "bench",
                "--sizes",
                "3",
                "--methods",
                "mkw,ver",
                "--samples",
                "10",
                "--format",
                "jsonl",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().strip().splitlines()]
        assert {r["method"] for r in rows} == {"mkw", "ver"}
        assert all(r["verified"] for r in rows)
        assert all(r["sample_containment_rate"] == 1.0 for r in rows)

    def test_size_cap_rows_do_not_fail_the_run(self, tmp_path):
        out = tmp_path / "bench.jsonl"
        rc = main(
            [
                "bench",
                "--sizes",
                "40",
                "--methods",
                "mkw,ver",
                "--samples",
                "5",
                "--baseline-cap",
                "100",
                "--format",
                "jsonl",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        rows = {r["method"]: r for r in map(json.loads, out.read_text().strip().splitlines())}
        assert rows["ver"]["note"] == "size-cap"
        assert rows["mkw"]["verified"] is True

    def test_unverified_cell_exits_2(self, tmp_path):
        rc = main(
            [
                "bench",
                "--family",
                "gallery33",
                "--sizes",
                "2",
                "--alpha",
                "1e-2",
                "--methods",
                "mkw",
                "--samples",
                "5",
                "--output",
                str(tmp_path / "bench.csv"),
            ]
        )
        assert rc == 2


def test_bench_times_itr_from_the_cells_mkw_enclosure(monkeypatch):
    import sylvenc.bench as bench
    import sylvenc.refine as refine
    from sylvenc import itr_solve

    fresh = itr_solve(generate(GenSpec(family="kyc31", m=4))).evaluated
    starts = []

    def counting_mkw(*args, **kwargs):
        starts.append(args)
        return bench.mkw_solve(*args, **kwargs)

    # the start solve itr_solve makes when it is given no initial enclosure
    monkeypatch.setattr(refine, "mkw_solve", counting_mkw)
    # itr listed first: mkw still runs first and hands itr its enclosure
    code, records = bench.run_benchmark(sizes=(4,), methods=("itr", "mkw"), samples=0)
    assert code == 0
    assert [r.method for r in records] == ["itr", "mkw"]
    assert starts == []
    assert records[0].meanR == float(fresh.rad.sum() / fresh.rad.size)


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sylvenc.cli", "gen", "--family", "kyc31", "--m", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"A"' in proc.stdout


def test_defaults_are_the_library_constants():
    import inspect

    from sylvenc import full_krawczyk_solve, mkw_block_solve, mkw_solve, run_benchmark
    from sylvenc.baseline import BASELINE_CAP
    from sylvenc.cli import build_parser
    from sylvenc.krawczyk import KMAX_DEFAULT
    from sylvenc.refine import MAX_ITER_DEFAULT, TOL_DEFAULT

    expect = (TOL_DEFAULT, MAX_ITER_DEFAULT, BASELINE_CAP)
    for argv in (["solve", "--input", "system.json"], ["bench"]):
        args = build_parser().parse_args(argv)
        assert (args.tol, args.max_iter, args.baseline_cap) == expect
    params = inspect.signature(run_benchmark).parameters
    assert tuple(params[k].default for k in ("tol", "max_iter", "baseline_cap")) == expect
    for solve in (mkw_solve, mkw_block_solve, full_krawczyk_solve):
        assert inspect.signature(solve).parameters["kmax"].default == KMAX_DEFAULT
