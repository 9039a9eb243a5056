"""End-to-end tests for the command line front end.

Exit codes are the contract: 0 UECSM, 1 NotUECSM, 2 NotApplicable,
3 malformed input, 4 numerical failure; search exits 0 on a completed scan
and fixtures exits nonzero only on a verdict mismatch.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uecsm
from uecsm.cli import (
    EXIT_BAD_INPUT,
    EXIT_NOT_APPLICABLE,
    EXIT_NOT_UECSM,
    EXIT_NUMERICAL,
    EXIT_UECSM,
    main,
)
from uecsm.criteria import classify
from uecsm.documents import (
    MatrixDocument,
    build_report_document,
    parse_matrix_document,
    serialize_matrix_document,
    serialize_report_document,
)
from uecsm.fixtures import find_fixture
from uecsm.linalg import DEFAULT_TOLERANCES, ToleranceConfig


def write_doc(tmp_path, label, name="matrix.json"):
    doc = MatrixDocument.from_matrix(find_fixture(label).matrix(), label=label)
    path = tmp_path / name
    path.write_text(serialize_matrix_document(doc))
    return path


def expected_report(path, cfg=DEFAULT_TOLERANCES):
    """The report document ``classify --json`` writes for ``path`` at seed 0."""
    doc = parse_matrix_document(path.read_text())
    return build_report_document(classify(doc.matrix(), cfg), n=doc.n,
                                 label=doc.label, cfg=cfg, seed=0)


class TestClassify:
    def test_uecsm_exit_and_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, "closed-form-s")
        assert main(["classify", str(path)]) == EXIT_UECSM
        out = capsys.readouterr().out
        assert "final: UECSM" in out
        assert "spectrum: 0, 1, 6" in out
        assert "certificate residuals" in out
        assert "S =" in out

    def test_not_uecsm_exit(self, tmp_path, capsys):
        path = write_doc(tmp_path, "necessary-tests-fail")
        assert main(["classify", str(path)]) == EXIT_NOT_UECSM
        assert "final: NotUECSM" in capsys.readouterr().out

    def test_not_applicable_exit(self, tmp_path, capsys):
        path = write_doc(tmp_path, "table3-row1")
        assert main(["classify", str(path)]) == EXIT_NOT_APPLICABLE
        assert "not applicable:" in capsys.readouterr().out

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classify", str(path)]) == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["classify", "/no/such/file.json"]) == EXIT_BAD_INPUT

    def test_oversized_integer_entry(self, tmp_path, capsys):
        # 10**400 parses as a JSON integer but has no float value.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"format_version": 1,
                                    "entries": [[[10 ** 400, 0]]]}))
        assert main(["classify", str(path)]) == EXIT_BAD_INPUT
        assert "entry (1, 1)" in capsys.readouterr().err

    def test_deeply_nested_document(self, tmp_path, capsys):
        # Deep enough to exhaust the JSON decoder's recursion limit.
        path = tmp_path / "deep.json"
        depth = 200_000
        path.write_text('{"format_version": 1, "entries": '
                        + "[" * depth + "]" * depth + "}")
        assert main(["classify", str(path)]) == EXIT_BAD_INPUT
        assert "error: invalid JSON" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_beyond_float_range_is_numerical_failure(self, tmp_path, capsys):
        # A finite matrix whose eigenvalues, about +-2.05e308, are not: the
        # eigensystem refuses it, without numpy's overflow warning.
        doc = MatrixDocument.from_matrix([[1.5e308, 1.5e308], [1.5e308, -1.4e308]])
        path = tmp_path / "overflow.json"
        path.write_text(serialize_matrix_document(doc))
        assert main(["classify", str(path), "--json", "-"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure: spectrum beyond the float range" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("json_path", [None, "report.json"])
    def test_text_report_beyond_float_range_is_numerical_failure(
            self, tmp_path, capsys, json_path):
        # Without --json '-' the same report is refused before any text.
        doc = MatrixDocument.from_matrix([[1.5e308, 1.5e308], [1.5e308, -1.4e308]])
        path = tmp_path / "overflow.json"
        path.write_text(serialize_matrix_document(doc))
        argv = ["classify", str(path)]
        if json_path:
            argv += ["--json", str(tmp_path / json_path)]
        assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure: spectrum beyond the float range" in captured.err
        if json_path:
            assert not (tmp_path / json_path).exists()

    def test_bad_tolerance_combination(self, tmp_path, capsys):
        path = write_doc(tmp_path, "closed-form-s")
        code = main(["classify", str(path), "--zero-tol", "1e-3"])
        assert code == EXIT_BAD_INPUT

    def test_numerical_failure_exit(self, tmp_path, capsys):
        # An absurdly small zero tolerance turns ordinary rounding into a
        # reported numerical failure.
        path = write_doc(tmp_path, "closed-form-s")
        code = main(["classify", str(path), "--zero-tol", "1e-300"])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_json_report_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, "strong-angle-counterexample")
        out_path = tmp_path / "report.json"
        assert main(["classify", str(path), "--json", str(out_path)]) \
            == EXIT_NOT_UECSM
        doc = json.loads(out_path.read_text())
        assert doc == expected_report(path)
        assert doc["final"] == "NotUECSM"
        assert doc["label"] == "strong-angle-counterexample"

    def test_json_to_stdout_is_pure(self, tmp_path, capsys):
        path = write_doc(tmp_path, "closed-form-s")
        assert main(["classify", str(path), "--json", "-"]) == EXIT_UECSM
        out = capsys.readouterr().out
        expected = expected_report(path)
        assert out == serialize_report_document(expected)    # no human text mixed in
        doc = json.loads(out)
        assert doc == expected
        assert doc["final"] == "UECSM"
        assert doc["certificate"] is not None

    def test_oracle_flag(self, tmp_path, capsys):
        path = write_doc(tmp_path, "closed-form-s")
        code = main(["classify", str(path), "--oracle", "--restarts", "8"])
        assert code == EXIT_UECSM
        assert "oracle: UECSM" in capsys.readouterr().out

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        doc = MatrixDocument.from_matrix(find_fixture("family-s5").matrix())
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_matrix_document(doc)))
        assert main(["classify", "-"]) == EXIT_UECSM

    @pytest.mark.parametrize("json_out", [None, "-"])
    def test_uncertified_uecsm_flagged(self, tmp_path, capsys, json_out):
        # min |e_i| is 3e-10 here, so S divides by a near-zero pairing and
        # its unitarity residual misses match_tol; the verdict stays.
        doc = MatrixDocument.from_matrix([[0, 1, 0], [0, 0, 1], [1e-15, 0, 0]])
        path = tmp_path / "matrix.json"
        path.write_text(serialize_matrix_document(doc))
        argv = ["classify", str(path), "--zero-tol", "1e-13"]
        if json_out:
            argv += ["--json", json_out]
        assert main(argv) == EXIT_UECSM
        captured = capsys.readouterr()
        assert "warning: UECSM verdict is not certified" in captured.err
        assert "match_tol" in captured.err
        if json_out:
            doc = json.loads(captured.out)
            assert doc == expected_report(path, ToleranceConfig(zero_tol=1e-13))
            assert doc["final"] == "UECSM"
        else:
            assert "final: UECSM" in captured.out

    def test_oracle_with_zero_restarts_is_bad_input(self, tmp_path, capsys):
        path = write_doc(tmp_path, "closed-form-s")
        code = main(["classify", str(path), "--oracle", "--restarts", "0"])
        assert code == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_oracle_with_negative_seed_is_bad_input(self, tmp_path, capsys):
        path = write_doc(tmp_path, "closed-form-s")
        code = main(["classify", str(path), "--oracle", "--seed", "-1"])
        assert code == EXIT_BAD_INPUT
        assert "error: --seed" in capsys.readouterr().err

    def test_unwritable_json_path_is_bad_input(self, tmp_path, capsys):
        path = write_doc(tmp_path, "closed-form-s")
        out_path = tmp_path / "no-such-dir" / "report.json"
        assert main(["classify", str(path), "--json", str(out_path)]) \
            == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_seed_changes_nothing_observable(self, tmp_path, capsys):
        path = write_doc(tmp_path, "closed-form-s")
        for seed in ("0", "42"):
            assert main(["classify", str(path), "--seed", seed]) == EXIT_UECSM


class TestSearch:
    def test_hit_round_trips_through_classify(self, tmp_path, capsys):
        # Candidate 508 of the 4 x 4 [-1, 1] stream of seed 3 is its first hit.
        out_dir = tmp_path / "hits"
        summary = tmp_path / "summary.json"
        code = main(["search", "--count", "600", "--dim", "4", "--entry-range", "-1", "1",
                     "--seed", "3", "--out-dir", str(out_dir), "--json", str(summary)])
        assert code == 0
        data = json.loads(summary.read_text())
        assert data["hit_indices"] == [508]
        hit_path = out_dir / "hit-000508.json"
        assert hit_path.exists()
        capsys.readouterr()
        # Every reported hit must re-verify as a strong-angle failure.
        assert main(["classify", str(hit_path)]) == EXIT_NOT_UECSM
        out = capsys.readouterr().out
        assert "StrongAngle     Fail" in out
        assert "Angle           Pass" in out

    def test_no_hit_makes_no_hit_directory(self, tmp_path, capsys):
        code = main(["search", "--count", "50", "--out-dir", str(tmp_path / "hits")])
        assert code == 0
        out = capsys.readouterr().out
        assert "hits: 0" in out
        assert not (tmp_path / "hits").exists()

    def test_small_scan_summary(self, tmp_path, capsys):
        summary = tmp_path / "s.json"
        code = main(["search", "--count", "50", "--seed", "3",
                     "--out-dir", str(tmp_path / "hits"),
                     "--json", str(summary)])
        assert code == 0
        data = json.loads(summary.read_text())
        total = (data["not_applicable"] + data["breakdown"] + data["uecsm"]
                 + data["not_uecsm"])
        assert total == 50

    def test_unwritable_json_path_is_bad_input(self, tmp_path, capsys):
        code = main(["search", "--count", "2", "--out-dir", str(tmp_path),
                     "--json", str(tmp_path / "no-such-dir" / "summary.json")])
        assert code == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_seed_past_the_stream_key_is_bad_input(self, tmp_path, capsys):
        code = main(["search", "--count", "1", "--seed", str(2**64),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_BAD_INPUT
        assert "seed" in capsys.readouterr().err

    def test_count_past_the_stream_key_is_bad_input(self, tmp_path, capsys):
        code = main(["search", "--count", str(2**65), "--out-dir", str(tmp_path)])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: count")

    def test_entry_range_past_int64_is_bad_input(self, tmp_path, capsys):
        code = main(["search", "--count", "0", "--entry-range", "0", str(2**63),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: entry range")

    def test_entry_range_past_exact_integers_is_bad_input(self, tmp_path, capsys):
        code = main(["search", "--count", "1", "--entry-range", str(2**53 + 1),
                     str(2**53 + 1), "--out-dir", str(tmp_path)])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: entry range")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_bad_input(self, tmp_path, capsys, workers):
        code = main(["search", "--count", "1", "--workers", workers,
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: workers")

    def test_summary_is_one_line(self, tmp_path, capsys):
        summary = tmp_path / "s.json"
        out_dir = tmp_path / "hits"
        assert main(["search", "--count", "600", "--dim", "4", "--entry-range", "-1", "1",
                     "--seed", "3", "--out-dir", str(out_dir), "--json", str(summary)]) == 0
        text = summary.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text) == {
            "format_version": 1, "seed": 3, "count": 600, "dim": 4,
            "entry_range": [-1, 1], "not_applicable": 94, "breakdown": 4,
            "uecsm": 38, "not_uecsm": 464, "hit_indices": [508],
            "hit_files": [str(out_dir / "hit-000508.json")]}


class TestFixtures:
    def test_single_group_all_ok(self, capsys):
        assert main(["fixtures", "--only", "table1"]) == 0
        out = capsys.readouterr().out
        assert "all ok" in out
        assert out.count("[table1]") == 4

    def test_family_verdict_pattern(self, capsys):
        assert main(["fixtures", "--only", "section1-family"]) == 0
        out = capsys.readouterr().out
        for s, verdict in [(2, "NotUECSM"), (3, "NotUECSM"), (4, "NotUECSM"),
                           (5, "UECSM"), (6, "NotUECSM")]:
            assert f"family-s{s}: classify {verdict} ok" in out

    def test_nilpotent_group_with_oracle(self, capsys):
        assert main(["fixtures", "--only", "table2", "--restarts", "8"]) == 0
        out = capsys.readouterr().out
        assert "nilpotent yes ok" in out
        assert "nilpotent no ok" in out
        assert "oracle UECSM ok" in out
        assert "oracle NotUECSM ok" in out

    def test_zero_restarts_is_bad_input(self, capsys):
        assert main(["fixtures", "--restarts", "0"]) == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_is_bad_input(self, capsys):
        assert main(["fixtures", "--only", "table2", "--seed", "-1"]) == EXIT_BAD_INPUT
        assert "error: --seed" in capsys.readouterr().err

    def test_unknown_group_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["fixtures", "--only", "no-such-group"])
        assert info.value.code == EXIT_BAD_INPUT


def modules_loaded_by(statements):
    """The modules loaded once ``statements`` run in a fresh interpreter, so
    that modules imported by other tests do not count."""
    src = str(Path(uecsm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"{statements}\nimport sys\nprint()\nprint(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1].split()


def packages_loaded_by_cli(package):
    """Modules of ``package`` that ``import uecsm.cli`` loads."""
    return [m for m in modules_loaded_by("import uecsm.cli")
            if m.split(".")[0] == package]


class TestImport:
    def test_cli_loads_no_scipy(self):
        assert packages_loaded_by_cli("scipy") == []

    def test_cli_loads_no_process_pool(self):
        # run_search imports the pool only when it splits a scan.
        assert packages_loaded_by_cli("multiprocessing") == []

    def test_package_import_loads_no_module(self):
        # Each public name's module is imported when the name is first used.
        loaded = modules_loaded_by("import uecsm")
        assert "uecsm" in loaded
        assert [m for m in loaded if m.startswith("uecsm.") or m == "numpy"] == []

    def test_plain_classify_loads_no_oracle_or_search(self, tmp_path):
        path = write_doc(tmp_path, "closed-form-s")
        loaded = modules_loaded_by(
            "import uecsm.cli\n"
            f"assert uecsm.cli.main(['classify', {str(path)!r}, '--json', '-']) == 0")
        assert "uecsm.documents" in loaded
        assert [m for m in loaded if m in ("uecsm.oracle", "uecsm.search")] == []


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_BAD_INPUT

    def test_search_count_required(self):
        with pytest.raises(SystemExit) as info:
            main(["search"])
        assert info.value.code == EXIT_BAD_INPUT

    def test_mistyped_tolerance_is_bad_input(self, tmp_path, capsys):
        # argparse's own usage exit, 2, would read as NotApplicable.
        path = write_doc(tmp_path, "closed-form-s")
        with pytest.raises(SystemExit) as info:
            main(["classify", str(path), "--zero-tol", "abc"])
        assert info.value.code == EXIT_BAD_INPUT
        assert "--zero-tol" in capsys.readouterr().err

    def test_tolerance_flags_follow_the_config(self, tmp_path, capsys):
        path = write_doc(tmp_path, "closed-form-s")
        argv = ["classify", str(path), "--json", "-", "--eig-gap-tol", "1e-6",
                "--zero-tol", "1e-10", "--match-tol", "1e-8"]
        assert main(argv) == EXIT_UECSM
        doc = json.loads(capsys.readouterr().out)
        cfg = ToleranceConfig(eig_gap_tol=1e-6, zero_tol=1e-10, match_tol=1e-8)
        assert doc == expected_report(path, cfg)
        assert doc["tolerances"] == {"eig_gap_tol": 1e-6, "zero_tol": 1e-10,
                                     "match_tol": 1e-8}
