import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from pptatlas import cli
from pptatlas import qstate as qs
from pptatlas.config import Tolerances
from pptatlas.extremal import rank_square_bound
from pptatlas import rank4 as r4
from pptatlas.prodvec import upb_standard, upb_state
from pptatlas.rank4 import construct_type2

from conftest import ppt_states, random_separable


def type2_pushed_below_zero() -> qs.HermitianOperator:
    """The type II state for t = 0.6+0.8i with the lowest eigenvalue of its
    first partial transpose pushed to -2e-9, renormalized: rho's own smallest
    eigenvalue is then -1.6e-9, inside psd_tol = 1e-8 but not the default."""
    state, _ = construct_type2(0.6 + 0.8j)
    w, v = np.linalg.eigh(qs.ptranspose_mat(state.mat, 1))
    w[0] = -2e-9
    return qs.HermitianOperator(qs.ptranspose_mat((v * w) @ v.conj().T, 1)).normalized()


class TestStateRecord:
    def test_round_trip_bit_exact(self, rng):
        state = qs.random_ppt_state(rng)
        record = cli.annotate_state(state, {"method": "test", "seed": 0})
        back = cli.StateRecord.from_json(record.to_json())
        assert np.array_equal(back.matrix, record.matrix)
        assert back.profile == record.profile
        assert back.extremal == record.extremal
        assert back.classification == record.classification

    @settings(max_examples=25, deadline=None, database=None)
    @given(ppt_states())
    def test_any_record_round_trips_bit_exactly(self, state):
        record = cli.annotate_state(state, {"method": "test"})
        text = record.to_json()
        back = cli.StateRecord.from_json(text)
        assert np.array_equal(back.matrix, record.matrix)
        assert back.profile == record.profile
        assert back.fingerprint == record.fingerprint
        assert (back.extremal, back.classification, back.provenance) == (
            record.extremal, record.classification, record.provenance)
        assert back.to_json() == text

    def test_double_round_trip_stable(self, rng):
        record = cli.annotate_state(qs.random_ppt_state(rng), {"method": "test"})
        once = record.to_json()
        twice = cli.StateRecord.from_json(once).to_json()
        assert once == twice

    def test_annotation_fields(self, rng):
        record = cli.annotate_state(qs.random_ppt_state(rng), {"method": "test"})
        assert record.provenance["rng"] == cli.RNG_ALGORITHM
        assert "version" in record.provenance
        assert record.classification["separable"] in (True, False, None)

    def test_uncertified_nonextremal_state_leaves_separable_null(self):
        """A state deep inside the separable set can be a mixture of
        entangled extremal PPT states; when the probe certifies no product
        decomposition, the record leaves separability open."""
        mixed = qs.random_density(np.random.default_rng(3)).mat
        state = qs.HermitianOperator(0.98 * np.eye(8) / 8 + 0.02 * mixed)
        record = cli.annotate_state(state, {"method": "test"},
                                    probe_rng=np.random.default_rng(1), probe_trials=4)
        assert not record.extremal
        assert record.classification["separable"] is None

    def test_psd_tolerance_reaches_type_classification(self):
        """The run's psd tolerance decides the PPT sign in every layer,
        including the rank-4444 type classification."""
        record = cli.annotate_state(type2_pushed_below_zero(), {},
                                    Tolerances(psd_tol=1e-8))
        assert record.profile.key == "4444"
        assert record.extremal
        assert record.fingerprint.degenerate
        assert record.classification["type"] == "II"

    def test_rank4444_type_comes_from_the_fingerprint(self, monkeypatch, rng):
        """One annotation of a type II state computes the profile once, in
        face_solution_space, and records the profile ppt_profile gives; its type is
        classify_type's on type I, type II and UPB states."""
        calls = []
        profile = qs.ppt_profile

        def counted(*args, **kwargs):
            calls.append(args)
            return profile(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("pptatlas")
                    and getattr(module, "ppt_profile", None) is profile):
                monkeypatch.setattr(module, "ppt_profile", counted)
        type2 = construct_type2(0.6 + 0.8j)[0]
        cli.annotate_state(type2, {})
        assert len(calls) == 1
        for state in (r4.construct_type1(rng)[0], type2,
                      upb_state(upb_standard(0.6, 0.9, 1.1))):
            record = cli.annotate_state(state, {})
            assert record.profile == profile(state.normalized())
            assert record.classification["type"] == r4.classify_type(state.normalized())

    def test_reload_reproduces_annotations(self, rng):
        record = cli.annotate_state(random_separable(rng, 3), {"method": "test"})
        back = cli.StateRecord.from_json(record.to_json())
        fresh = cli.annotate_state(back.state(), {"method": "test"})
        assert fresh.profile.ranks == record.profile.ranks
        assert abs(fresh.fingerprint.i2 - record.fingerprint.i2) < 1e-12
        assert fresh.extremal == record.extremal


class TestCensus:
    def test_bound_holds_for_extremal_rows(self):
        records, report = cli.cmd_search_extremal(seed=7, n_runs=6)
        assert report.check_bound()
        for row in report.rows:
            if row.extremal_count > 0:
                assert row.square_sum <= 193

    def test_reference_status_labels(self):
        report = cli.CensusReport.from_records(
            [cli.annotate_state(qs.HermitianOperator(np.eye(8) / 8), {"m": "x"})])
        assert report.rows[0].profile == "8888"
        assert report.rows[0].reference_status == "confirmed_nonextremal_only"

    def test_no_extremal_reference_beyond_the_bound(self):
        """The square-sum bound rules out extremal states above 193, so no
        reference profile there can claim extremal examples."""
        for key, extremal_known in cli.REFERENCE_CENSUS.items():
            if extremal_known:
                assert rank_square_bound(tuple(int(c) for c in key)).square_sum <= 193, key

    def test_reported_absent_combinations(self):
        assert all(key in cli.REPORTED_ABSENT for key in ("5568", "5588", "5888"))
        assert cli.REFERENCE_CENSUS["5688"] is False
        assert cli.REFERENCE_CENSUS["2222"] is False
        assert cli.REFERENCE_CENSUS["3333"] is False

    def test_csv_shape(self):
        _, report = cli.cmd_search_extremal(seed=3, n_runs=3)
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("profile,count,extremal_count")
        assert len(lines) == 1 + len(report.rows)

    def test_campaign_keys_within_reference_census(self):
        """Descent endpoints only realize previously reported combinations."""
        _, report = cli.cmd_search_extremal(seed=29, n_runs=8)
        for row in report.rows:
            assert row.reference_status in ("confirmed", "confirmed_nonextremal_only")


class TestCommands:
    def test_search_extremal_deterministic(self, tmp_path):
        _, report1 = cli.cmd_search_extremal(seed=11, n_runs=4, out_dir=tmp_path / "a")
        _, report2 = cli.cmd_search_extremal(seed=11, n_runs=4, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "records.jsonl").read_bytes() == \
               (tmp_path / "b" / "records.jsonl").read_bytes()
        assert report1.to_csv() == report2.to_csv()

    def test_search_ranks_success(self, tmp_path):
        record = cli.cmd_search_ranks((6, 6, 6, 6), seed=5, budget=20,
                                      out_path=tmp_path / "state.json")
        assert record is not None
        assert record.profile.ranks == (6, 6, 6, 6)
        assert (tmp_path / "state.json").exists()

    def test_search_ranks_failure(self):
        record = cli.cmd_search_ranks((5, 5, 6, 8), seed=5, budget=6)
        assert record is None

    def test_construct_type2_provenance(self):
        record = cli.cmd_construct("type2", t=1.0)
        assert record.provenance["parameters"]["lambdas"] == [4.0, 4.0, 1.0, 1.0]
        assert record.provenance["parameters"]["normalization"] == 1 / 32
        assert record.classification["type"] == "II"

    def test_construct_upb(self):
        record = cli.cmd_construct("upb", angles=(np.pi / 4, np.pi / 4, np.pi / 4))
        assert record.extremal
        assert record.classification["type"] == "I"

    def test_construct_type1(self):
        record = cli.cmd_construct("type1", seed=3)
        assert record.extremal
        assert record.profile.ranks == (4, 4, 4, 4)
        assert record.classification["type"] == "I"

    def test_classify_fixture_files(self, tmp_path, rng):
        fixtures = {
            "separable": cli.annotate_state(random_separable(rng, 3), {"m": "fix"}),
            "type1": cli.cmd_construct("type1", seed=2),
            "type2": cli.cmd_construct("type2", t=0.7 + 0.3j),
        }
        expectations = {
            "separable": (True, None),
            "type1": (False, "I"),
            "type2": (False, "II"),
        }
        for name, record in fixtures.items():
            path = tmp_path / f"{name}.json"
            path.write_text(record.to_json() + "\n")
            out = cli.cmd_classify(path, seed=9)
            separable, kind = expectations[name]
            assert out.classification["separable"] == separable, name
            assert out.classification["type"] == kind, name

    def test_census_command(self, tmp_path):
        cli.cmd_search_extremal(seed=13, n_runs=3, out_dir=tmp_path)
        report = cli.cmd_census([tmp_path], out_path=tmp_path / "census.csv")
        assert (tmp_path / "census.csv").exists()
        assert sum(row.count for row in report.rows) == 3


class TestMainEntry:
    def test_construct_exit_zero(self, capsys):
        code = cli.main(["construct", "type2", "--t", "1.0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["classification"]["type"] == "II"

    def test_search_failure_exit_two(self, capsys):
        code = cli.main(["search-ranks", "5568", "--budget", "4", "--seed", "1"])
        assert code == 2
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is False

    def test_invalid_input_exit_three(self, capsys):
        assert cli.main(["construct", "type2", "--t", "0"]) == 3
        # angles that make two UPB factors parallel (DegenerateAngles)
        assert cli.main(["construct", "upb", "--angles", "0,0.78,0.78"]) == 3
        assert "angles" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            cli.main(["no-such-command"])
        assert info.value.code == 3

    def test_cg_is_the_only_rank_search_method(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["search-ranks", "5555", "--method", "sq"])
        assert info.value.code == 3
        # cg is parsed and echoed, and the library function has no method
        assert cli.main(["search-ranks", "5568", "--method", "cg", "--budget", "1"]) == 2
        assert json.loads(capsys.readouterr().out)["method"] == "cg"
        assert "method" not in inspect.signature(cli.cmd_search_ranks).parameters

    def test_byte_identical_output_for_same_seed(self, capsys):
        cli.main(["search-extremal", "--runs", "3", "--seed", "21"])
        first = capsys.readouterr().out
        cli.main(["search-extremal", "--runs", "3", "--seed", "21"])
        second = capsys.readouterr().out
        assert first == second

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PPTATLAS_SEED", "77")
        parser_args = cli.build_parser().parse_args(["search-extremal"])
        assert parser_args.seed == 77

    @pytest.fixture
    def pushed_record_path(self, tmp_path):
        record = cli.cmd_construct("type2", t=0.6 + 0.8j)
        record.matrix = np.array(type2_pushed_below_zero().mat)
        path = tmp_path / "pushed.json"
        path.write_text(record.to_json() + "\n")
        return str(path)

    def test_env_psd_tolerance_classifies_type2(self, capsys, monkeypatch,
                                                pushed_record_path):
        monkeypatch.setenv("PPTATLAS_TOL_PSD", "1e-8")
        code = cli.main(["classify", "--in", pushed_record_path, "--probe-trials", "0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["classification"]["type"] == "II"
        assert out["provenance"]["tolerances"]["psd_tol"] == 1e-8

    def test_psd_tolerance_flag_decides(self, capsys, pushed_record_path):
        args = ["classify", "--in", pushed_record_path, "--probe-trials", "0"]
        assert cli.main(args) == 2
        assert "NotAState" in capsys.readouterr().err
        assert cli.main(args + ["--tol-psd", "1e-8"]) == 0
        assert json.loads(capsys.readouterr().out)["classification"]["type"] == "II"

    def test_classify_missing_file_exit_three(self):
        assert cli.main(["classify", "--in", "/nonexistent/state.json"]) == 3

    def test_malformed_record_files_exit_three(self, tmp_path, capsys):
        """An empty file, a record without a field and a record whose matrix
        is not a list of [re, im] rows, or has a non-finite entry, are
        invalid input, for classify and census alike; the error names the
        field."""
        good = cli.cmd_construct("type2", t=1.0).to_dict()
        no_fingerprint = {key: value for key, value in good.items() if key != "fingerprint"}
        no_ranks = json.loads(json.dumps(good))
        del no_ranks["profile"]["ranks"]
        nan_entry = json.loads(json.dumps(good))
        nan_entry["matrix"][2][5][1] = float("nan")
        cases = {"empty": ("", "no record"),
                 "no_fingerprint": (json.dumps(no_fingerprint), "'fingerprint'"),
                 "no_ranks": (json.dumps(no_ranks), "'profile'"),
                 "scalar_matrix": (json.dumps(dict(good, matrix=5)), "'matrix'"),
                 "nan_entry": (json.dumps(nan_entry), "'matrix'")}
        for name, (text, named) in cases.items():
            path = tmp_path / f"{name}.jsonl"
            path.write_text(text)
            commands = [["classify", "--in", str(path)]]
            if text:
                commands.append(["census", "--in", str(path)])
            for command in commands:
                assert cli.main(command) == 3, (name, command)
                err = capsys.readouterr().err
                assert err.startswith("pptatlas: invalid input") and named in err, err

    @pytest.mark.parametrize("flag,value", [("--t", "nan"), ("--t", "1+infj"),
                                            ("--angles", "nan,0.78,0.78")])
    def test_non_finite_parameter_exit_three(self, capsys, flag, value):
        family = "type2" if flag == "--t" else "upb"
        with pytest.raises(SystemExit) as info:
            cli.main(["construct", family, flag, value])
        assert info.value.code == 3
        assert f"argument {flag}" in capsys.readouterr().err

    def test_linalg_error_in_a_run_exits_two(self, capsys, monkeypatch):
        """LinAlgError is a ValueError, but one raised by a run on valid
        input is a failed run, not invalid input."""
        def diverge(t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "construct_type2", diverge)
        assert cli.main(["construct", "type2", "--t", "1.0"]) == 2
        assert "LinAlgError: Eigenvalues did not converge" in capsys.readouterr().err

    def test_package_runs_as_a_module(self):
        """`python -m pptatlas --help` prints the help and nothing on stderr."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-m", "pptatlas", "--help"],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0
        assert result.stderr == ""
        assert "search-extremal" in result.stdout

    def test_runtime_never_imports_scipy(self, tmp_path):
        """A descent campaign, a type II construction and the biseparable
        decomposition of a type II state run without importing scipy."""
        script = textwrap.dedent(f"""
            import sys
            from pptatlas import cli, rank4
            assert cli.main(["search-extremal", "--runs", "1", "--seed", "3",
                             "--out", {str(tmp_path)!r}]) == 0
            assert cli.main(["construct", "type2", "--t", "0.6+0.8j",
                             "--out", {str(tmp_path / "state.json")!r}]) == 0
            state, _ = rank4.construct_type2(0.3 + 0.2j)
            rank4.biseparable_triple(state)
            loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
            assert "scipy" not in sys.modules, loaded[:8]
        """)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, timeout=300)
        assert result.returncode == 0, result.stderr
