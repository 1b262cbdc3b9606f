import json

import numpy as np
import pytest

from pptatlas import cli
from pptatlas import qstate as qs

from conftest import random_separable


class TestStateRecord:
    def test_round_trip_bit_exact(self, rng):
        state = qs.random_ppt_state(rng)
        record = cli.annotate_state(state, {"method": "test", "seed": 0})
        back = cli.StateRecord.from_json(record.to_json())
        assert np.array_equal(back.matrix, record.matrix)
        assert back.profile == record.profile
        assert back.extremal == record.extremal
        assert back.classification == record.classification

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

    def test_caveated_entangled_verdict_is_not_a_decision(self):
        """A state deep inside the separable set can be a mixture of
        entangled extremal PPT states; the probe then reports entangled
        evidence with its caveat, and the record leaves separability open."""
        mixed = qs.random_density(np.random.default_rng(3)).mat
        state = qs.HermitianOperator(0.98 * np.eye(8) / 8 + 0.02 * mixed)
        record = cli.annotate_state(state, {"method": "test"},
                                    probe_rng=np.random.default_rng(1), probe_trials=4)
        assert not record.extremal
        assert record.classification["separable"] is None

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
        assert report.rows[0].reference_status == "confirmed"

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
        record = cli.cmd_search_ranks((6, 6, 6, 6), method="cg", seed=5, budget=20,
                                      out_path=tmp_path / "state.json")
        assert record is not None
        assert record.profile.ranks == (6, 6, 6, 6)
        assert (tmp_path / "state.json").exists()

    def test_search_ranks_failure(self):
        record = cli.cmd_search_ranks((5, 5, 6, 8), method="cg", seed=5, budget=6)
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

    def test_invalid_input_exit_three(self):
        assert cli.main(["construct", "type2", "--t", "0"]) == 3
        with pytest.raises(SystemExit) as info:
            cli.main(["no-such-command"])
        assert info.value.code == 3

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

    def test_classify_missing_file_exit_three(self):
        assert cli.main(["classify", "--in", "/nonexistent/state.json"]) == 3
