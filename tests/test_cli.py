import csv
import json

import pytest

from chargeplan import presets
from chargeplan.cli import main
from chargeplan.errors import InfeasibleDemandError
from chargeplan.model import instance_to_dict, load_instance, save_instance, travel_times

from gen import feasible_instance, random_instance, two_agency_instance


def strip_meta(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data.pop("meta", None)
    return data


def write_instance(inst, path):
    save_instance(inst, path)
    return str(path)


@pytest.fixture()
def unit_instance_file(tmp_path):
    from chargeplan.model import CandidateStation, ChargerType, DemandPoint, make_instance

    kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=1.0)
    dp = DemandPoint(id=0, lat=41.88, lon=-87.68, rate=0.5)
    st = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=5.0, max_chargers={0: 5})
    inst = make_instance(
        [dp], [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0, travel={(0, 0): 2.0}
    )
    return write_instance(inst, tmp_path / "unit.json")


class TestGenDemand:
    def test_reference_pipeline(self, data_dir, tmp_path, capsys):
        out = tmp_path / "instance.json"
        rc = main([
            "gen-demand",
            "--blocks", str(data_dir / "sample_blocks.csv"),
            "--stations", str(data_dir / "sample_stations.csv"),
            "--range-min", "360", "--horizon-min", "1440",
            "--max-travel-min", "30", "--out", str(out),
        ])
        assert rc == 0
        inst = load_instance(out)
        assert len(inst.demand_points) == 2
        assert all(d.rate == pytest.approx(1 / 1440.0) for d in inst.demand_points)
        assert len(inst.stations) == 4

    def test_config_costs_with_presets_for_the_rest(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"costs": {"wait_cost_rate": 9.5}}))
        out = tmp_path / "instance.json"
        assert main([
            "gen-demand",
            "--blocks", str(data_dir / "sample_blocks.csv"),
            "--stations", str(data_dir / "sample_stations.csv"),
            "--range-min", "360", "--config", str(cfg), "--out", str(out),
        ]) == 0
        inst = load_instance(out)
        assert (inst.travel_cost_rate, inst.wait_cost_rate) == (presets.TRAVEL_COST_PER_MIN, 9.5)

    def test_empty_blocks_warns(self, data_dir, tmp_path, capsys):
        blocks = tmp_path / "empty.csv"
        with open(data_dir / "sample_blocks.csv") as fh:
            header = fh.readline()
        blocks.write_text(header)
        out = tmp_path / "instance.json"
        rc = main([
            "gen-demand", "--blocks", str(blocks),
            "--stations", str(data_dir / "sample_stations.csv"),
            "--range-min", "360", "--out", str(out),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "warning" in err
        assert strip_meta(out)["demand_points"] == []

    @staticmethod
    def no_demand_instance(data_dir, tmp_path):
        """An instance from a block file with a header only: its stations,
        and no demand point."""
        blocks = tmp_path / "empty.csv"
        with open(data_dir / "sample_blocks.csv") as fh:
            blocks.write_text(fh.readline())
        inst = tmp_path / "instance.json"
        assert main([
            "gen-demand", "--blocks", str(blocks),
            "--stations", str(data_dir / "sample_stations.csv"),
            "--range-min", "360", "--out", str(inst),
        ]) == 0
        return inst

    @pytest.mark.parametrize("method", ["brute", "bnb", "sa", "ga"])
    def test_instance_without_demand_solves_at_zero_cost(self, data_dir, tmp_path, method):
        inst = self.no_demand_instance(data_dir, tmp_path)
        out = tmp_path / "report.json"
        assert main(["solve", str(inst), "--method", method, "--out", str(out)]) == 0
        cost = strip_meta(out)["solution"]["cost"]
        assert cost["total"] == 0.0
        # no active station or charger still writes float sums, not 0
        assert all(type(v) is float for v in cost.values()), cost
        assert main(["validate", str(inst), str(out)]) == 0

    def test_scenarios_against_a_zero_cost_baseline_rejected(self, data_dir, tmp_path, capsys):
        inst = self.no_demand_instance(data_dir, tmp_path)
        out = tmp_path / "scenarios.csv"
        assert main(["scenarios", str(inst), "--method", "ga", "--out", str(out)]) == 3
        assert "baseline objective must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_event_count_matches_hand_walk(self, data_dir, tmp_path):
        # ten copies of the reference block, shifted: 2 events each
        src = (data_dir / "sample_blocks.csv").read_text().strip().splitlines()
        rows = [src[0]]
        for b in range(10):
            for line in src[1:]:
                cells = line.split(",")
                cells[0] = f"B{b}"
                rows.append(",".join(cells))
        blocks = tmp_path / "many.csv"
        blocks.write_text("\n".join(rows) + "\n")
        out = tmp_path / "instance.json"
        rc = main([
            "gen-demand", "--blocks", str(blocks),
            "--stations", str(data_dir / "sample_stations.csv"),
            "--range-min", "360", "--out", str(out),
        ])
        assert rc == 0
        data = strip_meta(out)
        total_rate = sum(d["rate"] for d in data["demand_points"])
        assert total_rate == pytest.approx(20 / 1440.0)

    def test_missing_garage_synthesized(self, data_dir, tmp_path, capsys):
        # drop the garage row: gen-demand must put it back from the block
        lines = (data_dir / "sample_stations.csv").read_text().strip().splitlines()
        trimmed = tmp_path / "no_garage.csv"
        trimmed.write_text("\n".join([lines[0]] + [l for l in lines[1:] if not l.startswith("G0")]) + "\n")
        out = tmp_path / "instance.json"
        rc = main([
            "gen-demand", "--blocks", str(data_dir / "sample_blocks.csv"),
            "--stations", str(trimmed),
            "--range-min", "360", "--out", str(out),
        ])
        assert rc == 0
        assert "G0" in capsys.readouterr().err
        inst = load_instance(out)
        garages = [s for s in inst.stations if s.is_garage]
        assert len(garages) == 1
        assert garages[0].lat == pytest.approx(41.85) and garages[0].lon == pytest.approx(-87.75)

    def test_parse_error_exit_code(self, data_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,block,file\n1,2,3,4\n")
        rc = main([
            "gen-demand", "--blocks", str(bad),
            "--stations", str(data_dir / "sample_stations.csv"),
            "--range-min", "360", "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 3

    @pytest.mark.parametrize("flag, value, named", [
        ("--range-min", "nan", "range_minutes"),
        ("--horizon-min", "nan", "horizon_minutes"),
        ("--horizon-min", "inf", "horizon_minutes"),
        ("--max-travel-min", "nan", "max_travel_minutes"),
        ("--max-travel-min", "-5", "max_travel_minutes"),
        ("--speed-kmh", "nan", "speed_kmh"),
        ("--speed-kmh", "inf", "speed_kmh"),
    ])
    def test_numeric_flag_must_be_positive(self, data_dir, tmp_path, capsys, flag, value, named):
        out = tmp_path / "x.json"
        rc = main([
            "gen-demand", "--blocks", str(data_dir / "sample_blocks.csv"),
            "--stations", str(data_dir / "sample_stations.csv"),
            "--range-min", "360", f"{flag}={value}", "--out", str(out),
        ])
        assert rc == 3
        assert not out.exists()
        assert named in capsys.readouterr().err


    def test_negative_charger_cap_flag_rejected_before_any_file(self, tmp_path, capsys):
        # the input files do not exist: the flag is checked before any is read
        missing = str(tmp_path / "missing.csv")
        out = tmp_path / "x.json"
        rc = main([
            "gen-demand", "--blocks", missing, "--stations", missing, "--range-min", "360",
            "--max-chargers-per-type", "-2", "--out", str(out),
        ])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--max-chargers-per-type" in err and "missing.csv" not in err


class TestCluster:
    @pytest.mark.parametrize("k_demand, k_station, named", [
        ("9", "2", "--k-demand 9 outside [1, 5]"),
        ("0", "2", "--k-demand 0 outside [1, 5]"),
        ("3", "9", "--k-station 9 outside [1, 4]"),
    ])
    def test_bad_k_names_its_flag(self, tmp_path, capsys, k_demand, k_station, named):
        inst = feasible_instance(503, n_demand=5, n_station=4)
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "clustered.json"
        rc = main(["cluster", src, "--k-demand", k_demand, "--k-station", k_station, "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert named in capsys.readouterr().err

    def test_identity_cluster_counts(self, tmp_path):
        inst = feasible_instance(501, n_demand=4, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "clustered.json"
        rc = main(["cluster", src, "--k-demand", "4", "--k-station", "3", "--out", str(out), "--seed", "3"])
        assert rc == 0
        clustered = load_instance(out)
        assert instance_to_dict(clustered) == instance_to_dict(inst)

    def test_single_demand_cluster_sums_rates(self, tmp_path):
        inst = feasible_instance(502, n_demand=5, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "clustered.json"
        rc = main(["cluster", src, "--k-demand", "1", "--k-station", "3", "--out", str(out)])
        assert rc == 0
        clustered = load_instance(out)
        assert len(clustered.demand_points) == 1
        assert clustered.demand_points[0].rate == pytest.approx(
            sum(d.rate for d in inst.demand_points), abs=1e-12
        )

    def test_seeded_determinism(self, tmp_path):
        inst = feasible_instance(503, n_demand=5, n_station=4)
        src = write_instance(inst, tmp_path / "inst.json")
        outs = []
        for n in range(2):
            out = tmp_path / f"c{n}.json"
            rc = main(["cluster", src, "--k-demand", "3", "--k-station", "2", "--out", str(out), "--seed", "11"])
            assert rc == 0
            outs.append(strip_meta(out))
        assert outs[0] == outs[1]


class TestSolve:
    def test_brute_on_unit_fixture(self, unit_instance_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["solve", unit_instance_file, "--method", "brute", "--out", str(out)])
        assert rc == 0
        data = strip_meta(out)
        assert data["bounds"]["upper"] == pytest.approx(8.0)
        assert data["bounds"]["gap"] == 0.0
        assert "cost=8.0" in capsys.readouterr().out

    def test_brute_on_a_large_instance_is_not_called_infeasible(self, tmp_path, capsys):
        # 10 (station, type) options for each of 30 demands: far past brute force's leaf cap,
        # which says nothing of feasibility
        src = write_instance(random_instance(1, n_demand=30, n_station=5, sparse=False), tmp_path / "big.json")
        out = tmp_path / "report.json"
        assert main(["solve", src, "--method", "brute", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceed the cap" in err and "--method bnb" in err
        assert not out.exists()

    @pytest.mark.parametrize("method, inst, cfg", [
        ("sa", lambda: random_instance(6, n_demand=12, n_station=4, cap_range=(3, 7)), {}),
        ("ga", lambda: feasible_instance(2, n_demand=16, n_station=5, cap_range=(3, 7)), {"ga": {"max_iterations": 300}}),
    ], ids=["sa", "ga"])
    def test_sa_or_ga_giving_up_is_not_called_infeasible(self, tmp_path, capsys, method, inst, cfg):
        # the heuristic finds no stable sizing where branch-and-bound proves an optimum
        src = write_instance(inst(), tmp_path / "inst.json")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert main(["solve", src, "--method", method, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a proof of infeasibility" in err and "--method bnb" in err
        assert not out.exists()
        assert main(["solve", src, "--method", "bnb", "--out", str(out)]) == 0

    def test_all_methods_produce_valid_reports(self, tmp_path):
        inst = feasible_instance(504, n_demand=3, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        uppers = {}
        for method in ("brute", "bnb", "sa", "ga"):
            out = tmp_path / f"{method}.json"
            rc = main(["solve", src, "--method", method, "--out", str(out), "--seed", "4"])
            assert rc == 0
            data = strip_meta(out)
            assert data["solution"] is not None
            uppers[method] = data["bounds"]["upper"]
        assert uppers["bnb"] == pytest.approx(uppers["brute"], abs=1e-6)
        assert uppers["sa"] >= uppers["brute"] - 1e-9
        assert uppers["ga"] >= uppers["brute"] - 1e-9

    def test_time_limit_exit_code(self, tmp_path):
        inst = feasible_instance(505, n_demand=14, n_station=4, cap_range=(6, 14))
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "report.json"
        rc = main(["solve", src, "--method", "bnb", "--time-limit", "0.01", "--out", str(out)])
        data = strip_meta(out)
        if data["terminated_by"] == "time":
            assert rc == 4
        else:
            assert rc == 0  # solved inside the budget anyway

    def test_time_out_before_any_deployment_exits_4_without_a_report(self, tmp_path, capsys):
        # branch-and-bound's greedy dive dead-ends here, so no incumbent exists
        inst = feasible_instance(66, n_demand=10, n_station=4, cap_range=(1, 4))
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "report.json"
        rc = main(["solve", src, "--method", "bnb", "--time-limit", "1e-9", "--out", str(out)])
        assert rc == 4
        assert not out.exists()
        assert "1e-09 s" in capsys.readouterr().err

    def test_sa_time_out_before_a_stable_start_exits_4(self, tmp_path, capsys):
        # SA's greedy start does not size here, and the walk to one is timed
        inst = feasible_instance(9011, n_demand=20, n_station=5, cap_range=(6, 14))
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "report.json"
        rc = main(["solve", src, "--method", "sa", "--seed", "1", "--time-limit", "1e-9", "--out", str(out)])
        assert rc == 4
        assert not out.exists()
        assert "1e-09 s" in capsys.readouterr().err

    def test_infeasible_instance_exits_2(self, tmp_path):
        from chargeplan.model import CandidateStation, ChargerType, DemandPoint, make_instance

        # rate 5 against at most 3 chargers serving 0.1 each
        kt = ChargerType(id=0, power_kw=100.0, unit_cost_rate=1.0, recharge_time_min=10.0)
        dp = DemandPoint(id=0, lat=41.88, lon=-87.68, rate=5.0)
        st = CandidateStation(id=0, lat=41.9, lon=-87.7, fixed_cost_rate=1.0, max_chargers={0: 3})
        inst = make_instance([dp], [st], [kt], travel_cost_rate=1.0, wait_cost_rate=1.0, travel={(0, 0): 2.0})
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "report.json"
        rc = main(["solve", src, "--method", "bnb", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_config_file_sections_applied(self, tmp_path):
        inst = feasible_instance(511, n_demand=3, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sa": {"max_iterations": 37, "cooling_factor": 0.8, "assignment_randomness": 0.25},
            "solver": {"gap_threshold": 0.0},
        }))
        out = tmp_path / "report.json"
        rc = main(["solve", src, "--method", "sa", "--config", str(cfg), "--out", str(out), "--seed", "2"])
        assert rc == 0
        data = strip_meta(out)
        assert data["search"]["nodes_explored"] == 37  # iterations ran to the configured L

    def test_auto_time_limit_accepted(self, tmp_path):
        inst = feasible_instance(512, n_demand=3, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "report.json"
        rc = main(["solve", src, "--method", "bnb", "--time-limit", "auto", "--out", str(out)])
        assert rc == 0
        assert strip_meta(out)["terminated_by"] == "optimality"

    def test_multi_run_consistency_stats(self, tmp_path):
        inst = feasible_instance(506, n_demand=3, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "report.json"
        rc = main(["solve", src, "--method", "sa", "--n-runs", "4", "--out", str(out), "--seed", "9"])
        assert rc == 0
        stats = strip_meta(out)["search"]["stats"]
        assert stats["n_runs"] == 4
        assert len(stats["run_costs"]) == 4
        assert stats["distinct_objectives"] >= 1


class TestValidate:
    def test_valid_report_passes(self, unit_instance_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", unit_instance_file, "--method", "brute", "--out", str(out)]) == 0
        assert main(["validate", unit_instance_file, str(out)]) == 0

    def test_corrupted_report_flagged(self, unit_instance_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", unit_instance_file, "--method", "brute", "--out", str(out)])
        data = json.load(open(out))
        data["solution"]["active_stations"] = []
        json.dump(data, open(out, "w"))
        rc = main(["validate", unit_instance_file, str(out)])
        assert rc == 2
        assert "inactive_station" in capsys.readouterr().out

    def test_misstated_cost_flagged(self, unit_instance_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["solve", unit_instance_file, "--method", "bnb", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        data["solution"]["cost"]["total"] = data["bounds"]["upper"] = 0.0
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["validate", unit_instance_file, str(out)]) == 2
        assert "violation cost_mismatch ('total',)" in capsys.readouterr().out
        # a null cost states nothing to check
        data["solution"]["cost"] = None
        out.write_text(json.dumps(data))
        assert main(["validate", unit_instance_file, str(out)]) == 0



class TestTravelKey:
    """An instance file's times come from its coordinates only when it has
    no ``travel`` key: an empty list is a matrix with no entry."""

    def test_empty_travel_list_covers_no_demand(self, unit_instance_file, tmp_path, capsys):
        src = TestBadInput.edited(unit_instance_file, tmp_path, lambda d: d.update(travel=[]))
        with pytest.raises(InfeasibleDemandError):
            load_instance(src)
        assert main(["solve", src, "--out", str(tmp_path / "r.json")]) == 2
        assert "infeasible: no reachable candidate station for demand points [0]" in capsys.readouterr().err

    def test_omitted_travel_is_derived_from_coordinates(self, unit_instance_file, tmp_path):
        src = TestBadInput.edited(unit_instance_file, tmp_path, lambda d: d.pop("travel"))
        inst = load_instance(src)
        assert inst.travel == travel_times(inst.demand_points, inst.stations, inst.speed_kmh, inst.max_travel_minutes)
        assert inst.travel and inst.travel != load_instance(unit_instance_file).travel
        assert main(["solve", src, "--out", str(tmp_path / "r.json")]) == 0


class TestBadInput:
    """Bad input ends with exit 3 and a message naming the bad field."""

    @staticmethod
    def edited(unit_instance_file, tmp_path, edit):
        with open(unit_instance_file, encoding="utf-8") as fh:
            data = json.load(fh)
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_duplicate_demand_ids_rejected(self, unit_instance_file, tmp_path, capsys):
        def twin(data):
            data["demand_points"].append(dict(data["demand_points"][0], lat=41.89))
            data["travel"].append([0, 0, 3.0])

        src = self.edited(unit_instance_file, tmp_path, twin)
        rc = main(["solve", src, "--method", "bnb", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert "duplicate demand id 0" in capsys.readouterr().err

    def test_nan_rate_rejected(self, unit_instance_file, tmp_path, capsys):
        src = self.edited(unit_instance_file, tmp_path, lambda d: d["demand_points"][0].update(rate=float("nan")))
        for method in ("bnb", "sa"):
            assert main(["solve", src, "--method", method, "--out", str(tmp_path / "r.json")]) == 3
            assert "rate must be positive and finite" in capsys.readouterr().err

    def test_empty_charger_catalog_exits_3(self, unit_instance_file, tmp_path, capsys):
        src = self.edited(unit_instance_file, tmp_path, lambda d: d.update(charger_types=[]))
        for method in ("brute", "bnb", "sa", "ga"):
            assert main(["solve", src, "--method", method, "--out", str(tmp_path / "r.json")]) == 3
            assert "charger_types must name at least one charger type" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("records, field, value, named", [
        ("demand_points", "lat", float("nan"), "demand point 0"),
        ("stations", "lon", float("inf"), "station 0"),
    ])
    def test_non_finite_coordinate_in_an_instance_exits_3(self, unit_instance_file, tmp_path, capsys, records,
                                                          field, value, named):
        src = self.edited(unit_instance_file, tmp_path, lambda d: d[records][0].update({field: value}))
        assert main(["solve", src, "--method", "ga", "--out", str(tmp_path / "r.json")]) == 3
        assert f"{named}: lat and lon must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("records, field, value, named", [
        ("demand_points", "lat", 400.0, "demand point 0: lat must lie in [-90, 90], got 400.0"),
        ("demand_points", "lon", -180.5, "demand point 0: lon must lie in [-180, 180], got -180.5"),
        ("stations", "lat", -90.25, "station 0: lat must lie in [-90, 90], got -90.25"),
        ("stations", "lon", 181.0, "station 0: lon must lie in [-180, 180], got 181.0"),
    ])
    def test_out_of_range_coordinate_without_travel_exits_3(self, unit_instance_file, tmp_path, capsys, records,
                                                            field, value, named):
        # with no travel list, coverage comes from haversine distances, which
        # an out-of-range degree would wrap instead of failing
        def edit(data):
            data.pop("travel")
            data[records][0][field] = value

        src = self.edited(unit_instance_file, tmp_path, edit)
        assert main(["solve", src, "--method", "bnb", "--out", str(tmp_path / "r.json")]) == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("csv_name, column, named", [
        ("sample_stations.csv", "lat", "bad station row: station 0: lat and lon must be finite"),
        ("sample_blocks.csv", "origin_lon", "bad trip row: trip t0: origin and dest lat/lon must be finite"),
    ])
    def test_non_finite_coordinate_in_a_csv_names_its_line(self, data_dir, tmp_path, capsys, csv_name, column,
                                                           named):
        lines = (data_dir / csv_name).read_text().splitlines()
        row = lines[1].split(",")
        row[lines[0].split(",").index(column)] = "nan"
        bad = tmp_path / csv_name
        bad.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        inputs = {"sample_blocks.csv": data_dir / "sample_blocks.csv",
                  "sample_stations.csv": data_dir / "sample_stations.csv", csv_name: bad}
        out = tmp_path / "instance.json"
        rc = main(["gen-demand", "--blocks", str(inputs["sample_blocks.csv"]),
                   "--stations", str(inputs["sample_stations.csv"]), "--range-min", "360", "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert named in err and f"[{bad}:2]" in err

    @pytest.mark.parametrize("name", ["travel_cost_rate", "wait_cost_rate"])
    def test_negative_cost_rate_exits_3(self, unit_instance_file, tmp_path, capsys, name):
        src = self.edited(unit_instance_file, tmp_path, lambda d: d["costs"].update({name: -1.0}))
        for method in ("bnb", "brute"):
            assert main(["solve", src, "--method", method, "--out", str(tmp_path / "r.json")]) == 3
            assert f"{name} must be nonnegative and finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_trip_time_exits_3(self, data_dir, tmp_path, capsys):
        lines = (data_dir / "sample_blocks.csv").read_text().splitlines()
        row = lines[1].split(",")
        row[lines[0].split(",").index("end_min")] = "nan"
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        out = tmp_path / "instance.json"
        rc = main(["gen-demand", "--blocks", str(blocks), "--stations", str(data_dir / "sample_stations.csv"),
                   "--range-min", "360", "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "start and end must be finite" in err and str(blocks) in err

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d["travel"].append([0, 9, 1.0]), "unknown station id 9"),
        (lambda d: d["travel"].append([9, 0, 1.0]), "unknown demand id 9"),
        (lambda d: d.pop("costs"), "missing required field 'costs'"),
        (lambda d: d["demand_points"][0].update(rate=None), "demand_points[0].rate"),
        (lambda d: d["travel"][0].__setitem__(2, None), "travel[0][2]"),
        (lambda d: d["options"].update(max_travel_minutes="ten"), "options.max_travel_minutes"),
        (lambda d: d["stations"][0]["max_chargers"].update({"0": "x"}), "stations[0].max_chargers.0"),
        (lambda d: d["stations"][0]["max_chargers"].update({"fast": 2}), "charger type id 'fast'"),
        (lambda d: d["options"].update(enforce_proximity="false"), "options.enforce_proximity"),
        (lambda d: d["stations"][0].update(is_garage=1), "stations[0].is_garage"),
        # a number among string labels would break their sort
        (lambda d: d["demand_points"][0].update(agency=5), "demand_points[0].agency"),
        (lambda d: d["stations"][0].update(agency=5), "stations[0].agency"),
        # 1 - 1e-17 rounds to 1, so the margin would vanish
        (lambda d: d["options"].update(epsilon=1e-17), "options.epsilon"),
        (lambda d: d["charger_types"].__setitem__(0, 1), "charger_types[0]: expected an object, got 1"),
        (lambda d: d.update(demand_points="abc"), "demand_points: expected a list, got 'abc'"),
        (lambda d: d["stations"].__setitem__(0, None), "stations[0]: expected an object, got None"),
        (lambda d: d.update(costs=[1.0, 1.0]), "costs: expected an object"),
        (lambda d: d.update(options=[]), "options: expected an object"),
        (lambda d: d["stations"][0].update(max_chargers=[5]), "stations[0].max_chargers: expected an object"),
        (lambda d: d["charger_types"][0].pop("id"), "missing required field 'charger_types[0].id'"),
        (lambda d: d["travel"].__setitem__(0, 5), "travel[0]: expected [demand, station, minutes]"),
        # a second row would replace the first without a word
        (lambda d: d["travel"].append([0, 0, 1002.0]), "travel[1]: duplicate entry for demand 0, station 0"),
        # a key that nothing reads, which would be dropped without a word
        (lambda d: d["options"].update(max_travel_minute=-5), "options: unknown field 'max_travel_minute'"),
        (lambda d: d["demand_points"][0].update(ratee=0.5), "demand_points[0]: unknown field 'ratee'"),
        (lambda d: d.update(option={}), "instance: unknown field 'option'"),
        # a cap for a type the catalog lacks, which nothing would read
        (lambda d: d["stations"][0]["max_chargers"].update({"99": 3}),
         "station 0: max_chargers names unknown charger type 99"),
        # a record's own range check
        (lambda d: d["demand_points"][0].update(rate=0), "demand point 0: rate must be positive and finite"),
        (lambda d: d["stations"][0]["max_chargers"].update({"0": -1}), "station 0: negative cap for type 0"),
        (lambda d: d["options"].update(epsilon=1.5), "options.epsilon must lie in (0, 1)"),
        (lambda d: d["options"].update(speed_kmh=0), "speed_kmh must be positive and finite"),
        (lambda d: d["charger_types"].append(dict(d["charger_types"][0])), "duplicate charger type id 0"),
    ])
    def test_malformed_instance_is_a_parse_error(self, unit_instance_file, tmp_path, capsys, edit, named):
        """Each names the field or the record, and the instance file."""
        report = tmp_path / "report.json"
        assert main(["solve", unit_instance_file, "--method", "brute", "--out", str(report)]) == 0
        src = self.edited(unit_instance_file, tmp_path, edit)
        assert main(["validate", src, str(report)]) == 3
        err = capsys.readouterr().err.rstrip()
        assert named in err and err.endswith(f"[{src}]"), err

    @pytest.mark.parametrize("edit, named", [
        (lambda s: s.pop("chargers"), "solution.chargers"),
        (lambda s: s["assignments"][0].pop("station"), "solution.assignments[0].station"),
        (lambda s: s["chargers"][0].update(count=None), "solution.chargers[0].count"),
        (lambda s: s["chargers"][0].update(count="1"), "solution.chargers[0].count"),
        (lambda s: s["chargers"][0].update(count=1.5), "solution.chargers[0].count"),
        (lambda s: s["waits"][0].update(minutes="2"), "solution.waits[0].minutes"),
        (lambda s: s.update(active_stations=None), "solution.active_stations"),
        # a second row for one pair, which "last row wins" would let pass above its cap or wait
        (lambda s: s["chargers"].insert(0, dict(s["chargers"][0], count=999)),
         "solution.chargers[1]: duplicate (station, charger_type) (0, 0)"),
        (lambda s: s["waits"].insert(0, dict(s["waits"][0], minutes=1e-6)),
         "solution.waits[1]: duplicate (station, charger_type) (0, 0)"),
        (lambda s: s["chargers"][0].update(cuont=1), "solution.chargers[0]: unknown field 'cuont'"),
        (lambda s: s.update(extra=1), "solution: unknown field 'extra'"),
        (lambda s: s["cost"].update(total="0"), "solution.cost.total"),
        (lambda s: s["cost"].pop("waiting"), "missing required field 'solution.cost.waiting'"),
    ])
    def test_malformed_report_is_a_parse_error(self, unit_instance_file, tmp_path, capsys, edit, named):
        report = tmp_path / "report.json"
        assert main(["solve", unit_instance_file, "--method", "brute", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        edit(payload["solution"])
        report.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["validate", unit_instance_file, str(report)]) == 3
        assert named in capsys.readouterr().err

    def test_malformed_solution_names_the_report(self, unit_instance_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["solve", unit_instance_file, "--method", "brute", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        payload["solution"]["chargers"][0]["cuont"] = 1
        report.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["validate", unit_instance_file, str(report)]) == 3
        err = capsys.readouterr().err.rstrip()
        assert "solution.chargers[0]: unknown field 'cuont'" in err and err.endswith(f"[{report}]")

    @pytest.mark.parametrize("text, named", [
        ("[]", "an instance must be a JSON object, got list"),
        ("{bad", "not a JSON file"),
    ])
    def test_instance_file_that_is_not_an_object_is_named(self, unit_instance_file, tmp_path, capsys, text, named):
        report = tmp_path / "report.json"
        assert main(["solve", unit_instance_file, "--method", "brute", "--out", str(report)]) == 0
        src = tmp_path / "bad.json"
        src.write_text(text)
        assert main(["validate", str(src), str(report)]) == 3
        err = capsys.readouterr().err
        assert named in err and str(src) in err

    @pytest.mark.parametrize("argv", [
        ["solve", "{missing}", "--out", "{tmp}/r.json"],
        ["cluster", "{missing}", "--k-demand", "1", "--k-station", "1", "--out", "{tmp}/c.json"],
        ["validate", "{missing}", "{tmp}/r.json"],
        ["gen-demand", "--blocks", "{missing}", "--stations", "{missing}", "--range-min", "360",
         "--out", "{tmp}/i.json"],
    ], ids=["solve", "cluster", "validate", "gen-demand"])
    def test_missing_input_file_exits_3(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "absent.json")
        assert main([a.format(missing=missing, tmp=tmp_path) for a in argv]) == 3
        assert missing in capsys.readouterr().err

    def test_report_that_is_not_an_object(self, unit_instance_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("[]")
        assert main(["validate", unit_instance_file, str(report)]) == 3
        assert "report carries no solution" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", "2,nan", "inf", "0", "2,-1"])
    def test_multipliers_must_be_positive_and_finite(self, unit_instance_file, tmp_path, capsys, value):
        rc = main(["sensitivity", unit_instance_file, "--parameter", "wait_cost", "--multipliers", value,
                   "--method", "bnb", "--out", str(tmp_path / "sweep.csv")])
        assert rc == 3
        assert f"bad --multipliers {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "-5", "0", "x"])
    def test_time_limit_flag_must_be_positive_and_finite(self, unit_instance_file, tmp_path, capsys, value):
        rc = main(["solve", unit_instance_file, "--method", "bnb", "--time-limit", value,
                   "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert f"bad --time-limit {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, named", [
        (float("nan"), "time_limit must be None or lie in (0, inf)"),
        (-5, "time_limit must be None or lie in (0, inf)"),
        (0, "time_limit must be None or lie in (0, inf)"),
        ("x", "solver.time_limit: expected a number"),
    ])
    def test_config_time_limit_must_be_positive_and_finite(self, unit_instance_file, tmp_path, capsys, value, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"solver": {"time_limit": value}}))
        rc = main(["solve", unit_instance_file, "--method", "bnb", "--config", str(path),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert named in err and f"[{path}]" in err

    @pytest.mark.parametrize("cfg, named", [
        ({"sa": {"max_iteration": 10}}, "sa: unknown field 'max_iteration'"),
        ({"ga": {"pop_size": 4}}, "ga: unknown field 'pop_size'"),
        ({"solver": {"gap": 0.1}}, "solver: unknown field 'gap'"),
        ({"n_run": 2}, "config: unknown field 'n_run'"),
        ({"solver": {"max_chargers": 1}}, "solver: unknown field 'max_chargers'"),
        ({"sa": {"seed": 5}}, "sa: unknown field 'seed'"),
        ({"ga": {"seed": 5}}, "ga: unknown field 'seed'"),
    ])
    def test_unknown_config_key_rejected(self, unit_instance_file, tmp_path, capsys, cfg, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["solve", unit_instance_file, "--method", "sa", "--config", str(path),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert named in err and f"[{path}]" in err

    @pytest.mark.parametrize("method, cfg, named", [
        ("sa", {"sa": {"max_iterations": None}}, "sa.max_iterations: expected a number"),
        ("bnb", {"solver": {"gap_threshold": "x"}}, "solver.gap_threshold: expected a number"),
        ("ga", {"ga": {"population_size": 2.5}}, "ga.population_size: expected an integer"),
        ("sa", {"n_runs": "3"}, "n_runs: expected a number"),
        ("sa", {"sa": {"initial_temperature": float("nan")}}, "initial_temperature must be positive and finite"),
        ("sa", {"sa": {"initial_temperature": float("inf")}}, "initial_temperature must be positive and finite"),
        ("ga", {"n_runs": 0}, "n_runs must be >= 1"),
        # a null reads as the default only where that default is None
        ("bnb", {"solver": {"gap_threshold": None}}, "solver.gap_threshold: expected a number, got None"),
        ("bnb", {"costs": {"wait_cost_rate": None}}, "costs.wait_cost_rate: expected a number"),
        ("bnb", {"costs": {"wait_cost_rate": -1}}, "wait_cost_rate must be nonnegative and finite"),
        ("bnb", {"costs": {"travel_cost_rate": float("inf")}}, "travel_cost_rate must be nonnegative and finite"),
        ("bnb", {"sa": []}, "sa: expected an object"),
    ])
    def test_bad_config_number_named(self, unit_instance_file, tmp_path, capsys, method, cfg, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["solve", unit_instance_file, "--method", method, "--config", str(path),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert named in err and f"[{path}]" in err

    @pytest.mark.parametrize("method, cfg", [
        ("sa", {"sa": {"initial_temperature": None, "max_iterations": 20}}),
        ("bnb", {"solver": {"time_limit": None}}),
    ])
    def test_null_config_value_reads_as_a_none_default(self, unit_instance_file, tmp_path, method, cfg):
        # as in an instance: a null stands for a default that is None
        path = tmp_path / "cfg.json"
        reports = []
        for config in (cfg, {name: {k: v for k, v in sec.items() if v is not None} for name, sec in cfg.items()}):
            path.write_text(json.dumps(config))
            out = tmp_path / f"r{len(reports)}.json"
            assert main(["solve", unit_instance_file, "--method", method, "--config", str(path),
                         "--out", str(out)]) == 0
            reports.append({k: v for k, v in json.loads(out.read_text()).items() if k != "meta"})
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv", [
        ["solve"],
        ["solve", "inst.json", "--method", "tabu", "--out", "r.json"],
        ["validate", "inst.json", "report.json", "--seed", "1"],
    ])
    def test_usage_error_exits_3(self, argv, capsys):
        # argparse's own exit code, 2, is this CLI's "infeasible"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("method,flag,value", [
        ("brute", "--n-runs", "2"),
        ("bnb", "--n-runs", "2"),
        ("brute", "--gap-threshold", "0.1"),
        ("sa", "--gap-threshold", "0.1"),
        ("ga", "--gap-threshold", "0.1"),
        ("brute", "--time-limit", "5"),
    ])
    def test_flag_the_method_does_not_read_rejected(self, unit_instance_file, tmp_path, capsys,
                                                    method, flag, value):
        out = tmp_path / "r.json"
        rc = main(["solve", unit_instance_file, "--method", method, flag, value, "--out", str(out)])
        assert rc == 3
        assert f"{flag} is not read by --method {method}" in capsys.readouterr().err
        assert not out.exists()


class TestScenariosCommand:
    def test_six_rows_baseline_dominates(self, tmp_path):
        inst = two_agency_instance(11)
        src = write_instance(inst, tmp_path / "two.json")
        out = tmp_path / "table.csv"
        rc = main(["scenarios", src, "--method", "bnb", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        base = next(r for r in rows if r["scenario"] == "joint-mixed")
        assert float(base["pct_increase_vs_baseline"]) == 0.0
        for r in rows:
            if r["status"] == "ok":
                assert float(r["total_cost"]) >= float(base["total_cost"]) - 1e-9
                assert float(r["pct_increase_vs_baseline"]) >= -1e-9

    def test_csv_percent_columns_round_trip(self, tmp_path):
        inst = two_agency_instance(12)
        src = write_instance(inst, tmp_path / "two.json")
        out = tmp_path / "table.csv"
        assert main(["scenarios", src, "--method", "bnb", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        base_cost = float(next(r for r in rows if r["scenario"] == "joint-mixed")["total_cost"])
        for r in rows:
            if r["status"] != "ok":
                continue
            recomputed = 100.0 * (float(r["total_cost"]) - base_cost) / base_cost
            assert recomputed == pytest.approx(float(r["pct_increase_vs_baseline"]), abs=1e-9)


    def test_scenario_table_pads_infeasible_rows(self, tmp_path):
        import dataclasses

        inst = two_agency_instance(6)
        # strip every garage flag: garage-only pools lose all their stations
        no_garage = dataclasses.replace(
            inst, stations=tuple(dataclasses.replace(s, is_garage=False) for s in inst.stations)
        )
        src = write_instance(no_garage, tmp_path / "two.json")
        out = tmp_path / "table.csv"
        assert main(["scenarios", src, "--method", "bnb", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[:8] == [
            "scenario", "joint", "garage", "other", "status", "total_cost", "pct_increase_vs_baseline", "stations",
        ]
        assert header[-2:] == ["mean_wait_min", "mean_utilization"]
        assert all(len(r) == len(header) for r in rows)
        garage = [r for r in rows if r[0].endswith("-garage")]
        assert [r[0] for r in garage] == ["separate-garage", "joint-garage"]
        for r in garage:
            assert r[4] == "infeasible" and r[5:] == [""] * (len(header) - 5)
        assert all(r[4] == "ok" and "" not in r for r in rows if not r[0].endswith("-garage"))


class TestSensitivityCommand:
    def test_zero_change_at_identity(self, tmp_path):
        inst = feasible_instance(507, n_demand=3, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "sweep.csv"
        rc = main([
            "sensitivity", src, "--parameter", "wait_cost",
            "--multipliers", "1.0", "--method", "bnb", "--out", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(abs(float(r["pct_change_vs_baseline"])) < 1e-9 for r in rows)

    def test_wait_cost_sweep_monotone(self, tmp_path):
        inst = feasible_instance(508, n_demand=3, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "sweep.csv"
        rc = main([
            "sensitivity", src, "--parameter", "wait_cost",
            "--multipliers", "2,4,6", "--method", "bnb", "--out", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            pct = [float(r["pct_change_vs_baseline"]) for r in csv.DictReader(fh)]
        assert pct == sorted(pct)

    def test_charger_power_sweep_nonincreasing(self, tmp_path):
        inst = feasible_instance(509, n_demand=3, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        out = tmp_path / "sweep.csv"
        rc = main([
            "sensitivity", src, "--parameter", "charger_power",
            "--multipliers", "1.2,1.4", "--method", "bnb", "--out", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            costs = [float(r["total_cost"]) for r in csv.DictReader(fh)]
        assert costs == sorted(costs, reverse=True)


class TestDeterminism:
    def test_repeated_solves_byte_identical_outside_meta(self, tmp_path):
        inst = feasible_instance(510, n_demand=4, n_station=3)
        src = write_instance(inst, tmp_path / "inst.json")
        for method in ("bnb", "sa", "ga"):
            payloads = []
            for r in range(3):
                out = tmp_path / f"{method}_{r}.json"
                rc = main(["solve", src, "--method", method, "--out", str(out), "--seed", "21"])
                assert rc == 0
                payloads.append(json.dumps(strip_meta(out), sort_keys=True))
            assert payloads[0] == payloads[1] == payloads[2]

    def test_gen_demand_deterministic(self, data_dir, tmp_path):
        payloads = []
        for r in range(2):
            out = tmp_path / f"i{r}.json"
            rc = main([
                "gen-demand", "--blocks", str(data_dir / "sample_blocks.csv"),
                "--stations", str(data_dir / "sample_stations.csv"),
                "--range-min", "360", "--out", str(out),
            ])
            assert rc == 0
            payloads.append(json.dumps(strip_meta(out), sort_keys=True))
        assert payloads[0] == payloads[1]
