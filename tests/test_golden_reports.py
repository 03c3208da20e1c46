import json

import pytest

from golden_reports import compare, main

REPORT = {"command": "walk", "exact": {"p": 0.25, "tiny": 1e-13, "big": 1e6},
          "label": "[1,0]", "ok": True, "rows": [1, 2.5]}
CSV = "outcome,exact,empirical\n[1,0],0.5,0.49\n[0,1],0.5,0.51\n"
ERR = "exit 2\nerror: input: plaintext length 3 != mode count 4\n"


def write(root, report=REPORT, csv_text=CSV, err=ERR):
    (root / "devices").mkdir(parents=True)
    (root / "walk.out").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    (root / "walk-csv.out").write_text(csv_text)
    (root / "devices" / "d.json").write_text(json.dumps({"m": 1, "unitary": [[[1.0, 0.0]]]}))
    if err is not None:
        (root / "walk-reject.err").write_text(err)
    return root


def edited(**changes):
    report = json.loads(json.dumps(REPORT))
    for path, value in changes.items():
        *parents, leaf = path.split(".")
        node = report
        for key in parents:
            node = node[key]
        node[leaf] = value
    return report


def run(tmp_path, capsys, **b_files):
    code = compare(write(tmp_path / "a"), write(tmp_path / "b", **b_files))
    return code, capsys.readouterr().out


def test_identical_directories(tmp_path, capsys):
    code, out = run(tmp_path, capsys)
    assert code == 0
    assert out == "0 of 4 files differ; 0 structurally or above 1e-12\n"


def test_roundoff_is_reported_and_passes(tmp_path, capsys):
    # relative at |x| >= 1, absolute below: 1e-13 -> 2e-13 and 1e6 -> 1e6 + 1e-7 both pass
    report = edited(**{"exact.p": 0.25 + 3e-15, "exact.tiny": 2e-13, "exact.big": 1e6 + 1e-7})
    code, out = run(tmp_path, capsys, report=report,
                    csv_text=CSV.replace("0.49", "0.49000000000000004"))
    assert code == 0
    assert "walk.out: max deviation 1e-13\n" in out
    assert "walk-csv.out: max deviation 5.55e-17\n" in out
    assert out.endswith("2 of 4 files differ; 0 structurally or above 1e-12\n")


@pytest.mark.parametrize("b_files, name", [
    ({"report": edited(label="[0,1]")}, "walk.out"),
    ({"report": edited(ok=1)}, "walk.out"),
    ({"report": edited(rows=[1, 2.5, 3])}, "walk.out"),
    ({"report": {k: v for k, v in REPORT.items() if k != "label"}}, "walk.out"),
    ({"csv_text": CSV.replace("[0,1]", "[0,2]")}, "walk-csv.out"),
    ({"csv_text": CSV + "[1,1],0.0,0.0\n"}, "walk-csv.out"),
    ({"err": ERR.replace("input: ", "")}, "walk-reject.err"),
    ({"err": None}, "walk-reject.err"),
])
def test_structural_differences_fail(tmp_path, capsys, b_files, name):
    code, out = run(tmp_path, capsys, **b_files)
    assert code == 1
    assert out.startswith(f"{name}: structural difference: ")
    assert out.endswith("1 of 4 files differ; 1 structurally or above 1e-12\n")


@pytest.mark.parametrize("b_files, deviation", [
    ({"report": edited(**{"exact.p": 0.25 + 2e-12})}, "2e-12"),
    ({"report": edited(**{"exact.big": 1e6 * (1 + 5e-12)})}, "5e-12"),
    ({"report": edited(**{"exact.tiny": float("nan")})}, "inf"),
])
def test_deviation_above_tolerance_fails(tmp_path, capsys, b_files, deviation):
    code, out = run(tmp_path, capsys, **b_files)
    assert code == 1
    assert out.startswith(f"walk.out: max deviation {deviation}\n")
    assert out.endswith("1 of 4 files differ; 1 structurally or above 1e-12\n")


def test_missing_directory_is_a_usage_error(tmp_path, capsys):
    # an empty comparison must not pass for a mistyped path
    assert main(["--compare", str(tmp_path / "missing"), str(write(tmp_path / "b"))]) == 2
    assert "not a directory" in capsys.readouterr().err
