"""Self-test of ``tools/compare_outputs.py`` on synthetic output directories;
no git call is made."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()


def fresh_totals() -> dict:
    return dict.fromkeys(tool.COUNTS, 0) | {"max_delta": 0.0, "json_outputs": 0}


def write(d: Path, name: str, content) -> None:
    d.mkdir(exist_ok=True)
    text = content if isinstance(content, str) else json.dumps(content, indent=2)
    (d / name).write_text(text)


ROWS = [
    {"bits": 0.25, "holds": True, "label": "a", "mu": 1},
    {"bits": 0.5, "holds": False, "label": "b", "mu": 2},
]


def test_identical_directories_report_nothing(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        write(d, "curves.json", {"header": ["scenario=s"], "rows": ROWS})
        write(d, "curves.csv", "# scenario=s\nbits,holds\n0.25,true\n")
    totals = fresh_totals()
    assert tool.compare_dirs(old, new, totals) == []
    assert totals == fresh_totals() | {"json_outputs": 1}


def test_every_kind_of_difference_is_counted(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    moved = [
        {"bits": 0.75, "holds": False, "label": "a", "mu": 1},
        {"bits": 0.5 + 1e-12, "holds": False, "label": "c", "mu": 3},
        {"bits": 1.0, "holds": True, "label": "d", "mu": 4},
    ]
    write(old, "curves.json", {"header": ["scenario=s"], "rows": ROWS})
    write(new, "curves.json", {"header": ["scenario=s"], "rows": moved})
    write(old, "bounds.json", {"header": [], "rows": ROWS})
    write(new, "bounds.json", {"header": [], "rows": ROWS[:1]})
    write(old, "curves.csv", "a,b\n1,2\n")
    write(new, "curves.csv", "a,b\n1,3\n")
    write(old, "gone.csv", "")
    write(new, "extra.csv", "")
    totals = fresh_totals()
    assert tool.compare_dirs(old, new, totals) == [
        "extra.csv: only in this tree",
        "gone.csv: only in the parent",
        "bounds.json: rows +0/-1, 0 floats moved (max |delta| 0), 0 booleans flipped,"
        " 0 strings changed, 0 other values changed",
        "curves.csv: rows +0/-0, 1 floats moved (max |delta| 1), 0 booleans flipped,"
        " 0 strings changed, 0 other values changed",
        "curves.json: rows +1/-0, 2 floats moved (max |delta| 0.5), 1 booleans flipped,"
        " 1 strings changed, 1 other values changed",
    ]
    assert totals["json_outputs"] == 2 and totals["max_delta"] == 0.5
    assert (totals["rows_added"], totals["rows_removed"], totals["floats_moved"]) == (1, 1, 2)


def test_a_csv_that_differs_is_summarised_cell_by_cell(tmp_path):
    # Comment lines compare as strings, true/false as booleans and numbers
    # as floats, whatever their spelling; a row past the shorter file counts
    # as added.  The totals keep counting JSON outputs only.
    old, new = tmp_path / "old", tmp_path / "new"
    write(old, "conditions.csv", "# scenario=s\nlabel,gap,holds\nc1,-1.94e-15,true\nc2,1,false\n")
    write(new, "conditions.csv", "# scenario=t\nlabel,gap,holds\nc1,-3.33e-16,false\nc2,1.0,false\n"
          "c3,2,true\n")
    write(old, "other.txt", "a")
    write(new, "other.txt", "b")
    totals = fresh_totals()
    assert tool.compare_dirs(old, new, totals) == [
        "conditions.csv: rows +1/-0, 1 floats moved (max |delta| 1.61e-15), 1 booleans flipped,"
        " 1 strings changed, 0 other values changed",
        "other.txt: bytes differ",
    ]
    assert totals == fresh_totals()
    assert tool.parse_csv("# n\nx,y\n0.5,true\n") == {
        "comments": ["# n"], "rows": [["x", "y"], [0.5, True]]
    }


def test_type_changes_and_missing_keys_count_as_other_values():
    t = tool.json_report({"a": 1.0, "b": True, "c": 1}, {"a": 1, "b": 1, "d": 1})
    assert (t["floats_moved"], t["bools_flipped"], t["other"]) == (0, 0, 4)


def test_a_missing_output_directory_reads_as_empty(tmp_path):
    write(tmp_path / "new", "decode.csv", "")
    assert tool.compare_dirs(tmp_path / "old", tmp_path / "new", fresh_totals()) == [
        "decode.csv: only in this tree"
    ]


def test_the_output_directory_is_blanked_out_of_stdout(tmp_path):
    out = tmp_path / "run"
    code, stdout, stderr = tool.run_cli(
        ROOT, ["decode", "--scenario", "reference_k7", "--out", str(out)], out
    )
    assert code == 0 and (out / "decode.csv").is_file()
    assert stdout == f"{tool.OUT_MARK}/decode.csv\n"
    assert stderr == ""
