import json
import math

import pins

_SCAN = {
    "matrix": ["blend=0.5"],
    "renyi_srs": [(2.0).hex()],
    "renyi_rss": [(1.5).hex()],
    "renyi_irss": [(1.75).hex()],
    "error_budget": [(3e-9).hex()],
    "converged": [True],
}
_MC = {"estimate": [(1.0).hex(), (1.01).hex()], "std_error": [(4e-3).hex(), (3e-3).hex()]}
_ROW = {"pdf": [(0.25).hex()], "draws": [(-1.5).hex()]}


def _moved(record, field, by, k=0):
    """``record`` with ``field[k]`` moved by ``by``, and its bar fields unchanged."""
    values = list(record[field])
    values[k] = (float.fromhex(values[k]) + by).hex()
    return record | {field: values}


def _refused(table, was, now):
    return [line for line, refused in pins.moves({table: {"case": was}}, {table: {"case": now}}) if refused]


def test_a_scan_value_may_move_one_ulp_but_not_ten_times_its_error():
    assert _refused("scan", _SCAN, _moved(_SCAN, "renyi_irss", math.ulp(1.75))) == []
    (line,) = _refused("scan", _SCAN, _moved(_SCAN, "renyi_irss", 10 * 3e-9))
    assert line.startswith("scan case renyi_irss[0]: 0x1.c000000000000p+0 -> ") and "bar 6e-09 (error_budget)" in line


def test_a_monte_carlo_estimate_may_move_three_sigma_but_not_six():
    now = _MC | {"std_error": [(4e-3).hex(), (4e-3).hex()]}
    sigma = math.hypot(3e-3, 4e-3)  # seed 2024's old and new standard errors combined
    assert _refused("mc", _MC, _moved(now, "estimate", 3 * sigma, k=1)) == []
    (line,) = _refused("mc", _MC, _moved(now, "estimate", 6 * sigma, k=1))
    assert line.startswith("mc case estimate[1]: ") and "bar 0.02 (std_error)" in line


def test_a_value_with_no_bar_may_not_move():
    # each refusal names the entry whose deletion lets the next run record the case anew
    for field in _ROW:
        (line,) = _refused("identity_row", _ROW, _moved(_ROW, field, math.ulp(1.5)))
        assert line.endswith("a field with no bar: delete the identity_row/case entry to re-record the case"), line
    (line,) = _refused("scan", _SCAN, _SCAN | {"matrix": ["blend=0.25"]})
    assert line.endswith("a field with no bar: delete the scan/case entry to re-record the case"), line
    assert _refused("scan", _SCAN, _SCAN | {"matrix": ["blend=0.5", "uniform"]}) == ["scan case: its fields changed shape"]


def test_converged_may_not_turn_false():
    (line,) = _refused("scan", _SCAN, _SCAN | {"converged": [False]})
    assert line.endswith("converged turned False"), line
    assert _refused("scan", _SCAN | {"converged": [False]}, _SCAN) == []


def test_a_refused_run_leaves_the_pins_as_they_were(tmp_path):
    # one case, moved beyond its bar: a run that wrote would also drop every other case from the file
    path = tmp_path / "pins.json"
    path.write_bytes(pins.PATH.read_bytes())
    case = pins.stored("first_call", "scalar-converges")
    moved = _moved(case, "value", 10 * float.fromhex(case["error"][0]))
    assert pins.record(path, {"first_call": {"scalar-converges": lambda: moved}})
    assert path.read_bytes() == pins.PATH.read_bytes()
    assert pins.record(path, {"first_call": {"scalar-converges": lambda: case}}) == []
    assert json.loads(path.read_text()) == {"first_call": {"scalar-converges": case}}


def test_a_run_prints_each_moved_field_with_its_move_and_bar(tmp_path, capsys):
    # a value moved within its bar, which moves too: a line each, and the file written;
    # then a value moved beyond its bar: its refusal, and the file kept
    path = tmp_path / "pins.json"
    path.write_bytes(pins.PATH.read_bytes())
    case = pins.stored("first_call", "scalar-converges")
    value, error = float.fromhex(case["value"][0]), float.fromhex(case["error"][0])
    moved = _moved(_moved(case, "value", error), "error", error)
    assert pins.main(path, {"first_call": {"scalar-converges": lambda: moved}}) == 0
    move = abs(float.fromhex(moved["value"][0]) - value)
    head = "moved: first_call scalar-converges"
    assert capsys.readouterr().err.splitlines() == [
        f"{head} error[0]: {case['error'][0]} -> {moved['error'][0]}, moves freely",
        f"{head} value[0]: {case['value'][0]} -> {moved['value'][0]}, moved {move:.3g} within its bar {3 * error:.3g} (error)",
        "pins.json: recorded",
    ]
    assert pins.stored("first_call", "scalar-converges") != moved == json.loads(path.read_text())["first_call"]["scalar-converges"]
    written = path.read_bytes()
    assert pins.main(path, {"first_call": {"scalar-converges": lambda: _moved(moved, "value", 10 * error)}}) == 1
    refusal, last = capsys.readouterr().err.splitlines()
    assert refusal.startswith("refused: first_call scalar-converges value[0]: ") and "beyond its bar" in refusal
    assert last == "pins.json: nothing written" and path.read_bytes() == written


def test_the_pins_hold_every_case_in_the_recorders_format():
    text = pins.PATH.read_text()
    stored = json.loads(text)
    assert pins.dumps(stored) == text
    assert {t: set(c) for t, c in stored.items()} == {t: set(c) for t, c in pins.CASES.items()}
