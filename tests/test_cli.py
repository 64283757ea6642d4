import hashlib
import importlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import skomni
from skomni.capacity import MinimizerStatus
from skomni.cli import _hunt_worker, main
from skomni.generators import random_source
from skomni.omnivocality import (
    REVERIFY_DPS,
    Classification,
    OmniStatus,
    OmnivocalityVerdict,
    probe_conjecture,
)

from conftest import (
    make_broadcast_pair,
    make_identical_bits,
    make_two_speaker_bsc,
    make_xor4_source,
    make_xor_source,
)


@pytest.fixture
def files(tmp_path):
    """Model files the CLI tests point at."""
    out = {}

    def dump(name, payload):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        out[name] = str(path)

    dump("xor", make_xor_source().to_json_dict())
    dump("xor4", make_xor4_source().to_json_dict())
    dump("identical", make_identical_bits(3).to_json_dict())
    dump("two_speaker", make_two_speaker_bsc().to_json_dict())
    dump("broadcast", make_broadcast_pair().to_json_dict())
    dump(
        "pair",
        {
            "m": 2,
            "alphabet_sizes": [2, 2],
            "atoms": [{"x": [0, 0], "p": 0.5}, {"x": [1, 1], "p": 0.5}],
        },
    )
    dump(
        "k3",
        {
            "m": 3,
            "edges": [
                {"u": 1, "v": 2},
                {"u": 1, "v": 3},
                {"u": 2, "v": 3},
            ],
        },
    )
    dump(
        "bad_sum",
        {
            "m": 3,
            "alphabet_sizes": [2, 2, 2],
            "atoms": [{"x": [0, 0, 0], "p": 0.5}, {"x": [1, 1, 1], "p": 0.4}],
        },
    )
    dump("neither", {"m": 3})
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_text(files, capsys):
    code, out, _ = run(capsys, ["capacity", files["xor"]])
    assert code == 0
    assert "C = 0.500000 bits; argmin: 1|2|3" in out
    assert "partitions examined: 1" in out


def test_capacity_pin_exact_rendering(files, capsys):
    code, out, _ = run(capsys, ["capacity", files["k3"]])
    assert code == 0
    assert "C = 3/2 bits; argmin: 1|2|3" in out


def test_pin_capacity_runs_past_the_enumeration_cap(tmp_path, capsys):
    # The PIN capacity is polynomial in m; the entropy-table analyses still
    # stop at m = 16.
    m = 17
    edges = [{"u": u, "v": v} for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    path = tmp_path / "k17.json"
    path.write_text(json.dumps({"m": m, "edges": edges}))
    code, out, _ = run(capsys, ["capacity", str(path)])
    assert code == 0
    assert "C = 17/2 bits; argmin: " + "|".join(map(str, range(1, m + 1))) in out
    assert "partitions examined: 1" in out
    code, _, err = run(capsys, ["omnivocality", str(path)])
    assert code == 3
    assert "entropy-table analyses support m <= 16" in err


@pytest.mark.parametrize("kind", ["two-atom", "pin"])
def test_table_analyses_answer_past_the_old_cap(tmp_path, capsys, kind):
    # capacity and silent with every terminal speaking are the same Newton
    # search, so they answer up to the same m and print the same C.
    m = 14
    if kind == "pin":
        edges = [{"u": u, "v": v} for u in range(1, m + 1) for v in range(u + 1, m + 1)]
        payload = {"m": m, "edges": edges}
    else:
        atoms = [{"x": [0] * m, "p": 0.5}, {"x": [1] * m, "p": 0.5}]
        payload = {"m": m, "alphabet_sizes": [2] * m, "atoms": atoms}
    path = tmp_path / "m14.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, ["capacity", str(path)])
    assert code == 0
    capacity = out.split()[2]
    speakers = ",".join(map(str, range(1, m + 1)))
    code, out, _ = run(capsys, ["silent", str(path), "--speakers", speakers])
    assert code == 0
    assert f"C_restricted = {capacity}\n" in out
    for command in ("singleton", "omnivocality"):
        code, _, _ = run(capsys, [command, str(path)])
        assert code == 0, command


def test_capacity_rejects_bad_pmf(files, capsys):
    code, _, err = run(capsys, ["capacity", files["bad_sum"]])
    assert code == 2
    assert "atoms sum to 0.900000" in err


def test_capacity_renormalize_rescues_bad_pmf(files, capsys):
    code, out, _ = run(capsys, ["capacity", files["bad_sum"], "--renormalize"])
    assert code == 0
    assert "C = " in out


def test_capacity_json_round_trips(files, capsys):
    code, out, _ = run(capsys, ["capacity", files["xor"], "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["capacity"] == 0.5
    assert payload["argmin"] == ["1|2|3"]
    assert payload["partitions_examined"] == 1
    assert json.loads(json.dumps(payload)) == payload


def test_missing_file(files, capsys):
    code, _, err = run(capsys, ["capacity", files["xor"] + ".nope"])
    assert code == 2
    assert "cannot read" in err


def test_unrecognized_model_shape(files, capsys):
    code, _, err = run(capsys, ["capacity", files["neither"]])
    assert code == 2
    assert "neither 'atoms'" in err


def test_bad_tolerance(files, capsys):
    code, _, err = run(capsys, ["capacity", files["xor"], "--tol", "-1"])
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize("argv, message", [
    (["capacity", "xor", "--tol", "inf"], "tolerance must be positive and finite"),
    (["capacity", "xor", "--tol", "nan"], "tolerance must be positive and finite"),
    (["omnivocality", "xor", "--dps", "-5"], "dps must be >= 0"),
    (["omnivocality", "xor", "--dps", "1"], "more than a float's 15 digits"),
    (["omnivocality", "xor", "--dps", "15"], "more than a float's 15 digits"),
    (["omnivocality", "xor", "--tol", "1e-16"], "tolerance must be at least 1e-12"),
])
def test_bad_numeric_flags(files, capsys, argv, message):
    code, out, err = run(capsys, [argv[0], files[argv[1]]] + argv[2:])
    assert code == 2
    assert message in err
    assert out == ""


def test_argparse_failures_exit_2(files, capsys):
    assert run(capsys, ["silent", files["xor"]])[0] == 2  # missing --speakers
    assert run(capsys, ["nonsense"])[0] == 2
    # The model picks the routes; none runs alone.
    assert run(capsys, ["omnivocality", files["xor"], "--method", "lp"])[0] == 2


def test_singleton_xor(files, capsys):
    code, out, _ = run(capsys, ["singleton", files["xor"]])
    assert code == 0
    assert "UniqueMinimizer (3 comparisons)" in out


def test_singleton_identical(files, capsys):
    code, out, _ = run(capsys, ["singleton", files["identical"]])
    assert code == 0
    assert "NonUniqueMinimizer (3 comparisons); tie at 1|2,3" in out
    assert "surplus(1|2,3) = 1.000000" in out
    code, out, _ = run(capsys, ["singleton", files["identical"], "--json"])
    assert code == 0
    assert list(json.loads(out)) == ["status", "comparisons", "witness"]
    assert run(capsys, ["singleton", files["identical"], "--method", "brute"])[0] == 2


def test_singleton_comparison_count_m4(files, capsys):
    code, out, _ = run(capsys, ["singleton", files["xor4"]])
    assert code == 0
    assert "(10 comparisons)" in out


def test_singleton_beaten_witness(files, capsys):
    code, out, _ = run(capsys, ["singleton", files["two_speaker"]])
    assert code == 0
    assert "NotMinimizer" in out
    assert "beaten at 1,2|3" in out


def test_singleton_wide_band_is_undecided(files, capsys):
    code, out, _ = run(capsys, ["singleton", files["xor"], "--tol", "1.0"])
    assert code == 0
    assert "NumericallyAmbiguous" in out


def test_singleton_rejects_m2(files, capsys):
    code, _, err = run(capsys, ["singleton", files["pair"]])
    assert code == 3
    assert "m >= 3" in err


def test_silent_xor(files, capsys):
    code, out, _ = run(capsys, ["silent", files["xor"], "--speakers", "1,2"])
    assert code == 0
    assert "H(speakers) = 2.000000" in out
    assert "R_min = 2.000000" in out
    assert "C_restricted = 0.000000" in out
    assert "R1 = 1.000000" in out


def test_silent_omniscience(files, capsys):
    code, out, _ = run(capsys, ["silent", files["xor"], "--speakers", "1,2,3"])
    assert code == 0
    assert "R_min = 1.500000" in out
    assert "C_restricted = 0.500000" in out
    assert "sum-rate lower bound" not in out


def test_silent_single_speaker(files, capsys):
    code, out, _ = run(capsys, ["silent", files["identical"], "--speakers", "1"])
    assert code == 0
    assert "C_restricted = 1.000000" in out


def test_silent_tol_sets_the_binding_band(tmp_path, capsys):
    path = tmp_path / "random.json"
    path.write_text(json.dumps(random_source(3, (2, 2, 2), seed=1).to_json_dict()))
    code, out, _ = run(capsys, ["silent", str(path), "--speakers", "1,2"])
    assert code == 0
    assert "binding: 1; 2\n" in out
    code, out, _ = run(capsys, ["silent", str(path), "--speakers", "1,2", "--tol", "0.5"])
    assert code == 0
    assert "binding: 1; 2; 1,2\n" in out


def test_silent_bad_subset(files, capsys):
    code, _, err = run(capsys, ["silent", files["xor"], "--speakers", "1,,2"])
    assert code == 2
    assert "bad subset literal" in err


def test_silent_json(files, capsys):
    code, out, _ = run(capsys, ["silent", files["k3"], "--speakers", "1,2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["speakers_entropy"] == 3
    assert payload["min_sum_rate"] == "2"
    assert payload["capacity"] == "1"


def test_silent_prints_no_negative_zero(tmp_path, capsys):
    # Terminal 3 is a constant: one cell of mass 1, whose entropy is 0.0.
    path = tmp_path / "constant.json"
    atoms = [{"x": [0, 0, 0], "p": 0.5}, {"x": [1, 1, 0], "p": 0.5}]
    path.write_text(json.dumps({"m": 3, "alphabet_sizes": [2, 2, 1], "atoms": atoms}))
    code, out, _ = run(capsys, ["silent", str(path), "--speakers", "3"])
    assert code == 0
    assert "H(speakers) = 0.000000\n" in out
    assert "C_restricted = 0.000000\n" in out
    assert "-0" not in out
    code, out, _ = run(capsys, ["silent", str(path), "--speakers", "3", "--json"])
    assert code == 0
    assert "-0" not in out
    payload = json.loads(out)
    assert payload["speakers_entropy"] == payload["capacity"] == 0.0


def test_omnivocality_xor_all_methods(files, capsys):
    code, out, _ = run(capsys, ["omnivocality", files["xor"]])
    assert code == 0
    assert "condition: Necessary" in out
    assert "lp: Necessary" in out
    assert "three-terminal: Necessary" in out
    assert "verdict: Necessary (methods agree)" in out


def test_omnivocality_identical(files, capsys):
    code, out, _ = run(capsys, ["omnivocality", files["identical"]])
    assert code == 0
    assert "condition: Unknown" in out
    assert "lp: NotNecessary; construction: lp-equality; silent {1}" in out
    assert "three-terminal: NotNecessary; construction: single-speaker; silent {2,3}" in out
    assert "cut-surplus witnesses W = {1,2,3}" in out
    assert "verdict: NotNecessary (methods agree)" in out


def test_omnivocality_m4_skips_three(files, capsys):
    code, out, _ = run(capsys, ["omnivocality", files["xor4"]])
    assert code == 0
    assert "three-terminal:" not in out
    assert "verdict: Necessary (methods agree)" in out


def test_omnivocality_rejects_m2(files, capsys):
    code, _, err = run(capsys, ["omnivocality", files["pair"]])
    assert code == 3
    assert "never necessary for m = 2" in err


def test_omnivocality_broadcast_stays_ambiguous_even_at_high_precision(files, capsys):
    code, out, _ = run(capsys, ["omnivocality", files["broadcast"]])
    assert code == 0
    assert "verdict: NumericallyAmbiguous" in out
    # The ties are real equalities, so extra digits cannot break them; the
    # extended-precision pass must refuse to guess too.
    code, out, _ = run(capsys, ["omnivocality", files["broadcast"], "--dps", "40"])
    assert code == 0
    assert "verdict: NumericallyAmbiguous" in out


def test_omnivocality_conclusive_disagreement_is_internal_error(files, capsys, monkeypatch):
    def fake_condition(oracle, band):
        return OmnivocalityVerdict(OmniStatus.NECESSARY, "condition", None, (), None)

    def fake_lp(oracle, band):
        return OmnivocalityVerdict(OmniStatus.NOT_NECESSARY, "lp", None, (), None)

    monkeypatch.setattr("skomni.omnivocality.verdict_by_condition", fake_condition)
    monkeypatch.setattr("skomni.omnivocality.verdict_by_lp", fake_lp)
    code, _, err = run(capsys, ["omnivocality", files["xor4"]])
    assert code == 4
    assert "internal inconsistency" in err
    assert "methods disagree" in err


def test_hunt_recheck_is_omnivocality_at_reverify_dps(tmp_path, capsys):
    source = random_source(4, (2, 2, 2, 2), 12)
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(source.to_json_dict()))
    probe = probe_conjecture(source)
    assert probe.reverified and probe.classification is Classification.CANDIDATE
    code, out, _ = run(capsys, ["omnivocality", str(path), "--dps", str(REVERIFY_DPS), "--json"])
    assert code == 0
    condition, lp = json.loads(out)["methods"]
    condition_status = {
        MinimizerStatus.UNIQUE: OmniStatus.NECESSARY,
        MinimizerStatus.AMBIGUOUS: OmniStatus.AMBIGUOUS,
    }.get(probe.condition, OmniStatus.UNKNOWN)
    assert condition["status"] == condition_status.value
    assert lp["status"] == probe.lp.value
    assert [row["gap"] for row in lp["evidence"]] == [float(g) for g in probe.gaps]
    # The float run differs in the last bits, so these are the re-checked gaps.
    _, out, _ = run(capsys, ["omnivocality", str(path), "--json"])
    float_lp = json.loads(out)["methods"][1]
    assert [row["gap"] for row in float_lp["evidence"]] != [float(g) for g in probe.gaps]


def test_isentropy_is_not_a_subcommand(files, capsys):
    code, _, err = run(capsys, ["isentropy", files["xor"]])
    assert code == 2
    assert "invalid choice: 'isentropy'" in err


def test_hunt_rejects_small_m(tmp_path, capsys):
    code, _, err = run(capsys, ["hunt", "--m", "3", "--out", str(tmp_path / "h.jsonl")])
    assert code == 3
    assert "m >= 4" in err


def test_hunt_rejects_bad_alphabet(tmp_path, capsys):
    log = tmp_path / "h.jsonl"
    for spec, message in [
        ("2,2", "alphabet spec '2,2' does not fit m=4"),
        ("x", "bad alphabet spec 'x'"),
    ]:
        code, out, err = run(capsys, ["hunt", "--m", "4", "--alphabet", spec, "--out", str(log)])
        assert (code, out) == (2, ""), spec
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not log.exists()


def test_hunt_writes_deterministic_log(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    args = ["hunt", "--m", "4", "--trials", "8", "--seed", "7"]
    code, text, _ = run(capsys, args + ["--out", str(out1)])
    assert code == 0
    assert "log written to" in text
    code, _, _ = run(capsys, args + ["--out", str(out2)])
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()

    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(records) == 8
    assert [r["trial"] for r in records] == list(range(8))
    assert all(r["seed"] == 7 + r["trial"] for r in records)
    candidates = [r for r in records if r["classification"] == "CandidateCounterexample"]
    assert all("source" in r for r in candidates)
    counted = sum(
        int(line.split(": ")[1])
        for line in text.splitlines()
        if ": " in line and not line.startswith("log")
    )
    assert counted == 8


def test_hunt_parallel_matches_serial(tmp_path, capsys):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    base = ["hunt", "--m", "4", "--trials", "6", "--seed", "3"]
    assert run(capsys, base + ["--out", str(serial)])[0] == 0
    assert run(capsys, base + ["--jobs", "2", "--out", str(parallel)])[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("m, alphabet, trials, digest", [
    (4, "2", 500, "b443e355eaaac286"),
    (5, "2", 200, "52628e37972f1f28"),
    (4, "3,2,2,2", 100, "ed78b8200d2f4006"),
], ids=["4-500-b443e355eaaac286", "5-200-52628e37972f1f28", "4-3222-100-ed78b8200d2f4006"])
def test_seed0_hunt_logs_keep_their_digests(tmp_path, capsys, m, alphabet, trials, digest):
    # A float bit that moves in a record's capacity or gaps moves no class
    # count, but it moves the log's digest.  A change that moves float
    # bits on purpose updates these and reports the old and new counts.
    # The mixed alphabet pins the 60-digit re-check on a non-binary grid.
    log = tmp_path / "hunt.jsonl"
    args = ["hunt", "--m", str(m), "--alphabet", alphabet, "--trials", str(trials),
            "--seed", "0", "--jobs", "1"]
    assert run(capsys, args + ["--out", str(log)])[0] == 0
    assert hashlib.sha256(log.read_bytes()).hexdigest()[:16] == digest


def _fail_at_trial_16(packed):
    if packed[3] == 16:
        raise RuntimeError("trial 16 failed")
    return _hunt_worker(packed)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_hunt_log_keeps_the_trials_finished_before_a_failure(tmp_path, monkeypatch, jobs):
    # Records reach the log as their trials finish; pool workers return
    # them in chunks of 8, so the failure sits at a chunk boundary.
    monkeypatch.setattr("skomni.cli._hunt_worker", _fail_at_trial_16)
    log = tmp_path / "h.jsonl"
    with pytest.raises(RuntimeError, match="trial 16 failed"):
        main(["hunt", "--m", "4", "--trials", "24", "--jobs", jobs, "--out", str(log)])
    trials = [json.loads(line)["trial"] for line in log.read_text().splitlines()]
    assert trials == list(range(16))


def _constant_record(packed):
    return {"classification": "ConsistentProven"}


def test_hunt_holds_one_job_at_a_time(capsys, monkeypatch):
    # A list of all 10^5 job tuples alone would hold about 11 MB.
    monkeypatch.setattr("skomni.cli._hunt_worker", _constant_record)
    argv = ["hunt", "--m", "4", "--trials", "100000", "--jobs", "1", "--out", os.devnull]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "ConsistentProven: 100000" in capsys.readouterr().out
    assert peak < 2_000_000


def _trial_record(packed):
    m, _alphabet, seed, trial, _tol = packed
    return {"classification": "ConsistentProven", "m": m, "seed": seed + trial, "trial": trial}


class _CountingPool:
    """Runs each submitted chunk when its result is read, and records the
    most futures that were submitted and not yet read at any one time, and
    the first trial of each chunk whose future was cancelled."""

    peak = 0
    cancelled: list = []

    def __init__(self, max_workers):
        self.unread = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def submit(self, fn, *args):
        pool = self
        pool.unread += 1
        _CountingPool.peak = max(_CountingPool.peak, pool.unread)

        class Future:
            def result(self):
                pool.unread -= 1
                return fn(*args)

            def cancel(self):
                _CountingPool.cancelled.append(args[1][0][3])
                return True

        return Future()


def test_hunt_pool_holds_a_bounded_window_of_chunks(tmp_path, capsys, monkeypatch):
    # 2 000 trials are 250 chunks of 8; --jobs 2 keeps at most 4 of them
    # submitted and unread, and the log is the same for any --jobs.
    monkeypatch.setattr("skomni.cli._hunt_worker", _trial_record)
    monkeypatch.setattr(_CountingPool, "peak", 0)
    base = ["hunt", "--m", "4", "--trials", "2000", "--seed", "5"]
    logs = {}
    for name, jobs in [("serial", "1"), ("pool", "2"), ("counted", "2")]:
        if name == "counted":
            monkeypatch.setattr("skomni.cli._process_pool", _CountingPool)
        logs[name] = tmp_path / f"{name}.jsonl"
        assert run(capsys, base + ["--jobs", jobs, "--out", str(logs[name])])[0] == 0
    assert 1 <= _CountingPool.peak <= 4
    serial = logs["serial"].read_bytes()
    assert [json.loads(line)["trial"] for line in serial.splitlines()] == list(range(2000))
    assert logs["pool"].read_bytes() == serial
    assert logs["counted"].read_bytes() == serial


def _fail_at_trial_0(packed):
    if packed[3] == 0:
        raise RuntimeError("trial 0 failed")
    return _trial_record(packed)


def test_hunt_failure_cancels_the_chunks_still_pending(tmp_path, monkeypatch):
    # --jobs 2 holds a window of 4 chunks of 8; trial 0 fails when the
    # first chunk is read, so the 3 chunks behind it are cancelled unrun.
    monkeypatch.setattr("skomni.cli._hunt_worker", _fail_at_trial_0)
    monkeypatch.setattr("skomni.cli._process_pool", _CountingPool)
    monkeypatch.setattr(_CountingPool, "cancelled", [])
    log = tmp_path / "h.jsonl"
    with pytest.raises(RuntimeError, match="trial 0 failed"):
        main(["hunt", "--m", "4", "--trials", "100", "--jobs", "2", "--out", str(log)])
    assert _CountingPool.cancelled == [8, 16, 24]
    assert log.read_text() == ""


def test_hunt_json_summary(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        [
            "hunt",
            "--m",
            "4",
            "--trials",
            "4",
            "--seed",
            "1",
            "--out",
            str(tmp_path / "h.jsonl"),
            "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 4
    assert sum(payload["counts"].values()) == 4


@pytest.mark.parametrize("payload", [
    {"m": 25, "alphabet_sizes": [2] * 25, "atoms": [{"x": [0] * 25, "p": 1.0}]},
    {"m": 25, "edges": [{"u": 1, "v": 2}]},
], ids=["pmf", "pin"])
def test_too_many_terminals_exits_3(tmp_path, capsys, payload):
    path = tmp_path / "m25.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, ["capacity", str(path)])
    assert code == 3
    assert "m=25 outside 2..24" in err


@pytest.mark.parametrize("argv", [
    ["capacity"],
    ["singleton"],
    ["omnivocality"],
    ["silent", "--speakers", "1,2"],
], ids=["capacity", "singleton", "omnivocality", "silent"])
def test_analyses_beyond_their_size_cap_exit_3(tmp_path, capsys, argv):
    m = 17
    atoms = [{"x": [0] * m, "p": 0.5}, {"x": [1] * m, "p": 0.5}]
    path = tmp_path / "m17.json"
    path.write_text(json.dumps({"m": m, "alphabet_sizes": [2] * m, "atoms": atoms}))
    code, _, err = run(capsys, [argv[0], str(path)] + argv[1:])
    assert code == 3
    assert "entropy-table analyses support m <= 16" in err


def test_bool_outcome_in_model_file_exits_2(tmp_path, capsys):
    # Also every other malformed atom: each must exit 2 and name the atom.
    bad_p = "'p' must be a number"
    bad_x = "'x' must be a list of integers"
    cases = [
        ({"x": [True, 0], "p": 0.5}, [], "atom (True, 0) outside the alphabet grid"),
        ({"x": [0, 0], "p": None}, [], "atom entry {'x': [0, 0], 'p': None}: " + bad_p),
        ({"x": [0, 0], "p": None}, ["--renormalize"], "{'x': [0, 0], 'p': None}: " + bad_p),
        ({"x": [0, 0], "p": "0.5"}, [], "atom entry {'x': [0, 0], 'p': '0.5'}: " + bad_p),
        ({"x": [0, 0], "p": True}, [], "atom entry {'x': [0, 0], 'p': True}: " + bad_p),
        ({"x": 5, "p": 0.5}, [], "atom entry {'x': 5, 'p': 0.5}: " + bad_x),
        ({"x": [[0], [0]], "p": 0.5}, [], "atom entry {'x': [[0], [0]], 'p': 0.5}: " + bad_x),
        ({"x": [0, 0], "p": 10**400}, [], "atom (0, 0) has a probability too large for a float"),
        ({"x": [0, 0], "p": 10**400}, ["--renormalize"], "atom (0, 0) has a probability too large"),
    ]
    path = tmp_path / "bad.json"
    for atom, flags, message in cases:
        atoms = [atom, {"x": [0, 1], "p": 0.5}]
        path.write_text(json.dumps({"m": 2, "alphabet_sizes": [2, 2], "atoms": atoms}))
        code, _, err = run(capsys, ["capacity", str(path)] + flags)
        assert code == 2, atom
        assert message in err, atom


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b'{"m": 2, "alphabet_sizes": [2, 2], "atoms": [{"x": [0, 0], "p": 1' + b"0" * 5000 + b"}]}", ""),
], ids=["not-utf8", "5001-digit-int"])
def test_unparseable_model_text_exits_2(tmp_path, capsys, content, reason):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["capacity", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err



_EDGE = {"u": 1, "v": 2}
_ATOM = {"x": [0, 0], "p": 1.0}
# Each atom is a float, but their sum is past the float range.
_ATOMS_PAST_FLOAT_RANGE = [{"x": [0, 0], "p": 1e308}, {"x": [1, 1], "p": 1e308}]


@pytest.mark.parametrize("model, flags, message", [
    ({"edges": [_EDGE]}, [], "graph JSON missing 'm'"),
    ({"m": 2, "edges": "x"}, [], "graph JSON field 'edges' must be a list"),
    ({"m": 2, "edges": [[1, 2]]}, [], "edge entry [1, 2] must be an object"),
    ({"alphabet_sizes": [2, 2], "atoms": [_ATOM]}, [], "source JSON missing 'm'"),
    ({"m": 2, "atoms": [_ATOM]}, [], "source JSON missing 'alphabet_sizes'"),
    ({"m": 2, "alphabet_sizes": [2, 2], "atoms": "x"}, [], "source JSON field 'atoms' must be a list"),
    ({"m": 2, "alphabet_sizes": [2, 2], "atoms": [[0, 0, 1]]}, [],
     "atom entry [0, 0, 1] must be an object"),
    ({"m": 2, "alphabet_sizes": 2, "atoms": [_ATOM]}, [],
     "source JSON field 'alphabet_sizes' must be a list"),
    ({"m": 2, "alphabet_sizes": [2, 2], "atoms": [{"x": [0, 0], "p": 0}, {"x": [1, 1], "p": 0}]},
     ["--renormalize"], "cannot renormalize: atoms sum to 0.0"),
    ({"m": 2, "alphabet_sizes": [2, 2], "atoms": _ATOMS_PAST_FLOAT_RANGE}, [],
     "atoms sum to inf, not 1"),
    ({"m": 2, "alphabet_sizes": [2, 2], "atoms": _ATOMS_PAST_FLOAT_RANGE}, ["--renormalize"],
     "cannot renormalize: atoms sum to inf"),
    ({"m": 2, "alphabet_sizes": [2, 2], "atoms": [_ATOM], "edges": [_EDGE]}, [],
     "graph JSON has key 'alphabet_sizes'; it takes only 'm' and 'edges'"),
    ({"m": 2, "edges": [{"u": 1, "v": 2, "weight": 3}]}, [],
     "edge entry {'u': 1, 'v': 2, 'weight': 3} has key 'weight'; it takes only 'u', 'v' and 'mult'"),
    ({"m": 2, "alphabet_sizes": [2, 2], "atoms": [_ATOM], "edges": [{"u": 1, "v": 2, "weight": 3}]},
     [], "graph JSON has key 'alphabet_sizes'; it takes only 'm' and 'edges'"),
    ({"m": 2, "alphabet_sizes": [2, 2],
      "atoms": [{"x": [1, 1], "p": 0.5}, {"x": [0, 0], "p": 0.5, "count": 3}]}, [],
     "atom entry {'x': [0, 0], 'p': 0.5, 'count': 3} has key 'count'; it takes only 'x' and 'p'"),
    ({"m": 3, "edges": [_EDGE], "mult": 5}, [],
     "graph JSON has key 'mult'; it takes only 'm' and 'edges'"),
    ({"m": 2, "alphabet_sizes": [2, 2], "atoms": [_ATOM], "renormalise": True}, [],
     "source JSON has key 'renormalise'; it takes only 'm', 'alphabet_sizes' and 'atoms'"),
    ({"m": 2, "edges": [_EDGE], "atoms": [_ATOM]}, [],
     "graph JSON has key 'atoms'; it takes only 'm' and 'edges'"),
    ({"edges": [], "m": 2, "alphabet_sizes": [2, 2], "atoms": [_ATOM]}, [],
     "graph JSON has key 'alphabet_sizes'; it takes only 'm' and 'edges'"),
    ({"m": 2, "edges": [{"u": 1, "mult": 2}]}, [], "edge entry {'u': 1, 'mult': 2} missing 'v'"),
    ({"m": 2, "alphabet_sizes": [2, 2], "atoms": [{"x": [0, 0]}]}, [],
     "atom entry {'x': [0, 0]} missing 'p'"),
], ids=[
    "graph-no-m", "edges-not-list", "edge-not-object", "source-no-m", "source-no-alphabet",
    "atoms-not-list", "atom-not-object", "alphabet-not-list", "renormalize-zero",
    "sum-overflows", "renormalize-sum-overflows", "atoms-and-edges", "edge-unknown-key",
    "atoms-and-edges-with-unknown-key", "atom-unknown-key", "graph-unknown-key",
    "source-unknown-key", "graph-with-atoms", "source-with-empty-edges", "edge-no-v", "atom-no-p",
])
def test_malformed_model_shape_exits_2(tmp_path, capsys, model, flags, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    assert run(capsys, ["capacity", str(path)] + flags) == (2, "", f"error: {message}\n")

def test_malformed_coordinate_beside_other_atoms_exits_2(tmp_path, capsys):
    # Sorting the atoms would compare a string or null coordinate with an
    # int; such an atom must be named like any other atom off the grid.
    cases = [
        (["a", 0], "atom ('a', 0) outside the alphabet grid"),
        ([None, 0], "atom (None, 0) outside the alphabet grid"),
        ("ab", "atom ('a', 'b') outside the alphabet grid"),
    ]
    path = tmp_path / "bad.json"
    for x, message in cases:
        bad, good = {"x": x, "p": 0.5}, {"x": [0, 1], "p": 0.5}
        for atoms in ([bad, good], [good, bad]):
            path.write_text(json.dumps({"m": 2, "alphabet_sizes": [2, 2], "atoms": atoms}))
            assert run(capsys, ["capacity", str(path)]) == (2, "", f"error: {message}\n"), atoms


@pytest.mark.parametrize("flags, message", [
    (["--jobs", "0"], "jobs must be between 1 and the CPU count"),
    (["--jobs", str((os.cpu_count() or 1) + 1)], "jobs must be between 1 and the CPU count"),
    (["--trials", "0"], "trial count must be >= 1"),
    (["--m", "17"], "entropy-table analyses support m <= 16"),
    (["--out", "{tmp}/missing/x.jsonl"], "cannot open log {tmp}/missing/x.jsonl"),
    (["--alphabet", "60"], "alphabet grid has 12960000 cells; hunt supports at most 1048576"),
    (["--seed", "-3"], "seed must be >= 0, got -3"),
])
def test_hunt_rejects_bad_counts_before_starting(tmp_path, capsys, monkeypatch, flags, message):
    # Too many terminals or alphabet cells is a size error (exit 3); the
    # other flags are bad input (exit 2).
    expected_code = 3 if flags[0] in ("--m", "--alphabet") else 2
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("skomni.cli._process_pool", no_pool)
    monkeypatch.setattr("skomni.cli._hunt_worker", no_pool)
    out = tmp_path / "hunt.jsonl"
    flags = [f.format(tmp=tmp_path) for f in flags]
    code, _, err = run(capsys, ["hunt", "--m", "4", "--trials", "2", "--out", str(out)] + flags)
    assert code == expected_code
    assert message.format(tmp=tmp_path) in err
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_hunt_log_write_failure_exits_2(capsys, jobs):
    # Every write to /dev/full fails with ENOSPC; the pool still shuts down.
    argv = ["hunt", "--m", "4", "--trials", "3", "--jobs", jobs, "--out", "/dev/full"]
    expected = "error: cannot write log /dev/full: No space left on device\n"
    assert run(capsys, argv) == (2, "", expected)


def test_in_process_calls_share_one_parser_and_leak_nothing(files, capsys, monkeypatch):
    # A fresh import of the module, so that its parser cache starts empty.
    monkeypatch.setattr(skomni, "cli", sys.modules["skomni.cli"])
    monkeypatch.delitem(sys.modules, "skomni.cli")
    cli = importlib.import_module("skomni.cli")
    assert cli._build_parser.cache_info().currsize == 0

    def call(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    capacity = call(["capacity", files["xor"]])
    assert capacity[0] == 0
    assert call(["capacity", files["xor"]]) == capacity
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)

    # A default left over from an earlier call would change the output.
    every_route = call(["omnivocality", files["xor"]])
    assert "condition: Necessary" in every_route[1]
    assert "verdict: Necessary (methods agree)" in every_route[1]
    as_json = call(["omnivocality", files["xor"], "--json", "--dps", "30"])
    assert json.loads(as_json[1])["verdict"] == "Necessary"
    assert call(["omnivocality", files["xor"]]) == every_route

    # An argparse failure leaves no state behind for the next call.
    assert call(["capacity"])[0] == 2
    assert call(["capacity", files["xor"], "--tol", "nan"])[0] == 2
    assert call(["capacity", files["xor"]]) == capacity

    help_text = call(["--help"])
    assert help_text[0] == 0
    assert help_text[1].startswith("usage: skomni")
    assert call(["--help"]) == help_text

    # Dispatch is looked up per call, so a patched command takes effect.
    monkeypatch.setattr(cli, "cmd_capacity", lambda args: 7)
    assert call(["capacity", files["xor"]]) == (7, "", "")
    assert cli._build_parser.cache_info().misses == 1


def _fresh_python(code):
    """The stdout of ``code``, dedented, run by a new interpreter that imports
    this checkout's ``skomni``; the run must exit 0."""
    src = str(Path(skomni.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_only_a_parallel_hunt_loads_the_worker_pool(files, tmp_path):
    # A fresh interpreter, since this one has loaded multiprocessing long
    # since: importing the CLI and every call but ``hunt --jobs N`` with
    # N > 1 must leave the pool's import stack unloaded.
    out = _fresh_python(f"""
        import sys
        from skomni.cli import main
        for argv in (
            ["capacity", {files["xor"]!r}],
            ["capacity", {files["k3"]!r}],
            ["singleton", {files["xor"]!r}, "--json"],
            ["silent", {files["xor"]!r}, "--speakers", "1,2"],
            ["omnivocality", {files["xor"]!r}, "--dps", "30"],
            ["hunt", "--m", "4", "--trials", "3", "--jobs", "1", "--out", {str(tmp_path / "h.jsonl")!r}],
        ):
            assert main(argv) == 0, argv
        print(sorted(name for name in sys.modules
                     if name.partition(".")[0] in ("concurrent", "multiprocessing")))
    """)
    assert out.splitlines()[-1] == "[]"


def test_a_module_import_loads_only_what_it_needs():
    # The package loads none of its modules, so importing one loads only
    # its own dependencies; the CLI still loads every module.
    out = _fresh_python("""
        import sys
        def loaded():
            return sorted(name for name in sys.modules if name.partition(".")[0] == "skomni")
        import skomni.sources
        print(loaded())
        import skomni.cli
        print(loaded())
    """)
    *_, library, command_line = out.splitlines()
    assert library == str(["skomni", "skomni.errors", "skomni.sources", "skomni.subsets"])
    modules = sorted(path.stem for path in Path(skomni.__file__).parent.glob("[!_]*.py"))
    assert command_line == str(["skomni"] + [f"skomni.{name}" for name in modules])
