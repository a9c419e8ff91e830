import hashlib
import json

import pytest

from candyfix import __version__
from candyfix.cli import main
from candyfix.dyadic import Dyadic
from candyfix.engine import ProbTables, compute_tables, kstep_vector
from candyfix.render import tables_from_json, tables_to_text


def run(*argv):
    return main(list(argv))


def test_version(capsys):
    assert run("--version") == 0
    assert __version__ in capsys.readouterr().out


def test_simulate_chessboard_word(tmp_path, capsys):
    code = run("simulate", "--init", "word:0101010", "--trials", "1",
               "--out", str(tmp_path))
    assert code == 0
    assert "fixation_time 0" in capsys.readouterr().out
    lines = (tmp_path / "trajectories.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["fixation_time"] == 0


def test_simulate_block_all_fixate(tmp_path):
    code = run("simulate", "--init", "block", "--M", "10", "--trials", "200",
               "--seed", "5", "--out", str(tmp_path))
    assert code == 0
    for line in (tmp_path / "trajectories.jsonl").read_text().splitlines():
        assert json.loads(line)["fixation_time"] is not None
    assert (tmp_path / "aggregate.csv").read_text().startswith("t,survivors,mean_I")


def test_simulate_invalid_distribution(tmp_path, capsys):
    code = run("simulate", "--n", "3", "--p", "0.3,0.3,0.3", "--out", str(tmp_path))
    assert code == 2
    assert "must sum to 1" in capsys.readouterr().err


def test_simulate_law_ending_in_zeros(tmp_path, capsys):
    # a cumulative of exactly 1 before the last color gives no cut of 2^64
    for i, argv in enumerate((("--init", "word:000111", "--p", "1,0", "--t-max", "50"),
                              ("--n", "3", "--p", "1/2,1/2,0"))):
        assert run("simulate", *argv, "--out", str(tmp_path / str(i))) == 0, argv
        assert "trials 1" in capsys.readouterr().out


def test_simulate_rerun_byte_identical(tmp_path):
    args = ["simulate", "--init", "block", "--M", "6", "--trials", "25",
            "--seed", "3"]
    assert run(*args, "--out", str(tmp_path / "a")) == 0
    assert run(*args, "--out", str(tmp_path / "b")) == 0
    for name in ("trajectories.jsonl", "aggregate.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of (trajectories.jsonl, aggregate.csv); any change to the trajectory
# loop, the stream layout or the output format shows here, and so does a new
# __version__, which the manifest id in every trajectory line hashes
PINNED_SIMULATIONS = (
    (("--init", "block", "--M", "6", "--trials", "25", "--seed", "3"),
     "9846d1e0eba1833767a9c165c83beddb0bf9b4904da0064e3d74277b5082bdd9",
     "7b9d1a78f3824feb8bfab6871ce49ef85257d3957cd5236ccc349fad99211305"),
    (("--init", "word:0001100011000111", "--boundary", "frozen", "--trials", "30",
      "--seed", "4"),
     "8823061fe2f53ec43182ef0fc742ca26b3519fd9b5f605661df66eaeb866583f",
     "a2b44f788899545df4a8a2499f257ee153b571af239dd6bd7d2a9cd4d1edba24"),
    (("--d", "2", "--init", "box", "--extent", "7,9", "--boundary", "periodic",
      "--trials", "3", "--t-max", "400", "--seed", "1"),
     "baea5f7a9a6728f820c48e95ba2b937406bc5d0c9afed1b3cd09042db49ea13c",
     "213f591fdd499ad43715d51123d1c2a579453885ff7ce68d0e500477eb0cfdd7"),
    (("--kappa", "4", "--n", "3", "--p", "1/4,1/4,1/2", "--init", "box",
      "--extent", "41", "--trials", "5"),
     "221601947a0c09146c47e6c88bf89efcfaa164f85059192f474aaa25276f0753",
     "e3c39b2d0c33ed79ecf56dba9a4abaeaeed1370a08e95678d4553748ad1aa74a"),
)


def test_simulate_outputs_pinned(tmp_path):
    for i, (args, traj, agg) in enumerate(PINNED_SIMULATIONS):
        out = tmp_path / str(i)
        assert run("simulate", *args, "--out", str(out)) == 0, args
        for name, digest in (("trajectories.jsonl", traj), ("aggregate.csv", agg)):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, \
                (args, name)


def test_manifest_written_and_referenced(tmp_path):
    assert run("simulate", "--init", "word:000", "--trials", "2", "--seed", "1",
               "--out", str(tmp_path)) == 0
    manifests = list(tmp_path.glob("manifest-*.json"))
    assert len(manifests) == 1
    manifest = json.loads(manifests[0].read_text())
    assert manifest["command"] == "simulate"
    assert set(manifest["outputs"]) == {"trajectories.jsonl", "aggregate.csv"}
    assert manifest["exploratory"] is False
    run_id = manifest["run_id"]
    rec = json.loads((tmp_path / "trajectories.jsonl").read_text().splitlines()[0])
    assert rec["manifest"] == run_id
    assert (tmp_path / "manifests.jsonl").read_text().count('"run_id"') == 1


def test_engine_manifests_explain_the_run(tmp_path):
    # wall time, peak memory and every check that ran, in both the manifest
    # file and its manifests.jsonl line; the id the results name is unchanged
    assert run("enumerate", "--k", "2", "--out", str(tmp_path / "e")) == 0
    assert run("certify", "--k", "2", "--tables", str(tmp_path / "e" / "tables.json"),
               "--out", str(tmp_path / "c")) == 0
    expect = {"e": ("tables.json", ["unbounded-sum-identity"]),
              "c": ("certificate.json", ["tables-file", "tables-k", "unbounded-sum-identity"])}
    for sub, (result, checks) in expect.items():
        path, = (tmp_path / sub).glob("manifest-*.json")
        manifest = json.loads(path.read_text())
        assert manifest == json.loads((tmp_path / sub / "manifests.jsonl").read_text())
        assert 0 < manifest["seconds"] < 60 and manifest["peak_rss_mib"] > 1
        assert manifest["checks"] == [{"name": c, "verdict": "pass"} for c in checks]
        assert json.loads((tmp_path / sub / result).read_text())["manifest"] == \
            manifest["run_id"] == path.stem.removeprefix("manifest-")


def test_enumerate_broken_identity_fails_check(tmp_path, monkeypatch, capsys):
    import candyfix.cli as cli_mod

    tables = compute_tables(1)
    gap = [list(row) for row in tables.p_gap]
    gap[0][2] = Dyadic(1)  # the saturated column no longer halves the full sum
    broken = ProbTables(1, tables.p_unstable, tables.p_triple, tuple(map(tuple, gap)))
    monkeypatch.setattr(cli_mod, "compute_tables", lambda k: broken)
    assert run("enumerate", "--k", "1", "--out", str(tmp_path)) == 1
    assert "unbounded-region identity failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_manifest_marks_exploratory_parameters(tmp_path):
    assert run("simulate", "--init", "word:000", "--kappa", "4", "--trials", "1",
               "--out", str(tmp_path)) == 0
    manifest = json.loads(next(iter(tmp_path.glob("manifest-*.json"))).read_text())
    assert manifest["exploratory"] is True


def test_enumerate_k1_text_and_json(tmp_path, capsys):
    assert run("enumerate", "--k", "1", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    for token in ("1/2", "3/4", "p_unstable = 5/2^3"):
        assert token in out
    tables = tables_from_json(json.loads((tmp_path / "tables.json").read_text()))
    assert tables == compute_tables(1)
    assert (tmp_path / "tables.txt").read_text() == tables_to_text(tables)


def test_enumerate_k0_rejected(tmp_path):
    assert run("enumerate", "--k", "0", "--out", str(tmp_path)) == 2


def test_certify_k1_and_k3(tmp_path, capsys):
    assert run("certify", "--k", "1", "--out", str(tmp_path / "c1")) == 0
    out = capsys.readouterr().out
    assert "c = 5/4" in out and "CONTRACTION" not in out
    assert run("certify", "--k", "3", "--out", str(tmp_path / "c3")) == 0
    out = capsys.readouterr().out
    assert "c = 55705/49152" in out


def test_certify_reuses_tables_file(tmp_path, capsys):
    assert run("enumerate", "--k", "2", "--out", str(tmp_path)) == 0
    capsys.readouterr()
    assert run("certify", "--k", "2", "--tables", str(tmp_path / "tables.json"),
               "--out", str(tmp_path)) == 0
    assert "c = 121/96" in capsys.readouterr().out
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["c"] == "121/96" and cert["contraction"] is False


def test_sweep_beyond_62_bits_refused(tmp_path, capsys):
    # k=5 needs 65-bit numerators: refuse at once instead of an object-dtype sweep
    with pytest.raises(ValueError, match="62 bits"):
        kstep_vector(5)
    for command in ("enumerate", "certify"):
        assert run(command, "--k", "5", "--out", str(tmp_path / command)) == 2, command
        assert "62 bits" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_certify_tables_engine_mismatch_rejected(tmp_path, capsys):
    # a table for another model must not stand in for the theorem's
    assert run("enumerate", "--k", "2", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "tables.json").read_text())
    assert doc["engine"] == {"kappa": 3, "n": 2, "p": ["1/2", "1/2"]}
    doc["engine"]["kappa"] = 4
    (tmp_path / "kappa4.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("certify", "--k", "2", "--tables", str(tmp_path / "kappa4.json"),
               "--out", str(tmp_path / "c")) == 2
    captured = capsys.readouterr()
    assert '"kappa": 4' in captured.err and "c = " not in captured.out
    assert not (tmp_path / "c" / "certificate.json").exists()


def test_certify_truncated_tables_is_corrupt(tmp_path, capsys):
    assert run("enumerate", "--k", "2", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "tables.json").read_text())
    doc["pS"] = doc["pS"][:-1]
    (tmp_path / "short.json").write_text(json.dumps(doc))
    del doc["pI"]
    (tmp_path / "keyless.json").write_text(json.dumps(doc))
    capsys.readouterr()
    for name in ("short.json", "keyless.json"):
        assert run("certify", "--k", "2", "--tables", str(tmp_path / name),
                   "--out", str(tmp_path / "c")) == 3, name
        assert "corrupt tables file" in capsys.readouterr().err


UNPARSEABLE_TABLES = {
    "nested.json": "[" * 200_000,  # json.load exhausts the stack
    "digits.json": '{"k": 1' + "0" * 5_000 + "}",  # past int()'s 4,300-digit limit
}


@pytest.mark.parametrize("name", UNPARSEABLE_TABLES)
def test_certify_unparseable_tables_is_corrupt(tmp_path, capsys, name):
    (tmp_path / name).write_text(UNPARSEABLE_TABLES[name])
    assert run("certify", "--k", "1", "--tables", str(tmp_path / name),
               "--out", str(tmp_path / "c")) == 3
    captured = capsys.readouterr()
    assert "corrupt tables file" in captured.err and "c = " not in captured.out
    assert not (tmp_path / "c" / "certificate.json").exists()


@pytest.mark.parametrize("cell, value, check", [
    (("pI",), {"num": -3, "exp": 0}, "pI = -3 is not in [0, 1]"),
    (("pS", 0, 1), {"num": 1, "exp": 3}, "pS is not symmetric"),
    (("pS", 2, 2), {"num": 1, "exp": 0}, "pS[2][2] = 1, not 0"),
])
def test_certify_doctored_tables_refused(tmp_path, capsys, cell, value, check):
    # a well-formed file whose table no enumeration could produce
    assert run("enumerate", "--k", "1", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "tables.json").read_text())
    *path, last = cell
    holder = doc
    for key in path:
        holder = holder[key]
    assert holder[last] != value
    holder[last] = value
    (tmp_path / "doctored.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("certify", "--k", "1", "--tables", str(tmp_path / "doctored.json"),
               "--out", str(tmp_path / "c")) == 3
    captured = capsys.readouterr()
    assert "corrupt tables file" in captured.err and check in captured.err
    assert "c = " not in captured.out
    assert not (tmp_path / "c" / "certificate.json").exists()


@pytest.mark.parametrize("cell, value", [
    (("k",), 1.0), (("k",), "1"), (("k",), True),
    (("pI", "num"), 5.9), (("pI", "num"), "5"), (("pIII", "num"), True),
    (("pS", 0, 1, "exp"), 2.0), (("pS", 0, 1, "exp"), "2"), (("pIII", "exp"), True),
    (("pIII", "exp"), -1), (("pIII", "exp"), 6), (("pIII", "exp"), 1 << 36),
])
def test_certify_tables_numbers_checked(tmp_path, capsys, cell, value):
    # k, num and exp must be JSON integers, and exp lie in the k=1 sweep's 0..5.
    # Each non-integer reads as the field's true value under int(), so only the
    # type check refuses it; 2^36 is too big an exponent to shift by.
    assert run("enumerate", "--k", "1", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "tables.json").read_text())
    *path, last = cell
    holder = doc
    for key in path:
        holder = holder[key]
    holder[last] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("certify", "--k", "1", "--tables", str(tmp_path / "bad.json"),
               "--out", str(tmp_path / "c")) == 3
    captured = capsys.readouterr()
    assert "corrupt tables file" in captured.err and "c = " not in captured.out
    assert not (tmp_path / "c" / "certificate.json").exists()


def test_certify_unreadable_tables_path(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing.json"):
        assert run("certify", "--k", "1", "--tables", str(path),
                   "--out", str(tmp_path / "c")) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "c = " not in captured.out
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--init", "word:0101"),
    ("enumerate", "--k", "1"),
    ("certify", "--k", "1"),
    ("crosscheck", "--k", "1", "--samples", "10", "--windows", "1"),
])
def test_out_path_that_is_a_file(tmp_path, capsys, argv):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert run(*argv, "--out", str(blocker)) == 2
    assert "error: " in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_certify_inconsistent_tables_refused(tmp_path, capsys, monkeypatch):
    # tables that break the unbounded-region identity never reach a certificate
    import candyfix.engine as engine_mod

    good = compute_tables(1)
    gap = [list(row) for row in good.p_gap]
    gap[0][2] = Dyadic(1)
    bad = ProbTables(1, good.p_unstable, good.p_triple, tuple(map(tuple, gap)))
    monkeypatch.setattr(engine_mod, "compute_tables", lambda k: bad)
    assert run("certify", "--k", "1", "--out", str(tmp_path)) == 1  # a check failure
    assert "unbounded-region identity" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def test_engine_commands_take_no_threads(tmp_path):
    # enumerate and certify compute the theorem model only; no flag selects another
    for command in ("enumerate", "certify"):
        for flag, value in (("--threads", "2"), ("--kappa", "4"), ("--n", "3"),
                            ("--p", "1/2,1/2")):
            assert run(command, "--k", "1", flag, value,
                       "--out", str(tmp_path)) == 2, (command, flag)
    assert not list(tmp_path.iterdir())


def test_crosscheck_small_pass(tmp_path, capsys):
    code = run("crosscheck", "--k", "1", "--windows", "12", "--samples", "20000",
               "--seed", "2", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "crosscheck.json").read_text())
    assert report["failures"] == 0
    assert len(report["checks"]) == 12


def test_crosscheck_manifest_timings(tmp_path):
    # the forward program's and the estimator's seconds, summed over windows,
    # sit in the manifest beside the run's own wall time
    assert run("crosscheck", "--k", "2", "--windows", "3", "--samples", "2000",
               "--out", str(tmp_path)) == 0
    path, = tmp_path.glob("manifest-*.json")
    manifest = json.loads(path.read_text())
    timings = manifest["timings"]
    assert sorted(timings) == ["estimate_s", "forward_s"]
    assert min(timings.values()) >= 0
    assert sum(timings.values()) <= manifest["seconds"]
    assert "timings" not in json.loads((tmp_path / "crosscheck.json").read_text())


def test_crosscheck_seed_range(tmp_path, capsys):
    # the seed keys Philox, which takes 0 .. 2^64 - 1; outside that the run
    # stops with a usage error before any work or output
    for seed in (-1, 1 << 64):
        assert run("crosscheck", "--k", "1", "--windows", "2", "--samples", "100",
                   "--seed", str(seed), "--out", str(tmp_path)) == 2, seed
        err = capsys.readouterr().err
        assert "--seed must lie in [0, 2^64)" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
    assert run("crosscheck", "--k", "1", "--windows", "2", "--samples", "100",
               "--seed", str((1 << 64) - 1), "--out", str(tmp_path)) == 0
    assert (tmp_path / "crosscheck.json").exists()


def test_simulate_seed_range(tmp_path, capsys):
    # the stream key reduces the seed mod 2^64, so a seed outside [0, 2^64)
    # would repeat another seed's trajectories under a different manifest id
    for seed in (-1, 1 << 64):
        assert run("simulate", "--init", "block", "--M", "5", "--trials", "3",
                   "--seed", str(seed), "--out", str(tmp_path)) == 2, seed
        err = capsys.readouterr().err
        assert "--seed must lie in [0, 2^64)" in err and "Traceback" not in err
        assert not (tmp_path / "trajectories.jsonl").exists()
    assert run("simulate", "--init", "block", "--M", "5", "--trials", "3",
               "--seed", str((1 << 64) - 1), "--out", str(tmp_path)) == 0
    assert (tmp_path / "trajectories.jsonl").exists()


def test_crosscheck_default_window_count(tmp_path):
    assert run("crosscheck", "--k", "1", "--samples", "1000",
               "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "crosscheck.json").read_text())
    assert len(report["checks"]) == 24


def test_crosscheck_window_count_must_be_positive(tmp_path):
    for value in ("all", "0"):
        assert run("crosscheck", "--k", "1", "--windows", value, "--samples", "10",
                   "--out", str(tmp_path)) == 2, value
    assert not (tmp_path / "crosscheck.json").exists()


def test_crosscheck_zero_samples_rejected(tmp_path):
    assert run("crosscheck", "--k", "1", "--samples", "0",
               "--out", str(tmp_path)) == 2


def test_crosscheck_k_beyond_estimator_word_refused(tmp_path, capsys):
    # k=6 windows have 29 sites, more than the estimator's words hold; the
    # refusal comes before any exact or Monte Carlo work
    assert run("crosscheck", "--k", "6", "--windows", "1", "--samples", "10",
               "--out", str(tmp_path)) == 2
    assert "29-site windows" in capsys.readouterr().err
    assert not (tmp_path / "crosscheck.json").exists()


def test_crosscheck_rejects_engine_flags(tmp_path):
    # crosscheck runs the theorem engine only; a law flag must not pass silently
    for flag, value in (("--kappa", "4"), ("--n", "3"), ("--p", "1/2,1/2"),
                        ("--threads", "2")):
        assert run("crosscheck", "--k", "1", flag, value, "--windows", "1",
                   "--samples", "10", "--out", str(tmp_path)) == 2, flag
    assert not (tmp_path / "crosscheck.json").exists()


def test_crosscheck_detects_breach(tmp_path, monkeypatch, capsys):
    # force a wrong exact value: every window must now breach the tolerance
    import candyfix.cli as cli_mod
    from candyfix.montecarlo import WindowCheck

    def broken(window, k, trials, seed=0):
        return WindowCheck(0.5, 0.0, 0.001, False, 0.0, 0.0)

    monkeypatch.setattr(cli_mod, "check_window_estimate", broken)
    code = run("crosscheck", "--k", "1", "--windows", "3", "--samples", "10",
               "--out", str(tmp_path))
    assert code == 1
    assert "BREACH" in capsys.readouterr().out


# sha256 of crosscheck.json: the exact values, every estimated frequency to
# the last digit and the manifest id; any change to the estimator's stream
# layout, its classifier or the forward program's arithmetic shows here
PINNED_CROSSCHECKS = (
    (("--k", "2", "--samples", "20000", "--windows", "6", "--seed", "3"),
     "283553118b2d4a40e7d73b2d01b90837ee24afd5b4443db6024089438dcf4359"),
    (("--k", "4", "--samples", "5000", "--windows", "3", "--seed", "0"),
     "3bd1c07641d33dfdacbec7c58949d796c1dff351d03acf47ca9941454add2961"),
)


def test_crosscheck_outputs_pinned(tmp_path):
    for i, (args, digest) in enumerate(PINNED_CROSSCHECKS):
        out = tmp_path / str(i)
        assert run("crosscheck", *args, "--out", str(out)) == 0, args
        data = (out / "crosscheck.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, args


def test_probe_window(capsys):
    assert run("probe", "--k", "1", "110001011") == 0
    assert "3/2^3" in capsys.readouterr().out


def test_probe_window_width_bounded(capsys):
    # the forward program holds two dense buffers of 2^(sites-4) entries, so a
    # window beyond the 25-site limit is refused before anything is allocated
    assert run("probe", "--k", "1", "001011001110011001110010110") == 2
    err = capsys.readouterr().err
    assert "window has 27 sites; the limit is 25" in err and "Traceback" not in err
    assert run("probe", "--k", "4", "0010110011100110011100101") == 0
    assert capsys.readouterr().out == "2181245/2^23 = 2181245/8388608\n"


def test_probe_k5_all_zero(capsys):
    # at k=5 the all-0 window's forward mass reaches 2^65 at its last step, so
    # that step runs on Python ints and must still give the exact value
    assert run("probe", "--k", "5", "0" * 25) == 0
    assert capsys.readouterr().out == (
        "570543725928283/2^52 = 570543725928283/4503599627370496\n")


def test_probe_step_count_must_be_positive(capsys):
    for k in ("0", "-1"):
        assert run("probe", "--k", k, "110001011") == 2, k
        assert "--k must be >= 1" in capsys.readouterr().err


def test_unknown_init_rejected(tmp_path):
    assert run("simulate", "--init", "nonsense", "--out", str(tmp_path)) == 2


def test_simulate_word_colors_out_of_range(tmp_path, capsys):
    for boundary in ("stable-exterior", "frozen", "periodic"):
        assert run("simulate", "--init", "word:0102", "--boundary", boundary,
                   "--out", str(tmp_path)) == 2, boundary
        assert "colors must lie in [0, 2)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_takes_no_threads(tmp_path):
    # trials run in one loop; no flag selects a worker pool
    assert run("simulate", "--threads", "2", "--out", str(tmp_path)) == 2
    assert not list(tmp_path.iterdir())


def test_missing_subcommand_is_usage_error():
    assert run() == 2
