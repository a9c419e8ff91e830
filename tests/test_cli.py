import hashlib
import json

import numpy as np
import pytest

from candyfix import __version__
from candyfix.cli import main
from candyfix.dyadic import Dyadic
from candyfix.engine import ProbTables, compute_tables, kstep_values, kstep_vector
from candyfix.lattice import DRAW_FORMAT
from candyfix.montecarlo import COIN_STREAM_FORMAT
from candyfix.render import tables_to_json, tables_to_text


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
    code = run("simulate", "--p", "0.3,0.3,0.3", "--out", str(tmp_path))
    assert code == 2
    assert "must sum to 1" in capsys.readouterr().err


def test_simulate_law_ending_in_zeros(tmp_path, capsys):
    # a cumulative of exactly 1 before the last color gives no cut of 2^64
    for i, argv in enumerate((("--init", "word:000111", "--p", "1,0", "--t-max", "50"),
                              ("--p", "1/2,1/2,0"))):
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
# __version__ or DRAW_FORMAT, which the manifest id in every trajectory line
# hashes (draw format 4: a law other than the fair coin reads one whole raw
# word per draw; the block, the word and the 2-D box keep format 3's draws,
# so only the run id in their trajectory lines changed with it, and the
# kappa=4 1/4,1/4,1/2 box is the one pin whose draws, and aggregate, changed)
PINNED_SIMULATIONS = (
    (("--init", "block", "--M", "6", "--trials", "25", "--seed", "3"),
     "68eddca69da9e8e69bbc27f5b25fa5bd5f811cc5e30e96013ea04a0458822f2e",
     "617321a14bcacfbc9d065a0ff037ae45e5bbe44e9a2949143b06ee6b56948e46"),
    (("--init", "word:0001100011000111", "--boundary", "frozen", "--trials", "30",
      "--seed", "4"),
     "074aaf42eef643bf760248575b751c477dda2d09e6129a2e8c458e17916d327d",
     "1729e85c9ed3e4ced87128bd8676954e983c99bb945d359c381ca22cde1ad607"),
    (("--init", "box", "--extent", "7,9", "--boundary", "periodic",
      "--trials", "3", "--t-max", "400", "--seed", "1"),
     "b26513297961bca42ae24dcc6068aaa9403842f14e0b23c67beefe3f28c9c628",
     "8172cc3ea107210fc61137deeb78651c20ede9c0579c14bb558274b566767e76"),
    (("--kappa", "4", "--p", "1/4,1/4,1/2", "--init", "box",
      "--extent", "41", "--trials", "5"),
     "1b8f4fc10caf95113f80e85db523a1e4a9ad9e1128c050c48bc9ffdd5de949f5",
     "f517091d655d5f849928027522c4b1177df65546348629bd566904ca73f22638"),
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
    assert run("certify", "--k", "2", "--out", str(tmp_path / "c")) == 0
    expect = {"e": ("tables.json", ["unbounded-sum-identity"]),
              "c": ("certificate.json", ["unbounded-sum-identity"])}
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
    manifest, = tmp_path.glob("manifest-*.json")
    tables = compute_tables(1)
    assert json.loads((tmp_path / "tables.json").read_text()) == {
        "manifest": manifest.stem.removeprefix("manifest-"), **tables_to_json(tables)}
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


def test_sweep_beyond_k5_refused(tmp_path, capsys, monkeypatch):
    # level 6 would sum 2^25 values of g_5 (63 bits): every sweep entry point
    # refuses k=6 by its argument, before any level runs or any output exists
    import candyfix.engine as engine_mod

    monkeypatch.setattr(engine_mod, "_backward_level",
                        lambda *args: pytest.fail("a sweep level ran"))
    for call in (lambda: kstep_vector(6), lambda: kstep_values([0], 6),
                 lambda: compute_tables(6)):
        with pytest.raises(ValueError, match="k <= 5"):
            call()
    for command in ("enumerate", "certify"):  # crosscheck: the test below
        assert run(command, "--k", "6", "--out", str(tmp_path / command)) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k <= 5" in err, command
        assert not (tmp_path / command).exists()


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
    # enumerate and certify compute the theorem model only; no flag selects
    # another, and certify computes the tables it certifies rather than read them
    for command in ("enumerate", "certify"):
        for flag, value in (("--threads", "2"), ("--kappa", "4"), ("--n", "3"),
                            ("--p", "1/2,1/2"), ("--tables", "tables.json")):
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
    # the seconds of the exact values (one top level over all windows) and of
    # the estimator (summed over windows) sit in the manifest beside the run's
    # own wall time; the parameters name the coin-stream format, so two
    # formats never share a run id
    assert run("crosscheck", "--k", "2", "--windows", "3", "--samples", "2000",
               "--out", str(tmp_path)) == 0
    path, = tmp_path.glob("manifest-*.json")
    manifest = json.loads(path.read_text())
    assert COIN_STREAM_FORMAT == 3
    assert manifest["parameters"] == {"k": 2, "samples": 2000, "windows": 3, "seed": 0,
                                      "coin_stream_format": 3}
    timings = manifest["timings"]
    assert sorted(timings) == ["estimate_s", "exact_s"]
    assert min(timings.values()) >= 0
    assert sum(timings.values()) <= manifest["seconds"]
    assert "timings" not in json.loads((tmp_path / "crosscheck.json").read_text())


def test_simulate_manifest_names_draw_format(tmp_path, monkeypatch):
    # the parameters name the draw format, so two formats never share a run id
    import candyfix.cli as cli_mod

    args = ("simulate", "--init", "word:000", "--trials", "2", "--seed", "1")
    assert run(*args, "--out", str(tmp_path / "now")) == 0
    path, = (tmp_path / "now").glob("manifest-*.json")
    manifest = json.loads(path.read_text())
    assert DRAW_FORMAT == 4
    assert manifest["parameters"]["draw_format"] == 4
    monkeypatch.setattr(cli_mod, "DRAW_FORMAT", 3)
    assert run(*args, "--out", str(tmp_path / "old")) == 0
    old, = (tmp_path / "old").glob("manifest-*.json")
    assert json.loads(old.read_text())["run_id"] != manifest["run_id"]


def test_simulate_manifest_timings(tmp_path):
    # the trajectories' and the writes' seconds sit in the manifest beside
    # the update steps summed over trials, outside the parameters, so they
    # leave the run id alone
    args = ("simulate", "--init", "block", "--M", "20", "--trials", "3", "--seed", "2")
    for out in ("a", "b"):
        assert run(*args, "--out", str(tmp_path / out)) == 0
    manifests = [json.loads(next((tmp_path / out).glob("manifest-*.json")).read_text())
                 for out in ("a", "b")]
    assert manifests[0]["run_id"] == manifests[1]["run_id"]
    for manifest in manifests:
        timings = manifest["timings"]
        assert sorted(timings) == ["trajectories_s", "write_s"]
        assert min(timings.values()) >= 0
        assert sum(timings.values()) <= manifest["seconds"]
        assert "timings" not in manifest["parameters"]
        lines = (tmp_path / "a" / "trajectories.jsonl").read_text().splitlines()
        assert manifest["steps"] == sum(len(json.loads(line)["I"]) - 1 for line in lines)
        assert manifest["steps"] > 0


def test_simulate_manifest_records_derived_settings(tmp_path):
    # the run id hashes "d" and "n", now derived from the initial condition
    # and the law, and "M" and "extent", whose defaults stand in when the
    # initial condition reads neither; so every earlier run id stays valid
    cases = (
        (("--init", "box", "--extent", "7,9", "--boundary", "periodic"),
         {"d": 2, "n": 2, "M": 10, "extent": "7,9"}),
        (("--p", "1/4,1/4,1/2"), {"d": 1, "n": 3, "M": 10, "extent": "21"}),
        (("--init", "block", "--M", "10"), {"d": 1, "n": 2, "M": 10, "extent": "21"}),
    )
    for i, (argv, expect) in enumerate(cases):
        assert run("simulate", *argv, "--t-max", "3", "--out", str(tmp_path / str(i))) == 0
        path, = (tmp_path / str(i)).glob("manifest-*.json")
        parameters = json.loads(path.read_text())["parameters"]
        assert {key: parameters[key] for key in expect} == expect, argv
    # the default block and one that states --M 10 are the same run
    assert run("simulate", "--t-max", "3", "--out", str(tmp_path / "default")) == 0
    names = [[p.name for p in (tmp_path / sub).glob("manifest-*.json")]
             for sub in ("2", "default")]
    assert names[0] == names[1]


def test_simulate_refuses_an_init_parameter_it_never_reads(tmp_path, capsys):
    # --M sizes only a block and --extent only a box; anywhere else either
    # would change the run id and not one trajectory
    for argv, flag in ((("--init", "word:0001100011", "--M", "50"), "--M"),
                       (("--init", "box", "--M", "5"), "--M"),
                       (("--init", "word:0001100011", "--extent", "9,9"), "--extent"),
                       (("--init", "block", "--extent", "9"), "--extent")):
        assert run("simulate", *argv, "--out", str(tmp_path)) == 2, argv
        err = capsys.readouterr().err
        assert f"{flag} applies only to --init" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (("--init", "word:"), "explicit word must be nonempty"),
    (("--init", "block", "--M", "-1"), "block half-width must be >= 0, got -1"),
    (("--t-max", "0"), "t_max must be >= 1, got 0"),
    (("--p=-1/2,3/2",), "recolor_dist entries must be nonnegative"),
    (("--p", "1/0,1"), "--p entry '1/0' has a zero denominator"),
    (("--init", "box", "--boundary", "frozen", "--extent", ",".join(["1"] * 65)),
     "a box has at most 64 extents, got 65"),
])
def test_simulate_argument_guards(tmp_path, capsys, argv, message):
    # each guard stops the run with a usage error before any output
    assert run("simulate", *argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_empty_table_cell_is_a_check_failure(tmp_path, monkeypatch, capsys):
    # every site unstable: no window has a stable origin, so every gap cell is
    # empty, which is the engine's fault; both commands fail the check and
    # write nothing
    import candyfix.engine as engine_mod

    monkeypatch.setattr(engine_mod, "unstable_bits",
                        lambda words, length: np.full_like(words, (1 << length) - 1))
    for command in ("enumerate", "certify"):
        assert run(command, "--k", "1", "--out", str(tmp_path / command)) == 1, command
        err = capsys.readouterr().err
        assert "stable-gap" in err and "Traceback" not in err
        assert not (tmp_path / command).exists()


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


def test_crosscheck_k_beyond_sweep_refused(tmp_path, capsys, monkeypatch):
    # the exact values at k=6 would sum g_5 over 2^25 values, 88 bits; the
    # refusal comes before any exact or Monte Carlo work
    import candyfix.cli as cli_mod
    import candyfix.engine as engine_mod

    monkeypatch.setattr(engine_mod, "_backward_level",
                        lambda *args: pytest.fail("a sweep level ran"))
    monkeypatch.setattr(cli_mod, "estimate_kstep_prob",
                        lambda *args, **kwargs: pytest.fail("the estimator ran"))
    assert run("crosscheck", "--k", "6", "--windows", "1", "--samples", "10",
               "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: k=6 is beyond the exact sweep (k <= 5): level 6 would sum 2^25 "
        "values of g_5, whose maximum has 63 bits\n") and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_crosscheck_refuses_sums_beyond_64_bits(tmp_path, monkeypatch, capsys):
    # a g_4 of 44 bits would overflow the top level's uint64 sums at k=5 (2^21
    # values each): kstep_values raises, and the run stops before the
    # estimator and writes nothing
    import candyfix.engine as engine_mod

    wide = np.zeros(1 << 21, dtype=np.int64)
    wide[0] = 1 << 43
    monkeypatch.setattr(engine_mod, "kstep_vector",
                        lambda k: (wide, engine_mod.sweep_exponent(k)))
    with pytest.raises(ValueError, match="44 bits"):
        engine_mod.kstep_values([0], 5)
    out = tmp_path / "out"
    assert run("crosscheck", "--k", "5", "--windows", "2", "--samples", "10",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "44 bits" in err and "Traceback" not in err
    assert not out.exists()


def test_crosscheck_step_count_must_be_positive(tmp_path, capsys):
    assert run("crosscheck", "--k", "0", "--windows", "1", "--samples", "10",
               "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: step count must be >= 1, got 0\n" and captured.out == ""
    assert not list(tmp_path.iterdir())


def test_crosscheck_rejects_engine_flags(tmp_path):
    # crosscheck runs the theorem engine only; a law flag must not pass silently
    for flag, value in (("--kappa", "4"), ("--n", "3"), ("--p", "1/2,1/2"),
                        ("--threads", "2")):
        assert run("crosscheck", "--k", "1", flag, value, "--windows", "1",
                   "--samples", "10", "--out", str(tmp_path)) == 2, flag
    assert not (tmp_path / "crosscheck.json").exists()


def test_crosscheck_detects_breach(tmp_path, monkeypatch, capsys):
    # force a wrong exact value of 1: its tolerance is zero, so every window
    # whose estimate is not exactly 1 breaches under the real 4-SE rule
    import candyfix.cli as cli_mod

    monkeypatch.setattr(cli_mod, "kstep_values", lambda words, k: [Dyadic(1)] * len(words))
    code = run("crosscheck", "--k", "1", "--windows", "3", "--samples", "10",
               "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().out.count("BREACH") == 3


# sha256 of crosscheck.json: the exact values, every estimated frequency to
# the last digit and the manifest id; any change to the estimator's stream
# layout (coin-stream format 3: lane-major raw words, one per lane and
# resolved site), its classifier or the sweep's top-level arithmetic shows here
PINNED_CROSSCHECKS = (
    (("--k", "2", "--samples", "20000", "--windows", "6", "--seed", "3"),
     "fc3960836a070e8fb4345e1709451fed039a3a7dcc6985edad982deb1b88d0bd"),
    (("--k", "4", "--samples", "5000", "--windows", "3", "--seed", "0"),
     "5d40a1cd5c79cea7f8773f9af0257f95bee272ffcfb34722d1af401701b14ad2"),
)


def test_crosscheck_outputs_pinned(tmp_path):
    for i, (args, digest) in enumerate(PINNED_CROSSCHECKS):
        out = tmp_path / str(i)
        assert run("crosscheck", *args, "--out", str(out)) == 0, args
        data = (out / "crosscheck.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, args


def test_output_directory_defaults_to_runs(tmp_path, monkeypatch, capsys):
    # --out is the only way to move the output; no environment variable does
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CANDYFIX_OUT", str(tmp_path / "elsewhere"))
    assert run("simulate", "--init", "word:0101") == 0
    assert (tmp_path / "runs" / "trajectories.jsonl").exists()
    assert not (tmp_path / "elsewhere").exists()
    assert "results in runs" in capsys.readouterr().out


def test_probe_window(capsys):
    assert run("probe", "--k", "1", "110001011") == 0
    assert "3/2^3" in capsys.readouterr().out


def test_probe_window_width_bounded(capsys):
    # the forward program's support can reach 2^(sites-4) words, so a window
    # beyond the 25-site limit is refused before anything is allocated
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
        assert capsys.readouterr().err == f"error: step count must be >= 1, got {k}\n"


@pytest.mark.parametrize("argv, message", [
    (("--k", "1", "1100010110"), "window must be an odd-length binary word"),
    (("--k", "1", "110002011"), "window must be an odd-length binary word"),
    (("--k", "2", "110001011"), "window radius 4 too small for k=2"),
])
def test_probe_window_refused(capsys, argv, message):
    assert run("probe", *argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_unknown_init_rejected(tmp_path):
    assert run("simulate", "--init", "nonsense", "--out", str(tmp_path)) == 2


def test_simulate_word_colors_out_of_range(tmp_path, capsys):
    for boundary in ("stable-exterior", "frozen", "periodic"):
        assert run("simulate", "--init", "word:0102", "--boundary", boundary,
                   "--out", str(tmp_path)) == 2, boundary
        assert "colors must lie in [0, 2)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_takes_no_threads(tmp_path):
    # trials run in one loop, so no flag selects a worker pool; the initial
    # condition fixes the dimension and --p the color count, so no flag
    # repeats either
    for flag, value in (("--threads", "2"), ("--d", "2"), ("--n", "3")):
        assert run("simulate", flag, value, "--out", str(tmp_path)) == 2, flag
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, target", [
    (("simulate", "--init", "word:0101"), "run_experiment"),
    (("enumerate", "--k", "1"), "compute_tables"),
    (("certify", "--k", "1"), "certify"),
    (("crosscheck", "--k", "1", "--samples", "10", "--windows", "1"), "kstep_values"),
    (("probe", "000000000"), "kstep_prob"),
])
@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 128. GiB", "error: Unable to allocate 128. GiB"),
    ("", "error: out of memory"),
])
def test_out_of_memory_is_an_exit_code(tmp_path, monkeypatch, capsys, argv, target,
                                       message, shown):
    # raised, never allocated: a run too large for the machine is refused with
    # the usage code and one line, as a 2^34-site box would be
    import candyfix.cli as cli_mod

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli_mod, target, exhausted)
    out = ("--out", str(tmp_path)) if argv[0] != "probe" else ()
    assert run(*argv, *out) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [shown], err


def test_missing_subcommand_is_usage_error():
    assert run() == 2
