"""The fuzz CLI's cross-strategy check under a step limit.

HLO changes how many steps a program takes, so with a small
``--max-steps`` the unoptimized and the transformed program run out of
steps at unrelated points (or only one of them does).  That is not a
semantic divergence; the engine-vs-reference check inside each strategy
still applies.
"""

from __future__ import annotations

from repro.interp.fuzz import _semantics_differ, fuzz_one, main


def test_step_limit_outcomes_are_not_compared_across_strategies():
    ran_out = ("steplimit", "step limit 300 exceeded at @main:il2[1]")
    elsewhere = ("steplimit", "step limit 300 exceeded at @f6$mod0:if.join7[6]")
    finished = ("result", 0, (1, 2), 270, 37, {})
    assert not _semantics_differ(ran_out, elsewhere)
    assert not _semantics_differ(finished, ran_out)
    assert not _semantics_differ(ran_out, finished)


def test_real_divergences_still_reported():
    assert _semantics_differ(("result", 0, (1,), 5, 0, {}), ("result", 0, (2,), 5, 0, {}))
    assert _semantics_differ(("execerror", "boom"), ("result", 0, (), 5, 0, {}))
    assert not _semantics_differ(("result", 0, (1,), 5, 0, {}), ("result", 0, (1,), 9, 3, {}))


def test_step_limited_strategies_fuzz_clean():
    # Seeds 1, 2, 4 and 5 were reported as failures at --max-steps 300.
    for seed in (1, 2, 4, 5):
        failures = fuzz_one(
            seed, ["fast", "codegen"], ["none", "pa8000"], max_steps=300,
            strategies=("none", "global", "demand"),
        )
        assert not failures, failures[0]


def test_cli_step_limited_pa8000_slice(capsys):
    assert main(["--seeds", "5", "--sinks", "pa8000", "--strategies", "none",
                 "--max-steps", "300"]) == 0
    assert "0 failure(s)" in capsys.readouterr().out
