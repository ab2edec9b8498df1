import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellfoundry import cli
from bellfoundry.cli import (
    CONFIG_DEFAULTS,
    MAX_GRID,
    MAX_THREADS,
    MAX_TRIALS,
    OPTIMAL_AXES,
    VERIFY_SUITES,
    Check,
    UsageError,
    build_parser,
    load_config,
    main,
    run_scan,
    run_simulate,
    run_verify,
)
from bellfoundry.engine import MODELS, run_counts, run_pair_counts
from bellfoundry.geometry import Axis, empirical_expectation
from bellfoundry.rng import BATCH_SIZE, check_key


# Exact stdout by seed; any change to a printed value must update these.
GOLDEN_VERIFY_ALL = {
    1: """\
check=chsh.sign_lhv_mc_grid status=pass value=0.5 bound=0.5 margin=0
check=chsh.vertex_joint_distributions status=pass value=0.5 bound=0.5 margin=0
check=chsh.singlet_violation status=pass value=0.707106781187 bound=0.707106781187 margin=1.11022302463e-16
check=wigner.deterministic_holds status=pass value=1.35308431126e-16 bound=1e-12 margin=9.99864691569e-13
check=wigner.quantum_violates status=pass value=0.5 bound=0.707106781187 margin=0.207106781187
check=tsirelson.grid_max_norm status=pass value=0.707106781187 bound=0.707106781187 margin=0
check=identity.max_residual status=pass value=1.38777878078e-16 bound=1e-12 margin=9.99861222122e-13
check=stochastic_defect.deterministic_model status=pass value=0 bound=0 margin=0
check=stochastic_defect.constant_half_model status=pass value=0.5 bound=0.5 margin=0
suite=all overall=pass
""",
    7: """\
check=chsh.sign_lhv_mc_grid status=pass value=0.5 bound=0.5 margin=0
check=chsh.vertex_joint_distributions status=pass value=0.5 bound=0.5 margin=0
check=chsh.singlet_violation status=pass value=0.707106781187 bound=0.707106781187 margin=1.11022302463e-16
check=wigner.deterministic_holds status=pass value=1.38777878078e-16 bound=1e-12 margin=9.99861222122e-13
check=wigner.quantum_violates status=pass value=0.5 bound=0.707106781187 margin=0.207106781187
check=tsirelson.grid_max_norm status=pass value=0.707106781187 bound=0.707106781187 margin=0
check=identity.max_residual status=pass value=1.66533453694e-16 bound=1e-12 margin=9.99833466546e-13
check=stochastic_defect.deterministic_model status=pass value=0 bound=0 margin=0
check=stochastic_defect.constant_half_model status=pass value=0.5 bound=0.5 margin=0
suite=all overall=pass
""",
    90210: """\
check=chsh.sign_lhv_mc_grid status=pass value=0.5 bound=0.5 margin=0
check=chsh.vertex_joint_distributions status=pass value=0.5 bound=0.5 margin=0
check=chsh.singlet_violation status=pass value=0.707106781187 bound=0.707106781187 margin=1.11022302463e-16
check=wigner.deterministic_holds status=pass value=1.28369537222e-16 bound=1e-12 margin=9.99871630463e-13
check=wigner.quantum_violates status=pass value=0.5 bound=0.707106781187 margin=0.207106781187
check=tsirelson.grid_max_norm status=pass value=0.707106781187 bound=0.707106781187 margin=0
check=identity.max_residual status=pass value=1.38777878078e-16 bound=1e-12 margin=9.99861222122e-13
check=stochastic_defect.deterministic_model status=pass value=0 bound=0 margin=0
check=stochastic_defect.constant_half_model status=pass value=0.5 bound=0.5 margin=0
suite=all overall=pass
""",
}

GOLDEN_ORACLE = {
    1: """\
oracle=singlet_expectation_pi_over_4 value=-0.17677669529663687
oracle=chsh_operator_norm_numpy value=0.7071067811865475
oracle=wigner_overlap_quadrature_pi_over_2 value=0.25
oracle=sign_model_quadrature_d=1.570796 value=0.0
oracle=sign_model_quadrature_d=0.785398 value=-0.125
oracle=hemi_average_quadrature_pi_over_3 value=0.4999999999999964
oracle=vertex_joint_chsh_max value=0.5
oracle=dirichlet_joint_chsh_max value=0.40764779257865924
""",
    7: """\
oracle=singlet_expectation_pi_over_4 value=-0.17677669529663687
oracle=chsh_operator_norm_numpy value=0.7071067811865475
oracle=wigner_overlap_quadrature_pi_over_2 value=0.25
oracle=sign_model_quadrature_d=1.570796 value=0.0
oracle=sign_model_quadrature_d=0.785398 value=-0.125
oracle=hemi_average_quadrature_pi_over_3 value=0.4999999999999964
oracle=vertex_joint_chsh_max value=0.5
oracle=dirichlet_joint_chsh_max value=0.426229903004136
""",
    90210: """\
oracle=singlet_expectation_pi_over_4 value=-0.17677669529663687
oracle=chsh_operator_norm_numpy value=0.7071067811865475
oracle=wigner_overlap_quadrature_pi_over_2 value=0.25
oracle=sign_model_quadrature_d=1.570796 value=0.0
oracle=sign_model_quadrature_d=0.785398 value=-0.125
oracle=hemi_average_quadrature_pi_over_3 value=0.4999999999999964
oracle=vertex_joint_chsh_max value=0.5
oracle=dirichlet_joint_chsh_max value=0.4008609366538811
""",
}

# Exact `scan` stdout by (model, grid): pins the printed best_axes as well as the value.
GOLDEN_SCAN = {
    ("quantum", 2): (
        "model=quantum best_axes=(0.0, 0.0, 0.0, 0.0)"
        " sign=+ chsh=0.5000000000 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("quantum", 7): (
        "model=quantum best_axes=(0.0, 1.7951958021, 0.897597901, 2.6927937031)"
        " sign=+ chsh=0.6928595684 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("quantum", 16): (
        "model=quantum best_axes=(0.0, 1.5707963268, 0.7853981634, 2.3561944902)"
        " sign=+ chsh=0.7071067812 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("quantum", 64): (
        "model=quantum best_axes=(0.0, 1.5707963268, 0.7853981634, 2.3561944902)"
        " sign=+ chsh=0.7071067812 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("sign-lhv", 2): (
        "model=sign-lhv best_axes=(0.0, 0.0, 0.0, 0.0)"
        " sign=+ chsh=0.5000000000 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("sign-lhv", 7): (
        "model=sign-lhv best_axes=(0.0, 0.0, 0.0, 0.0)"
        " sign=+ chsh=0.5000000000 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("sign-lhv", 16): (
        "model=sign-lhv best_axes=(0.0, 0.3926990817, 3.1415926536, 5.1050880621)"
        " sign=+ chsh=0.5000000000 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("sign-lhv", 64): (
        "model=sign-lhv best_axes=(0.0, 0.687223393, 3.239767424, 5.1050880621)"
        " sign=+ chsh=0.5000000000 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("model1", 2): (
        "model=model1 best_axes=(0.0, 0.0, 0.0, 0.0)"
        " sign=+ chsh=0.5000000000 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("model1", 7): (
        "model=model1 best_axes=(0.0, 1.7951958021, 0.897597901, 2.6927937031)"
        " sign=+ chsh=0.6928595684 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("model1", 16): (
        "model=model1 best_axes=(0.0, 1.5707963268, 0.7853981634, 2.3561944902)"
        " sign=+ chsh=0.7071067812 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("model1", 64): (
        "model=model1 best_axes=(0.0, 1.5707963268, 0.7853981634, 2.3561944902)"
        " sign=+ chsh=0.7071067812 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("model2", 2): (
        "model=model2 best_axes=(0.0, 0.0, 0.0, 0.0)"
        " sign=+ chsh=0.5000000000 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("model2", 7): (
        "model=model2 best_axes=(0.0, 1.7951958021, 0.897597901, 2.6927937031)"
        " sign=+ chsh=0.6928595684 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("model2", 16): (
        "model=model2 best_axes=(0.0, 1.5707963268, 0.7853981634, 2.3561944902)"
        " sign=+ chsh=0.7071067812 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("model2", 64): (
        "model=model2 best_axes=(0.0, 1.5707963268, 0.7853981634, 2.3561944902)"
        " sign=+ chsh=0.7071067812 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
    ("quantum", 192): (
        "model=quantum best_axes=(0.0, 4.7123889804, 3.926990817, 5.4977871438)"
        " sign=+ chsh=0.7071067812 bell_bound=0.5 tsirelson_bound=0.7071067812\n"
    ),
}

# sha256 of the three simulate files for GOLDEN_REPORT_CONFIG at threads 1
# and 2.  The trial count leaves a ragged last batch (2 full + 17).  Any
# change to a drawn number or to the report format must update these.
GOLDEN_REPORT_CONFIG = {
    "axes": [list(OPTIMAL_AXES), [0.3, 5.9, 1.1, 4.2]],
    "trials": 2 * 65536 + 17,
    "seed": 20261018,
}

GOLDEN_REPORT_SHA256 = {
    "quantum": (
        "5a861bb6e5d0dbd7ac727fe3af8f8862f070c8d648ab6f679d0de6bfa0cc917a",
        "8ae518211e3280501a85b7bbe32e08033d7bb3e99534aee551ee8197d9bcc743",
        "f71999a042f2b27c46bb71fdec0781b640475ab3f2c70b280121c0344cb008d6",
    ),
    "sign-lhv": (
        "e5b992e9bcef9b460e36e7c1c5939cf4fd891805b34fb90925348e104b55fb14",
        "8f5a9c8ad8acee9029630f00519c775f65c6d4fb5df6951c898b5ce1cdbc7779",
        "cc7e31a18d2f4e119de0cb1801cb27445f32f6b2e1ed39d71febc4b9109ee701",
    ),
    "model1": (
        "f14a56692de03849536c9c9f0b8e9335a18ff0854aa439b23d1ff6598a75f406",
        "3515580ac76a1cc5ec36607ccaeed5c6bda5ee4b7e2330a47409f8502ca06600",
        "944d78c1228ac7fb6d0ebfb17751c6d8e31f9670a28685061ca58144648252c8",
    ),
    "model2": (
        "f14a56692de03849536c9c9f0b8e9335a18ff0854aa439b23d1ff6598a75f406",
        "3515580ac76a1cc5ec36607ccaeed5c6bda5ee4b7e2330a47409f8502ca06600",
        "2a4c2b57e2487b6a40918d955ec99ef5fcfc4c42ea05cde96f2ce1f572d9a1b3",
    ),
}

# One trial per pair leaves every pair's std error NaN, and so the CHSH
# std error: "nan" in the summary CSV, null in the JSON, and the flag is
# "undetermined".  Integer axes are written as given.
GOLDEN_SINGLE_TRIAL_CONFIG = {
    "axes": [[0, 1, 2, 3], [0.3, 5.9, 1.1, 4.2]],
    "trials": 1,
    "seed": 20261018,
    "sign_choice": -1,
}

GOLDEN_SINGLE_TRIAL_SHA256 = {
    "quantum": (
        "d110c8c4749e2d861e38642b8efedcc9cecc6ccdb50065d75ad2c005cf2b12a8",
        "d8432cf263b392e9bd81cb3fff54b05da0000c9a640c4a812cc62f3fbcf15eba",
        "e2e065b7fdf80aeb271f9a92464ef8c670a9f88919363f616b3414e54918dbcb",
    ),
    "sign-lhv": (
        "40403034926733614a8e3bb40cd084a7b12a9c62053db77aa6fae7082e21c101",
        "43f8ef7fd6ea51c27d979f630039618079cd9bc527cc8ce755349aa8258e850a",
        "5f75b356cde09135f62610ea02c8913305b1384c3e16753fa6568b61eae1efd7",
    ),
    "model1": (
        "85aab0bd2114bb1229d4fd7ae88fbc0fd1e1a08d884de7bc42ea7b53ff8bb9ac",
        "b2f0d82f9fe35b98d6db1c30082d6f07a18201f32632b1d9fbaaeb1044f3211a",
        "11efe541e4ce28d33b00db5a25a9456f57ec7d49e8406f50fbab88d58d8a0e57",
    ),
    "model2": (
        "85aab0bd2114bb1229d4fd7ae88fbc0fd1e1a08d884de7bc42ea7b53ff8bb9ac",
        "b2f0d82f9fe35b98d6db1c30082d6f07a18201f32632b1d9fbaaeb1044f3211a",
        "4919f64213473658aba7a2ccb2a4a30636eb2efb5e2c187a41323a46d49abee5",
    ),
}

# A sweep: 12 quadruples of one batch each, so 48 pairs that threads share
# out among themselves.  Any change to a drawn number or to the report
# format must update these.
GOLDEN_SWEEP_CONFIG = {
    "axes": [[round(0.37 * (4 * i + j) % (2 * math.pi), 6) for j in range(4)] for i in range(12)],
    "trials": 1000,
    "seed": 20261019,
}

GOLDEN_SWEEP_SHA256 = {
    "quantum": (
        "948cc2134de317c8a41c4ce2298352b3a7346bbe30352bd98a5f6799685400b2",
        "90dab49ce6627445110386ea9ce99823a053afac6074338c170750a2e22de963",
        "24fb91c4155846460e3e4eafcfbd957d799726c0f877e4d6673a19522ed471a6",
    ),
    "sign-lhv": (
        "bcff7bbf24da7d2fde5a48ae5347c53a00ed080378f41986c94dade48b794c79",
        "db38f001cd0f5fd1c952000d7d76aca5b28e4e2485acb7b51324da2aa662e645",
        "c0589c4907011429cecd0d59eff02fc6066d01ddafb3784a9a78aad3f3fcdd23",
    ),
    "model1": (
        "68fdf99fac4aff107d786ea42a62e886e114eb0b0f9827cd416b4c09ea39d148",
        "2ab5129ee1b21973b9f925f800ff64dc7fcf72d2020c78f638f3e9471636bb40",
        "773b0705b6d9c907fb2db8b30365b811b4355e56e224abaffd51960408adc2ab",
    ),
    "model2": (
        "68fdf99fac4aff107d786ea42a62e886e114eb0b0f9827cd416b4c09ea39d148",
        "2ab5129ee1b21973b9f925f800ff64dc7fcf72d2020c78f638f3e9471636bb40",
        "2950967876837c11cf80480f4251c780854501433e9c90b8c852ed7fc2ea4880",
    ),
}

REPORT_SUFFIXES = ("_counts.csv", "_summary.csv", "_report.json")


def _simulate_args(tmp_path, *extra):
    return [
        "simulate",
        "--model",
        "quantum",
        "--trials",
        "20000",
        "--seed",
        "7",
        "--out",
        str(tmp_path / "run"),
        *extra,
    ]


class TestConfig:
    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        config = load_config(args)
        assert config["model"] == "quantum"
        assert config["axes"] == [list(OPTIMAL_AXES)]
        assert config["sign_choice"] == 1

    def test_flag_overrides(self):
        args = build_parser().parse_args(
            ["simulate", "--model", "model1", "--trials", "5", "--seed", "3", "--sign", "-"]
        )
        config = load_config(args)
        assert config["model"] == "model1"
        assert config["trials"] == 5
        assert config["seed"] == 3
        assert config["sign_choice"] == -1

    def test_json_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "sign-lhv", "trials": 123, "seed": 9}))
        args = build_parser().parse_args(["simulate", "--config", str(path)])
        config = load_config(args)
        assert config["model"] == "sign-lhv"
        assert config["trials"] == 123

    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"trials": 123}))
        args = build_parser().parse_args(
            ["simulate", "--config", str(path), "--trials", "456"]
        )
        assert load_config(args)["trials"] == 456

    @pytest.mark.parametrize(
        "flag, threads", [([], CONFIG_DEFAULTS["threads"]), (["--threads", "2"], 2)]
    )
    def test_threads_environment_variable_is_ignored(self, tmp_path, monkeypatch, flag, threads):
        monkeypatch.setenv("BELLFOUNDRY_THREADS", "0")
        assert load_config(build_parser().parse_args(["simulate", *flag]))["threads"] == threads
        assert main(["simulate", "--trials", "10", "--out", str(tmp_path / "run"), *flag]) == 0

    def test_bad_model_in_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "psychic"}))
        args = build_parser().parse_args(["simulate", "--config", str(path)])
        with pytest.raises(UsageError):
            load_config(args)

    def test_bad_axes_flag(self):
        args = build_parser().parse_args(["simulate", "--axes", "0.0,1.0"])
        with pytest.raises(UsageError):
            load_config(args)

    def test_missing_config_file(self):
        args = build_parser().parse_args(["simulate", "--config", "/nonexistent.json"])
        with pytest.raises(UsageError):
            load_config(args)


def _run_with_config(tmp_path, capsys, config):
    """Exit code and stderr of simulate with a config file; a traceback fails the test."""
    if isinstance(config, dict):
        config = json.dumps({"output": str(tmp_path / "run"), "trials": 10, **config})
    path = tmp_path / "config.json"
    path.write_text(config)
    rc = main(["simulate", "--config", str(path)])
    return rc, capsys.readouterr().err


class TestConfigSchema:
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"trials": "100"}, "trials"),
            ({"trials": 1.5}, "trials"),
            ({"trials": True}, "trials"),
            ({"seed": 1.5}, "seed"),
            ({"seed": -1}, "seed"),
            ({"seed": 1 << 64}, "seed"),
            ({"seed": False}, "seed"),
            ({"trails": 100}, "unknown config keys ['trails']"),
            ({"threads": 0}, "threads"),
            ({"threads": -2}, "threads"),
            ({"threads": "2"}, "threads"),
            ({"sign_choice": True}, "sign_choice"),
            ({"model": ["quantum"]}, "unknown model"),
            ({"output": 7}, "output"),
            ({"grid": 1}, "grid"),
            ({"axes": []}, "axes"),
            ({"axes": [0, 1, 2, 3]}, "quadruple"),
            ({"axes": [[0, 1, 2]]}, "quadruple"),
            ({"axes": [[0, 1, 2, "3"]]}, "finite"),
            ({"axes": [[0, 1, 2, True]]}, "finite"),
            ('{"axes": [[0, 1, 2, NaN]]}', "finite"),
            ('{"axes": [[0, 1, 2, Infinity]]}', "finite"),
            ("[1, 2]", "JSON object"),
            ({"axes": [[10**400, 0, 0, 0]]}, "finite"),
            ({"grid": MAX_GRID + 1}, "grid must be <="),
            ({"threads": MAX_THREADS + 1}, "threads must be <="),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, config, message):
        rc, err = _run_with_config(tmp_path, capsys, config)
        assert rc == 2
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "run_report.json").exists()

    def test_threads_above_the_cap_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        # a config that got past validation would fail here, before starting a thread
        monkeypatch.setattr(cli, "run_simulate", lambda config: pytest.fail("simulation ran"))
        too_many = str(MAX_THREADS + 1)
        out = str(tmp_path / "run")
        assert main(["simulate", "--trials", "10", "--out", out, "--threads", too_many]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: threads must be <=") and "Traceback" not in err

    def test_trials_above_the_cap_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        # a config that got past validation would fail here, before drawing a trial
        monkeypatch.setattr(cli, "run_simulate", lambda config: pytest.fail("simulation ran"))
        too_many = MAX_TRIALS + 1
        out = str(tmp_path / "run")
        assert main(["simulate", "--trials", str(too_many), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trials must be <=") and "Traceback" not in err
        rc, err = _run_with_config(tmp_path, capsys, {"trials": too_many})
        assert rc == 2
        assert err.startswith("error: trials must be <=") and "Traceback" not in err

    def test_trials_cap_is_the_last_batch_index_rng_keys(self):
        assert MAX_TRIALS == BATCH_SIZE << 32
        check_key(0, 0, -(-MAX_TRIALS // BATCH_SIZE) - 1)
        with pytest.raises(ValueError, match="32 bits"):
            check_key(0, 0, -(-(MAX_TRIALS + 1) // BATCH_SIZE) - 1)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"axes": ' + "[" * 100_000 + "]" * 100_000 + "}"],
        ids=["bare", "axes"],
    )
    def test_deeply_nested_config_exits_2(self, tmp_path, capsys, text):
        rc, err = _run_with_config(tmp_path, capsys, text)
        assert rc == 2
        assert err.startswith("error: cannot read config") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_caps_themselves_are_accepted(self):
        args = build_parser().parse_args(["simulate", "--threads", str(MAX_THREADS)])
        assert load_config(args)["threads"] == MAX_THREADS
        args = build_parser().parse_args(["simulate", "--trials", str(MAX_TRIALS)])
        assert load_config(args)["trials"] == MAX_TRIALS
        args = build_parser().parse_args(["scan", "--grid", str(MAX_GRID)])
        assert load_config(args)["grid"] == MAX_GRID

    def test_negative_threads_flag(self):
        args = build_parser().parse_args(["simulate", "--threads", "-1"])
        with pytest.raises(UsageError, match="threads"):
            load_config(args)

    def test_integer_axes_are_kept_as_given(self, tmp_path, capsys):
        rc, _ = _run_with_config(tmp_path, capsys, {"axes": [[0, 1, 2.5, 3]], "seed": 0})
        assert rc == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["runs"][0]["axes"] == [0, 1, 2.5, 3]
        assert report["seed"] == 0


def either(*strategies):
    """Draw from one of the strategies, each picked with equal weight."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


# integers too large for a float, of either sign
huge_ints = st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
# JSON values that are never a valid trial count
non_counts = st.none() | st.booleans() | st.text(max_size=4) | st.floats() | st.integers(max_value=0)
json_scalars = non_counts | st.integers(-3, 3) | huge_ints
finite_angles = st.floats(-1e6, 1e6) | st.integers(-10, 10)
bad_angles = either(huge_ints, st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=2) | st.booleans())
VALID_VALUES = {
    "model": st.sampled_from(sorted(MODELS)),
    "axes": st.lists(st.lists(finite_angles, min_size=4, max_size=4), min_size=1, max_size=3),
    # valid counts stay small so that every example runs fast
    "trials": st.integers(1, 1000),
    "seed": st.integers(0, 2**64 - 1),
    "sign_choice": st.sampled_from([1, -1]),
    "output": st.text(min_size=1, max_size=4),
    "threads": st.integers(1, 4),
    "grid": st.integers(2, 64),
}
BAD_VALUES = {
    **{key: json_scalars for key in VALID_VALUES},
    "axes": json_scalars | st.just([]),
    "trials": non_counts | huge_ints.filter(lambda n: n < 0),
}
ragged_entries = st.lists(finite_angles, max_size=6).filter(lambda entry: len(entry) != 4) | json_scalars
unknown_keys = st.dictionaries(
    st.text(max_size=6).filter(lambda key: key not in CONFIG_DEFAULTS), json_scalars, min_size=1, max_size=2
)


@st.composite
def config_files(draw):
    """A JSON config file, valid but for at most one fault."""
    fault = draw(st.sampled_from(["none", "value", "angle", "ragged", "unknown key", "not an object"]))
    if fault == "not an object":
        return draw(json_scalars | st.lists(json_scalars, max_size=3))
    config = {key: draw(values) for key, values in VALID_VALUES.items() if draw(st.booleans())}
    if fault == "value":
        key = draw(st.sampled_from(sorted(BAD_VALUES)))
        config[key] = draw(BAD_VALUES[key])
    elif fault in ("angle", "ragged"):
        axes = config["axes"] = draw(VALID_VALUES["axes"])
        i = draw(st.integers(0, len(axes) - 1))
        if fault == "angle":
            axes[i][draw(st.integers(0, 3))] = draw(bad_angles)
        else:
            axes[i] = draw(ragged_entries)
    elif fault == "unknown key":
        config.update(draw(unknown_keys))
    return config


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(config_files())
    def test_simulate_exits_0_or_2(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            assert main(["simulate", "--config", path, "--out", os.path.join(tmp, "run")]) in (0, 2)


class TestSimulate:
    def test_writes_three_files_and_reports(self, tmp_path, capsys):
        rc = main(_simulate_args(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "chsh=" in out
        for suffix in ("_counts.csv", "_summary.csv", "_report.json"):
            assert (tmp_path / f"run{suffix}").exists()
        report = json.loads((tmp_path / "run_report.json").read_text())
        run = report["runs"][0]
        assert run["chsh"] > 0.5  # quantum model at the optimal axes
        assert len(run["pairs"]) == 4
        assert sum(run["pairs"][0]["counts"]) == 20000

    def test_wall_clock_only_on_console(self, tmp_path, capsys):
        main(_simulate_args(tmp_path))
        assert "wall clock" in capsys.readouterr().out
        report = (tmp_path / "run_report.json").read_text()
        assert "wall" not in report and "elapsed" not in report

    def test_multiple_axes_quadruples(self, tmp_path):
        rc = main(_simulate_args(tmp_path, "--axes", "0,1.5707963,0.7853982,2.3561945",
                                 "--axes", "0 0 0 0"))
        assert rc == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert [run["run_id"] for run in report["runs"]] == [0, 1]


class TestAtomicReports:
    def _config(self, tmp_path):
        args = build_parser().parse_args(
            ["simulate", "--trials", "100", "--out", str(tmp_path / "run")]
        )
        return load_config(args)

    def test_only_the_three_files_remain(self, tmp_path):
        run_simulate(self._config(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"run{suffix}" for suffix in sorted(REPORT_SUFFIXES)
        ]

    @staticmethod
    def _break_replace(monkeypatch):
        # fails once all three temporary files are written, before any is moved into place
        def broken_replace(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", broken_replace)

    def test_failed_write_leaves_no_report_and_no_temp_file(self, tmp_path, monkeypatch):
        self._break_replace(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            run_simulate(self._config(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_previous_report(self, tmp_path, monkeypatch):
        config = self._config(tmp_path)
        run_simulate(config)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        self._break_replace(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            run_simulate({**config, "seed": 2})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_write_phase_peak_below_128_kb(self, tmp_path):
        # for a 128-quadruple report (about 200 KB of JSON) writing every file chunk by
        # chunk peaks near 26 KB; building the two CSV files as line lists first peaked
        # near 350 KB
        axes = [[0.37 * (4 * i + j) % (2 * math.pi) for j in range(4)] for i in range(128)]
        report = run_simulate({**self._config(tmp_path), "axes": axes, "trials": 1000})
        tracemalloc.start()
        try:
            cli._write_report_files(str(tmp_path / "again"), report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024, f"write phase peaked at {peak / 1024:.0f} KB"


def _report_digests(tmp_path, config, threads):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    prefix = tmp_path / "run"
    argv = ["simulate", "--config", str(path), "--out", str(prefix), "--threads", str(threads)]
    assert main(argv) == 0
    return tuple(
        hashlib.sha256((tmp_path / f"run{suffix}").read_bytes()).hexdigest()
        for suffix in REPORT_SUFFIXES
    )


class TestGoldenReports:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("model", sorted(GOLDEN_REPORT_SHA256))
    def test_report_sha256(self, tmp_path, model, threads):
        digests = _report_digests(tmp_path, {"model": model, **GOLDEN_REPORT_CONFIG}, threads)
        assert digests == GOLDEN_REPORT_SHA256[model]

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("model", sorted(GOLDEN_SWEEP_SHA256))
    def test_sweep_report_sha256(self, tmp_path, model, threads):
        digests = _report_digests(tmp_path, {"model": model, **GOLDEN_SWEEP_CONFIG}, threads)
        assert digests == GOLDEN_SWEEP_SHA256[model]

    @pytest.mark.parametrize("model", sorted(GOLDEN_SINGLE_TRIAL_SHA256))
    def test_single_trial_report_sha256(self, tmp_path, model):
        config = {"model": model, **GOLDEN_SINGLE_TRIAL_CONFIG}
        assert _report_digests(tmp_path, config, 1) == GOLDEN_SINGLE_TRIAL_SHA256[model]
        rows = (tmp_path / "run_summary.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",nan") for row in rows)
        assert [row.split(",")[0] for row in rows if ":chsh," in row] == ["0:chsh", "1:chsh"]
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert all(pair["std_error"] is None for run in report["runs"] for pair in run["pairs"])
        assert all(run["chsh_std_error"] is None for run in report["runs"])
        assert [run["flag"] for run in report["runs"]] == ["undetermined", "undetermined"]


class TestReportReplay:
    """A report records all a config needs to write the same three files again."""

    @pytest.mark.parametrize(
        "config", [GOLDEN_SWEEP_CONFIG, GOLDEN_SINGLE_TRIAL_CONFIG], ids=["sweep", "single_trial"]
    )
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_report_replays_itself(self, tmp_path, model, config):
        first, replay = tmp_path / "first", tmp_path / "replay"
        first.mkdir()
        replay.mkdir()
        digests = _report_digests(first, {"model": model, **config}, 1)
        report = json.loads((first / "run_report.json").read_text())
        recorded = {key: report[key] for key in ("model", "trials", "seed", "sign_choice")}
        recorded["axes"] = [run["axes"] for run in report["runs"]]
        assert _report_digests(replay, recorded, 1) == digests


class TestEngine:
    @pytest.mark.parametrize("trials", [1, 2 * BATCH_SIZE + 1, 7 * BATCH_SIZE + 3])
    def test_counts_equal_for_any_worker_split(self, trials):
        # 1 and 3 batches leave some of the 5 threads without work
        a, b = Axis(0.4), Axis(2.2)
        for name in MODELS:
            counts = {t: run_pair_counts(MODELS[name], a, b, trials, 8, 1, t) for t in (1, 2, 3, 5)}
            assert len(set(counts.values())) == 1, name
            assert counts[1].total == trials

    @pytest.mark.parametrize("threads", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("trials", [1, BATCH_SIZE + 1, 3 * BATCH_SIZE])
    def test_many_pairs_equal_each_pair_alone(self, trials, threads):
        # 5 pairs of 1, 2 or 3 batches: some worker ranges start or end mid-pair
        angles = [(0.4, 2.2), (1.0, 1.0), (5.9, 0.3), (3.1, 4.7), (2.0, 0.1)]
        pairs = [(Axis(ta), Axis(tb), 4 * n + 1) for n, (ta, tb) in enumerate(angles)]
        for name, runner in MODELS.items():
            alone = [run_pair_counts(runner, a, b, trials, 9, s, 1) for a, b, s in pairs]
            assert run_counts(runner, pairs, trials, 9, threads) == alone, name

    def test_no_pairs_draw_nothing(self):
        assert run_counts(MODELS["quantum"], [], 10, 1, 3) == []

    def test_bad_last_key_raises_before_any_batch(self):
        never = lambda *args: pytest.fail("a batch was drawn")  # noqa: E731
        runner = dataclasses.replace(MODELS["quantum"], sample_counts=never)
        # a stream out of range last or in the middle, and a bool stream, which would key as 1
        for streams, match in (((0, 1, 1 << 32), "32 bits"), ((0, -1, 2), "32 bits"),
                               ((0, True, 2), "must be integers")):
            pairs = [(Axis(0.0), Axis(1.0), s) for s in streams]
            with pytest.raises(ValueError, match=match):
                run_counts(runner, pairs, 10, 1, 2)

    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ValueError):
            run_pair_counts(MODELS["quantum"], Axis(0.0), Axis(1.0), 10, 1, 0, 0)

    def test_workers_only_for_threaded_runners(self):
        # a quantum batch holds the interpreter lock: it runs on the calling thread, and no
        # thread starts; model1 spreads two batches over two workers, which meet at a barrier
        barrier = threading.Barrier(2, timeout=30)
        for name, sync in (("quantum", lambda: None), ("model1", barrier.wait)):
            idents, active = [], []

            def record(*args, real=MODELS[name].sample_counts, sync=sync):
                idents.append(threading.get_ident())
                active.append(threading.active_count())
                sync()
                return real(*args)

            runner = dataclasses.replace(MODELS[name], sample_counts=record)
            before = threading.active_count()
            run_pair_counts(runner, Axis(0.4), Axis(2.2), 4 * BATCH_SIZE, 8, 1, 2)
            if name == "quantum":
                assert set(idents) == {threading.get_ident()}
                assert set(active) == {before}
            else:
                assert len(set(idents)) == 2 and threading.get_ident() not in idents

    def test_every_model_reproduces_its_law(self):
        a, b = Axis(0.0), Axis(math.pi / 4)
        for name, runner in MODELS.items():
            counts = run_pair_counts(runner, a, b, 200_000, 11, 0, 2)
            est = empirical_expectation(counts)
            assert abs(est.value - runner.analytic_expectation(a, b)) < 5 * est.std_error, name


class TestScan:
    @pytest.mark.parametrize("model,grid", sorted(GOLDEN_SCAN))
    def test_golden_stdout(self, capsys, model, grid):
        assert main(["scan", "--model", model, "--grid", str(grid)]) == 0
        assert capsys.readouterr().out == GOLDEN_SCAN[(model, grid)]

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            run_scan("quantum", 1)

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("grid", [2, 4, 8])
    def test_equals_one_argmax_over_the_whole_cube(self, model, grid):
        """Reference: score the whole (a', b, b') cube per sign, keep argmax's first index."""
        expectation = MODELS[model].analytic_expectation
        thetas = np.arange(grid) * (2.0 * math.pi / grid)
        axes = [Axis(t) for t in thetas]
        e1 = np.array([[expectation(a, b) for b in axes] for a in axes])
        e0 = e1[0]
        best_value, best = -math.inf, None
        for sign in (1, -1):
            cube = np.abs(e1[:, :, None] + sign * e1[:, None, :])
            cube += np.abs(e0[:, None] - sign * e0[None, :])
            # the maximum is tied, so the first-index rule decides the axes
            assert np.count_nonzero(cube == cube.max()) > 1
            idx = np.unravel_index(int(np.argmax(cube)), cube.shape)
            if cube[idx] > best_value:
                best_value = float(cube[idx])
                best = ((0.0, *(float(thetas[i]) for i in idx)), sign)
        assert run_scan(model, grid) == (*best, best_value)

    def test_grid_above_the_cap_exits_2(self, capsys, monkeypatch):
        # the config key is one more case of TestConfigSchema.test_bad_value_exits_2
        monkeypatch.setattr(cli, "run_scan", lambda *args: pytest.fail("scan ran"))
        assert main(["scan", "--grid", str(MAX_GRID + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid must be <=") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--trials", "5"],
            ["scan", "--seed", "1"],
            ["scan", "--threads", "2"],
            ["simulate", "--grid", "4"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_unknown_suite_is_usage_error(self, capsys):
        rc = main(["verify", "--suite", "horoscope"])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", sorted(GOLDEN_VERIFY_ALL))
    def test_golden_stdout_all(self, capsys, seed):
        assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == GOLDEN_VERIFY_ALL[seed]

    def test_wigner_mc_triples_use_distinct_streams(self, monkeypatch):
        keys = []
        real = cli.substream

        def recording(seed, stream=0, batch=0):
            keys.append((seed, stream, batch))
            return real(seed, stream, batch)

        # the MC measure itself is not under test: skip its sampling
        monkeypatch.setattr(cli, "substream", recording)
        monkeypatch.setattr(
            cli, "wigner_inequality_check", lambda *args, **kwargs: (1.0, 0.0, True)
        )
        cli.verify_wigner(5)
        mc_keys = [k for k in keys if k[1] == 103]
        assert len(mc_keys) == 100
        assert len(set(mc_keys)) == 100

    def test_run_verify_returns_check_records(self):
        checks = run_verify("stochastic-defect", 1)
        assert all(isinstance(check, Check) for check in checks)
        assert [check.name for check in checks] == [
            "stochastic_defect.deterministic_model",
            "stochastic_defect.constant_half_model",
        ]
        assert all(check.ok for check in checks)
        assert checks[1].line == (
            "check=stochastic_defect.constant_half_model status=pass value=0.5 bound=0.5 margin=0"
        )

    def test_failing_check_line(self):
        check = Check("chsh.example", False, 0.75, 0.5)
        assert check.margin == -0.25
        assert check.line == "check=chsh.example status=FAIL value=0.75 bound=0.5 margin=-0.25"


class TestVerifyStartsNoThread:
    """``verify`` runs every suite on the calling thread and starts no thread."""

    @pytest.mark.parametrize("suite", ["one", "all"])
    def test_single_suite_runs_on_calling_thread(self, monkeypatch, suite):
        idents = []

        def record(seed):
            idents.append(threading.get_ident())
            return [Check("record", True, seed, 0.0)]

        monkeypatch.setattr(cli, "VERIFY_SUITES", {"one": record, "two": record})
        before = threading.active_count()
        checks = run_verify(suite, 3)
        assert len(checks) == len(idents) == (1 if suite == "one" else 2)
        assert all(check.value == 3 for check in checks)
        assert set(idents) == {threading.get_ident()}
        assert threading.active_count() == before

    def test_exception_in_a_suite_fails_it_and_exits_1(self, monkeypatch, capsys):
        def fail(seed):
            raise ValueError("suite failed")

        later = Check("three.ran", True, 0.0, 0.0)
        suites = {"one": lambda seed: [], "two": fail, "three": lambda seed: [later]}
        monkeypatch.setattr(cli, "VERIFY_SUITES", suites)
        failed = "check=two.raised_ValueError status=FAIL value=nan bound=nan margin=nan\n"
        for suite, rest in (("all", later.line + "\n"), ("two", "")):
            assert main(["verify", "--suite", suite]) == 1
            captured = capsys.readouterr()
            assert captured.out == f"{failed}{rest}suite={suite} overall=FAIL\n"
            assert captured.err.startswith("Traceback") and captured.err.endswith(
                "ValueError: suite failed\n"
            )


class TestSeedRule:
    """verify and oracle take simulate's seed rule, 0 <= seed < 2**64, before any suite runs."""

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    @pytest.mark.parametrize(
        "argv", [*(["verify", "--suite", suite] for suite in [*VERIFY_SUITES, "all"]), ["oracle"]]
    )
    def test_out_of_range_exits_2(self, capsys, monkeypatch, argv, seed):
        monkeypatch.setattr(cli, "run_verify", lambda *args: pytest.fail("a suite ran"))
        monkeypatch.setattr(cli, "run_oracle", lambda *args: pytest.fail("the oracle ran"))
        assert main([*argv, "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("suite", ["tsirelson", "identity"])
    def test_range_ends_are_accepted(self, capsys, suite, seed):
        assert main(["verify", "--suite", suite, "--seed", str(seed)]) == 0
        assert f"suite={suite} overall=pass" in capsys.readouterr().out


class TestOracle:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_ORACLE))
    def test_golden_stdout(self, capsys, seed):
        assert main(["oracle", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == GOLDEN_ORACLE[seed]


#: The child runs one command in-process and prints the high-water RSS of its own address
#: space in KiB.  Not ``ru_maxrss``: a child started by vfork and exec carries the parent's
#: peak into it, so under pytest it reads the test process's peak.
PEAK_RSS_CHILD = """\
import contextlib, io, sys
from bellfoundry import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak_kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(peak_kib)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
class TestPeakMemory:
    """oracle and scan stay far below their old full-grid peaks (about 100 and 92 MB).

    A bare ``import bellfoundry.cli`` peaks near 35 MB, ``oracle``'s blocked quadratures
    near 39 MB, the one-a'-at-a-time scan at grid 192 near 38 MB, and every verify suite in
    one run near 41 MB.
    """

    @pytest.mark.parametrize(
        "argv",
        [["oracle"], ["scan", "--model", "quantum", "--grid", "192"], ["verify", "--suite", "all"]],
    )
    def test_peak_rss_below_70_mb(self, argv):
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": package_root}
        done = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_CHILD, *argv],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        # only the peak: a failing check is the verify goldens' to report
        peak_kib = int(done.stdout)
        assert peak_kib / 1024 < 70, f"{argv} peaked at {peak_kib / 1024:.1f} MB"


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["transmogrify"]) == 2

    def test_no_command(self):
        assert main([]) == 2

    def test_bad_trials(self, capsys):
        rc = main(["simulate", "--trials", "0"])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    def test_unwritable_output(self, capsys):
        rc = main(["simulate", "--trials", "10", "--out", "/nonexistent_dir/run"])
        assert rc == 2

    def test_empty_out_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--trials", "10", "--out", ""])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: output")
        assert list(tmp_path.iterdir()) == []
