"""The benchmark's four workloads and the correctness check of each op.

An op is one `rlwean` command, run in-process through `rlwean.cli.main`:
one seed's `run` for the PPO workloads, one `export-prior` for the DQN
source, one `verify --level full` pass for the oracle suite. The program
receives only the seeds generated here and the prior artifacts stored in
`bench/data/`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

from rlwean.envs import EnvConfig, make_env
from rlwean.ppo import TrainConfig
from rlwean.priors import (WeaningSchedule, check_compatibility,
                           load_artifact, save_artifact, weaning_weight)
from rlwean.scenarios import CSV_HEADER

DATA = Path(__file__).resolve().parent / "data"
GOLDENS = DATA / "goldens.json"


class CheckError(Exception):
    """An op's output failed its correctness check."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def program_seeds(workload: str, seed: int):
    """The program seed of each op, derived only from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.getrandbits(31)


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def load_stored_prior(filename: str, goldens: dict):
    """Read a stored prior, check its SHA-256, then load and validate it."""
    path = DATA / filename
    digest = sha256(path.read_bytes())
    if digest != goldens["priors"][filename]:
        raise CheckError(f"{filename}: SHA-256 {digest} does not match the "
                         "recorded digest")
    return path, load_artifact(path)


class PpoWorkload:
    """One target seed's `rlwean run` per op, with a stored prior."""

    unit = "env steps"

    def __init__(self, name, setting, prior_file, env, schedule,
                 total_timesteps=20_480, traced_ops=10):
        self.name = name
        self.setting = setting
        self.prior_file = prior_file
        self.env = env
        self.schedule = schedule
        self.total_timesteps = total_timesteps
        self.traced_ops = traced_ops
        self.rollout = TrainConfig().steps_per_rollout
        self.work_per_op = total_timesteps

    def prepare(self, goldens: dict) -> None:
        self.prior_path, prior = load_stored_prior(self.prior_file, goldens)
        probe = make_env(self.env)
        check_compatibility(prior, probe.obs_dim, probe.action_space.count)

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        s = self.schedule
        return ["run", "--setting", str(self.setting), "--seed", str(seed),
                "--prior", str(self.prior_path), "--out", str(out_dir),
                "--total-timesteps", str(self.total_timesteps),
                "--w0", repr(s.w0), "--w-decrement", repr(s.decrement),
                "--w-interval", str(s.interval_steps)]

    def check(self, seed: int, out_dir: Path, stdout: str) -> str:
        data = (out_dir / f"rrl_seed{seed}.csv").read_bytes()
        lines = data.decode().splitlines()
        if lines[0].split(",") != CSV_HEADER:
            raise CheckError(f"CSV header {lines[0]!r}")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        expected = self.total_timesteps // self.rollout
        if len(rows) != expected:
            raise CheckError(f"{len(rows)} CSV rows, expected {expected}")
        w_col = CSV_HEADER.index("w_t")
        for i, row in enumerate(rows):
            if len(row) != len(CSV_HEADER) or \
                    not all(math.isfinite(v) for v in row):
                raise CheckError(f"row {i} is short or not finite: {row}")
            if row[0] != i * self.rollout:
                raise CheckError(f"row {i} timestep {row[0]}")
            w = weaning_weight(self.schedule, int(row[0]))
            if row[w_col] != w:
                raise CheckError(f"row {i} w_t {row[w_col]} != {w}")
        return sha256(data)


class DqnWorkload:
    """One DQN source run per op, exported through `export-prior`."""

    unit = "env steps"
    layer_dims = [2, 64, 64, 4]

    def __init__(self, name, total_timesteps=10_000, traced_ops=3):
        self.name = name
        self.total_timesteps = total_timesteps
        self.traced_ops = traced_ops
        self.work_per_op = total_timesteps

    def prepare(self, goldens: dict) -> None:
        pass

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return ["export-prior", "--env", "windy-grid", "--algorithm", "dqn",
                "--seed", str(seed), "--horizon", "64",
                "--total-timesteps", str(self.total_timesteps),
                "--out", str(out_dir / "q.json")]

    def check(self, seed: int, out_dir: Path, stdout: str) -> str:
        path = out_dir / "q.json"
        doc = json.loads(path.read_text())
        prior = load_artifact(path)
        net = prior.network
        if prior.kind != "q_function" or net.layer_dims != self.layer_dims:
            raise CheckError(f"{prior.kind} artifact with layers "
                             f"{net.layer_dims}")
        if prior.source_seed != seed:
            raise CheckError(f"source_seed {prior.source_seed} != {seed}")
        for a in net.weights + net.biases:
            if not all(math.isfinite(v) for v in a.flat):
                raise CheckError("non-finite artifact weights")
        again = out_dir / "q_roundtrip.json"
        save_artifact(prior, again)
        if json.loads(again.read_text()) != doc:
            raise CheckError("artifact does not round-trip through "
                             "load_artifact/save_artifact")
        # created_at is the export's wall-clock time; digest everything else.
        del doc["metadata"]["created_at"]
        return sha256(json.dumps(doc, sort_keys=True).encode())


class VerifyWorkload:
    """One `verify --level full` pass per op; every check must pass."""

    unit = "verify passes"
    checks = 13

    def __init__(self, name, level="full", traced_ops=3):
        self.name = name
        self.level = level
        self.traced_ops = traced_ops
        self.work_per_op = 1

    def prepare(self, goldens: dict) -> None:
        pass

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return ["verify", "--level", self.level]

    def check(self, seed: int, out_dir: Path, stdout: str) -> str:
        lines = stdout.splitlines()
        passed = sum(line.startswith("[PASS]") for line in lines)
        summary = f"{self.checks}/{self.checks} checks passed"
        if passed != self.checks or not lines or lines[-1] != summary:
            raise CheckError(f"{passed} checks passed; last line "
                             f"{lines[-1] if lines else ''!r}")
        return sha256(stdout.encode())


WORKLOADS = {w.name: w for w in (
    PpoWorkload("ppo-grid-qprior", setting=1, prior_file="q_windy_grid.json",
                env=EnvConfig("windy-grid", wind_enabled=False, horizon=64),
                schedule=WeaningSchedule("fixed", 0.9)),
    # interval = budget // 10, as the setting-3 default scenario sets it, so
    # w_t reaches 0 halfway and the prior runs in half the iterations.
    PpoWorkload("ppo-goal-vprior", setting=3, prior_file="v_goal_reach.json",
                env=EnvConfig("goal-world", reward_variant="reach-fast",
                              horizon=100),
                schedule=WeaningSchedule("step_decay", 0.5, 0.1, 2048)),
    DqnWorkload("dqn-grid"),
    VerifyWorkload("oracle-verify"),
)}
