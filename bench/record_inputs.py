"""Generate the benchmark's stored inputs and golden digests.

    python3 bench/record_inputs.py

Priors: a DQN Q-function (windy-grid, no wind) and a PG value function
(goal-world, reach), each trained from seed 0 through the public
`export-prior` command, written to bench/data/ only if missing. Their
SHA-256 digests go into bench/data/goldens.json, which the benchmark checks
at load.

Goldens: the output digest of the first ops of every checked workload at
workload seed 0. They were recorded once, at commit e3c93c3; re-recording
them from a later commit would hide a change in the learning curves.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import run

PRIORS = {
    "q_windy_grid.json": ["export-prior", "--env", "windy-grid",
                          "--algorithm", "dqn", "--seed", "0", "--horizon",
                          "64", "--total-timesteps", "100000"],
    "v_goal_reach.json": ["export-prior", "--env", "goal-world",
                          "--algorithm", "pg", "--seed", "0",
                          "--reward-variant", "reach", "--horizon", "100",
                          "--total-timesteps", "100000"],
}
GOLDEN_OPS = {"ppo-grid-qprior": 32, "ppo-goal-vprior": 24, "dqn-grid": 16}


def main() -> int:
    run.import_program()
    import rlwean.cli
    import workloads
    data = workloads.DATA
    data.mkdir(exist_ok=True)
    for name, argv in PRIORS.items():
        if not (data / name).exists():
            with redirect_stdout(io.StringIO()):
                code = rlwean.cli.main(argv + ["--out", str(data / name)])
            if code != 0:
                raise SystemExit(f"export-prior for {name} exited {code}")
    goldens = {
        "priors": {name: workloads.sha256((data / name).read_bytes())
                   for name in PRIORS},
        "digests": {},
    }
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    for name, count in GOLDEN_OPS.items():
        workload = workloads.WORKLOADS[name]
        workload.prepare(goldens)
        digests = {}
        with tempfile.TemporaryDirectory(prefix=".bench-out-",
                                         dir=run.ROOT) as tmp:
            for seed in islice(workloads.program_seeds(name, 0), count):
                op = run.run_op(workload, seed, Path(tmp), {})
                if op.error:
                    raise SystemExit(f"{name} seed {seed}: {op.error}")
                digests[str(seed)] = op.digest
                print(f"{name} seed {seed}: {op.digest} ({op.wall:.2f} s)",
                      file=sys.stderr)
        goldens["digests"][name] = digests
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
