"""The counts the benchmark reports as exact must repeat for a seed.

Each workload runs twice in fresh interpreters; the counts listed in
``run.EXACT`` that the workload reports (the ``exact`` entry of its
notes line) must be identical, nonzero where the workload exercises
them, and both runs correct.

    python3 -m pytest perfbench/test_repeat.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
#: the exact counts each workload must report nonzero
EXPECTED = {
    "serve-xmark": ("space_amp", "serving.site_calls_per_request"),
    "write-mix-xmark": ("space_amp", "core.relabeled_per_write"),
    "ingest-sql-dblp": ("space_amp", "store.sql_queries_per_read"),
    "ingest-paged-dblp": ("space_amp", "storage.disk_reads_per_read"),
}


def counts(workload: str, seed: int) -> dict:
    # run.py fixes the string-hash seed itself unless one is given
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "3"],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(HERE),
        timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    notes = next(line for line in done.stdout.splitlines() if line.startswith("notes: "))
    return json.loads(notes[len("notes: "):])["exact"]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_counts_repeat_exactly(workload):
    first = counts(workload, 7)
    second = counts(workload, 7)
    assert first == second
    for name in EXPECTED[workload]:
        assert first[name] > 0, name
