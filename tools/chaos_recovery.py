#!/usr/bin/env python3
"""Chaos-recovery harness: SIGKILL-grade crash injection + equivalence.

Drives the amdahl_market CLI through the full kill-point catalog and
checks the durability layer's strongest contract end to end, at the
process level:

  1. A golden, uninterrupted trace run pins the expected output.
  2. A durable (journaled + snapshotted) run must reproduce the golden
     trace byte for byte — durability must not perturb the simulation.
  3. For every site in the commit-protocol kill catalog (and a later
     occurrence of each, to land mid-run rather than on the first
     epoch), a fresh durable run is started with that kill point armed.
     The process must die there with the dedicated exit code 86.
  4. The same command is re-run with --recover. It must exit 0, and the
     finished trace file, the final snapshot, the job segment (the
     done-job records the snapshots name instead of holding) and the
     journal (one record per epoch, never cut back) must be
     byte-identical to the uninterrupted run's.
  5. One double-crash scenario kills the *recovery* run too, then
     recovers again — recovery must be idempotent under repeated
     failure.
  6. A run killed after epoch 14 has its newest snapshot (epoch 12)
     damaged. Recovery must fall back to the kept one (epoch 8),
     replay and verify the six journaled epochs after it, and still
     finish on the uninterrupted run's bytes, journal included.
  7. A run killed after epoch 14 has a journal record the newest
     snapshot already holds (epoch 2) damaged. The valid prefix ends
     there, so the run resumes from the snapshot without replaying;
     trace, final snapshot and segment must still match. The journal
     does not: it keeps the one record before the damage, then goes on
     from epoch 13.

Any deviation (wrong exit code, a kill point never reached, a byte
difference) is a hard failure. The harness is deterministic: fixed
seeds, fixed scenario, no time- or randomness-dependent behavior.

Usage: chaos_recovery.py <path-to-amdahl_market> [--workdir DIR]
"""

import argparse
import filecmp
import shutil
import subprocess
import sys
from pathlib import Path

KILL_EXIT_CODE = 86
EPOCHS = 18
SNAPSHOT_EVERY = 4
# A journal is an 8-byte header, then one 36-byte record per epoch (an
# 8-byte length|crc frame around a 28-byte entry).
JOURNAL_HEADER_BYTES = 8
JOURNAL_RECORD_BYTES = 36

SCENARIO = [
    "trace",
    "--epochs", str(EPOCHS),
    "--users", "8",
    "--servers", "3",
    "--faults",
    "--admission",
    "--log-level", "quiet",
]


def run(binary, extra, trace_out):
    cmd = [str(binary)] + SCENARIO + ["--trace-out", str(trace_out)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    return proc


def durable_args(state_dir, recover=False, kill=None):
    args = ["--state-dir", str(state_dir),
            "--snapshot-every", str(SNAPSHOT_EVERY)]
    if recover:
        args.append("--recover")
    if kill:
        args += ["--kill-point", kill]
    return args


def final_snapshot(state_dir):
    return Path(state_dir) / f"snapshot-{EPOCHS:08d}.amss"


def job_segment(state_dir):
    return Path(state_dir) / "jobs.amsg"


def journal(state_dir):
    return Path(state_dir) / "journal.amjl"


def fail(msg, proc=None):
    print(f"FAIL: {msg}", file=sys.stderr)
    if proc is not None and proc.stderr:
        print(proc.stderr, file=sys.stderr)
    sys.exit(1)


def expect_identical(path_a, path_b, what):
    if not filecmp.cmp(path_a, path_b, shallow=False):
        fail(f"{what}: {path_a} differs from {path_b}")


def kill_catalog(binary):
    proc = subprocess.run([str(binary), "trace", "--list-kill-points"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail("--list-kill-points failed", proc)
    sites = [line.strip() for line in proc.stdout.splitlines()
             if line.strip()]
    if len(sites) < 8:
        fail(f"implausibly small kill-point catalog: {sites}")
    return sites


def check_killed(proc, spec):
    if proc.returncode == 0:
        fail(f"kill point {spec} was never reached (run completed)")
    if proc.returncode != KILL_EXIT_CODE:
        fail(f"kill point {spec}: expected exit {KILL_EXIT_CODE}, "
             f"got {proc.returncode}", proc)


def recover_and_verify(binary, state, trace, golden_trace, golden_state,
                       label, same_journal=True):
    proc = run(binary, durable_args(state, recover=True), trace)
    if proc.returncode != 0:
        fail(f"{label}: recovery exited {proc.returncode}", proc)
    expect_identical(trace, golden_trace, f"{label}: trace")
    expect_identical(final_snapshot(state), final_snapshot(golden_state),
                     f"{label}: final snapshot")
    expect_identical(job_segment(state), job_segment(golden_state),
                     f"{label}: job segment")
    if same_journal:
        expect_identical(journal(state), journal(golden_state),
                         f"{label}: journal")
    return proc


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def killed_after_epoch_14(binary, work, name):
    state = work / f"state_{name}"
    trace = work / f"trace_{name}.jsonl"
    check_killed(
        run(binary, durable_args(state, kill="epoch.post_commit:14"),
            trace),
        "epoch.post_commit:14")
    return state, trace


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("binary", type=Path)
    parser.add_argument("--workdir", type=Path,
                        default=Path("chaos_recovery_work"))
    opts = parser.parse_args()
    if not opts.binary.exists():
        fail(f"no such binary: {opts.binary}")

    work = opts.workdir
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    sites = kill_catalog(opts.binary)

    # 1. Golden uninterrupted run, no durability.
    golden_trace = work / "golden.jsonl"
    proc = run(opts.binary, [], golden_trace)
    if proc.returncode != 0:
        fail("golden run failed", proc)

    # 2. Durable uninterrupted run: same trace, and it pins the
    #    expected final snapshot bytes.
    durable_state = work / "durable_state"
    durable_trace = work / "durable.jsonl"
    proc = run(opts.binary, durable_args(durable_state), durable_trace)
    if proc.returncode != 0:
        fail("durable run failed", proc)
    expect_identical(durable_trace, golden_trace,
                     "durable run must not perturb the trace")
    for golden in (final_snapshot(durable_state),
                   job_segment(durable_state), journal(durable_state)):
        if not golden.exists():
            fail(f"durable run left no {golden}")
    # The journal keeps every epoch's record; no snapshot cuts it.
    want = JOURNAL_HEADER_BYTES + JOURNAL_RECORD_BYTES * EPOCHS
    if journal(durable_state).stat().st_size != want:
        fail(f"durable run's final journal is not {want} bytes "
             f"(a header and {EPOCHS} records)")
    # The scenario must freeze done jobs, or the segment would hold a
    # bare header and the comparison would prove nothing.
    if job_segment(durable_state).stat().st_size <= 8:
        fail("durable run froze no job records into its segment")

    # 3 + 4. Kill matrix: first occurrence and a mid-run occurrence of
    #        every catalogued site.
    checked = 0
    for site in sites:
        for occurrence in (1, 3):
            spec = f"{site}:{occurrence}"
            tag = spec.replace(".", "_").replace(":", "_")
            state = work / f"state_{tag}"
            trace = work / f"trace_{tag}.jsonl"
            check_killed(
                run(opts.binary, durable_args(state, kill=spec), trace),
                spec)
            recover_and_verify(opts.binary, state, trace, golden_trace,
                               durable_state, f"kill {spec}")
            checked += 1
            print(f"ok: {spec} killed and recovered", flush=True)

    # 5. Double crash: the recovery run is itself killed, then the
    #    second recovery must still converge to the golden bytes.
    state = work / "state_double"
    trace = work / "trace_double.jsonl"
    check_killed(
        run(opts.binary,
            durable_args(state, kill="epoch.post_commit:6"), trace),
        "epoch.post_commit:6")
    check_killed(
        run(opts.binary,
            durable_args(state, recover=True,
                         kill="snapshot.pre_rename:1"), trace),
        "snapshot.pre_rename:1 (during recovery)")
    recover_and_verify(opts.binary, state, trace, golden_trace,
                       durable_state, "double crash")
    print("ok: double crash recovered", flush=True)

    # 6. Newest snapshot rejected: fall back to the older kept one and
    #    replay the whole journaled stretch after it.
    state, trace = killed_after_epoch_14(opts.binary, work, "fallback")
    flip_byte(state / "snapshot-00000012.amss", -1)
    proc = recover_and_verify(opts.binary, state, trace, golden_trace,
                              durable_state, "rejected newest snapshot")
    if "recovered from epoch 14 (6 epoch(s) replayed)" not in proc.stderr:
        fail("rejected newest snapshot: recovery did not replay the six "
             "epochs after the older snapshot", proc)
    if "breaks contiguity" in proc.stderr:
        fail("rejected newest snapshot: the journal broke contiguity",
             proc)
    print("ok: rejected newest snapshot recovered", flush=True)

    # 7. A damaged record the newest snapshot holds ends the valid
    #    prefix: the run resumes from the snapshot without replaying.
    state, trace = killed_after_epoch_14(opts.binary, work, "bad_record")
    flip_byte(journal(state),
              JOURNAL_HEADER_BYTES + 2 * JOURNAL_RECORD_BYTES - 1)
    proc = recover_and_verify(opts.binary, state, trace, golden_trace,
                              durable_state, "damaged old journal record",
                              same_journal=False)
    if "recovered from epoch 12 (0 epoch(s) replayed)" not in proc.stderr:
        fail("damaged old journal record: recovery did not resume from "
             "the newest snapshot", proc)
    print("ok: damaged old journal record recovered", flush=True)

    print(f"chaos-recovery: {checked} kill/recover cycles, 1 double "
          f"crash and 2 damaged-file scenarios, all finishing on the "
          f"uninterrupted run's bytes")


if __name__ == "__main__":
    main()
