#!/usr/bin/env python3
"""Fleet serving drill: serve -> checkpoint -> kill -> resume.

Serves a small tenanted fleet three ways and proves the checkpoint
backbone end to end:

1. an uninterrupted oracle pass;
2. the same fleet stopped mid-run (every device checkpoints to a
   versioned snapshot file and the process "dies");
3. a resume pass that loads the snapshots and finishes the work.

The resumed report's fleet fingerprint — a SHA-256 over every device's
measured trace surface — is asserted equal to the oracle's: the kill
changed nothing, byte for byte.  Also peeks inside a snapshot header
and shows a foreign fleet's snapshot being refused.

Usage::

    python examples/fleet.py
"""

import dataclasses
import tempfile
from pathlib import Path

from repro.fleet import (
    DeviceRun,
    FleetSpec,
    SnapshotMismatchError,
    run_fleet,
)


def main() -> None:
    fleet = FleetSpec(devices=16, tenants=2, ops_per_device=200,
                      seed=7)

    print("== 1. uninterrupted oracle pass (2 workers)")
    oracle = run_fleet(fleet, jobs=2)
    print(oracle.render())
    print()

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"

        print("== 2. same fleet, stopped after 500 events per device")
        stopped = run_fleet(fleet, jobs=2, checkpoint_dir=str(ckpt),
                            stop_after_events=500)
        print(stopped.render())
        snaps = sorted(ckpt.glob("*.snap"))
        print(f"   {len(snaps)} snapshot files in {ckpt.name}/")

        header = DeviceRun.peek(snaps[0])
        print(f"   {snaps[0].name}: "
              f"format={header['format_version']} "
              f"events={header['events']} "
              f"sha256={header['payload_sha256'][:12]}…")
        print()

        print("== 3. resume from the snapshots and finish")
        resumed = run_fleet(fleet, jobs=2, checkpoint_dir=str(ckpt),
                            resume=True)
        print(resumed.render())
        print()

        same = (resumed.report.fingerprint()
                == oracle.report.fingerprint())
        print(f"resumed fingerprint == oracle fingerprint: {same}")
        assert same, "kill/resume diverged from the oracle"

        print()
        print("== 4. another fleet spec refuses this fleet's snapshot")
        stopped2 = run_fleet(fleet, jobs=1, checkpoint_dir=str(ckpt),
                             stop_after_events=500)
        assert stopped2.checkpoints > 0
        snap = sorted(ckpt.glob("*.snap"))[0]
        other = dataclasses.replace(fleet, seed=fleet.seed + 1)
        try:
            DeviceRun.load(snap, expect_fleet_hash=other.content_hash())
        except SnapshotMismatchError as error:
            print(f"   refused as expected: {error}")
        else:
            raise AssertionError("foreign fleet snapshot not caught")


if __name__ == "__main__":
    main()
