#!/usr/bin/env python3
"""A handheld deployment: Windows-CE-style OS and SD-card storage.

The paper highlights SQL Anywhere running "on a handheld device ... when
the device is disconnected from the corporate intranet", with two
device-specific behaviours reproduced here:

* the CE variant of the buffer governor (the OS cannot report working-set
  sizes, so the controller grows only when free memory increases and
  shrinks under memory pressure);
* ``CALIBRATE DATABASE`` measuring the SD card's uniform access times and
  installing the calibrated DTT model in the catalog, replacing the
  rotational default (Figure 3).

Run:  python examples/mobile_ce_device.py
"""

from repro import Server, ServerConfig
from repro.common import KiB, MiB, MINUTE, SimClock
from repro.storage import FlashDisk


def main():
    # A 64 MB handheld whose storage is a 512 MB SD card (131072 pages).
    clock = SimClock()
    server = Server(
        ServerConfig(
            total_memory=64 * MiB,
            supports_working_set=False,  # Windows CE flavour
            initial_pool_pages=512,      # 2 MiB
        ),
        clock=clock,
        disk=FlashDisk(clock, 131_072),
    )
    conn = server.connect()

    conn.execute(
        "CREATE TABLE visit (id INT PRIMARY KEY, customer VARCHAR(30), "
        "notes VARCHAR(60))"
    )
    server.load_table(
        "visit",
        [(i, "customer-%d" % (i % 200), "notes for visit %d" % i)
         for i in range(40_000)],
    )

    print("Default cost model:", server.catalog.dtt_model.name)
    print("  read 4K @ band 1000: %.0f us"
          % server.catalog.dtt_model.cost_us("read", 4 * KiB, 1000))

    # Calibrate against the actual (flash) device.
    conn.execute("CALIBRATE DATABASE")
    print("After CALIBRATE DATABASE:", server.catalog.dtt_model.name)
    for band in (1, 100, 10_000):
        print("  read 4K @ band %6d: %.0f us"
              % (band, server.catalog.dtt_model.cost_us("read", 4 * KiB, band)))
    print("  (uniform across bands: flash has no seeks, Figure 3)")

    # The CE buffer governor in action: another app squeezes the device.
    other_app = server.os.spawn("camera-app")
    print("\nminute  camera MiB  free MiB  pool MiB  action")
    for minute, camera in enumerate([0, 0, 52 * MiB, 52 * MiB, 0, 0]):
        other_app.set_allocation(camera)
        for i in range(60):  # lookups generating pool traffic (and misses)
            conn.execute(
                "SELECT notes FROM visit WHERE id = %d"
                % ((minute * 5323 + i * 379) % 40_000)
            )
        decision = server.buffer_governor.poll_once()
        server.clock.advance(1 * MINUTE)
        print("%6d  %10d  %8d  %8.1f  %s" % (
            minute, camera // MiB, decision.inputs["free_memory"] // MiB,
            decision.after / MiB, decision.action,
        ))
    conn.close()


if __name__ == "__main__":
    main()
