#!/usr/bin/env python3
"""An embedded deployment sharing a machine with a greedy application.

The paper's motivating scenario for dynamic buffer pool management
(Section 2): "when a database system is embedded in an application ... it
must co-exist with other software and system tools whose configuration and
memory usage vary from installation to installation, and from moment to
moment."

This script runs a kiosk-style order database while a co-resident media
application repeatedly grabs and releases large chunks of memory.  The
buffer-pool governor's feedback loop is printed as it reacts — growing
into free memory while the kiosk is busy, yielding when the media app
needs the machine, and recovering afterwards.

Run:  python examples/embedded_kiosk.py
"""

from repro import Server, ServerConfig
from repro.common import MiB, MINUTE

KIOSK_ITEMS = 60_000


def main():
    server = Server(ServerConfig(total_memory=64 * MiB))
    media_app = server.os.spawn("media-player")
    conn = server.connect()

    conn.execute(
        "CREATE TABLE item (id INT PRIMARY KEY, name VARCHAR(30), "
        "price DOUBLE, description VARCHAR(80))"
    )
    conn.execute(
        "CREATE TABLE sale (id INT PRIMARY KEY, item_id INT, qty INT)"
    )
    server.load_table(
        "item", [(i, "item-%d" % i, float(i % 50) + 0.99,
                  "long marketing copy for item %d" % i)
                 for i in range(KIOSK_ITEMS)]
    )

    print("minute  media-app MiB  pool MiB  governor action")
    print("------  -------------  --------  ---------------")

    sale_id = 0
    phases = [(6, 0), (6, 48 * MiB), (6, 0)]
    for minutes, media_memory in phases:
        media_app.set_allocation(media_memory)
        for __ in range(minutes):
            # Kiosk traffic: a burst of lookups and sales per minute.
            for k in range(25):
                item = (sale_id * 7 + k) % KIOSK_ITEMS
                conn.execute(
                    "SELECT price FROM item WHERE id = %d" % item
                )
                conn.execute(
                    "INSERT INTO sale VALUES (%d, %d, %d)"
                    % (sale_id, item, 1 + k % 3)
                )
                sale_id += 1
            decision = server.buffer_governor.poll_once()
            server.clock.advance(1 * MINUTE)
            print("%6d  %13d  %8.1f  %s" % (
                server.clock.now // MINUTE,
                media_app.allocated // MiB,
                decision.after / MiB,
                decision.action,
            ))

    revenue = conn.execute(
        "SELECT SUM(i.price * s.qty) FROM sale s JOIN item i "
        "ON s.item_id = i.id"
    )
    print("\nkiosk revenue so far: $%.2f across %d sales"
          % (revenue.rows[0][0], sale_id))
    conn.close()


if __name__ == "__main__":
    main()
