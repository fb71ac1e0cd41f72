"""E15: ablation of eq. (2) damping and the 64 KB deadband (Section 2).

"To avoid undesirable fluctuations, the server applies a damping factor to
size changes by resizing the pool to 0.9 * new ideal size + 0.1 * current
size."  The ablation runs the same noisy memory scenario with (a) the
paper's damped controller, (b) damping disabled, and (c) damping and
deadband disabled, and compares the pool-size trajectory's step activity:
the damped controller makes fewer and smaller adjustments for the same
end state.
"""

from repro.buffer import BufferGovernor, BufferPool, GovernorConfig, PageKind
from repro.buffer.governor import GROW, SHRINK
from repro.common import KiB, MiB, MINUTE, SimClock
from repro.ossim import OperatingSystem
from repro.storage import FlashDisk, Volume

from conftest import print_table

MINUTES = 40


def run_controller(damping_new, deadband_bytes, seedless_noise):
    clock = SimClock()
    os = OperatingSystem(128 * MiB)
    server_process = os.spawn("dbserver")
    competitor = os.spawn("noisy-app")
    volume = Volume(FlashDisk(clock, 500_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=2048)
    config = GovernorConfig(
        upper_bound_bytes=512 * MiB,
        damping=(damping_new, 1.0 - damping_new),
        deadband_bytes=deadband_bytes,
    )
    governor = BufferGovernor(
        clock, os, server_process, pool,
        database_size_fn=lambda: 10**12,
        config=config,
    )
    sizes = []
    for minute in range(MINUTES):
        competitor.set_allocation(seedless_noise[minute])
        _generate_misses(pool, volume)
        governor.poll_once()
        sizes.append(pool.size_bytes() / MiB)
        clock.advance(1 * MINUTE)
    resizes = sum(d.action in (GROW, SHRINK) for d in governor.decisions)
    # Step activity: total absolute change, in MiB.
    travel = sum(abs(b - a) for a, b in zip(sizes, sizes[1:]))
    return sizes, travel, resizes


def _generate_misses(pool, volume, n=10):
    dbfile = volume.create_file("churn-%d" % volume.disk.reads)
    pages = []
    for i in range(n):
        frame = pool.new_page(dbfile, PageKind.TABLE, payload=i)
        pages.append(frame.page_no)
        pool.unpin(frame)
    pool.flush_all()
    pool.discard(dbfile)
    for page in pages:
        frame = pool.fetch(dbfile, page)
        pool.unpin(frame)


def noise_schedule():
    """A jittery competitor: base load plus a +/- oscillation."""
    schedule = []
    for minute in range(MINUTES):
        base = 40 * MiB
        jitter = (12 * MiB) if minute % 2 else (-12 * MiB)
        schedule.append(max(0, base + jitter))
    return schedule


def run_experiment():
    noise = noise_schedule()
    rows = []
    for label, damping, deadband in (
        ("paper: damped + deadband", 0.9, 64 * KiB),
        ("no damping", 1.0, 64 * KiB),
        ("no damping, no deadband", 1.0, 1),
    ):
        sizes, travel, resizes = run_controller(damping, deadband, noise)
        rows.append((
            label, resizes, travel,
            min(sizes), max(sizes), sizes[-1],
        ))
    return rows


def test_e15_damping_ablation(once):
    rows = once(run_experiment)
    print_table(
        "E15: damping/deadband ablation under oscillating memory pressure "
        "(%d minutes)" % MINUTES,
        ["controller", "resizes", "total travel MiB", "min MiB", "max MiB",
         "final MiB"],
        rows,
    )
    damped, undamped, raw = rows
    # The damped controller moves the pool less for the same scenario
    # ("avoid undesirable fluctuations").
    assert damped[2] < undamped[2]
    assert damped[2] < raw[2]
    # And performs no more resize operations.
    assert damped[1] <= raw[1]
    # All three end in the same neighbourhood (the ablation changes
    # smoothness, not the fixed point).
    finals = [row[5] for row in rows]
    assert max(finals) - min(finals) < 30
