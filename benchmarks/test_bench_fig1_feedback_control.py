"""E1 / Figure 1: the cache-sizing feedback control loop.

Reproduces Section 2's controller behaviour as a time series: the buffer
pool grows toward (working set + free memory - 5 MB reserve) while the
workload generates misses, shrinks when a competing process allocates
memory, and recovers when that memory is freed — with eq. (2) damping and
the 64 KB deadband keeping the trajectory smooth.  Also exercises the
Windows-CE variant (no working-set reporting).
"""

from repro.buffer import BufferPool, BufferGovernor, GovernorConfig, PageKind
from repro.common import MiB, MINUTE, SimClock
from repro.ossim import OperatingSystem
from repro.storage import FlashDisk, Volume

from conftest import print_table


def build_rig(total_memory=128 * MiB, supports_working_set=True):
    clock = SimClock()
    os = OperatingSystem(total_memory, supports_working_set=supports_working_set)
    server_process = os.spawn("dbserver")
    competitor = os.spawn("other-app")
    volume = Volume(FlashDisk(clock, 500_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
    governor = BufferGovernor(
        clock, os, server_process, pool,
        database_size_fn=lambda: 10**12,  # uncapped
        config=GovernorConfig(upper_bound_bytes=512 * MiB),
    )
    return clock, os, competitor, volume, pool, governor


def generate_misses(pool, volume, n=20):
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


def run_experiment():
    clock, os, competitor, volume, pool, governor = build_rig()
    series = []
    phases = [
        # (minutes, competitor allocation)
        (8, 0),            # idle machine: pool expands to fill memory
        (8, 90 * MiB),     # memory pressure arrives: pool shrinks
        (8, 0),            # pressure gone: pool re-expands
    ]
    for minutes, allocation in phases:
        competitor.set_allocation(allocation)
        for __ in range(minutes):
            generate_misses(pool, volume)
            decision = governor.poll_once()
            clock.advance(1 * MINUTE)
            series.append((
                clock.now // MINUTE,
                allocation // MiB,
                (decision.inputs["working_set"] or 0) // MiB,
                decision.inputs["free_memory"] // MiB,
                decision.after / MiB,
                decision.action,
            ))
    return series


def run_ce_experiment():
    clock, os, competitor, volume, pool, governor = build_rig(
        total_memory=64 * MiB, supports_working_set=False
    )
    series = []
    for minutes, allocation in ((5, 0), (5, 40 * MiB), (5, 0)):
        competitor.set_allocation(allocation)
        for __ in range(minutes):
            generate_misses(pool, volume)
            decision = governor.poll_once()
            clock.advance(1 * MINUTE)
            series.append((
                clock.now // MINUTE,
                allocation // MiB,
                decision.inputs["free_memory"] // MiB,
                decision.after / MiB,
                decision.action,
            ))
    return series


def test_fig1_feedback_control(once):
    series = once(run_experiment)
    print_table(
        "Figure 1 (E1): buffer pool tracks working set + free memory",
        ["minute", "competitor MiB", "working set MiB", "free MiB",
         "pool MiB", "action"],
        series,
    )
    pool_sizes = [row[4] for row in series]
    idle_peak = max(pool_sizes[:8])
    squeezed = min(pool_sizes[8:16])
    recovered = max(pool_sizes[16:])
    # Shape assertions: grow -> shrink under pressure -> recover.
    assert idle_peak > 4.0            # grew well beyond the initial 4 MiB
    assert squeezed < idle_peak * 0.7  # gave memory back under pressure
    assert recovered > squeezed * 1.3  # re-expanded when pressure lifted
    # The OS keeps roughly the 5 MB reserve at the idle fixed point.
    free_at_idle_end = series[7][3]
    assert free_at_idle_end <= 12


def test_fig1_ce_variant(once):
    series = once(run_ce_experiment)
    print_table(
        "Figure 1 (E1b): Windows CE variant (no working-set reporting)",
        ["minute", "competitor MiB", "free MiB", "pool MiB", "action"],
        series,
    )
    pool_sizes = [row[3] for row in series]
    # CE: the pool shrinks when another application allocates memory.
    assert min(pool_sizes[5:10]) <= min(pool_sizes[:5]) + 0.1
    # And grows only after free memory increases again.
    assert max(pool_sizes[10:]) >= max(pool_sizes[5:10])
