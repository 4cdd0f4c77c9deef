"""Serial map_ordered and worker_count, kept for the frozen bench/run.py.

No bqcontrol module calls them.  The benchmark imports both names and reads
its `parallel.map_ordered_us.c24` metric through map_ordered, so they stay
until the benchmark refresh (ROADMAP item 1) deletes this module.
"""


def worker_count():
    """Always 1: bqcontrol runs serially."""
    return 1


def map_ordered(fn, items):
    """[fn(x) for x in items], in input order."""
    return [fn(x) for x in items]
