"""Summary statistics and check accounting for the benchmark.

Kept free of I/O so test_stats.py can pin every rule down.
"""

import statistics


def median(values):
    """The median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(values, beyond=10):
    """The highest nearest-rank percentile with at least `beyond`
    samples above it, as (percent, value); None when there are too few
    samples for any percentile to have that many beyond it."""
    ordered = sorted(values)
    rank = len(ordered) - beyond
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles' default method)."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


class Tally:
    """Checks attempted and failed, and why the first few failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok, what):
        self.add(1, 0 if ok else 1, [] if ok else [what])

    def add(self, attempted, failed, failures=()):
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError(
                f"bad check counts: {failed} failed of {attempted}")
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(failures)

    def failed_frac(self):
        if self.attempted == 0:
            raise ValueError("no checks were attempted")
        return self.failed / self.attempted
