"""The stream tag of test data.

Tests draw random inputs from ``heattrack.rng.stream(seed, PURPOSE_TEST,
index)``, a purpose that no command draws from, so test data never
replays a stream of a seeded run.
"""

PURPOSE_TEST = 99
