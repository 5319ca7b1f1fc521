"""Fixture stand-in for the process-pool map."""


def parallel_map(fn, items, workers=None, chunk_size=None):
    return [fn(item) for item in items]


def parallel_map_arrays(fn, items, specs, workers=None, chunk_size=None,
                        batched=False):
    return {name: [fn(item)[name] for item in items] for name in specs}
