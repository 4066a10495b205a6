"""Fixture: processes spawned only to be joined on the spot."""


class LayeredModel:
    def __init__(self, env, below):
        self.env = env
        self.below = below

    def read(self, size):
        data = yield self.env.process(self.below.read(size))
        return data

    def write(self, env, data):
        yield env.process(
            self.below.write(data)
        )

    def kept_on_purpose(self, size):
        # ddslint: disable=DDS305 -- the hop decides a same-instant tie
        yield self.env.process(self.below.read(size))

    def fork_then_join_is_fine(self, sizes):
        reads = [self.env.process(self.below.read(s)) for s in sizes]
        return (yield self.env.all_of(reads))

    def joining_a_handle_is_fine(self, handle):
        yield self.env.process(handle)

    def inlined(self, size):
        return (yield from self.below.read(size))

    def not_the_engine(self, size):
        yield self.pool.process(self.below.read(size))
